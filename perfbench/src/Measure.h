//===- Measure.h - Exact-sample statistics and in-memory spans --*- C++ -*-===//
//
// Part of the FABIUS benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own measurement kit. Percentiles come from exact
/// client-side samples (never from the telemetry LatencyStats log2
/// buckets), by nearest rank, and a percentile is only reportable when at
/// least MinBeyond samples lie above it. Spans are recorded in memory by
/// the benchmark around each call into a layer and written out when the
/// run ends; a span's self time is its duration minus the part of it its
/// child spans cover.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Samples a reported percentile must have above it.
constexpr size_t MinBeyond = 10;

/// 1-based nearest rank of quantile \p Q in \p N samples: ceil(Q * N),
/// clamped to [1, N].
size_t nearestRank(size_t N, double Q);

/// Samples strictly above the nearest-rank position.
inline size_t samplesBeyond(size_t N, double Q) {
  return N ? N - nearestRank(N, Q) : 0;
}

/// A percentile of exact samples with the count it was taken from.
struct Percentile {
  double Value = 0;
  size_t N = 0;
  bool Enough = false; ///< at least MinBeyond samples above the rank
};

/// Nearest-rank percentile of \p V (copied and sorted).
Percentile percentile(std::vector<double> V, double Q);

/// Milliseconds of CPU time the hypervisor has stolen from this machine so
/// far, summed over its CPUs (the steal column of /proc/stat); 0 where the
/// kernel does not report it.
double stolenMs();

double median(std::vector<double> V);
/// Geometric mean of positive values (0 when empty).
double geomean(const std::vector<double> &V);

/// One closed interval of work at a layer boundary. Spans of one request
/// share Req; Parent is the enclosing span's Id (0 = root).
struct Span {
  uint32_t Id = 0;
  uint32_t Parent = 0;
  uint64_t Req = 0;
  const char *Name = "";
  uint64_t BeginNs = 0;
  uint64_t EndNs = 0;
};

/// In-memory span recorder. Disabled, every call is a cheap no-op and
/// begin() returns 0. Single-threaded: spans whose ends are observed on
/// other threads are stamped there and added afterwards with add().
class Tracer {
public:
  explicit Tracer(bool On) : Enabled(On) {}

  bool on() const { return Enabled; }
  uint32_t begin(const char *Name, uint32_t Parent = 0, uint64_t Req = 0);
  void end(uint32_t Id);
  /// Records a span timed by the caller; returns its id.
  uint32_t add(const char *Name, uint32_t Parent, uint64_t Req,
               uint64_t BeginNs, uint64_t EndNs);
  const std::vector<Span> &spans() const { return All; }

  /// Writes every span as JSON lines; false when the file cannot be
  /// written.
  bool write(const std::string &Path) const;

private:
  bool Enabled;
  std::vector<Span> All;
};

/// RAII span around one layer call.
class Scope {
public:
  Scope(Tracer &T, const char *Name, uint32_t Parent = 0, uint64_t Req = 0)
      : T(T), Id(T.begin(Name, Parent, Req)) {}
  ~Scope() { T.end(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  uint32_t id() const { return Id; }

private:
  Tracer &T;
  uint32_t Id;
};

/// Per-name totals: spans recorded, summed duration, summed self time
/// (duration minus the union of the child spans clipped to the parent).
struct SelfTime {
  std::string Name;
  uint64_t Count = 0;
  double TotalUs = 0;
  double SelfUs = 0;
};

std::vector<SelfTime> selfTimes(const std::vector<Span> &Spans);

/// Layer peeling across replays of one request stream through nested
/// entry points. \p Layers lists, innermost first, the root span names
/// (Parent == 0) that make up each layer; spans of one request share Req.
/// A layer's self time for a request is its summed duration minus the
/// next inner layer's; requests missing any layer are skipped.
struct PeelRow {
  std::string Layer; ///< the layer's first span name
  uint64_t Requests = 0;
  double MeanTotalUs = 0;
  double MeanSelfUs = 0;
};

std::vector<PeelRow>
peel(const std::vector<Span> &Spans,
     const std::vector<std::vector<std::string>> &Layers);

} // namespace pb

#endif // PERFBENCH_MEASURE_H
