//===- Telemetry.h - Unified stats snapshot + exporters ---------*- C++ -*-===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TelemetrySnapshot is the one-call observability surface (see
/// docs/TELEMETRY.md): every counter struct the layers publish, the
/// machine-level gauges (code epoch, live specializations, code-space
/// bytes), per-entry-point profiles, and — at the service level — the
/// pool counters. Machine::telemetry() fills the machine-level fields;
/// SpecServer::telemetry() sums worker snapshots with operator+=.
///
/// Exporters: writeText() emits one line per metric (scrape-friendly
/// `prefix.path value`); writeChromeTrace() serializes TraceRing events
/// as Chrome trace_event JSON loadable in chrome://tracing or Perfetto.
///
//===----------------------------------------------------------------------===//

#ifndef FAB_TELEMETRY_TELEMETRY_H
#define FAB_TELEMETRY_TELEMETRY_H

#include "telemetry/Stats.h"
#include "telemetry/TraceRing.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace fab {

/// Per-entry-point specialization profile, accumulated by the Machine
/// facade (specialize() and the by-name/at-address call paths).
struct EntryPointProfile {
  std::string Fn;
  uint64_t Specializations = 0; ///< successful specialize() runs
  uint64_t MemoHits = 0;        ///< ... answered by the in-VM memo table
  uint64_t DynWords = 0;        ///< dynamic words emitted on its behalf
  uint64_t GenInstrs = 0;       ///< guest instructions its generator ran
  uint64_t Calls = 0;           ///< calls (by name or at its addresses)

  EntryPointProfile &operator+=(const EntryPointProfile &R) {
    Specializations += R.Specializations;
    MemoHits += R.MemoHits;
    DynWords += R.DynWords;
    GenInstrs += R.GenInstrs;
    Calls += R.Calls;
    return *this;
  }
};

/// One worker's load/robustness row, preserved through aggregation so
/// operators can spot a single hot or failing worker that a pool-wide
/// sum would hide (fabserve prints one line per row).
struct WorkerLoadRow {
  unsigned Worker = 0;
  uint64_t QueueHighWater = 0;
  uint64_t Shed = 0;
  uint64_t DeadlineMisses = 0;
  uint64_t Retried = 0;
  uint64_t BreakerOpens = 0;
  uint64_t Served = 0;
  uint64_t Errors = 0;
};

/// One reactor shard's row in a sharded wire front-end (docs/WIRE.md
/// "Sharding"): the shard's own connection counters and event-loop
/// gauges, preserved through aggregation — like WorkerLoadRow — so a
/// single hot or starved shard is visible where the pool-wide sum
/// would hide it. WireServer::telemetry() guarantees the aggregate
/// Net/Reactor blocks are exactly the sum over these rows.
struct ShardLoadRow {
  unsigned Shard = 0;
  NetStats Net;
  ReactorStats Reactor;
};

/// The unified stats snapshot. Machine-level fields are filled for a
/// bare Machine; the service-level block stays zero outside a pool.
/// operator+= aggregates across workers: counters add, high-water marks
/// take the max, and entry profiles merge by function name.
struct TelemetrySnapshot {
  // -- Machine level ---------------------------------------------------------
  VmStats Vm;
  SpecializationStats Memo;
  RecoveryStats Recovery;
  DecodeCacheStats DecodeCache;
  uint64_t CodeEpoch = 0;          ///< max across aggregated machines
  uint64_t SpecializationsLive = 0;
  uint64_t CodeSpaceUsed = 0;      ///< bytes, summed across machines
  uint64_t TraceRecorded = 0;      ///< TraceRing events accepted
  uint64_t TraceDropped = 0;       ///< ... overwritten before being read

  // -- Service level (zero for a bare Machine) -------------------------------
  unsigned Workers = 0;
  uint64_t Submitted = 0;
  uint64_t Served = 0;
  uint64_t Errors = 0;
  uint64_t Rejected = 0;
  /// Serve-path cache misses the in-VM memo answered without emitting
  /// code (the generator's prologue found the interned early data).
  uint64_t Coalesced = 0;
  uint64_t QueueHighWater = 0; ///< max across workers
  uint64_t BusyCyclesTotal = 0;
  uint64_t BusyCyclesMax = 0;  ///< pool makespan in simulated cycles
  uint64_t HeapRecycles = 0;
  SpecCacheStats Cache;
  OverloadStats Overload;     ///< shedding / deadline / retry / breaker
  LatencyStats Latency;       ///< wall-clock submit-to-resolve histogram
  unsigned BreakersOpen = 0;  ///< gauge: entry-point breakers open now
  /// One row per aggregated worker (operator+= concatenates).
  std::vector<WorkerLoadRow> WorkerLoads;

  // -- Wire front-end (zero unless a WireServer fills it in) -----------------
  /// Totals across the listener and every connection, live and closed.
  /// WireServer::telemetry() guarantees these are exactly the sum of the
  /// per-connection counters it also exposes.
  NetStats Net;
  /// Event-loop gauges summed across every reactor shard carrying
  /// those connections.
  ReactorStats Reactor;
  /// One row per reactor shard (operator+= concatenates). Aggregate
  /// Net/Reactor above are exactly the sum of these rows.
  std::vector<ShardLoadRow> ShardLoads;

  // -- Per entry point -------------------------------------------------------
  std::vector<EntryPointProfile> Entries; ///< sorted by Fn

  /// The paper's headline ratio: generator instructions executed per
  /// instruction generated (0 when nothing was emitted).
  double generatorEfficiency() const {
    return Memo.GenDynWords ? static_cast<double>(Memo.GenExecuted) /
                                  static_cast<double>(Memo.GenDynWords)
                            : 0.0;
  }

  TelemetrySnapshot &operator+=(const TelemetrySnapshot &R);

  /// One line per metric: `<prefix>.<path> <value>`.
  void writeText(std::ostream &OS, const std::string &Prefix = "fab") const;
  std::string text(const std::string &Prefix = "fab") const;

  /// One-line human summary for live reporting (fabserve
  /// --report-interval).
  std::string summaryLine() const;
};

namespace telemetry {

/// One exported event track: events from one ring, labeled and assigned
/// a tid (workers map to tids so per-worker activity lands on its own
/// Chrome trace row).
struct TraceTrack {
  int Tid = 0;
  std::string Label;
  std::vector<TraceEvent> Events;
};

/// Chrome trace_event JSON ({"traceEvents": [...]}): SpecializeBegin/End
/// become duration begin/end pairs, everything else instant events, with
/// SimInstr/Epoch/args attached. Timestamps are the events' wall-clock
/// stamps in microseconds, so tracks from concurrent workers align.
void writeChromeTrace(std::ostream &OS, const std::vector<TraceTrack> &Tracks);

} // namespace telemetry
} // namespace fab

#endif // FAB_TELEMETRY_TELEMETRY_H
