//===- BenchCommon.h - Shared benchmark harness helpers ---------*- C++ -*-===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table printing and measurement helpers shared by the per-figure
/// benchmark binaries. All results are *simulated* cycles on the FAB-32
/// machine; following the paper's DECstation 5000/200 we also render
/// cycles as milliseconds at 25 MHz so the series are directly comparable
/// with the figures.
///
//===----------------------------------------------------------------------===//

#ifndef FAB_BENCH_BENCHCOMMON_H
#define FAB_BENCH_BENCHCOMMON_H

#include "core/Fabius.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace fab {
namespace bench {

constexpr double CyclesPerMs = 25000.0; // 25 MHz, as the paper's machine

/// One plotted curve: (x, cycles) points.
struct Series {
  std::string Name;
  std::vector<std::pair<double, uint64_t>> Points;

  void add(double X, uint64_t Cycles) { Points.push_back({X, Cycles}); }
};

/// Machine-readable record of one benchmark run: every figure printed via
/// printFigure() plus any headline metrics registered with
/// reportMetric(). writeBenchJson() serializes it to
/// `BENCH_<name>.json` so the perf trajectory is diffable across PRs
/// (the human-readable tables remain the primary output).
struct BenchReport {
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  struct Figure {
    std::string Title;
    std::string XLabel;
    std::vector<Series> AllSeries;
  };
  std::vector<Metric> Metrics;
  std::vector<Figure> Figures;

  static BenchReport &get() {
    static BenchReport R;
    return R;
  }
};

/// Registers a headline number (a speedup ratio, a throughput, a count)
/// in the run report under \p Name.
inline void reportMetric(const std::string &Name, double Value,
                         const std::string &Unit = "") {
  BenchReport::get().Metrics.push_back({Name, Value, Unit});
}

namespace detail {
inline void jsonEscaped(std::FILE *F, const std::string &S) {
  for (char C : S) {
    if (C == '"' || C == '\\')
      std::fprintf(F, "\\%c", C);
    else if (static_cast<unsigned char>(C) < 0x20)
      std::fprintf(F, "\\u%04x", C);
    else
      std::fputc(C, F);
  }
}
} // namespace detail

/// Writes the accumulated report as `BENCH_<benchName>.json` into the
/// directory named by FAB_BENCH_JSON (default: the working directory).
/// Cycle values are emitted raw; milliseconds are derivable via
/// CyclesPerMs.
inline void writeBenchJson(const std::string &BenchName) {
  const char *Dir = std::getenv("FAB_BENCH_JSON");
  std::string Path =
      (Dir ? std::string(Dir) + "/" : std::string()) + "BENCH_" + BenchName +
      ".json";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "warning: cannot write %s\n", Path.c_str());
    return;
  }
  const BenchReport &R = BenchReport::get();
  std::fprintf(F, "{\n  \"bench\": \"");
  detail::jsonEscaped(F, BenchName);
  std::fprintf(F, "\",\n  \"cycles_per_ms\": %g,\n  \"metrics\": {",
               CyclesPerMs);
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    std::fprintf(F, "%s\n    \"", I ? "," : "");
    detail::jsonEscaped(F, R.Metrics[I].Name);
    std::fprintf(F, "\": %.6g", R.Metrics[I].Value);
  }
  std::fprintf(F, "%s},\n  \"figures\": [", R.Metrics.empty() ? "" : "\n  ");
  for (size_t FI = 0; FI < R.Figures.size(); ++FI) {
    const BenchReport::Figure &Fig = R.Figures[FI];
    std::fprintf(F, "%s\n    {\"title\": \"", FI ? "," : "");
    detail::jsonEscaped(F, Fig.Title);
    std::fprintf(F, "\", \"x_label\": \"");
    detail::jsonEscaped(F, Fig.XLabel);
    std::fprintf(F, "\", \"series\": [");
    for (size_t SI = 0; SI < Fig.AllSeries.size(); ++SI) {
      const Series &S = Fig.AllSeries[SI];
      std::fprintf(F, "%s\n      {\"name\": \"", SI ? "," : "");
      detail::jsonEscaped(F, S.Name);
      std::fprintf(F, "\", \"points\": [");
      for (size_t PI = 0; PI < S.Points.size(); ++PI)
        std::fprintf(F, "%s[%g, %llu]", PI ? ", " : "", S.Points[PI].first,
                     static_cast<unsigned long long>(S.Points[PI].second));
      std::fprintf(F, "]}");
    }
    std::fprintf(F, "\n    ]}");
  }
  std::fprintf(F, "%s]\n}\n", R.Figures.empty() ? "" : "\n  ");
  std::fclose(F);
  std::printf("(report written to %s)\n", Path.c_str());
}

/// Prints a paper-style figure: header, one row per x value, one column
/// per series, in milliseconds at 25 MHz. When the FAB_BENCH_CSV
/// environment variable names a directory, the series are also written
/// there as `<title>.csv` for plotting.
inline void printFigure(const std::string &Title, const std::string &XLabel,
                        const std::vector<Series> &AllSeries) {
  BenchReport::get().Figures.push_back({Title, XLabel, AllSeries});
  std::printf("\n== %s ==\n", Title.c_str());
  std::printf("%12s", XLabel.c_str());
  for (const Series &S : AllSeries)
    std::printf("  %20s", S.Name.c_str());
  std::printf("   (ms at 25 MHz)\n");
  size_t Rows = AllSeries.empty() ? 0 : AllSeries[0].Points.size();
  for (size_t R = 0; R < Rows; ++R) {
    std::printf("%12.0f", AllSeries[0].Points[R].first);
    for (const Series &S : AllSeries)
      std::printf("  %20.3f",
                  static_cast<double>(S.Points[R].second) / CyclesPerMs);
    std::printf("\n");
  }

  if (const char *Dir = std::getenv("FAB_BENCH_CSV")) {
    std::string Name;
    for (char C : Title)
      Name += std::isalnum(static_cast<unsigned char>(C)) ? C : '_';
    std::string Path = std::string(Dir) + "/" + Name + ".csv";
    if (std::FILE *F = std::fopen(Path.c_str(), "w")) {
      std::fprintf(F, "%s", XLabel.c_str());
      for (const Series &S : AllSeries)
        std::fprintf(F, ",%s", S.Name.c_str());
      std::fprintf(F, "\n");
      for (size_t R = 0; R < Rows; ++R) {
        std::fprintf(F, "%g", AllSeries[0].Points[R].first);
        for (const Series &S : AllSeries)
          std::fprintf(F, ",%.6f",
                       static_cast<double>(S.Points[R].second) / CyclesPerMs);
        std::fprintf(F, "\n");
      }
      std::fclose(F);
      std::printf("(csv written to %s)\n", Path.c_str());
    }
  }
}

/// Ratio helper for speedup lines.
inline double ratio(uint64_t A, uint64_t B) {
  return B ? static_cast<double>(A) / static_cast<double>(B) : 0.0;
}

/// Measures the simulated cycles consumed by \p Fn on machine \p M.
template <typename Callable>
uint64_t measureCycles(Machine &M, Callable &&Fn) {
  VmStats Before = M.vm().stats();
  Fn();
  return (M.vm().stats() - Before).Cycles;
}

} // namespace bench
} // namespace fab

#endif // FAB_BENCH_BENCHCOMMON_H
