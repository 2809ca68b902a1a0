//===- bench_fig5c_assoc.cpp - Figure 5(c): association-list lookup -------===//
//
// Reproduces Figure 5(c): cumulative time for n lookups in a fixed
// association list, with and without RTCG. Specialization turns the list
// into an executable data structure (paper Figure 6) requiring no memory
// accesses.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "workloads/Inputs.h"
#include "workloads/MlPrograms.h"

using namespace fab;
using namespace fab::bench;
using namespace fab::workloads;

int main() {
  const int ListLen = 64;
  const std::vector<size_t> Checkpoints = {20, 40, 80, 120, 160, 200};
  std::vector<std::pair<int32_t, int32_t>> Entries;
  for (int32_t I = 0; I < ListLen; ++I)
    Entries.push_back({I * 5 + 3, I * 11});
  // Query mix: cycle through hits at varying depths plus misses.
  Rng R(4);
  std::vector<int32_t> Queries;
  for (size_t I = 0; I < 200; ++I)
    Queries.push_back(R.chance(3, 4)
                          ? Entries[R.below(Entries.size())].first
                          : static_cast<int32_t>(R.below(1000)) + 100000);

  Compilation Plain = compileOrDie(AssocSrc, FabiusOptions::plain());
  FabiusOptions DefOpts;
  DefOpts.Backend = deferredOptionsFor(AssocSrc);
  Compilation Def = compileOrDie(AssocSrc, DefOpts);

  auto runCumulative = [&](const Compilation &C, int64_t &Sum) {
    Machine M(C.Unit);
    uint32_t L = buildAList(M, Entries);
    std::vector<uint64_t> Cum = {0};
    for (int32_t Q : Queries) {
      uint64_t Cyc = measureCycles(M, [&] {
        Sum += M.invokeOrDie<int32_t>("lookup", {L, static_cast<uint32_t>(Q)});
      });
      Cum.push_back(Cum.back() + Cyc);
    }
    return Cum;
  };

  int64_t SumP = 0, SumD = 0;
  auto PlainCum = runCumulative(Plain, SumP);
  auto DefCum = runCumulative(Def, SumD);
  if (SumP != SumD) {
    std::printf("MISMATCH: result sums differ\n");
    return 1;
  }

  Series NoRtcg{"Without RTCG", {}};
  Series Rtcg{"With RTCG", {}};
  for (size_t C : Checkpoints) {
    NoRtcg.add(static_cast<double>(C), PlainCum[C]);
    Rtcg.add(static_cast<double>(C), DefCum[C]);
  }
  printFigure("Figure 5(c): association-list lookup (64 entries)",
              "attempted lookups", {NoRtcg, Rtcg});

  size_t BreakEven = 0;
  for (size_t I = 1; I < PlainCum.size(); ++I)
    if (DefCum[I] < PlainCum[I]) {
      BreakEven = I;
      break;
    }
  std::printf("\nBreak-even: %zu lookups\n", BreakEven);
  std::printf("Speedup at 200 lookups: %.2fx\n",
              ratio(PlainCum.back(), DefCum.back()));
  reportMetric("break_even_lookups", static_cast<double>(BreakEven));
  reportMetric("speedup_200_lookups", ratio(PlainCum.back(), DefCum.back()));
  writeBenchJson("fig5c_assoc");
  return 0;
}
