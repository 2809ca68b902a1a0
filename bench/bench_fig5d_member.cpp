//===- bench_fig5d_member.cpp - Figure 5(d): set membership ---------------===//
//
// Reproduces Figure 5(d): cumulative time for n membership tests on a
// fixed set, with and without RTCG.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "workloads/Inputs.h"
#include "workloads/MlPrograms.h"

using namespace fab;
using namespace fab::bench;
using namespace fab::workloads;

int main() {
  const int SetSize = 64;
  const std::vector<size_t> Checkpoints = {20, 40, 80, 120, 160, 200};
  std::vector<int32_t> Elements;
  for (int32_t I = 0; I < SetSize; ++I)
    Elements.push_back(I * 7 + 2);
  Rng R(9);
  std::vector<int32_t> Queries;
  for (size_t I = 0; I < 200; ++I)
    Queries.push_back(R.chance(1, 2) ? Elements[R.below(Elements.size())]
                                     : static_cast<int32_t>(R.below(2000)));

  Compilation Plain = compileOrDie(MemberSrc, FabiusOptions::plain());
  FabiusOptions DefOpts;
  DefOpts.Backend = deferredOptionsFor(MemberSrc);
  Compilation Def = compileOrDie(MemberSrc, DefOpts);

  auto runCumulative = [&](const Compilation &C, int64_t &Sum) {
    Machine M(C.Unit);
    uint32_t S = buildISet(M, Elements);
    std::vector<uint64_t> Cum = {0};
    for (int32_t Q : Queries) {
      uint64_t Cyc = measureCycles(M, [&] {
        Sum += M.invokeOrDie<int32_t>("member", {S, static_cast<uint32_t>(Q)});
      });
      Cum.push_back(Cum.back() + Cyc);
    }
    return Cum;
  };

  int64_t SumP = 0, SumD = 0;
  auto PlainCum = runCumulative(Plain, SumP);
  auto DefCum = runCumulative(Def, SumD);
  if (SumP != SumD) {
    std::printf("MISMATCH\n");
    return 1;
  }

  Series NoRtcg{"Without RTCG", {}};
  Series Rtcg{"With RTCG", {}};
  for (size_t C : Checkpoints) {
    NoRtcg.add(static_cast<double>(C), PlainCum[C]);
    Rtcg.add(static_cast<double>(C), DefCum[C]);
  }
  printFigure("Figure 5(d): set membership (64 elements)",
              "membership tests", {NoRtcg, Rtcg});

  size_t BreakEven = 0;
  for (size_t I = 1; I < PlainCum.size(); ++I)
    if (DefCum[I] < PlainCum[I]) {
      BreakEven = I;
      break;
    }
  std::printf("\nBreak-even: %zu tests\n", BreakEven);
  std::printf("Speedup at 200 tests: %.2fx\n",
              ratio(PlainCum.back(), DefCum.back()));
  reportMetric("break_even_tests", static_cast<double>(BreakEven));
  reportMetric("speedup_200_tests", ratio(PlainCum.back(), DefCum.back()));
  writeBenchJson("fig5d_member");
  return 0;
}
