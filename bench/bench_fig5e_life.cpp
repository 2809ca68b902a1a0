//===- bench_fig5e_life.cpp - Figure 5(e): Conway's game of life ----------===//
//
// Reproduces Figure 5(e): the game of life over a set of live cells, with
// the membership test specialized per generation. The x-axis is the
// number of Gosper glider guns on the board, as in the paper.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "workloads/Inputs.h"
#include "workloads/MlPrograms.h"

using namespace fab;
using namespace fab::bench;
using namespace fab::workloads;

int main() {
  const int32_t Generations = 10;
  std::printf("Figure 5(e): game of life, %d generations\n", Generations);

  Compilation Plain = compileOrDie(LifeSrc, FabiusOptions::plain());
  FabiusOptions DefOpts;
  DefOpts.Backend = deferredOptionsFor(LifeSrc);
  Compilation Def = compileOrDie(LifeSrc, DefOpts);

  auto lifeCycles = [&](const Compilation &C, unsigned Guns, int32_t &Pop) {
    uint32_t W = 0, H = 0;
    std::vector<int32_t> Cells = gliderGunCells(Guns, W, H);
    VmOptions VOpts;
    VOpts.Fuel = 50'000'000'000ULL; // 5 guns without RTCG run for billions
    Machine M(C.Unit, VOpts);
    uint32_t S = buildISet(M, Cells);
    return measureCycles(M, [&] {
      Pop = M.invokeOrDie<int32_t>(
          "life", {S, static_cast<uint32_t>(Generations), W * H, W});
    });
  };

  Series NoRtcg{"Without RTCG", {}};
  Series Rtcg{"With RTCG", {}};
  for (unsigned Guns = 1; Guns <= 5; ++Guns) {
    int32_t PopP = 0, PopD = 0;
    NoRtcg.add(Guns, lifeCycles(Plain, Guns, PopP));
    Rtcg.add(Guns, lifeCycles(Def, Guns, PopD));
    if (PopP != PopD) {
      std::printf("MISMATCH at %u guns: %d vs %d\n", Guns, PopP, PopD);
      return 1;
    }
    std::printf("  %u gun(s): final population %d\n", Guns, PopP);
  }
  printFigure("Figure 5(e): game of life", "glider guns", {NoRtcg, Rtcg});
  std::printf("\nSpeedup at 5 guns: %.2fx\n",
              ratio(NoRtcg.Points.back().second, Rtcg.Points.back().second));
  reportMetric("speedup_5_guns",
               ratio(NoRtcg.Points.back().second, Rtcg.Points.back().second));
  writeBenchJson("fig5e_life");
  return 0;
}
