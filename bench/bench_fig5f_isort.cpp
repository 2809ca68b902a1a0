//===- bench_fig5f_isort.cpp - Figure 5(f): insertion sort ----------------===//
//
// Reproduces Figure 5(f), the paper's negative result: insertion sort of
// reverse-sorted words with the lexical comparison staged on the inserted
// key does NOT improve with RTCG — most comparisons examine only a few
// characters, so generating code for the whole key is wasted effort.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "workloads/Inputs.h"
#include "workloads/MlPrograms.h"

#include <algorithm>

using namespace fab;
using namespace fab::bench;
using namespace fab::workloads;

int main() {
  Compilation Plain = compileOrDie(IsortSrc, FabiusOptions::plain());
  FabiusOptions DefOpts;
  DefOpts.Backend = deferredOptionsFor(IsortSrc);
  Compilation Def = compileOrDie(IsortSrc, DefOpts);

  auto sortCycles = [&](const Compilation &C, size_t Count) {
    auto Words = wordList(Count, /*Seed=*/123);
    std::sort(Words.begin(), Words.end(), std::greater<std::string>());
    Machine M(C.Unit);
    uint32_t Arr = buildStringArray(M, Words);
    uint64_t Cyc =
        measureCycles(M, [&] { M.invokeOrDie<int32_t>("sortall", {Arr}); });
    // Verify sortedness.
    auto Sorted = readStringArray(M, Arr);
    if (!std::is_sorted(Sorted.begin(), Sorted.end())) {
      std::printf("SORT FAILED at %zu words\n", Count);
      std::abort();
    }
    return Cyc;
  };

  Series NoRtcg{"Without RTCG", {}};
  Series Rtcg{"With RTCG", {}};
  for (size_t Count : {100u, 250u, 500u, 750u, 1000u}) {
    NoRtcg.add(static_cast<double>(Count), sortCycles(Plain, Count));
    Rtcg.add(static_cast<double>(Count), sortCycles(Def, Count));
    std::printf("  %zu words done\n", Count);
  }
  printFigure("Figure 5(f): insertion sort of reverse-sorted words",
              "words sorted", {NoRtcg, Rtcg});
  std::printf("\nRTCG / no-RTCG at 1000 words: %.2f "
              "(paper: >= 1, RTCG does not pay off)\n",
              ratio(Rtcg.Points.back().second, NoRtcg.Points.back().second));
  reportMetric("rtcg_over_nortcg_1000_words",
               ratio(Rtcg.Points.back().second, NoRtcg.Points.back().second));
  writeBenchJson("fig5f_isort");
  return 0;
}
