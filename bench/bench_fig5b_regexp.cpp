//===- bench_fig5b_regexp.cpp - Figure 5(b): regular-expression matching --===//
//
// Reproduces Figure 5(b): cumulative time for n attempted matches of the
// vowels-in-order expression against a word list, with and without RTCG.
// With RTCG the backtracking interpreter specializes into a native-code
// finite-state machine on first use (paper: 3.4x at 200 matches,
// break-even after ~20 matches).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "workloads/Inputs.h"
#include "workloads/MlPrograms.h"

using namespace fab;
using namespace fab::bench;
using namespace fab::workloads;

int main() {
  Nfa N = compileRegex(vowelsInOrderPattern());
  auto Words = wordList(200, /*Seed=*/77, /*VowelOrderedRate=*/0.02);
  const std::vector<size_t> Checkpoints = {20, 40, 80, 120, 160, 200};

  Compilation Plain = compileOrDie(RegexpSrc, FabiusOptions::plain());
  FabiusOptions DefOpts;
  DefOpts.Backend = deferredOptionsFor(RegexpSrc);
  Compilation Def = compileOrDie(RegexpSrc, DefOpts);

  auto runCumulative = [&](const Compilation &C) {
    Machine M(C.Unit);
    uint32_t Prog = M.heap().vector(N.Prog);
    std::vector<uint64_t> Cum = {0};
    unsigned Hits = 0;
    for (const std::string &W : Words) {
      uint32_t S = M.heap().string(W);
      uint64_t Cyc = measureCycles(M, [&] {
        Hits += M.invokeOrDie<int32_t>("matches", {Prog, S});
      });
      Cum.push_back(Cum.back() + Cyc);
    }
    return std::make_pair(Cum, Hits);
  };

  auto [PlainCum, PlainHits] = runCumulative(Plain);
  auto [DefCum, DefHits] = runCumulative(Def);
  if (PlainHits != DefHits) {
    std::printf("MISMATCH: plain %u vs deferred %u matches\n", PlainHits,
                DefHits);
    return 1;
  }

  Series NoRtcg{"Without RTCG", {}};
  Series Rtcg{"With RTCG", {}};
  for (size_t C : Checkpoints) {
    NoRtcg.add(static_cast<double>(C), PlainCum[C]);
    Rtcg.add(static_cast<double>(C), DefCum[C]);
  }
  printFigure("Figure 5(b): regexp matching (vowels in order)",
              "attempted matches", {NoRtcg, Rtcg});

  size_t BreakEven = 0;
  for (size_t I = 1; I < PlainCum.size(); ++I)
    if (DefCum[I] < PlainCum[I]) {
      BreakEven = I;
      break;
    }
  std::printf("\nWords matching: %u of %zu\n", PlainHits, Words.size());
  std::printf("Break-even: %zu matches (paper ~20)\n", BreakEven);
  std::printf("Speedup at 200 matches: %.2fx (paper 3.4x)\n",
              ratio(PlainCum.back(), DefCum.back()));
  reportMetric("break_even_matches", static_cast<double>(BreakEven));
  reportMetric("speedup_200_matches", ratio(PlainCum.back(), DefCum.back()));
  writeBenchJson("fig5b_regexp");
  return 0;
}
