//===- bench_pseudoknot.cpp - Section 4.3: pseudoknot-like search ---------===//
//
// Reproduces the paper's pseudoknot observation: a constraint-propagation
// search where most placement levels need no constraint check; removing
// the dispatch by specialization yields only a small (~5%) improvement
// because the removable overhead is small.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "workloads/Inputs.h"
#include "workloads/MlPrograms.h"

using namespace fab;
using namespace fab::bench;
using namespace fab::workloads;

int main() {
  const uint32_t Levels = 40;
  const size_t Trials = 20000;
  std::printf("Pseudoknot-like constraint search: %u levels, %zu candidate "
              "placements, 10%% of levels carry a constraint check\n",
              Levels, Trials);

  Rng R(271828);
  std::vector<int32_t> Chk = constraintTable(Levels, 0.1, R);
  std::vector<std::vector<int32_t>> Vals;
  for (size_t T = 0; T < Trials; ++T) {
    std::vector<int32_t> V(Levels);
    for (auto &X : V)
      X = static_cast<int32_t>(R.below(16));
    Vals.push_back(std::move(V));
  }

  Compilation Plain = compileOrDie(PseudoknotSrc, FabiusOptions::plain());
  FabiusOptions DefOpts;
  DefOpts.Backend = deferredOptionsFor(PseudoknotSrc);
  Compilation Def = compileOrDie(PseudoknotSrc, DefOpts);

  auto run = [&](const Compilation &C, int64_t &Accepted) {
    Machine M(C.Unit);
    uint32_t ChkV = M.heap().vector(Chk);
    std::vector<uint32_t> ValVs;
    for (const auto &V : Vals)
      ValVs.push_back(M.heap().vector(V));
    return measureCycles(M, [&] {
      for (uint32_t VV : ValVs)
        Accepted += M.invokeOrDie<int32_t>("pkrun", {ChkV, VV, Levels});
    });
  };

  int64_t AccP = 0, AccD = 0;
  uint64_t CycP = run(Plain, AccP);
  uint64_t CycD = run(Def, AccD);
  if (AccP != AccD) {
    std::printf("MISMATCH: %lld vs %lld accepted\n",
                static_cast<long long>(AccP), static_cast<long long>(AccD));
    return 1;
  }
  std::printf("\nAccepted placements: %lld of %zu\n",
              static_cast<long long>(AccP), Trials);
  std::printf("Without RTCG: %.3f ms   With RTCG: %.3f ms\n",
              static_cast<double>(CycP) / CyclesPerMs,
              static_cast<double>(CycD) / CyclesPerMs);
  std::printf("Improvement: %.1f%% (paper ~5%%: small, because most levels "
              "need no check)\n",
              100.0 * (1.0 - ratio(CycD, CycP)));
  reportMetric("improvement_pct", 100.0 * (1.0 - ratio(CycD, CycP)));
  writeBenchJson("pseudoknot");
  return 0;
}
