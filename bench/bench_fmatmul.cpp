//===- bench_fmatmul.cpp - Floating-point matrix multiply -----------------===//
//
// The paper's side note in section 4.1: "Similar improvements were also
// observed for floating-point matrix multiply." Dense and 90%-sparse real
// matrices, with and without RTCG.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "workloads/Inputs.h"
#include "workloads/MlPrograms.h"

using namespace fab;
using namespace fab::bench;
using namespace fab::workloads;

namespace {

uint64_t run(const Compilation &C, uint32_t N, double ZeroFraction,
             uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::vector<float>> A(N, std::vector<float>(N)),
      Bt(N, std::vector<float>(N));
  for (uint32_t I = 0; I < N; ++I)
    for (uint32_t J = 0; J < N; ++J) {
      A[I][J] = R.unitFloat() < ZeroFraction ? 0.0f
                                             : (R.unitFloat() - 0.5f) * 8.0f;
      Bt[I][J] = (R.unitFloat() - 0.5f) * 8.0f;
    }
  Machine M(C.Unit);
  uint32_t Ar = buildRealRows(M, A);
  uint32_t Btr = buildRealRows(M, Bt);
  uint32_t Cr = buildRealRows(
      M, std::vector<std::vector<float>>(N, std::vector<float>(N, 0.0f)));
  return measureCycles(
      M, [&] { M.invokeOrDie<int32_t>("fmatmul", {Ar, Btr, Cr}); });
}

} // namespace

int main() {
  std::printf("Floating-point matrix multiply (section 4.1 side note)\n");
  Compilation Plain = compileOrDie(FMatmulSrc, FabiusOptions::plain());
  Compilation Def = compileOrDie(FMatmulSrc, FabiusOptions::deferred());

  Series NoRtcg{"No-RTCG dense", {}}, Dense{"RTCG dense", {}},
      Sparse{"RTCG sparse", {}};
  for (uint32_t N : {20u, 40u, 80u, 120u}) {
    NoRtcg.add(N, run(Plain, N, 0.0, 11 + N));
    Dense.add(N, run(Def, N, 0.0, 11 + N));
    Sparse.add(N, run(Def, N, 0.9, 22 + N));
  }
  printFigure("Floating-point matmul", "n", {NoRtcg, Dense, Sparse});
  size_t L = Dense.Points.size() - 1;
  std::printf("\nSpeedup at n=120: dense %.2fx, sparse-input %.2fx over "
              "no-RTCG dense\n",
              ratio(NoRtcg.Points[L].second, Dense.Points[L].second),
              ratio(NoRtcg.Points[L].second, Sparse.Points[L].second));
  reportMetric("speedup_n120_dense",
               ratio(NoRtcg.Points[L].second, Dense.Points[L].second));
  reportMetric("speedup_n120_sparse",
               ratio(NoRtcg.Points[L].second, Sparse.Points[L].second));
  writeBenchJson("fmatmul");
  return 0;
}
