//===- bench_fig5a_conjgrad.cpp - Figure 5(a): conjugate gradient ---------===//
//
// Reproduces Figure 5(a): iterative solution of a sparse (tridiagonal,
// dense-represented) linear system by conjugate gradient, with and
// without run-time code generation. The matrix never varies across
// iterations, so the staged row.vector product pays off; the paper
// reports a 2.4x speedup at n = 200.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "workloads/Inputs.h"
#include "workloads/MlPrograms.h"

using namespace fab;
using namespace fab::bench;
using namespace fab::workloads;

namespace {

uint64_t cgCycles(const Compilation &C, uint32_t N, uint32_t Iters) {
  Rng R(50 + N);
  std::vector<std::vector<float>> A;
  std::vector<float> B;
  tridiagonalSystem(N, R, A, B);
  Machine M(C.Unit);
  std::vector<std::vector<int32_t>> IdxRows;
  std::vector<std::vector<float>> ValRows;
  sparseFromDense(A, IdxRows, ValRows);
  uint32_t Ai = buildIntRowsV(M, IdxRows);
  uint32_t Av = buildRealRows(M, ValRows);
  uint32_t Bv = M.heap().vectorF(B);
  std::vector<float> Zero(N, 0.0f);
  uint32_t X = M.heap().vectorF(Zero), Rv = M.heap().vectorF(Zero);
  uint32_t P = M.heap().vectorF(Zero), Ap = M.heap().vectorF(Zero);
  return measureCycles(M, [&] {
    M.invokeOrDie<float>("cg", {Ai, Av, Bv, X, Rv, P, Ap, Iters});
  });
}

} // namespace

int main() {
  const uint32_t Iters = 50;
  std::printf("Figure 5(a): conjugate gradient on a tridiagonal system "
              "(%u iterations)\n", Iters);

  Compilation Plain = compileOrDie(CgSrc, FabiusOptions::plain());
  FabiusOptions DefOpts;
  DefOpts.Backend = deferredOptionsFor(CgSrc);
  Compilation Def = compileOrDie(CgSrc, DefOpts);

  Series NoRtcg{"Without RTCG", {}};
  Series Rtcg{"With RTCG", {}};
  for (uint32_t N : {20u, 40u, 80u, 120u, 160u, 200u}) {
    NoRtcg.add(N, cgCycles(Plain, N, Iters));
    Rtcg.add(N, cgCycles(Def, N, Iters));
  }
  printFigure("Figure 5(a): conjugate gradient", "n", {NoRtcg, Rtcg});

  size_t Last = Rtcg.Points.size() - 1;
  std::printf("\nSpeedup at n=200: %.2fx (paper 2.4x)\n",
              ratio(NoRtcg.Points[Last].second, Rtcg.Points[Last].second));
  std::printf("Speedup at n=20:  %.2fx (paper: superior at all sizes)\n",
              ratio(NoRtcg.Points[0].second, Rtcg.Points[0].second));
  reportMetric("speedup_n200",
               ratio(NoRtcg.Points[Last].second, Rtcg.Points[Last].second));
  writeBenchJson("fig5a_conjgrad");
  return 0;
}
