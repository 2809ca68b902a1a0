//===- bench_fig2_matmul.cpp - Figure 2: n x n matrix multiply ------------===//
//
// Reproduces Figure 2 of the paper: time to multiply two n x n integer
// matrices (dense and 90%-sparse) for
//   * FABIUS without run-time code generation (plain compilation),
//   * FABIUS with RTCG (dense and sparse inputs),
//   * conventional C (triple loop, flat arrays, no bounds checks),
//   * special-purpose sparse C (indirection vectors).
// Also reports the paper's side numbers: break-even sizes, instructions
// executed per instruction generated, and specialized-code space usage.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "baselines/Baselines.h"
#include "workloads/Inputs.h"
#include "workloads/MlPrograms.h"

using namespace fab;
using namespace fab::bench;
using namespace fab::workloads;

namespace {

struct MatmulInputs {
  std::vector<int32_t> A, B, Bt;
};

MatmulInputs makeInputs(uint32_t N, double ZeroFraction, uint64_t Seed) {
  Rng R(Seed);
  MatmulInputs In;
  In.A = randomMatrixFlat(N, ZeroFraction, R);
  In.B = randomMatrixFlat(N, ZeroFraction, R);
  In.Bt = transposeFlat(In.B, N);
  return In;
}

uint64_t mlMatmulCycles(const Compilation &C, const MatmulInputs &In,
                        uint32_t N, uint64_t *GenInstrs = nullptr,
                        uint64_t *GenWords = nullptr) {
  Machine M(C.Unit);
  uint32_t Ar = buildIntRows(M, In.A, N);
  uint32_t Bt = buildIntRows(M, In.Bt, N);
  uint32_t Cr = buildZeroIntRows(M, N);
  VmStats Before = M.vm().stats();
  M.invokeOrDie<int32_t>("matmul", {Ar, Bt, Cr});
  VmStats D = M.vm().stats() - Before;
  if (GenInstrs)
    *GenInstrs = D.Executed;
  if (GenWords)
    *GenWords = D.DynWordsWritten;
  return D.Cycles;
}

uint64_t convCycles(const MatmulInputs &In, uint32_t N) {
  baselines::BaselineSuite S;
  uint32_t Ar = S.array(In.A), Br = S.array(In.B), Cr = S.zeros(N * N);
  VmStats Before = S.vm().stats();
  S.runConvMatmul(Ar, Br, Cr, N);
  return (S.vm().stats() - Before).Cycles;
}

uint64_t sparseCycles(const MatmulInputs &In, uint32_t N) {
  baselines::BaselineSuite S;
  uint32_t Rows = S.sparseRows(In.A, N);
  uint32_t Br = S.array(In.B), Cr = S.zeros(N * N);
  VmStats Before = S.vm().stats();
  S.runSparseMatmul(Rows, Br, Cr, N);
  return (S.vm().stats() - Before).Cycles;
}

} // namespace

int main() {
  std::printf("Figure 2: time to multiply two n x n matrices "
              "(dense and 90%% sparse)\n");

  Compilation Plain = compileOrDie(MatmulSrc, FabiusOptions::plain());
  FabiusOptions DefOpts;
  DefOpts.Backend = deferredOptionsFor(MatmulSrc);
  Compilation Def = compileOrDie(MatmulSrc, DefOpts);

  Series NoRtcg{"Fabius no-RTCG", {}};
  Series FabDense{"Fabius dense", {}};
  Series FabSparse{"Fabius sparse", {}};
  Series ConvC{"Conventional C", {}};
  Series SpecialDense{"Special C dense", {}};
  Series SpecialSparse{"Special C sparse", {}};

  for (uint32_t N : {20u, 40u, 80u, 120u, 160u, 200u}) {
    MatmulInputs Dense = makeInputs(N, 0.0, 1000 + N);
    MatmulInputs Sparse = makeInputs(N, 0.9, 2000 + N);
    NoRtcg.add(N, mlMatmulCycles(Plain, Dense, N));
    FabDense.add(N, mlMatmulCycles(Def, Dense, N));
    FabSparse.add(N, mlMatmulCycles(Def, Sparse, N));
    ConvC.add(N, convCycles(Dense, N));
    SpecialDense.add(N, sparseCycles(Dense, N));
    SpecialSparse.add(N, sparseCycles(Sparse, N));
    std::printf("  n=%u done\n", N);
  }
  printFigure("Figure 2: n x n matrix multiply", "n",
              {NoRtcg, FabDense, FabSparse, ConvC, SpecialDense,
               SpecialSparse});

  // Headline ratios at n = 200 (paper: RTCG dense ~1.1x conventional C,
  // matches special C; RTCG sparse ~4.5x faster than conventional C,
  // ~1.4x slower than special C; no-RTCG ~2x slower than C).
  size_t Last = ConvC.Points.size() - 1;
  std::printf("\nAt n=200:\n");
  std::printf("  no-RTCG / conventional C      = %.2f (paper ~2)\n",
              ratio(NoRtcg.Points[Last].second, ConvC.Points[Last].second));
  std::printf("  RTCG dense / conventional C   = %.2f (paper ~1.1)\n",
              ratio(FabDense.Points[Last].second, ConvC.Points[Last].second));
  std::printf("  RTCG dense / special C dense  = %.2f (paper ~1.0)\n",
              ratio(FabDense.Points[Last].second,
                    SpecialDense.Points[Last].second));
  std::printf("  conventional C / RTCG sparse  = %.2f (paper ~4.5)\n",
              ratio(ConvC.Points[Last].second, FabSparse.Points[Last].second));
  std::printf("  RTCG sparse / special C sparse= %.2f (paper ~1.4)\n",
              ratio(FabSparse.Points[Last].second,
                    SpecialSparse.Points[Last].second));
  reportMetric("n200_nortcg_over_conv_c",
               ratio(NoRtcg.Points[Last].second, ConvC.Points[Last].second));
  reportMetric("n200_rtcg_dense_over_conv_c",
               ratio(FabDense.Points[Last].second, ConvC.Points[Last].second));
  reportMetric("n200_conv_c_over_rtcg_sparse",
               ratio(ConvC.Points[Last].second, FabSparse.Points[Last].second));

  // Break-even sizes: smallest n where RTCG beats no-RTCG.
  auto breakEven = [&](double ZeroFraction) -> uint32_t {
    for (uint32_t N = 2; N <= 48; N += 2) {
      MatmulInputs In = makeInputs(N, ZeroFraction, 3000 + N);
      if (mlMatmulCycles(Def, In, N) < mlMatmulCycles(Plain, In, N))
        return N;
    }
    return 0;
  };
  std::printf("\nBreak-even vs no-RTCG: dense n=%u (paper 20), "
              "sparse n=%u (paper 2)\n",
              breakEven(0.0), breakEven(0.9));

  // Code generation cost for the dot-product generator (paper: 4.7
  // instructions per generated instruction) and space usage.
  {
    Machine M(Def.Unit);
    MatmulInputs In = makeInputs(200, 0.0, 999);
    uint32_t Ar = buildIntRows(M, In.A, 200);
    uint32_t Row0 = M.vm().load32(Ar + 4);
    VmStats Before = M.vm().stats();
    ExecResult R = M.vm().call(Def.Unit.genAddr("dotloop"), {Row0, 0, 200});
    VmStats D = M.vm().stats() - Before;
    std::printf("\nDot-product generator at n=200: %.2f instructions "
                "executed per instruction generated (paper 4.7)\n",
                ratio(D.Executed, D.DynWordsWritten));
    std::printf("Specialized dot product size: %.2f KB (paper 6.25 KB)\n",
                static_cast<double>(D.DynWordsWritten) * 4 / 1024.0);
    reportMetric("dotprod_instrs_per_generated",
                 ratio(D.Executed, D.DynWordsWritten));
    (void)R;
  }
  writeBenchJson("fig2_matmul");
  return 0;
}
