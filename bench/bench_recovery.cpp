//===- bench_recovery.cpp - Cost of the fault-tolerance machinery ---------===//
//
// Measures what the robustness features added to the specialization
// runtime cost on the paper's headline workload (Figure 2 matmul):
//
//   * guard overhead — generator prologues and loop heads compare $cp
//     against the code-space limit; reported as the cycle overhead of
//     guards-on vs guards-off for the generation phase and end to end
//     (target: < 2%);
//   * recovery latency — cycles to resetCodeSpace() and re-specialize
//     after the segment fills, i.e. the price of one transparent
//     reset-and-retry.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "workloads/Inputs.h"
#include "workloads/MlPrograms.h"

using namespace fab;
using namespace fab::bench;
using namespace fab::workloads;

namespace {

struct Phases {
  uint64_t Generation = 0; ///< cycles in the dotloop generator
  uint64_t EndToEnd = 0;   ///< cycles for the full matmul call
};

Phases measure(const Compilation &C, uint32_t N) {
  Machine M(C.Unit);
  Rng R(1234);
  std::vector<int32_t> A = randomMatrixFlat(N, 0.0, R);
  std::vector<int32_t> B = randomMatrixFlat(N, 0.0, R);
  std::vector<int32_t> Bt = transposeFlat(B, N);
  uint32_t Ar = buildIntRows(M, A, N);
  uint32_t Btr = buildIntRows(M, Bt, N);
  uint32_t Cr = buildZeroIntRows(M, N);

  Phases P;
  // Generation phase alone: run the row generator on every row of A.
  {
    VmStats Before = M.vm().stats();
    for (uint32_t I = 0; I < N; ++I) {
      uint32_t Row = M.vm().load32(Ar + 4 * (I + 1));
      ExecResult R2 = M.vm().call(C.Unit.genAddr("dotloop"), {Row, 0, N});
      if (!R2.ok()) {
        std::fprintf(stderr, "generator failed: %s\n", R2.describe().c_str());
        std::exit(1);
      }
    }
    P.Generation = (M.vm().stats() - Before).Cycles;
  }
  // End to end on a fresh machine (so generation is not pre-memoized).
  {
    Machine M2(C.Unit);
    uint32_t Ar2 = buildIntRows(M2, A, N);
    uint32_t Btr2 = buildIntRows(M2, Bt, N);
    uint32_t Cr2 = buildZeroIntRows(M2, N);
    P.EndToEnd = measureCycles(
        M2, [&] { M2.invokeOrDie<int32_t>("matmul", {Ar2, Btr2, Cr2}); });
    (void)Btr;
    (void)Cr;
  }
  return P;
}

double overheadPct(uint64_t With, uint64_t Without) {
  return Without ? (static_cast<double>(With) - static_cast<double>(Without)) *
                       100.0 / static_cast<double>(Without)
                 : 0.0;
}

} // namespace

int main() {
  std::printf("Fault-tolerance cost on the Figure 2 matmul workload\n");

  FabiusOptions Guarded;
  Guarded.Backend = deferredOptionsFor(MatmulSrc);
  FabiusOptions Unguarded = Guarded;
  Unguarded.Backend.EmitCodeSpaceGuards = false;

  Compilation CG = compileOrDie(MatmulSrc, Guarded);
  Compilation CU = compileOrDie(MatmulSrc, Unguarded);

  std::printf("\n%6s  %22s  %22s  %10s  %10s\n", "n", "generation (cycles)",
              "end-to-end (cycles)", "gen ovh%", "e2e ovh%");
  for (uint32_t N : {40u, 80u, 120u, 160u, 200u}) {
    Phases G = measure(CG, N);
    Phases U = measure(CU, N);
    std::printf("%6u  %10llu/%-11llu  %10llu/%-11llu  %9.3f%%  %9.3f%%\n", N,
                static_cast<unsigned long long>(G.Generation),
                static_cast<unsigned long long>(U.Generation),
                static_cast<unsigned long long>(G.EndToEnd),
                static_cast<unsigned long long>(U.EndToEnd),
                overheadPct(G.Generation, U.Generation),
                overheadPct(G.EndToEnd, U.EndToEnd));
  }
  {
    Phases G = measure(CG, 200);
    Phases U = measure(CU, 200);
    double E2e = overheadPct(G.EndToEnd, U.EndToEnd);
    std::printf("\nGuard overhead at n=200: %.3f%% end to end (target < 2%%)\n",
                E2e);
    reportMetric("guard_overhead_n200_pct", E2e);
  }

  // Recovery latency: fill the (margin-shrunk) segment, then pay one
  // reset + regeneration. The reset itself is a host-side memo wipe; the
  // regeneration is an ordinary generator run.
  {
    FabiusOptions Opts = Guarded;
    Opts.Backend.CodeSpaceGuardMargin = layout::DynCodeBytes - 0x40000;
    Compilation C = compileOrDie(MatmulSrc, Opts);
    Machine M(C.Unit);
    const uint32_t N = 200;
    Rng R(99);
    std::vector<int32_t> A = randomMatrixFlat(N, 0.0, R);
    uint32_t Ar = buildIntRows(M, A, N);
    VmStats Before = M.vm().stats();
    uint64_t ResetsBefore = M.telemetry().Recovery.FaultResets;
    uint32_t Rows = 0;
    // Specialize rows until at least one transparent reset has happened.
    while (M.telemetry().Recovery.FaultResets == ResetsBefore && Rows < N) {
      uint32_t Row = M.vm().load32(Ar + 4 * (Rows + 1));
      M.specializeOrDie("dotloop", {Row, 0, N});
      ++Rows;
    }
    uint64_t Cycles = (M.vm().stats() - Before).Cycles;
    std::printf("\nRecovery drill: %u row specializations against a 256 KB "
                "segment\n", Rows);
    std::printf("  transparent resets: %llu, total cycles: %llu\n",
                static_cast<unsigned long long>(M.telemetry().Recovery.FaultResets -
                                                ResetsBefore),
                static_cast<unsigned long long>(Cycles));
    // Latency of the single recovered retry: re-specializing one row.
    VmStats B2 = M.vm().stats();
    std::vector<int32_t> Fresh(N, 3);
    Machine M2(C.Unit); // pristine: one row costs this much cold
    uint32_t Fr = M2.heap().vector(Fresh);
    M2.specializeOrDie("dotloop", {Fr, 0, N});
    (void)B2;
    std::printf("  one-row regeneration (the retry cost): %llu cycles\n",
                static_cast<unsigned long long>(M2.vm().stats().Cycles));
    reportMetric("one_row_regeneration_cycles",
                 static_cast<double>(M2.vm().stats().Cycles), "cycles");
  }
  writeBenchJson("recovery");
  return 0;
}
