//===- bench_ablation.cpp - Ablations of the design choices ---------------===//
//
// Quantifies the design decisions DESIGN.md calls out, on the dot-product
// generator and the packet filter:
//   * run-time instruction selection (paper section 3.3) on/off,
//   * coalesced code-pointer updates (section 3.2) on/off,
//   * I-cache line alignment of specializations (section 3.4) on/off,
//   * memoization (section 3.5) on/off (generation cost only; cyclic
//     programs require it for termination).
// Reported: generator cost (instructions per generated instruction),
// generated-code size, and generated-code execution cycles.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "bpf/Bpf.h"
#include "workloads/Inputs.h"
#include "workloads/MlPrograms.h"

using namespace fab;
using namespace fab::bench;
using namespace fab::workloads;

namespace {

struct Config {
  const char *Name;
  void (*Apply)(BackendOptions &);
};

const Config Configs[] = {
    {"default", [](BackendOptions &) {}},
    {"-rtis",
     [](BackendOptions &O) { O.RuntimeInstructionSelection = false; }},
    {"-strength-red",
     [](BackendOptions &O) { O.RuntimeStrengthReduction = false; }},
    {"-coalesce-cp", [](BackendOptions &O) { O.CoalesceCpUpdates = false; }},
    {"-align", [](BackendOptions &O) { O.AlignSpecializations = false; }},
    {"-memo", [](BackendOptions &O) { O.Memoization = false; }},
};

void dotprodAblation() {
  std::printf("Dot-product generator (n = 64):\n");
  std::printf("%-14s  %13s  %10s  %12s\n", "config", "instrs/instr",
              "code words", "exec cycles");
  Rng R(5);
  std::vector<int32_t> Row(64);
  for (auto &V : Row)
    V = static_cast<int32_t>(R.below(65536)) - 32768;
  std::vector<int32_t> Col(64, 1);
  for (const Config &C : Configs) {
    FabiusOptions Opts;
    Opts.Backend = deferredOptionsFor(MatmulSrc);
    C.Apply(Opts.Backend);
    Compilation Comp = compileOrDie(MatmulSrc, Opts);
    Machine M(Comp.Unit);
    uint32_t V1 = M.heap().vector(Row);
    uint32_t V2 = M.heap().vector(Col);
    VmStats B0 = M.vm().stats();
    uint32_t Spec = M.specializeOrDie("dotloop", {V1, 0, 64});
    VmStats Gen = M.vm().stats() - B0;
    VmStats B1 = M.vm().stats();
    M.invokeOrDie<int32_t>(Spec, {V2, 0});
    VmStats Exec = M.vm().stats() - B1;
    std::printf("%-14s  %13.2f  %10llu  %12llu\n", C.Name,
                ratio(Gen.Executed, Gen.DynWordsWritten),
                static_cast<unsigned long long>(Gen.DynWordsWritten),
                static_cast<unsigned long long>(Exec.Cycles));
  }
}

void packetFilterAblation() {
  std::printf("\nPacket filter, 200 packets (memoization kept on — the "
              "filter DAG requires it):\n");
  std::printf("%-14s  %16s\n", "config", "total cycles");
  auto Trace = bpf::makeTrace(200, 42);
  bpf::Program F = bpf::telnetFilter();
  for (const Config &C : Configs) {
    if (std::string(C.Name) == "-memo")
      continue;
    FabiusOptions Opts;
    Opts.Backend = deferredOptionsFor(EvalSrc);
    C.Apply(Opts.Backend);
    Compilation Comp = compileOrDie(EvalSrc, Opts);
    Machine M(Comp.Unit);
    uint32_t Fv = M.heap().vector(F.Words);
    uint64_t Total = 0;
    for (const auto &P : Trace) {
      uint32_t Pv = M.heap().vector(P);
      Total += measureCycles(
          M, [&] { M.invokeOrDie<int32_t>("runfilter", {Fv, Pv}); });
    }
    std::printf("%-14s  %16llu\n", C.Name,
                static_cast<unsigned long long>(Total));
  }
}

} // namespace

int main() {
  std::printf("Ablations of FABIUS design choices\n\n");
  dotprodAblation();
  packetFilterAblation();
  return 0;
}
