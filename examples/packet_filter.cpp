//===- packet_filter.cpp - Kernel packet filtering (paper section 4.2) ----===//
//
// Installs the paper's telnet filter, lets FABIUS compile it to native
// code at run time via the staged interpreter, shows the generated code,
// and filters a synthetic trace, comparing against the in-kernel C
// interpreter baseline.
//
// Build & run:  ./build/examples/packet_filter
//
//===----------------------------------------------------------------------===//

#include "baselines/Baselines.h"
#include "bpf/Bpf.h"
#include "core/Fabius.h"
#include "workloads/MlPrograms.h"

#include <cstdio>

using namespace fab;
using namespace fab::workloads;

int main() {
  bpf::Program Filter = bpf::telnetFilter();
  std::printf("BPF filter (non-fragment TCP to the telnet port):\n%s\n",
              Filter.disassemble().c_str());

  FabiusOptions Opts;
  Opts.Backend = deferredOptionsFor(EvalSrc);
  Compilation C = compileOrDie(EvalSrc, Opts);
  Machine M(C.Unit);
  uint32_t Fv = M.heap().vector(Filter.Words);

  auto Trace = bpf::makeTrace(500, 7);

  // First packet triggers specialization of the interpreter to the filter.
  uint32_t P0 = M.heap().vector(Trace[0]);
  VmStats Before = M.vm().stats();
  M.invokeOrDie<int32_t>("runfilter", {Fv, P0});
  VmStats First = M.vm().stats() - Before;
  std::printf("first packet compiled the filter: %llu instructions "
              "generated (paper: 85)\n\n",
              static_cast<unsigned long long>(First.DynWordsWritten));

  baselines::BaselineSuite S;
  uint32_t FvB = S.mlVector(Filter.Words);

  unsigned Accepted = 0;
  uint64_t FabCycles = First.Cycles, BpfCycles = 0;
  for (size_t I = 1; I < Trace.size(); ++I) {
    uint32_t Pv = M.heap().vector(Trace[I]);
    VmStats B = M.vm().stats();
    int32_t R = M.invokeOrDie<int32_t>("runfilter", {Fv, Pv});
    FabCycles += (M.vm().stats() - B).Cycles;

    VmStats BB = S.vm().stats();
    int32_t RB = S.runBpf(FvB, S.mlVector(Trace[I]));
    BpfCycles += (S.vm().stats() - BB).Cycles;
    if (R != RB) {
      std::printf("disagreement on packet %zu!\n", I);
      return 1;
    }
    Accepted += R == 1;
  }

  std::printf("filtered %zu packets: %u telnet packets accepted\n",
              Trace.size(), Accepted);
  std::printf("FABIUS (incl. codegen): %.2f ms   C interpreter: %.2f ms   "
              "(at 25 MHz)\n",
              static_cast<double>(FabCycles) / 25000.0,
              static_cast<double>(BpfCycles) / 25000.0);
  std::printf("speedup: %.2fx\n",
              static_cast<double>(BpfCycles) / static_cast<double>(FabCycles));
  return 0;
}
