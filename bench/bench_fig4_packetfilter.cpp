//===- bench_fig4_packetfilter.cpp - Figure 4: packet filtering -----------===//
//
// Reproduces Figure 4: cumulative time to filter N packets with the
// telnet filter, FABIUS (including run-time code generation) vs. the C
// BPF interpreter, plus the paper's side numbers: break-even packet
// count (~250), percentage improvement at 1000 packets (~30%), code
// generation cost (5.6 instructions per generated instruction, 85
// instructions generated, 1.3 ms total).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "baselines/Baselines.h"
#include "bpf/Bpf.h"
#include "workloads/MlPrograms.h"

using namespace fab;
using namespace fab::bench;
using namespace fab::workloads;

int main() {
  const size_t NumPackets = 1000;
  auto Trace = bpf::makeTrace(NumPackets, /*Seed=*/20260707);
  bpf::Program Filter = bpf::telnetFilter();
  const std::vector<size_t> Checkpoints = {10,  50,  100, 250,
                                           500, 750, 1000};

  // FABIUS: one machine, filter compiled by the generating extension on
  // the first packet, reused afterwards.
  FabiusOptions DefOpts;
  DefOpts.Backend = deferredOptionsFor(EvalSrc);
  Compilation Def = compileOrDie(EvalSrc, DefOpts);
  Machine M(Def.Unit);
  uint32_t Fv = M.heap().vector(Filter.Words);
  std::vector<uint32_t> Pkts;
  for (const auto &P : Trace)
    Pkts.push_back(M.heap().vector(P));

  // Baseline: the C interpreter.
  baselines::BaselineSuite S;
  uint32_t FvB = S.mlVector(Filter.Words);
  std::vector<uint32_t> PktsB;
  for (const auto &P : Trace)
    PktsB.push_back(S.mlVector(P));

  Series Fabius{"FABIUS", {}};
  Series BpfC{"BPF (C interp)", {}};
  std::vector<uint64_t> FabCum(NumPackets + 1, 0), BpfCum(NumPackets + 1, 0);
  uint64_t GenWords = 0, GenCost = 0;
  int Accepted = 0;

  for (size_t I = 0; I < NumPackets; ++I) {
    VmStats B0 = M.vm().stats();
    int32_t RFab = M.invokeOrDie<int32_t>("runfilter", {Fv, Pkts[I]});
    VmStats DF = M.vm().stats() - B0;
    FabCum[I + 1] = FabCum[I] + DF.Cycles;
    if (I == 0) {
      GenWords = DF.DynWordsWritten;
      GenCost = DF.Cycles;
    }

    VmStats B1 = S.vm().stats();
    int32_t RBpf = S.runBpf(FvB, PktsB[I]);
    BpfCum[I + 1] = BpfCum[I] + (S.vm().stats() - B1).Cycles;

    if (RFab != RBpf) {
      std::printf("MISMATCH at packet %zu: fabius=%d bpf=%d\n", I, RFab,
                  RBpf);
      return 1;
    }
    Accepted += RFab == 1;
  }

  for (size_t C : Checkpoints) {
    Fabius.add(static_cast<double>(C), FabCum[C]);
    BpfC.add(static_cast<double>(C), BpfCum[C]);
  }
  printFigure("Figure 4: run-time code generation for a packet filter",
              "packets", {Fabius, BpfC});

  size_t BreakEven = 0;
  for (size_t I = 1; I <= NumPackets; ++I)
    if (FabCum[I] < BpfCum[I]) {
      BreakEven = I;
      break;
    }
  std::printf("\nTrace: %zu packets, %d accepted by the telnet filter\n",
              NumPackets, Accepted);
  std::printf("Break-even: %zu packets (paper ~250)\n", BreakEven);
  std::printf("Improvement at 1000 packets: %.1f%% (paper 30.3%%)\n",
              100.0 * (1.0 - ratio(FabCum[NumPackets], BpfCum[NumPackets])));
  std::printf("Instructions generated: %llu (paper 85)\n",
              static_cast<unsigned long long>(
                  M.vm().stats().DynWordsWritten));
  std::printf("First-packet cost (specialization + first run): %.3f ms "
              "(paper: codegen alone 1.3 ms)\n",
              static_cast<double>(GenCost) / CyclesPerMs);
  std::printf("Steady-state FABIUS: %.2f us/packet; BPF: %.2f us/packet "
              "(paper 8.3 vs 13.7)\n",
              static_cast<double>(FabCum[1000] - FabCum[500]) / 500 / 25.0,
              static_cast<double>(BpfCum[1000] - BpfCum[500]) / 500 / 25.0);
  reportMetric("break_even_packets", static_cast<double>(BreakEven));
  reportMetric("improvement_at_1000_packets_pct",
               100.0 * (1.0 - ratio(FabCum[NumPackets], BpfCum[NumPackets])));
  reportMetric("steady_state_us_per_packet",
               static_cast<double>(FabCum[1000] - FabCum[500]) / 500 / 25.0,
               "us");
  writeBenchJson("fig4_packetfilter");
  (void)GenWords;
  return 0;
}
