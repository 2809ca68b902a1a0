//===- bench_table_codegen_cost.cpp - The ~6 instructions/instruction claim //
//
// Reproduces the paper's headline cost table: the average number of
// instructions executed by the run-time code generators per instruction
// generated, per benchmark and overall (paper: 4.7 for the matmul dot
// product, 5.6 for the packet filter, ~6 on average; DCG-style systems
// pay ~350).
//
// Method: for whole-program entries the generation cost is isolated as
// (cycles of the first call, which specializes and runs) minus (cycles of
// an identical second call, which only runs), divided by the words
// emitted during the first call.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "bpf/Bpf.h"
#include "workloads/Inputs.h"
#include "workloads/MlPrograms.h"

#include <algorithm>
#include <functional>

using namespace fab;
using namespace fab::bench;
using namespace fab::workloads;

namespace {

struct Row {
  const char *Name;
  double InstrsPerGenerated;
  uint64_t Generated;
};

/// Generator-only measurement via the explicit specialize entry.
Row specializeRow(const char *Name, const char *Src,
                  const std::string &GenFn,
                  const std::function<std::vector<uint32_t>(Machine &)> &Args) {
  FabiusOptions Opts;
  Opts.Backend = deferredOptionsFor(Src);
  Compilation C = compileOrDie(Src, Opts);
  Machine M(C.Unit);
  std::vector<uint32_t> A = Args(M);
  VmStats Before = M.vm().stats();
  M.specializeOrDie(GenFn, A);
  VmStats D = M.vm().stats() - Before;
  return {Name, ratio(D.Executed, D.DynWordsWritten), D.DynWordsWritten};
}

/// First-call-minus-second-call measurement for lazily specializing
/// programs (the generated FSMs materialize during the first execution).
Row firstRunRow(const char *Name, const char *Src, const std::string &Fn,
                const std::function<std::vector<uint32_t>(Machine &)> &Args) {
  FabiusOptions Opts;
  Opts.Backend = deferredOptionsFor(Src);
  Compilation C = compileOrDie(Src, Opts);
  Machine M(C.Unit);
  std::vector<uint32_t> A = Args(M);
  VmStats B0 = M.vm().stats();
  M.invokeOrDie<int32_t>(Fn, A);
  VmStats First = M.vm().stats() - B0;
  VmStats B1 = M.vm().stats();
  M.invokeOrDie<int32_t>(Fn, A);
  VmStats Second = M.vm().stats() - B1;
  uint64_t GenInstrs = First.Executed - Second.Executed;
  return {Name, ratio(GenInstrs, First.DynWordsWritten),
          First.DynWordsWritten};
}

} // namespace

int main() {
  std::printf("Cost of run-time code generation "
              "(instructions executed per instruction generated)\n\n");

  std::vector<Row> Rows;

  Rows.push_back(specializeRow("dot product (n=64)", MatmulSrc, "dotloop",
                               [](Machine &M) -> std::vector<uint32_t> {
                                 Rng R(5);
                                 auto Flat = randomMatrixFlat(8, 0.0, R);
                                 std::vector<int32_t> Row64(64);
                                 for (int I = 0; I < 64; ++I)
                                   Row64[I] = static_cast<int32_t>(
                                       R.below(65536)) - 32768;
                                 uint32_t V = M.heap().vector(Row64);
                                 (void)Flat;
                                 return {V, 0, 64};
                               }));

  Rows.push_back(firstRunRow("packet filter (telnet)", EvalSrc, "runfilter",
                             [](Machine &M) -> std::vector<uint32_t> {
                               bpf::Program F = bpf::telnetFilter();
                               auto T = bpf::makeTrace(1, 3);
                               return {M.heap().vector(F.Words),
                                       M.heap().vector(T[0])};
                             }));

  Rows.push_back(firstRunRow("regexp (vowels FSM)", RegexpSrc, "matches",
                             [](Machine &M) -> std::vector<uint32_t> {
                               Nfa N = compileRegex(vowelsInOrderPattern());
                               return {M.heap().vector(N.Prog),
                                       M.heap().string("facetious")};
                             }));

  Rows.push_back(specializeRow("assoc lookup (64 entries)", AssocSrc,
                               "lookup",
                               [](Machine &M) -> std::vector<uint32_t> {
                                 std::vector<std::pair<int32_t, int32_t>> E;
                                 for (int32_t I = 0; I < 64; ++I)
                                   E.push_back({I * 3, I});
                                 return {buildAList(M, E)};
                               }));

  Rows.push_back(specializeRow("set member (64 elements)", MemberSrc,
                               "member",
                               [](Machine &M) -> std::vector<uint32_t> {
                                 std::vector<int32_t> E;
                                 for (int32_t I = 0; I < 64; ++I)
                                   E.push_back(I * 7);
                                 return {buildISet(M, E)};
                               }));

  Rows.push_back(specializeRow(
      "string compare (8 chars)", IsortSrc, "lexlt",
      [](Machine &M) -> std::vector<uint32_t> {
        uint32_t S = M.heap().string("facetiou");
        return {S, 0, 8};
      }));

  Rows.push_back(specializeRow("CG matrix row (3 nonzeros)", CgSrc, "rdot",
                               [](Machine &M) -> std::vector<uint32_t> {
                                 uint32_t Ri = M.heap().vector({3, 4, 5});
                                 uint32_t Rv =
                                     M.heap().vectorF({-1.0f, 2.0f, -1.0f});
                                 return {Ri, Rv, 0, 3};
                               }));

  std::printf("%-28s  %14s  %12s\n", "benchmark", "instrs/instr",
              "instrs generated");
  double Sum = 0;
  for (const Row &R : Rows) {
    std::printf("%-28s  %14.2f  %12llu\n", R.Name, R.InstrsPerGenerated,
                static_cast<unsigned long long>(R.Generated));
    reportMetric(std::string(R.Name) + " instrs/instr", R.InstrsPerGenerated,
                 "instructions per generated instruction");
    Sum += R.InstrsPerGenerated;
  }
  double Average = Sum / static_cast<double>(Rows.size());
  std::printf("%-28s  %14.2f\n", "AVERAGE (paper ~6)", Average);
  reportMetric("AVERAGE instrs/instr", Average,
               "instructions per generated instruction");
  std::printf("\nFor contrast, the paper reports ~350 instructions per "
              "generated instruction for DCG-style run-time compilation "
              "that manipulates an IR at run time.\n");
  writeBenchJson("table_codegen_cost");
  return 0;
}
