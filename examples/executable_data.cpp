//===- executable_data.cpp - Executable data structures (Figure 6) --------===//
//
// The paper's Figure 6: specializing an association-list lookup on the
// list turns the data structure into straight-line native code — a chain
// of compares with keys and values embedded as immediates, touching no
// memory at all. This example prints that generated code and verifies
// the zero-loads property.
//
// Build & run:  ./build/examples/executable_data
//
//===----------------------------------------------------------------------===//

#include "core/Fabius.h"
#include "workloads/Inputs.h"
#include "workloads/MlPrograms.h"

#include <cstdio>

using namespace fab;
using namespace fab::workloads;

int main() {
  FabiusOptions Opts;
  Opts.Backend = deferredOptionsFor(AssocSrc);
  Compilation C = compileOrDie(AssocSrc, Opts);
  Machine M(C.Unit);

  std::vector<std::pair<int32_t, int32_t>> Entries = {
      {1, 100}, {2, 200}, {3, 300}};
  uint32_t L = buildAList(M, Entries);

  VmStats Before = M.vm().stats();
  uint32_t Spec = M.specializeOrDie("lookup", {L});
  VmStats Gen = M.vm().stats() - Before;

  std::printf("association list [(1,100), (2,200), (3,300)] compiled to an "
              "executable data structure\n(compare the paper's Figure 6):\n"
              "%s\n",
              M.vm()
                  .disassembleRange(Spec,
                                    static_cast<unsigned>(Gen.DynWordsWritten))
                  .c_str());

  for (int32_t Key : {1, 2, 3, 7}) {
    VmStats B = M.vm().stats();
    int32_t V = M.invokeOrDie<int32_t>(Spec, {static_cast<uint32_t>(Key)});
    VmStats D = M.vm().stats() - B;
    std::printf("lookup %d = %4d   (%llu instructions, %llu memory loads)\n",
                Key, V, static_cast<unsigned long long>(D.Executed),
                static_cast<unsigned long long>(D.Loads));
  }
  std::printf("\nno loads: the list lives entirely in the instruction "
              "stream.\n");
  return 0;
}
