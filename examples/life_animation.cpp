//===- life_animation.cpp - Game of life with per-generation RTCG ---------===//
//
// Renders a Gosper glider gun evolving, with the set-membership test
// specialized anew for each generation's population (the paper's Figure
// 5(e) workload). The host drives one `step` at a time, reads the live
// set back, and draws it; the per-generation statistics show the
// specialize-then-probe pattern.
//
// Build & run:  ./build/examples/life_animation [generations]
//
//===----------------------------------------------------------------------===//

#include "core/Fabius.h"
#include "workloads/Inputs.h"
#include "workloads/MlPrograms.h"

#include <cstdio>
#include <cstdlib>
#include <set>

using namespace fab;
using namespace fab::workloads;

int main(int Argc, char **Argv) {
  int Generations = Argc > 1 ? std::atoi(Argv[1]) : 16;
  uint32_t W = 0, H = 0;
  std::vector<int32_t> Cells = gliderGunCells(1, W, H);

  FabiusOptions Opts;
  Opts.Backend = deferredOptionsFor(LifeSrc);
  Compilation C = compileOrDie(LifeSrc, Opts);
  Machine M(C.Unit);

  uint32_t Set = buildISet(M, Cells);
  uint32_t Nil = M.heap().cell(0, {});

  for (int G = 0; G <= Generations; ++G) {
    // Read the live set back for rendering.
    std::set<int32_t> Live;
    for (uint32_t L = Set; M.vm().load32(L) == 1;
         L = M.vm().load32(L + 8))
      Live.insert(static_cast<int32_t>(M.vm().load32(L + 4)));

    std::printf("generation %d: %zu cells\n", G, Live.size());
    for (uint32_t Row = 0; Row < 14; ++Row) {
      for (uint32_t Col = 0; Col < W && Col < 44; ++Col)
        std::putchar(Live.count(static_cast<int32_t>(Row * W + Col)) ? '#'
                                                                     : '.');
      std::putchar('\n');
    }

    if (G == Generations)
      break;
    VmStats Before = M.vm().stats();
    FabResult<uint32_t> R = M.invoke<uint32_t>("step", {Set, 0, W * H, W, Nil});
    if (!R) {
      std::printf("step failed: %s\n", R.error().message().c_str());
      return 1;
    }
    VmStats D = M.vm().stats() - Before;
    std::printf("  (step: %llu cycles, %llu instructions generated for "
                "this generation's membership test)\n\n",
                static_cast<unsigned long long>(D.Cycles),
                static_cast<unsigned long long>(D.DynWordsWritten));
    Set = *R;
  }
  return 0;
}
