//===- quickstart.cpp - The paper's section 3.1 walkthrough ---------------===//
//
// Compiles the dot-product function from the paper, specializes it to a
// vector at run time, disassembles the dynamically generated code (the
// analogue of the paper's listing: a completely unrolled multiply-add
// sequence with the elements of v1 embedded as immediates), and runs it.
//
// Build & run:  ./build/examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "core/Fabius.h"

#include <cstdio>

using namespace fab;

int main() {
  // The paper's example, verbatim modulo our parameter annotations:
  // a curried (staged) tail-recursive dot product.
  const char *Src =
      "fun dotprod v1 v2 = loop (v1, 0, length v1) (v2, 0)\n"
      "and loop (v1 : int vector, i, n) (v2 : int vector, sum) =\n"
      "  if i = n then sum\n"
      "  else loop (v1, i + 1, n) (v2, sum + (v1 sub i) * (v2 sub i))";

  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);

  // Build the early argument: v1 = [1, 2, 3].
  uint32_t V1 = M.heap().vector({1, 2, 3});

  // Run the generating extension: it executes the early computations and
  // emits specialized native code for the late ones.
  VmStats Before = M.vm().stats();
  uint32_t Spec = M.specializeOrDie("loop", {V1, 0, 3});
  VmStats Gen = M.vm().stats() - Before;

  std::printf("specialized `loop` for v1 = [1, 2, 3] at 0x%08x\n", Spec);
  std::printf("generated %llu instructions, executing %llu generator "
              "instructions (%.1f per generated instruction; paper ~5)\n\n",
              static_cast<unsigned long long>(Gen.DynWordsWritten),
              static_cast<unsigned long long>(Gen.Executed),
              static_cast<double>(Gen.Executed) /
                  static_cast<double>(Gen.DynWordsWritten));

  std::printf("dynamically generated code (compare the paper's listing — "
              "elements of v1\nappear as immediates, the loop is fully "
              "unrolled):\n%s\n",
              M.vm()
                  .disassembleRange(Spec,
                                    static_cast<unsigned>(Gen.DynWordsWritten))
                  .c_str());

  // Apply the specialized function to several late arguments.
  for (auto V2Vals : {std::vector<int32_t>{4, 5, 6},
                      std::vector<int32_t>{1, 1, 1},
                      std::vector<int32_t>{-2, 0, 9}}) {
    uint32_t V2 = M.heap().vector(V2Vals);
    int32_t Dot = M.invokeOrDie<int32_t>(Spec, {V2, 0});
    std::printf("dot([1,2,3], [%d,%d,%d]) = %d\n", V2Vals[0], V2Vals[1],
                V2Vals[2], Dot);
  }

  // Memoization: asking again is free.
  uint64_t GenBefore = M.instructionsGenerated();
  uint32_t Again = M.specializeOrDie("loop", {V1, 0, 3});
  std::printf("\nre-specializing on the same vector: same code at 0x%08x, "
              "%llu new instructions\n",
              Again,
              static_cast<unsigned long long>(M.instructionsGenerated() -
                                              GenBefore));
  return 0;
}
