//===- regexp_fsm.cpp - Regexps compiled to native FSMs (section 4.3) -----===//
//
// Compiles a regular expression to a Thompson NFA, then lets the staged
// backtracking matcher specialize itself into a native-code finite-state
// machine whose states are memoized specializations. Demonstrates that
// the FSM is built once and reused across matches.
//
// Build & run:  ./build/examples/regexp_fsm [pattern]
//
//===----------------------------------------------------------------------===//

#include "core/Fabius.h"
#include "workloads/Inputs.h"
#include "workloads/MlPrograms.h"

#include <cstdio>

using namespace fab;
using namespace fab::workloads;

int main(int Argc, char **Argv) {
  std::string Pattern = Argc > 1 ? Argv[1] : vowelsInOrderPattern();
  Nfa N = compileRegex(Pattern);
  std::printf("pattern: %s   (NFA: %zu states)\n", Pattern.c_str(),
              N.numStates());

  FabiusOptions Opts;
  Opts.Backend = deferredOptionsFor(RegexpSrc);
  Compilation C = compileOrDie(RegexpSrc, Opts);
  Machine M(C.Unit);
  uint32_t Prog = M.heap().vector(N.Prog);

  auto Words = wordList(400, 99, 0.03);
  Words.insert(Words.begin(), "facetious");

  unsigned Matches = 0;
  uint64_t GenAfterFirst = 0;
  for (size_t I = 0; I < Words.size(); ++I) {
    uint32_t S = M.heap().string(Words[I]);
    int32_t R = M.invokeOrDie<int32_t>("matches", {Prog, S});
    if (R == 1) {
      if (Matches < 8)
        std::printf("  match: %s\n", Words[I].c_str());
      ++Matches;
    }
    if (I == 0) {
      GenAfterFirst = M.instructionsGenerated();
      std::printf("first match built the FSM: %llu instructions of native "
                  "code\n",
                  static_cast<unsigned long long>(GenAfterFirst));
    }
  }
  std::printf("%u of %zu words matched\n", Matches, Words.size());
  std::printf("code generated after the first match: %llu instructions "
              "(lazy alternation arms)\n",
              static_cast<unsigned long long>(M.instructionsGenerated() -
                                              GenAfterFirst));
  std::printf("the FSM was reused for all %zu subsequent matches\n",
              Words.size() - 1);
  return 0;
}
