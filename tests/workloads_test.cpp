//===- workloads_test.cpp - Benchmark program integration tests -----------===//
//
// Runs every benchmark ML program (section 4 of the paper) in both Plain
// and Deferred modes against host-side oracles, plus the baseline
// routines and input generators.
//
//===----------------------------------------------------------------------===//

#include "workloads/Inputs.h"
#include "workloads/MlPrograms.h"

#include "baselines/Baselines.h"
#include "bpf/Bpf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

using namespace fab;
using namespace fab::workloads;

namespace {

Compilation compileBoth(const char *Src, bool Deferred) {
  FabiusOptions Opts;
  Opts.Backend =
      Deferred ? deferredOptionsFor(Src) : FabiusOptions::plain().Backend;
  return compileOrDie(Src, Opts);
}

} // namespace

//===----------------------------------------------------------------------===//
// Matrix multiply
//===----------------------------------------------------------------------===//

class MatmulModes : public ::testing::TestWithParam<bool> {};

TEST_P(MatmulModes, MatchesReference) {
  const uint32_t N = 12;
  Rng R(42);
  for (double Zero : {0.0, 0.9}) {
    std::vector<int32_t> A = randomMatrixFlat(N, Zero, R);
    std::vector<int32_t> B = randomMatrixFlat(N, Zero, R);
    Compilation C = compileBoth(MatmulSrc, GetParam());
    Machine M(C.Unit);
    uint32_t Ar = buildIntRows(M, A, N);
    uint32_t Bt = buildIntRows(M, transposeFlat(B, N), N);
    uint32_t Cr = buildZeroIntRows(M, N);
    M.invokeOrDie<int32_t>("matmul", {Ar, Bt, Cr});
    EXPECT_EQ(readIntRows(M, Cr, N), referenceMatmul(A, B, N))
        << "zero fraction " << Zero;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, MatmulModes, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &I) {
                           return I.param ? "Deferred" : "Plain";
                         });

TEST(MatmulWorkload, DotprodStagedEntry) {
  Compilation C = compileBoth(MatmulSrc, true);
  Machine M(C.Unit);
  uint32_t V1 = M.heap().vector({0, 3, 0, 5});
  uint32_t V2 = M.heap().vector({9, 2, 7, 4});
  EXPECT_EQ(M.invokeOrDie<int32_t>("dotprod", {V1, V2}), 6 + 20);
}

TEST(MatmulBaseline, ConvMatchesReference) {
  const uint32_t N = 16;
  Rng R(7);
  std::vector<int32_t> A = randomMatrixFlat(N, 0.5, R);
  std::vector<int32_t> B = randomMatrixFlat(N, 0.0, R);
  baselines::BaselineSuite S;
  uint32_t Ar = S.array(A), Br = S.array(B), Cr = S.zeros(N * N);
  ASSERT_TRUE(S.runConvMatmul(Ar, Br, Cr, N).ok());
  EXPECT_EQ(S.readArray(Cr, N * N), referenceMatmul(A, B, N));
}

TEST(MatmulBaseline, SparseMatchesReference) {
  const uint32_t N = 16;
  Rng R(8);
  std::vector<int32_t> A = randomMatrixFlat(N, 0.9, R);
  std::vector<int32_t> B = randomMatrixFlat(N, 0.0, R);
  baselines::BaselineSuite S;
  uint32_t Rows = S.sparseRows(A, N);
  uint32_t Br = S.array(B), Cr = S.zeros(N * N);
  ASSERT_TRUE(S.runSparseMatmul(Rows, Br, Cr, N).ok());
  EXPECT_EQ(S.readArray(Cr, N * N), referenceMatmul(A, B, N));
}

//===----------------------------------------------------------------------===//
// Packet filter
//===----------------------------------------------------------------------===//

TEST(BpfWorkload, CannedFiltersValidate) {
  EXPECT_EQ(bpf::validate(bpf::ethIpFilter()), "");
  EXPECT_EQ(bpf::validate(bpf::telnetFilter()), "");
}

TEST(BpfWorkload, ReferenceInterpreterSelectsTelnet) {
  bpf::Program F = bpf::telnetFilter();
  // Hand-build an accepting packet: IP, TCP, not fragmented, dst port 23.
  std::vector<int32_t> P = {0, 0, 0, 0,
                            bpf::pkt::EthIp << 16,
                            5 << 24,
                            bpf::pkt::ProtoTcp << 16,
                            0, 0, 0,
                            (1234 << 16) | bpf::pkt::PortTelnet,
                            0, 0};
  EXPECT_EQ(bpf::interpret(F, P), 1);
  P[10] = (1234 << 16) | 80; // different port
  EXPECT_EQ(bpf::interpret(F, P), 0);
  P[6] = (bpf::pkt::ProtoTcp << 16) | 9; // fragment
  EXPECT_EQ(bpf::interpret(F, P), 0);
}

class EvalModes : public ::testing::TestWithParam<bool> {};

TEST_P(EvalModes, MatchesReferenceOnTrace) {
  auto Trace = bpf::makeTrace(60, 99);
  bpf::Program F = bpf::telnetFilter();
  Compilation C = compileBoth(EvalSrc, GetParam());
  Machine M(C.Unit);
  uint32_t Fv = M.heap().vector(F.Words);
  for (const auto &P : Trace) {
    uint32_t Pv = M.heap().vector(P);
    EXPECT_EQ(M.invokeOrDie<int32_t>("runfilter", {Fv, Pv}),
              bpf::interpret(F, P));
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, EvalModes, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &I) {
                           return I.param ? "Deferred" : "Plain";
                         });

TEST(BpfWorkload, BaselineInterpreterMatchesReference) {
  auto Trace = bpf::makeTrace(60, 123);
  for (const bpf::Program &F : {bpf::telnetFilter(), bpf::ethIpFilter()}) {
    baselines::BaselineSuite S;
    uint32_t Fv = S.mlVector(F.Words);
    for (const auto &P : Trace) {
      uint32_t Pv = S.mlVector(P);
      EXPECT_EQ(S.runBpf(Fv, Pv), bpf::interpret(F, P));
    }
  }
}

// Property sweep: random filters on random packets, three implementations
// must agree (reference C++, baseline assembly, ML in both modes).
class BpfProperty : public ::testing::TestWithParam<int> {};

TEST_P(BpfProperty, AllImplementationsAgree) {
  Rng R(1000 + static_cast<uint64_t>(GetParam()));
  bpf::Program F = bpf::randomFilter(R, 12);
  ASSERT_EQ(bpf::validate(F), "") << F.disassemble();
  auto Trace = bpf::makeTrace(8, 77 + static_cast<uint64_t>(GetParam()));

  baselines::BaselineSuite S;
  uint32_t FvB = S.mlVector(F.Words);
  Compilation CP = compileBoth(EvalSrc, false);
  Compilation CD = compileBoth(EvalSrc, true);
  Machine MP(CP.Unit), MD(CD.Unit);
  uint32_t FvP = MP.heap().vector(F.Words);
  uint32_t FvD = MD.heap().vector(F.Words);

  for (const auto &P : Trace) {
    int32_t Expected = bpf::interpret(F, P);
    EXPECT_EQ(S.runBpf(FvB, S.mlVector(P)), Expected) << F.disassemble();
    EXPECT_EQ(
        MP.invokeOrDie<int32_t>("runfilter", {FvP, MP.heap().vector(P)}),
        Expected);
    EXPECT_EQ(
        MD.invokeOrDie<int32_t>("runfilter", {FvD, MD.heap().vector(P)}),
        Expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BpfProperty, ::testing::Range(0, 12));

//===----------------------------------------------------------------------===//
// Regular expressions
//===----------------------------------------------------------------------===//

TEST(RegexWorkload, CompilerBasics) {
  Nfa N = compileRegex("ab");
  EXPECT_TRUE(nfaMatches(N, "ab"));
  EXPECT_FALSE(nfaMatches(N, "a"));
  EXPECT_FALSE(nfaMatches(N, "abc")); // anchored
  Nfa Star = compileRegex("a*b");
  EXPECT_TRUE(nfaMatches(Star, "b"));
  EXPECT_TRUE(nfaMatches(Star, "aaab"));
  EXPECT_FALSE(nfaMatches(Star, "aac"));
  Nfa Alt = compileRegex("ab|cd");
  EXPECT_TRUE(nfaMatches(Alt, "ab"));
  EXPECT_TRUE(nfaMatches(Alt, "cd"));
  EXPECT_FALSE(nfaMatches(Alt, "ad"));
  Nfa Dot = compileRegex(".*ing");
  EXPECT_TRUE(nfaMatches(Dot, "string"));
  EXPECT_FALSE(nfaMatches(Dot, "strings"));
  Nfa Group = compileRegex("(ab)*c");
  EXPECT_TRUE(nfaMatches(Group, "ababc"));
  EXPECT_FALSE(nfaMatches(Group, "abac"));
}

class RegexModes : public ::testing::TestWithParam<bool> {};

TEST_P(RegexModes, MatchesOracleOnWords) {
  Nfa N = compileRegex(vowelsInOrderPattern());
  auto Words = wordList(80, 5, /*VowelOrderedRate=*/0.1);
  Compilation C = compileBoth(RegexpSrc, GetParam());
  Machine M(C.Unit);
  uint32_t Prog = M.heap().vector(N.Prog);
  unsigned Matches = 0;
  for (const std::string &W : Words) {
    uint32_t S = M.heap().string(W);
    bool Expected = nfaMatches(N, W);
    EXPECT_EQ(M.invokeOrDie<int32_t>("matches", {Prog, S}), Expected ? 1 : 0)
        << W;
    Matches += Expected;
  }
  EXPECT_GT(Matches, 0u); // the word list must contain facetious-like words
}

INSTANTIATE_TEST_SUITE_P(Modes, RegexModes, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &I) {
                           return I.param ? "Deferred" : "Plain";
                         });

TEST(RegexWorkload, DeferredBuildsFsmOnce) {
  Nfa N = compileRegex(vowelsInOrderPattern());
  Compilation C = compileBoth(RegexpSrc, true);
  Machine M(C.Unit);
  uint32_t Prog = M.heap().vector(N.Prog);
  uint32_t S1 = M.heap().string("facetious");
  ASSERT_EQ(M.invokeOrDie<int32_t>("matches", {Prog, S1}), 1);
  uint64_t Gen = M.instructionsGenerated();
  EXPECT_GT(Gen, 0u);
  // Later matches reuse the FSM: almost no fresh code (lazy alternation
  // arms may still materialize on first traversal).
  uint32_t S2 = M.heap().string("facetious");
  ASSERT_EQ(M.invokeOrDie<int32_t>("matches", {Prog, S2}), 1);
  EXPECT_EQ(M.instructionsGenerated(), Gen);
}

//===----------------------------------------------------------------------===//
// Association lists and sets
//===----------------------------------------------------------------------===//

class AssocModes : public ::testing::TestWithParam<bool> {};

TEST_P(AssocModes, LookupMatches) {
  std::vector<std::pair<int32_t, int32_t>> Entries;
  for (int32_t I = 0; I < 40; ++I)
    Entries.push_back({I * 3 + 1, I * 100});
  Compilation C = compileBoth(AssocSrc, GetParam());
  Machine M(C.Unit);
  uint32_t L = buildAList(M, Entries);
  for (const auto &[K, V] : Entries)
    EXPECT_EQ(M.invokeOrDie<int32_t>("lookup", {L, static_cast<uint32_t>(K)}),
              V);
  EXPECT_EQ(M.invokeOrDie<int32_t>("lookup", {L, 999999}), -1);
}

INSTANTIATE_TEST_SUITE_P(Modes, AssocModes, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &I) {
                           return I.param ? "Deferred" : "Plain";
                         });

class MemberModes : public ::testing::TestWithParam<bool> {};

TEST_P(MemberModes, MembershipMatches) {
  std::vector<int32_t> Elems;
  for (int32_t I = 0; I < 50; ++I)
    Elems.push_back(I * 7);
  Compilation C = compileBoth(MemberSrc, GetParam());
  Machine M(C.Unit);
  uint32_t S = buildISet(M, Elems);
  EXPECT_EQ(M.invokeOrDie<int32_t>("member", {S, 7 * 13}), 1);
  EXPECT_EQ(M.invokeOrDie<int32_t>("member", {S, 5}), 0);
  EXPECT_EQ(M.invokeOrDie<int32_t>("member", {S, 0}), 1);
}

INSTANTIATE_TEST_SUITE_P(Modes, MemberModes, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &I) {
                           return I.param ? "Deferred" : "Plain";
                         });

//===----------------------------------------------------------------------===//
// Game of life
//===----------------------------------------------------------------------===//

class LifeModes : public ::testing::TestWithParam<bool> {};

TEST_P(LifeModes, PopulationMatchesReference) {
  uint32_t W = 0, H = 0;
  std::vector<int32_t> Cells = gliderGunCells(1, W, H);
  uint32_t NumCells = W * H;
  // Host reference: run 8 generations.
  std::vector<int32_t> Ref = Cells;
  for (int G = 0; G < 8; ++G)
    Ref = referenceLifeStep(Ref, W, NumCells);

  Compilation C = compileBoth(LifeSrc, GetParam());
  Machine M(C.Unit);
  uint32_t S = buildISet(M, Cells);
  int32_t Pop = M.invokeOrDie<int32_t>("life", {S, 8, NumCells, W});
  EXPECT_EQ(Pop, static_cast<int32_t>(Ref.size()));
}

INSTANTIATE_TEST_SUITE_P(Modes, LifeModes, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &I) {
                           return I.param ? "Deferred" : "Plain";
                         });

TEST(LifeWorkload, GliderGunIsAlive) {
  uint32_t W = 0, H = 0;
  std::vector<int32_t> Cells = gliderGunCells(2, W, H);
  EXPECT_EQ(Cells.size(), 72u);
  std::vector<int32_t> Next = referenceLifeStep(Cells, W, W * H);
  EXPECT_NE(Next, Cells); // the gun oscillates
  EXPECT_GT(Next.size(), 40u);
}

//===----------------------------------------------------------------------===//
// Insertion sort
//===----------------------------------------------------------------------===//

class IsortModes : public ::testing::TestWithParam<bool> {};

TEST_P(IsortModes, SortsReverseSortedWords) {
  auto Words = wordList(60, 11);
  std::sort(Words.begin(), Words.end(), std::greater<std::string>());
  std::vector<std::string> Expected = Words;
  std::sort(Expected.begin(), Expected.end());

  Compilation C = compileBoth(IsortSrc, GetParam());
  Machine M(C.Unit);
  uint32_t Arr = buildStringArray(M, Words);
  M.invokeOrDie<int32_t>("sortall", {Arr});
  EXPECT_EQ(readStringArray(M, Arr), Expected);
}

INSTANTIATE_TEST_SUITE_P(Modes, IsortModes, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &I) {
                           return I.param ? "Deferred" : "Plain";
                         });

//===----------------------------------------------------------------------===//
// Conjugate gradient
//===----------------------------------------------------------------------===//

class CgModes : public ::testing::TestWithParam<bool> {};

TEST_P(CgModes, ResidualMatchesReferenceAndConverges) {
  const uint32_t N = 24, Iters = 12;
  Rng R(3);
  std::vector<std::vector<float>> A;
  std::vector<float> B;
  tridiagonalSystem(N, R, A, B);
  float RefResidual = referenceCg(A, B, Iters);

  Compilation C = compileBoth(CgSrc, GetParam());
  Machine M(C.Unit);
  std::vector<std::vector<int32_t>> IdxRows;
  std::vector<std::vector<float>> ValRows;
  sparseFromDense(A, IdxRows, ValRows);
  uint32_t Ai = buildIntRowsV(M, IdxRows);
  uint32_t Av = buildRealRows(M, ValRows);
  uint32_t Bv = M.heap().vectorF(B);
  uint32_t X = M.heap().vectorF(std::vector<float>(N, 0.0f));
  uint32_t Rv = M.heap().vectorF(std::vector<float>(N, 0.0f));
  uint32_t P = M.heap().vectorF(std::vector<float>(N, 0.0f));
  uint32_t Ap = M.heap().vectorF(std::vector<float>(N, 0.0f));
  FabResult<float> Res =
      M.invoke<float>("cg", {Ai, Av, Bv, X, Rv, P, Ap, Iters});
  ASSERT_TRUE(Res.ok()) << Res.error().message();
  float Residual = *Res;
  EXPECT_NEAR(Residual, RefResidual, 1e-4f);
  float B2 = 0;
  for (float V : B)
    B2 += V * V;
  EXPECT_LT(Residual, B2); // converging
}

INSTANTIATE_TEST_SUITE_P(Modes, CgModes, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &I) {
                           return I.param ? "Deferred" : "Plain";
                         });

//===----------------------------------------------------------------------===//
// Pseudoknot-like search
//===----------------------------------------------------------------------===//

class PkModes : public ::testing::TestWithParam<bool> {};

TEST_P(PkModes, CountsMatchHostModel) {
  const uint32_t Levels = 32;
  Rng R(17);
  std::vector<int32_t> Chk = constraintTable(Levels, 0.1, R);
  Compilation C = compileBoth(PseudoknotSrc, GetParam());
  Machine M(C.Unit);
  uint32_t ChkV = M.heap().vector(Chk);
  for (int Trial = 0; Trial < 10; ++Trial) {
    std::vector<int32_t> Vals(Levels);
    for (auto &V : Vals)
      V = static_cast<int32_t>(R.below(16));
    // Host model of `pkrun`.
    auto Placement = [](int32_t V, int32_t Acc) {
      for (int K = 0; K < 8; ++K)
        Acc = (Acc + (V * V - 3 * V + 7)) / 2 + V;
      return Acc;
    };
    int32_t Expected = 0;
    for (uint32_t L = 0; L < Levels; ++L) {
      int32_t V = Vals[L];
      int32_t Score = Placement(V, Expected);
      if (Chk[L] == 1 && (V & 7) == 0) {
        Expected = -1;
        break;
      }
      Expected = Score;
    }
    uint32_t ValsV = M.heap().vector(Vals);
    EXPECT_EQ(M.invokeOrDie<int32_t>("pkrun", {ChkV, ValsV, Levels}), Expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, PkModes, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &I) {
                           return I.param ? "Deferred" : "Plain";
                         });

//===----------------------------------------------------------------------===//
// Trace generator sanity
//===----------------------------------------------------------------------===//

TEST(TraceGen, MixApproximatesConfiguredFractions) {
  auto Trace = bpf::makeTrace(2000, 31337);
  bpf::Program IpF = bpf::ethIpFilter();
  bpf::Program TelF = bpf::telnetFilter();
  unsigned Ip = 0, Telnet = 0;
  for (const auto &P : Trace) {
    Ip += bpf::interpret(IpF, P) == 1;
    Telnet += bpf::interpret(TelF, P) == 1;
  }
  EXPECT_NEAR(static_cast<double>(Ip) / 2000, 0.85, 0.05);
  EXPECT_GT(Telnet, 20u); // a few percent reach the telnet port
  EXPECT_LT(Telnet, 250u);
}

TEST(TraceGen, Deterministic) {
  auto T1 = bpf::makeTrace(50, 5);
  auto T2 = bpf::makeTrace(50, 5);
  EXPECT_EQ(T1, T2);
  auto T3 = bpf::makeTrace(50, 6);
  EXPECT_NE(T1, T3);
}

TEST(WordsGen, ContainsVowelOrderedWords) {
  Nfa N = compileRegex(vowelsInOrderPattern());
  auto Words = wordList(500, 2, 0.02);
  unsigned Hits = 0;
  for (const auto &W : Words)
    Hits += nfaMatches(N, W);
  EXPECT_GE(Hits, 5u);
  EXPECT_LE(Hits, 40u);
}

class FMatmulModes : public ::testing::TestWithParam<bool> {};

TEST_P(FMatmulModes, MatchesHostFloatReference) {
  const uint32_t N = 8;
  Rng R(6);
  std::vector<std::vector<float>> A(N, std::vector<float>(N)),
      B(N, std::vector<float>(N));
  for (uint32_t I = 0; I < N; ++I)
    for (uint32_t J = 0; J < N; ++J) {
      A[I][J] = R.chance(1, 2) ? 0.0f : (R.unitFloat() - 0.5f) * 4.0f;
      B[I][J] = (R.unitFloat() - 0.5f) * 4.0f;
    }
  // Host reference in the same summation order as the ML program.
  std::vector<std::vector<float>> Ref(N, std::vector<float>(N, 0.0f));
  for (uint32_t I = 0; I < N; ++I)
    for (uint32_t J = 0; J < N; ++J) {
      float S = 0.0f;
      for (uint32_t K = 0; K < N; ++K)
        if (A[I][K] != 0.0f)
          S += A[I][K] * B[J][K]; // B holds the transpose directly here
      Ref[I][J] = S;
    }
  Compilation C = compileBoth(FMatmulSrc, GetParam());
  Machine M(C.Unit);
  uint32_t Ar = buildRealRows(M, A);
  uint32_t Btr = buildRealRows(M, B);
  uint32_t Cr = buildRealRows(
      M, std::vector<std::vector<float>>(N, std::vector<float>(N, 0.0f)));
  M.invokeOrDie<int32_t>("fmatmul", {Ar, Btr, Cr});
  for (uint32_t I = 0; I < N; ++I) {
    uint32_t Row = M.vm().load32(Cr + 4 + 4 * I);
    std::vector<float> Vals = M.heap().readVectorF(Row);
    for (uint32_t J = 0; J < N; ++J)
      EXPECT_EQ(Vals[J], Ref[I][J]) << I << "," << J;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, FMatmulModes, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &I) {
                           return I.param ? "Deferred" : "Plain";
                         });
