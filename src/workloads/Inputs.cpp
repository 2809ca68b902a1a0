//===- Inputs.cpp - Benchmark input generators ------------------------------===//

#include "workloads/Inputs.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <set>

using namespace fab;
using namespace fab::workloads;

//===----------------------------------------------------------------------===//
// Matrices
//===----------------------------------------------------------------------===//

std::vector<int32_t> fab::workloads::randomMatrixFlat(uint32_t N,
                                                      double ZeroFraction,
                                                      Rng &R) {
  std::vector<int32_t> A(static_cast<size_t>(N) * N);
  for (auto &V : A) {
    if (R.unitFloat() < ZeroFraction)
      V = 0;
    else
      V = static_cast<int32_t>(R.below(65536)) - 32768;
  }
  return A;
}

std::vector<int32_t> fab::workloads::transposeFlat(const std::vector<int32_t> &A,
                                                   uint32_t N) {
  std::vector<int32_t> T(A.size());
  for (uint32_t I = 0; I < N; ++I)
    for (uint32_t J = 0; J < N; ++J)
      T[static_cast<size_t>(J) * N + I] = A[static_cast<size_t>(I) * N + J];
  return T;
}

std::vector<int32_t> fab::workloads::referenceMatmul(
    const std::vector<int32_t> &A, const std::vector<int32_t> &B, uint32_t N) {
  std::vector<int32_t> C(static_cast<size_t>(N) * N, 0);
  for (uint32_t I = 0; I < N; ++I)
    for (uint32_t K = 0; K < N; ++K) {
      int32_t V = A[static_cast<size_t>(I) * N + K];
      if (V == 0)
        continue;
      // Wrap mod 2^32 like the VM's addu/mul, without signed overflow.
      for (uint32_t J = 0; J < N; ++J) {
        int32_t &Cij = C[static_cast<size_t>(I) * N + J];
        Cij = static_cast<int32_t>(
            static_cast<uint32_t>(Cij) +
            static_cast<uint32_t>(V) *
                static_cast<uint32_t>(B[static_cast<size_t>(K) * N + J]));
      }
    }
  return C;
}

uint32_t fab::workloads::buildIntRows(Machine &M,
                                      const std::vector<int32_t> &Flat,
                                      uint32_t N) {
  std::vector<int32_t> RowAddrs;
  for (uint32_t I = 0; I < N; ++I) {
    std::vector<int32_t> Row(Flat.begin() + static_cast<size_t>(I) * N,
                             Flat.begin() + static_cast<size_t>(I + 1) * N);
    RowAddrs.push_back(static_cast<int32_t>(M.heap().vector(Row)));
  }
  return M.heap().vector(RowAddrs);
}

uint32_t fab::workloads::buildZeroIntRows(Machine &M, uint32_t N) {
  std::vector<int32_t> Zero(N, 0);
  std::vector<int32_t> RowAddrs;
  for (uint32_t I = 0; I < N; ++I)
    RowAddrs.push_back(static_cast<int32_t>(M.heap().vector(Zero)));
  return M.heap().vector(RowAddrs);
}

std::vector<int32_t> fab::workloads::readIntRows(Machine &M, uint32_t Rows,
                                                 uint32_t N) {
  std::vector<int32_t> Flat;
  Flat.reserve(static_cast<size_t>(N) * N);
  for (uint32_t I = 0; I < N; ++I) {
    uint32_t Row = M.vm().load32(Rows + 4 + 4 * I);
    std::vector<int32_t> RowVals = M.heap().readVector(Row);
    Flat.insert(Flat.end(), RowVals.begin(), RowVals.end());
  }
  return Flat;
}

//===----------------------------------------------------------------------===//
// Regex -> NFA
//===----------------------------------------------------------------------===//

namespace {

constexpr int32_t KindChar = 0, KindSplit = 1, KindMatch = 2, KindAny = 3;

/// Builder for the int-vector NFA encoding with out-arrow patching.
class NfaBuilder {
public:
  struct Frag {
    int32_t Start = -1;
    std::vector<std::pair<int32_t, int>> Outs; ///< (state, arg slot 1 or 2)
  };

  int32_t addState(int32_t Kind, int32_t A1, int32_t A2) {
    int32_t Id = static_cast<int32_t>(States.size() / 3);
    States.push_back(Kind);
    States.push_back(A1);
    States.push_back(A2);
    return Id;
  }

  void patch(const Frag &F, int32_t Target) {
    for (auto [State, Slot] : F.Outs)
      States[static_cast<size_t>(3 * State + Slot)] = Target;
  }

  // Recursive-descent pattern parser.
  Frag parseAlt(const std::string &P, size_t &Pos) {
    Frag L = parseCat(P, Pos);
    while (Pos < P.size() && P[Pos] == '|') {
      ++Pos;
      Frag R = parseCat(P, Pos);
      int32_t S = addState(KindSplit, L.Start, R.Start);
      Frag Both;
      Both.Start = S;
      Both.Outs = L.Outs;
      Both.Outs.insert(Both.Outs.end(), R.Outs.begin(), R.Outs.end());
      L = Both;
    }
    return L;
  }

  Frag parseCat(const std::string &P, size_t &Pos) {
    Frag Result;
    while (Pos < P.size() && P[Pos] != '|' && P[Pos] != ')') {
      Frag F = parseRep(P, Pos);
      if (Result.Start < 0) {
        Result = F;
      } else {
        patch(Result, F.Start);
        Result.Outs = F.Outs;
      }
    }
    if (Result.Start < 0) {
      // Empty pattern: a split that always falls through.
      int32_t S = addState(KindSplit, -1, -1);
      Result.Start = S;
      Result.Outs = {{S, 1}, {S, 2}};
    }
    return Result;
  }

  Frag parseRep(const std::string &P, size_t &Pos) {
    Frag F = parseAtom(P, Pos);
    if (Pos < P.size() && P[Pos] == '*') {
      ++Pos;
      int32_t S = addState(KindSplit, F.Start, -1);
      patch(F, S);
      Frag Star;
      Star.Start = S;
      Star.Outs = {{S, 2}};
      return Star;
    }
    return F;
  }

  Frag parseAtom(const std::string &P, size_t &Pos) {
    assert(Pos < P.size() && "pattern ended where an atom was expected");
    char C = P[Pos++];
    if (C == '(') {
      Frag F = parseAlt(P, Pos);
      assert(Pos < P.size() && P[Pos] == ')' && "unbalanced parenthesis");
      ++Pos;
      return F;
    }
    if (C == '.') {
      int32_t S = addState(KindAny, 0, -1);
      return {S, {{S, 2}}};
    }
    if (C == '\\' && Pos < P.size())
      C = P[Pos++];
    int32_t S = addState(KindChar, C, -1);
    return {S, {{S, 2}}};
  }

  std::vector<int32_t> States;
};

} // namespace

Nfa fab::workloads::compileRegex(const std::string &Pattern) {
  NfaBuilder B;
  size_t Pos = 0;
  // Reserve state 0 as the entry: a SPLIT whose both arms reach the body
  // (patched after parsing, since the ML matcher starts at state 0).
  B.addState(KindSplit, -1, -1);
  NfaBuilder::Frag F = B.parseAlt(Pattern, Pos);
  if (Pos != Pattern.size()) {
    std::fprintf(stderr, "compileRegex: trailing junk in '%s'\n",
                 Pattern.c_str());
    std::abort();
  }
  int32_t Match = B.addState(KindMatch, 0, 0);
  B.patch(F, Match);
  B.States[1] = F.Start;
  B.States[2] = F.Start;
  Nfa N;
  N.Prog = std::move(B.States);
  return N;
}

namespace {

bool nfaMatchFrom(const Nfa &N, const std::string &S, int32_t St, size_t I,
                  unsigned Depth = 0) {
  assert(Depth < 100000 && "runaway NFA recursion");
  int32_t Kind = N.Prog[static_cast<size_t>(3 * St)];
  int32_t A1 = N.Prog[static_cast<size_t>(3 * St + 1)];
  int32_t A2 = N.Prog[static_cast<size_t>(3 * St + 2)];
  switch (Kind) {
  case KindMatch:
    return I == S.size(); // anchored at both ends
  case KindChar:
    return I < S.size() && S[I] == static_cast<char>(A1) &&
           nfaMatchFrom(N, S, A2, I + 1, Depth + 1);
  case KindAny:
    return I < S.size() && nfaMatchFrom(N, S, A2, I + 1, Depth + 1);
  case KindSplit:
    return nfaMatchFrom(N, S, A1, I, Depth + 1) ||
           nfaMatchFrom(N, S, A2, I, Depth + 1);
  }
  return false;
}

} // namespace

bool fab::workloads::nfaMatches(const Nfa &N, const std::string &S) {
  return nfaMatchFrom(N, S, 0, 0);
}

std::vector<std::string> fab::workloads::wordList(size_t Count, uint64_t Seed,
                                                  double VowelOrderedRate) {
  Rng R(Seed);
  static const char Consonants[] = "bcdfghjklmnprstvw";
  static const char Vowels[] = "aeiou";
  std::vector<std::string> Words;
  Words.reserve(Count);
  for (size_t I = 0; I < Count; ++I) {
    if (R.unitFloat() < VowelOrderedRate) {
      // A word with the five vowels in order, like "facetious".
      std::string W;
      for (char V : {'a', 'e', 'i', 'o', 'u'}) {
        W += Consonants[R.below(sizeof(Consonants) - 1)];
        W += V;
      }
      Words.push_back(W);
      continue;
    }
    std::string W;
    unsigned Syllables = 1 + static_cast<unsigned>(R.below(4));
    for (unsigned S = 0; S < Syllables; ++S) {
      W += Consonants[R.below(sizeof(Consonants) - 1)];
      W += Vowels[R.below(sizeof(Vowels) - 1)];
      if (R.chance(1, 3))
        W += Consonants[R.below(sizeof(Consonants) - 1)];
    }
    Words.push_back(W);
  }
  return Words;
}

//===----------------------------------------------------------------------===//
// Lists, sets, life
//===----------------------------------------------------------------------===//

uint32_t fab::workloads::buildAList(
    Machine &M, const std::vector<std::pair<int32_t, int32_t>> &Entries) {
  uint32_t L = M.heap().cell(0, {}); // ANil
  for (size_t I = Entries.size(); I-- > 0;)
    L = M.heap().cell(1, {static_cast<uint32_t>(Entries[I].first),
                          static_cast<uint32_t>(Entries[I].second), L});
  return L;
}

uint32_t fab::workloads::buildISet(Machine &M,
                                   const std::vector<int32_t> &Elements) {
  uint32_t S = M.heap().cell(0, {}); // SNil
  for (size_t I = Elements.size(); I-- > 0;)
    S = M.heap().cell(1, {static_cast<uint32_t>(Elements[I]), S});
  return S;
}

std::vector<int32_t> fab::workloads::gliderGunCells(unsigned Guns, uint32_t &W,
                                                    uint32_t &H) {
  // Gosper glider gun, 36 columns x 9 rows.
  static const int Gun[][2] = {
      {0, 4},  {0, 5},  {1, 4},  {1, 5},  {10, 4}, {10, 5}, {10, 6},
      {11, 3}, {11, 7}, {12, 2}, {12, 8}, {13, 2}, {13, 8}, {14, 5},
      {15, 3}, {15, 7}, {16, 4}, {16, 5}, {16, 6}, {17, 5}, {20, 2},
      {20, 3}, {20, 4}, {21, 2}, {21, 3}, {21, 4}, {22, 1}, {22, 5},
      {24, 0}, {24, 1}, {24, 5}, {24, 6}, {34, 2}, {34, 3}, {35, 2},
      {35, 3}};
  W = 40 * Guns + 8;
  H = 44; // room for gliders to fly a while
  std::vector<int32_t> Cells;
  for (unsigned G = 0; G < Guns; ++G)
    for (const auto &XY : Gun) {
      int32_t Col = XY[0] + 4 + static_cast<int32_t>(40 * G);
      int32_t Row = XY[1] + 4;
      Cells.push_back(Row * static_cast<int32_t>(W) + Col);
    }
  return Cells;
}

std::vector<int32_t>
fab::workloads::referenceLifeStep(const std::vector<int32_t> &Live, uint32_t W,
                                  uint32_t NumCells) {
  std::set<int32_t> Alive(Live.begin(), Live.end());
  std::vector<int32_t> Next;
  int32_t Wi = static_cast<int32_t>(W);
  // Mirrors the ML program exactly, including its flat-id neighborhood
  // (edge columns see the adjacent row; the guns are placed away from
  // edges so this does not affect the benchmark window).
  for (int32_t C = static_cast<int32_t>(NumCells); C-- > 0;) {
    int Cnt = 0;
    for (int32_t D : {-Wi - 1, -Wi, -Wi + 1, -1, 1, Wi - 1, Wi, Wi + 1})
      Cnt += Alive.count(C + D) ? 1 : 0;
    bool IsAlive = Alive.count(C) != 0;
    if (Cnt == 3 || (IsAlive && Cnt == 2))
      Next.push_back(C);
  }
  return Next;
}

//===----------------------------------------------------------------------===//
// Strings
//===----------------------------------------------------------------------===//

uint32_t fab::workloads::buildStringArray(Machine &M,
                                          const std::vector<std::string> &Ws) {
  std::vector<int32_t> Addrs;
  for (const std::string &W : Ws)
    Addrs.push_back(static_cast<int32_t>(M.heap().string(W)));
  return M.heap().vector(Addrs);
}

std::vector<std::string> fab::workloads::readStringArray(Machine &M,
                                                         uint32_t Arr) {
  std::vector<std::string> Out;
  uint32_t N = M.vm().load32(Arr);
  for (uint32_t I = 0; I < N; ++I) {
    uint32_t S = M.vm().load32(Arr + 4 + 4 * I);
    std::string W;
    for (int32_t Code : M.heap().readVector(S))
      W += static_cast<char>(Code);
    Out.push_back(W);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Conjugate gradient
//===----------------------------------------------------------------------===//

void fab::workloads::tridiagonalSystem(uint32_t N, Rng &R,
                                       std::vector<std::vector<float>> &Rows,
                                       std::vector<float> &B) {
  Rows.assign(N, std::vector<float>(N, 0.0f));
  B.resize(N);
  for (uint32_t I = 0; I < N; ++I) {
    Rows[I][I] = 2.0f;
    if (I > 0)
      Rows[I][I - 1] = -1.0f;
    if (I + 1 < N)
      Rows[I][I + 1] = -1.0f;
    B[I] = R.unitFloat() * 2.0f - 1.0f;
  }
}

uint32_t
fab::workloads::buildRealRows(Machine &M,
                              const std::vector<std::vector<float>> &Rows) {
  std::vector<int32_t> Addrs;
  for (const auto &Row : Rows)
    Addrs.push_back(static_cast<int32_t>(M.heap().vectorF(Row)));
  return M.heap().vector(Addrs);
}

uint32_t
fab::workloads::buildIntRowsV(Machine &M,
                              const std::vector<std::vector<int32_t>> &Rows) {
  std::vector<int32_t> Addrs;
  for (const auto &Row : Rows)
    Addrs.push_back(static_cast<int32_t>(M.heap().vector(Row)));
  return M.heap().vector(Addrs);
}

void fab::workloads::sparseFromDense(
    const std::vector<std::vector<float>> &Rows,
    std::vector<std::vector<int32_t>> &IdxRows,
    std::vector<std::vector<float>> &ValRows) {
  IdxRows.clear();
  ValRows.clear();
  for (const auto &Row : Rows) {
    std::vector<int32_t> Idx;
    std::vector<float> Val;
    for (size_t J = 0; J < Row.size(); ++J)
      if (Row[J] != 0.0f) {
        Idx.push_back(static_cast<int32_t>(J));
        Val.push_back(Row[J]);
      }
    IdxRows.push_back(std::move(Idx));
    ValRows.push_back(std::move(Val));
  }
}

float fab::workloads::referenceCg(const std::vector<std::vector<float>> &A,
                                  const std::vector<float> &B,
                                  uint32_t Iters) {
  uint32_t N = static_cast<uint32_t>(B.size());
  std::vector<float> X(N, 0.0f), Rv = B, P = B, Ap(N);
  auto Dot = [N](const std::vector<float> &U, const std::vector<float> &V) {
    float S = 0.0f;
    for (uint32_t I = 0; I < N; ++I)
      S += U[I] * V[I];
    return S;
  };
  float Rs = Dot(Rv, Rv);
  for (uint32_t It = 0; It < Iters; ++It) {
    for (uint32_t I = 0; I < N; ++I) {
      float S = 0.0f;
      for (uint32_t J = 0; J < N; ++J)
        if (A[I][J] != 0.0f)
          S += A[I][J] * P[J];
      Ap[I] = S;
    }
    float Alpha = Rs / Dot(P, Ap);
    for (uint32_t I = 0; I < N; ++I) {
      X[I] += Alpha * P[I];
      Rv[I] -= Alpha * Ap[I];
    }
    float Rs2 = Dot(Rv, Rv);
    float Beta = Rs2 / Rs;
    for (uint32_t I = 0; I < N; ++I)
      P[I] = Rv[I] + Beta * P[I];
    Rs = Rs2;
  }
  return Rs;
}

std::vector<int32_t> fab::workloads::constraintTable(uint32_t Levels,
                                                     double CheckFraction,
                                                     Rng &R) {
  std::vector<int32_t> T(Levels);
  for (auto &V : T)
    V = R.unitFloat() < CheckFraction ? 1 : 0;
  return T;
}
