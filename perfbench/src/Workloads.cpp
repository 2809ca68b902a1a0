//===- Workloads.cpp - The benchmark's seeded workloads -------------------===//


#include "Workloads.h"

#include "bpf/Bpf.h"
#include "support/Rng.h"
#include "workloads/Inputs.h"
#include "workloads/MlPrograms.h"

#include <algorithm>
#include <bit>
#include <cmath>

using namespace pb;
using fab::Rng;
using fab::service::Value;

Arg Arg::num(int32_t X) {
  Arg A;
  A.I = X;
  return A;
}
Arg Arg::vec(std::vector<int32_t> X) {
  Arg A;
  A.K = Kind::Vec;
  A.V = std::move(X);
  return A;
}
Arg Arg::reals(std::vector<float> X) {
  Arg A;
  A.K = Kind::Reals;
  A.F = std::move(X);
  return A;
}
Arg Arg::alist(std::vector<int32_t> KeyValues) {
  Arg A;
  A.K = Kind::AList;
  A.V = std::move(KeyValues);
  return A;
}
Arg Arg::iset(std::vector<int32_t> Elems) {
  Arg A;
  A.K = Kind::ISet;
  A.V = std::move(Elems);
  return A;
}
Arg Arg::scratch(uint32_t Words) {
  Arg A;
  A.K = Kind::Scratch;
  A.V.assign(Words, 0);
  return A;
}

Args pb::concat(const Args &A, const Args &B) {
  Args R = A;
  R.insert(R.end(), B.begin(), B.end());
  return R;
}

std::vector<uint32_t> pb::place(fab::Machine &M, const Args &A) {
  std::vector<uint32_t> W;
  for (const Arg &X : A) {
    switch (X.K) {
    case Arg::Kind::Int:
      W.push_back(static_cast<uint32_t>(X.I));
      break;
    case Arg::Kind::Vec:
    case Arg::Kind::Scratch:
      W.push_back(M.heap().vector(X.V));
      break;
    case Arg::Kind::Reals:
      W.push_back(M.heap().vectorF(X.F));
      break;
    case Arg::Kind::AList: {
      std::vector<std::pair<int32_t, int32_t>> E;
      for (size_t I = 0; I + 1 < X.V.size(); I += 2)
        E.push_back({X.V[I], X.V[I + 1]});
      W.push_back(fab::workloads::buildAList(M, E));
      break;
    }
    case Arg::Kind::ISet:
      W.push_back(fab::workloads::buildISet(M, X.V));
      break;
    }
  }
  return W;
}

std::vector<uint32_t> pb::place(fab::ml::Interp &I, const Args &A) {
  std::vector<uint32_t> W;
  auto Words = [](const std::vector<int32_t> &V) {
    return std::vector<uint32_t>(V.begin(), V.end());
  };
  for (const Arg &X : A) {
    switch (X.K) {
    case Arg::Kind::Int:
      W.push_back(static_cast<uint32_t>(X.I));
      break;
    case Arg::Kind::Vec:
    case Arg::Kind::Scratch:
      W.push_back(I.vector(Words(X.V)));
      break;
    case Arg::Kind::Reals: {
      std::vector<uint32_t> B;
      for (float F : X.F)
        B.push_back(std::bit_cast<uint32_t>(F));
      W.push_back(I.vector(B));
      break;
    }
    case Arg::Kind::AList: {
      uint32_t L = I.cell(0, {});
      for (size_t K = X.V.size() / 2; K-- > 0;)
        L = I.cell(1, {static_cast<uint32_t>(X.V[2 * K]),
                       static_cast<uint32_t>(X.V[2 * K + 1]), L});
      W.push_back(L);
      break;
    }
    case Arg::Kind::ISet: {
      uint32_t S = I.cell(0, {});
      for (size_t K = X.V.size(); K-- > 0;)
        S = I.cell(1, {static_cast<uint32_t>(X.V[K]), S});
      W.push_back(S);
      break;
    }
    }
  }
  return W;
}

void pb::rezero(fab::Machine &M, const Args &A,
                const std::vector<uint32_t> &Words) {
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].K == Arg::Kind::Scratch)
      for (size_t J = 0; J < A[I].V.size(); ++J)
        M.vm().store32(Words[I] + 4 + 4 * static_cast<uint32_t>(J), 0);
}

bool pb::wireForm(const Args &A) {
  return std::none_of(A.begin(), A.end(), [](const Arg &X) {
    return X.K == Arg::Kind::AList || X.K == Arg::Kind::ISet;
  });
}

std::vector<Value> pb::toValues(const Args &A) {
  std::vector<Value> R;
  for (const Arg &X : A) {
    if (X.K == Arg::Kind::Int)
      R.push_back(Value::ofInt(X.I));
    else if (X.K == Arg::Kind::Reals)
      R.push_back(Value::ofRealVec(X.F));
    else
      R.push_back(Value::ofVec(X.V));
  }
  return R;
}

namespace {

//===----------------------------------------------------------------------===//
// Host oracles (the serving workloads' check)
//===----------------------------------------------------------------------===//

uint32_t dotOracle(const Args &E, const Args &L) {
  uint32_t S = 0;
  for (size_t I = 0; I < E[0].V.size(); ++I)
    S += static_cast<uint32_t>(E[0].V[I]) * static_cast<uint32_t>(L[0].V[I]);
  return S;
}

uint32_t bpfOracle(const Args &E, const Args &L) {
  fab::bpf::Program P;
  P.Words = E[0].V;
  return static_cast<uint32_t>(fab::bpf::interpret(P, L[3].V));
}

uint32_t regexOracle(const Args &E, const Args &L) {
  fab::workloads::Nfa N;
  N.Prog = E[0].V;
  return fab::workloads::nfaMatches(N,
                                    std::string(L[0].V.begin(), L[0].V.end()))
             ? 1
             : 0;
}

uint32_t lexltOracle(const Args &E, const Args &L) {
  return std::lexicographical_compare(E[0].V.begin(), E[0].V.end(),
                                      L[0].V.begin(), L[0].V.end())
             ? 1
             : 0;
}

//===----------------------------------------------------------------------===//
// Input helpers
//===----------------------------------------------------------------------===//

std::vector<int32_t> codes(const std::string &S) {
  return std::vector<int32_t>(S.begin(), S.end());
}

std::vector<int32_t> randomVec(Rng &R, uint32_t N, int32_t Lo, int32_t Hi,
                               unsigned ZeroPercent = 0) {
  std::vector<int32_t> V(N);
  for (auto &X : V)
    X = R.chance(ZeroPercent, 100) ? 0 : static_cast<int32_t>(R.range(Lo, Hi));
  return V;
}

/// Zipf(1) sampler over [0, N) by inverse CDF.
class Zipf {
public:
  explicit Zipf(size_t N) : Cdf(N) {
    double Sum = 0;
    for (size_t I = 0; I < N; ++I)
      Cdf[I] = (Sum += 1.0 / static_cast<double>(I + 1));
    for (double &C : Cdf)
      C /= Sum;
  }
  size_t operator()(Rng &R) const {
    double U = static_cast<double>(R.next() >> 11) * 0x1.0p-53;
    return std::min<size_t>(
        static_cast<size_t>(std::upper_bound(Cdf.begin(), Cdf.end(), U) -
                            Cdf.begin()),
        Cdf.size() - 1);
  }

private:
  std::vector<double> Cdf;
};

fab::bpf::Program filterFor(Rng &R, size_t I) {
  if (I == 0)
    return fab::bpf::telnetFilter();
  if (I == 1)
    return fab::bpf::ethIpFilter();
  return fab::bpf::randomFilter(R, 20);
}

std::string randomPattern(Rng &R) {
  static const char Letters[] = "aeioustrnlc";
  std::string P = ".*";
  for (int I = 0; I < 3; ++I) {
    P += Letters[R.below(sizeof(Letters) - 1)];
    P += ".*";
  }
  return P;
}

/// Packets of at most 8 payload words.
fab::bpf::TraceOptions smallPackets() {
  fab::bpf::TraceOptions O;
  O.MaxPayloadWords = 8;
  return O;
}

Args filterLate(const std::vector<int32_t> &Pkt) {
  return {Arg::num(0), Arg::num(0), Arg::scratch(fab::bpf::ScratchWords),
          Arg::vec(Pkt)};
}

const size_t StreamLen = 400000;
const size_t TinySuiteOps = 300;

/// A fixed geometric rate ladder: 5% steps from \p Lo to at most \p Hi.
std::vector<double> ladder(double Lo, double Hi) {
  std::vector<double> L;
  for (double X = Lo; X <= Hi; X *= 1.05)
    L.push_back(std::round(X));
  return L;
}

//===----------------------------------------------------------------------===//
// paper-suite
//===----------------------------------------------------------------------===//

void paperSuite(uint64_t Seed, Workload &W) {
  using namespace fab::workloads;
  W.Source = std::string(MatmulSrc) + EvalSrc + RegexpSrc + AssocSrc +
             MemberSrc + IsortSrc + CgSrc + PseudoknotSrc;
  W.MemoizedSelfCalls = {"eval", "rmatch"};
  Rng R(Seed * 0x9E3779B97F4A7C15ull + 1);

  Program Mm{"matmul", "dotloop", {}, {}, nullptr};
  for (int I = 0; I < 48; ++I)
    Mm.Early.push_back(
        {Arg::vec(randomVec(R, 64, -32768, 32767, 50)), Arg::num(0),
         Arg::num(64)});
  for (int I = 0; I < 32; ++I)
    Mm.Late.push_back({Arg::vec(randomVec(R, 64, -32768, 32767)), Arg::num(0)});

  Program Pf{"packet-filter", "eval", {}, {}, nullptr};
  for (size_t I = 0; I < 8; ++I)
    Pf.Early.push_back({Arg::vec(filterFor(R, I).Words), Arg::num(0)});
  for (const auto &Pkt : fab::bpf::makeTrace(64, R.next()))
    Pf.Late.push_back(filterLate(Pkt));

  Program Rx{"regexp", "rmatch", {}, {}, nullptr};
  Rx.Early.push_back(
      {Arg::vec(compileRegex(vowelsInOrderPattern()).Prog), Arg::num(0)});
  for (int I = 0; I < 7; ++I)
    Rx.Early.push_back({Arg::vec(compileRegex(randomPattern(R)).Prog),
                        Arg::num(0)});
  for (const std::string &Wd : wordList(64, R.next(), 0.1))
    Rx.Late.push_back({Arg::vec(codes(Wd)), Arg::num(0)});

  Program As{"assoc", "lookup", {}, {}, nullptr};
  for (int L = 0; L < 16; ++L) {
    std::vector<int32_t> KV;
    std::set<int32_t> Seen;
    while (Seen.size() < 32) {
      int32_t K = static_cast<int32_t>(R.below(1000));
      if (Seen.insert(K).second) {
        KV.push_back(K);
        KV.push_back(static_cast<int32_t>(R.below(100000)));
      }
    }
    As.Early.push_back({Arg::alist(KV)});
  }
  for (int I = 0; I < 64; ++I)
    As.Late.push_back({Arg::num(static_cast<int32_t>(R.below(1000)))});

  Program Mb{"member", "member", {}, {}, nullptr};
  for (int S = 0; S < 16; ++S)
    Mb.Early.push_back({Arg::iset(randomVec(R, 32, 0, 499))});
  for (int I = 0; I < 64; ++I)
    Mb.Late.push_back({Arg::num(static_cast<int32_t>(R.below(500)))});

  Program Is{"isort", "lexlt", {}, {}, nullptr};
  for (const std::string &Wd : wordList(48, R.next()))
    Is.Early.push_back({Arg::vec(codes(Wd)), Arg::num(0),
                        Arg::num(static_cast<int32_t>(Wd.size()))});
  for (const std::string &Wd : wordList(64, R.next()))
    Is.Late.push_back({Arg::vec(codes(Wd))});

  Program Cg{"cg", "rdot", {}, {}, nullptr};
  const uint32_t N = 64;
  for (int Row = 0; Row < 48; ++Row) {
    std::set<int32_t> Cols;
    size_t Nnz = 3 + R.below(7);
    while (Cols.size() < Nnz)
      Cols.insert(static_cast<int32_t>(R.below(N)));
    std::vector<float> Vals;
    for (size_t I = 0; I < Nnz; ++I)
      Vals.push_back(R.unitFloat() * 4.0f - 2.0f);
    Cg.Early.push_back({Arg::vec(std::vector<int32_t>(Cols.begin(), Cols.end())),
                        Arg::reals(Vals), Arg::num(0),
                        Arg::num(static_cast<int32_t>(Nnz))});
  }
  for (int I = 0; I < 32; ++I) {
    std::vector<float> X(N);
    for (float &F : X)
      F = R.unitFloat() * 2.0f - 1.0f;
    Cg.Late.push_back({Arg::reals(X), Arg::num(0)}); // 0 = the bits of 0.0
  }

  Program Pk{"pseudoknot", "pk", {}, {}, nullptr};
  for (int T = 0; T < 16; ++T) {
    Rng TR(R.next());
    Pk.Early.push_back(
        {Arg::vec(constraintTable(24, 0.15, TR)), Arg::num(0), Arg::num(24)});
  }
  for (int I = 0; I < 32; ++I)
    Pk.Late.push_back({Arg::vec(randomVec(R, 24, 1, 100)), Arg::num(0)});

  W.Progs = {Mm, Pf, Rx, As, Mb, Is, Cg, Pk};

  // Every early input is specialized and then reused for 32 late inputs,
  // so generation is a visible share of the pass while VM execution of
  // the specialized code dominates.
  std::vector<std::vector<Op>> ByProg(W.Progs.size());
  for (uint16_t P = 0; P < W.Progs.size(); ++P)
    for (uint32_t E = 0; E < W.Progs[P].Early.size(); ++E)
      for (int K = 0; K < 32; ++K) {
        Op O{P, E, static_cast<uint32_t>(R.below(W.Progs[P].Late.size()))};
        W.SuiteOps.push_back(O);
        ByProg[P].push_back(O);
      }
  for (size_t I = W.SuiteOps.size(); I > 1; --I)
    std::swap(W.SuiteOps[I - 1], W.SuiteOps[R.below(I)]);

  // One open-loop request calls each of the eight programs once, so a
  // request's latency is not decided by which program it drew.
  W.OpsPerRequest = static_cast<unsigned>(W.Progs.size());
  W.Stream.reserve(StreamLen);
  while (W.Stream.size() < StreamLen)
    for (const std::vector<Op> &Ops : ByProg)
      W.Stream.push_back(Ops[R.below(Ops.size())]);
  W.Warmup = W.SuiteOps;

  // Modeled time: a request costs about 300 us on the 25 MHz core.
  W.R.Nominal = 1000;
  W.R.High = 2000;
  W.R.Ladder = ladder(200, 20000);
  W.R.LimitUs = 5000;
}

//===----------------------------------------------------------------------===//
// serve-hot / serve-churn
//===----------------------------------------------------------------------===//

std::string serveSource() {
  using namespace fab::workloads;
  return std::string(MatmulSrc) + EvalSrc + RegexpSrc + IsortSrc;
}

void serveHot(uint64_t Seed, Workload &W) {
  W.Source = serveSource();
  W.MemoizedSelfCalls = {"eval", "rmatch"};
  W.OverWire = true;
  W.ExpectNoGeneration = true;
  Rng R(Seed * 0x9E3779B97F4A7C15ull + 2);

  // Small late inputs: every request materializes its late arguments in
  // the worker heap, and a run must not fill it (a heap recycle rebuilds
  // the worker's machine, which empties its cache).
  Program Dot{"dotloop", "dotloop", {}, {}, dotOracle};
  for (int I = 0; I < 8; ++I)
    Dot.Early.push_back(
        {Arg::vec(randomVec(R, 16, -50, 150)), Arg::num(0), Arg::num(16)});
  for (int I = 0; I < 256; ++I)
    Dot.Late.push_back({Arg::vec(randomVec(R, 16, -25, 75)), Arg::num(0)});

  Program Ev{"eval", "eval", {}, {}, bpfOracle};
  for (size_t I = 0; I < 4; ++I)
    Ev.Early.push_back({Arg::vec(filterFor(R, I).Words), Arg::num(0)});
  for (const auto &Pkt : fab::bpf::makeTrace(128, R.next(), smallPackets()))
    Ev.Late.push_back(filterLate(Pkt));
  W.Progs = {Dot, Ev};

  // The hot set: every (program, early) key, Zipf-skewed. Ranks alternate
  // between the programs, so the seed changes the inputs but not the
  // shape of the hot set.
  std::vector<std::pair<uint16_t, uint32_t>> Keys;
  for (uint32_t E = 0; E < Dot.Early.size(); ++E) {
    Keys.push_back({0, E});
    if (E < Ev.Early.size())
      Keys.push_back({1, E});
  }
  for (auto [P, E] : Keys)
    W.Warmup.push_back({P, E, 0});
  Zipf Z(Keys.size());
  W.Stream.reserve(StreamLen);
  for (size_t I = 0; I < StreamLen; ++I) {
    auto [P, E] = Keys[Z(R)];
    W.Stream.push_back(
        {P, E, static_cast<uint32_t>(R.below(W.Progs[P].Late.size()))});
  }
  // Enough calls that running them, not building the pass's two 64 MiB
  // machines, dominates the pass.
  W.SuiteOps.assign(W.Stream.begin(), W.Stream.begin() + 60000);

  W.R.Nominal = 10000;
  W.R.High = 30000;
  W.R.Ladder = ladder(5000, 150000);
  W.R.LimitUs = 1000;
  W.R.ProbeCalls = 12000;
}

void serveChurn(uint64_t Seed, Workload &W) {
  W.Source = serveSource();
  W.MemoizedSelfCalls = {"eval", "rmatch"};
  W.OverWire = true;
  Rng R(Seed * 0x9E3779B97F4A7C15ull + 3);

  // Each pool holds Hot keys first, then one-shot scan keys. Inputs stay
  // small so a run never fills a worker heap (see below).
  const uint32_t HotPer = 24;
  static const uint32_t Lens[] = {8, 16, 32};

  Program Dot{"dotloop", "dotloop", {}, {}, dotOracle};
  for (uint32_t I = 0; I < HotPer + 12000; ++I) {
    uint32_t N = Lens[I % 3];
    Dot.Early.push_back({Arg::vec(randomVec(R, N, -50, 150, 20)), Arg::num(0),
                         Arg::num(static_cast<int32_t>(N))});
  }
  for (uint32_t N : Lens)
    for (int I = 0; I < 64; ++I)
      Dot.Late.push_back({Arg::vec(randomVec(R, N, -25, 75)), Arg::num(0)});

  Program Ev{"eval", "eval", {}, {}, bpfOracle};
  for (uint32_t I = 0; I < HotPer + 4000; ++I)
    Ev.Early.push_back({Arg::vec(filterFor(R, I).Words), Arg::num(0)});
  for (const auto &Pkt : fab::bpf::makeTrace(128, R.next(), smallPackets()))
    Ev.Late.push_back(filterLate(Pkt));

  std::vector<std::string> Words = fab::workloads::wordList(256, R.next(), 0.1);
  Program Lx{"lexlt", "lexlt", {}, {}, lexltOracle};
  for (const std::string &Wd :
       fab::workloads::wordList(HotPer + 4000, R.next()))
    Lx.Early.push_back({Arg::vec(codes(Wd)), Arg::num(0),
                        Arg::num(static_cast<int32_t>(Wd.size()))});
  for (const std::string &Wd : Words)
    Lx.Late.push_back({Arg::vec(codes(Wd))});

  Program Rm{"rmatch", "rmatch", {}, {}, regexOracle};
  for (uint32_t I = 0; I < HotPer + 2000; ++I)
    Rm.Early.push_back(
        {Arg::vec(fab::workloads::compileRegex(randomPattern(R)).Prog),
         Arg::num(0)});
  for (const std::string &Wd : Words)
    Rm.Late.push_back({Arg::vec(codes(Wd)), Arg::num(0)});
  W.Progs = {Dot, Ev, Lx, Rm};

  // dotloop rows take the late vector of their own length.
  auto LateFor = [&](uint16_t P, uint32_t E) -> uint32_t {
    if (P == 0)
      return (E % 3) * 64 + static_cast<uint32_t>(R.below(64));
    return static_cast<uint32_t>(R.below(W.Progs[P].Late.size()));
  };
  static const unsigned Weight[] = {40, 25, 20, 15}; // percent per program
  // Zipf ranks cycle through the programs (and dotloop lengths), so the
  // seed changes the inputs but not the shape of the hot set.
  std::vector<std::pair<uint16_t, uint32_t>> Hot;
  for (uint32_t E = 0; E < HotPer; ++E)
    for (uint16_t P = 0; P < W.Progs.size(); ++P)
      Hot.push_back({P, E});
  for (auto [P, E] : Hot)
    W.Warmup.push_back({P, E, LateFor(P, E)});

  Zipf Z(Hot.size());
  std::vector<uint32_t> NextScan(W.Progs.size(), HotPer);
  W.Stream.reserve(StreamLen);
  for (size_t I = 0; I < StreamLen; ++I) {
    if (R.chance(65, 100)) {
      auto [P, E] = Hot[Z(R)];
      W.Stream.push_back({P, E, LateFor(P, E)});
      continue;
    }
    unsigned Pick = static_cast<unsigned>(R.below(100));
    uint16_t P = 0;
    while (Pick >= Weight[P])
      Pick -= Weight[P++];
    uint32_t E = NextScan[P]++;
    if (NextScan[P] == W.Progs[P].Early.size())
      NextScan[P] = HotPer;
    W.Stream.push_back({P, E, LateFor(P, E)});
  }
  W.SuiteOps.assign(W.Stream.begin(), W.Stream.begin() + 8000);

  // Per worker: room for its share of the hot set plus a few scan keys,
  // so scans evict and meet the admission doorkeeper. A worker compacts
  // once it holds about 170 KiB of dynamic code, keeping at most a tenth
  // of that, so compactions are frequent and each stays short. Untraced,
  // the heap recycle margin stays at its default: a recycle rebuilds the
  // worker's 64 MiB machine (about 40 ms on the reference host), which
  // decided the run's p99 whenever one fell inside a measured phase. The
  // traced run recycles after a few MiB of heap, so every traced run
  // recycles and the runtime layer is measured.
  W.CacheCapacity = 64;
  W.CompactWatermark = 0.02;
  W.CompactKeepFraction = 0.1;
  W.InvalidateEveryS = 1;
  W.TracedRecycleAfter = 4u << 20;

  W.R.Nominal = 7500;
  W.R.High = 15000;
  W.R.Ladder = ladder(2000, 200000);
  W.R.LimitUs = 20000;
}

} // namespace

const std::vector<std::string> &pb::workloadNames() {
  static const std::vector<std::string> Names = {"paper-suite", "serve-hot",
                                                 "serve-churn"};
  return Names;
}

bool pb::makeWorkload(const std::string &Name, uint64_t Seed, bool Tiny,
                      Workload &Out) {
  Out = Workload();
  Out.Name = Name;
  if (Name == "paper-suite")
    paperSuite(Seed, Out);
  else if (Name == "serve-hot")
    serveHot(Seed, Out);
  else if (Name == "serve-churn")
    serveChurn(Seed, Out);
  else
    return false;
  if (Tiny && Out.SuiteOps.size() > TinySuiteOps) {
    Out.SuiteOps.resize(TinySuiteOps);
    if (Out.Warmup.size() > TinySuiteOps)
      Out.Warmup.resize(TinySuiteOps);
  }
  return true;
}
