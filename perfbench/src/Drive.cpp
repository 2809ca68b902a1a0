//===- Drive.cpp - Timed calls into each layer ----------------------------===//

#include "Drive.h"

#include "ml/Parser.h"
#include "ml/TypeCheck.h"
#include "runtime/Layout.h"
#include "staging/Staging.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <poll.h>
#include <thread>

using namespace pb;
using fab::FabResult;
using fab::service::Value;
namespace net = fab::net;

namespace {

double usSince(uint64_t T0) {
  return static_cast<double>(nowNs() - T0) / 1e3;
}

/// Combines the three op coordinates into one memo key.
uint64_t opKey(const Op &O) {
  return (static_cast<uint64_t>(O.Prog) << 48) |
         (static_cast<uint64_t>(O.Early) << 24) | O.Late;
}

/// Records nothing.
Tracer NoTrace(false);

/// How long a wire reply may take before it counts as a timeout.
constexpr double ReplyTimeoutS = 5.0;

/// The serving rig: pool workers, reactor shards, client connections.
constexpr unsigned ServeWorkers = 2;
constexpr unsigned ServeShards = 1;
constexpr unsigned ServeConns = 4;

} // namespace

//===----------------------------------------------------------------------===//
// Compile
//===----------------------------------------------------------------------===//

std::unique_ptr<Compiled> pb::compileWorkload(const Workload &W, Tracer &T) {
  auto Out = std::make_unique<Compiled>();
  fab::Compilation &C = Out->Def;
  fab::DiagnosticEngine Diags;
  fab::BackendOptions BO;
  BO.Mode = fab::CompileMode::Deferred;
  BO.MemoizedSelfCalls = W.MemoizedSelfCalls;
  fab::BackendOptions PO = BO;
  PO.Mode = fab::CompileMode::Plain;

  Scope Root(T, "compile");
  bool Ok;
  uint64_t T0 = nowNs();
  {
    Scope S(T, "compile.parse", Root.id());
    C.Ast = std::shared_ptr<fab::ml::Program>(fab::ml::parse(W.Source, Diags));
    Ok = C.Ast && !Diags.hasErrors();
  }
  Out->T.ParseUs = usSince(T0);
  if (Ok) {
    T0 = nowNs();
    Scope S(T, "compile.typecheck", Root.id());
    C.Types = std::make_shared<fab::ml::TypeContext>();
    Ok = fab::ml::typecheck(*C.Ast, *C.Types, Diags);
    Out->T.TypecheckUs = usSince(T0);
  }
  if (Ok) {
    T0 = nowNs();
    Scope S(T, "compile.stage", Root.id());
    Ok = fab::analyzeStaging(*C.Ast, Diags);
    Out->T.StageUs = usSince(T0);
  }
  if (Ok) {
    T0 = nowNs();
    Scope S(T, "compile.codegen", Root.id());
    Ok = fab::compileProgram(*C.Ast, BO, C.Unit, Diags) &&
         fab::compileProgram(*C.Ast, PO, Out->Plain, Diags);
    Out->T.CodegenUs = usSince(T0);
  }
  if (!Ok) {
    std::fprintf(stderr, "perfbench: %s does not compile:\n%s",
                 W.Name.c_str(), Diags.str().c_str());
    return nullptr;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Lone machines
//===----------------------------------------------------------------------===//

Lone::Lone(const Workload &W, const Compiled &C, bool WithPlain,
           bool WithInterp)
    : W(W), D(C.Def), PlD(W.Progs.size()), PlP(W.Progs.size()) {
  if (WithPlain)
    P = std::make_unique<fab::Machine>(C.Plain);
  if (WithInterp)
    I = std::make_unique<fab::ml::Interp>(*C.Def.Ast);
}

const std::vector<uint32_t> &
Lone::words(fab::Machine &M, std::vector<std::vector<uint32_t>> &Slots,
            const std::vector<Args> &Pool, uint32_t Idx) {
  if (Slots.size() < Pool.size())
    Slots.resize(Pool.size());
  std::vector<uint32_t> &S = Slots[Idx];
  if (S.empty()) {
    // Never place over cells the program allocated in the VM.
    M.heap().advanceTo(M.vm().reg(fab::Hp));
    S = place(M, Pool[Idx]);
  } else
    rezero(M, Pool[Idx], S);
  return S;
}

FabResult<uint32_t> Lone::deferred(const Op &O, Tracer &T, uint64_t Req,
                                   std::vector<double> *SpecUs,
                                   std::vector<double> *InvUs) {
  const Program &Pr = W.Progs[O.Prog];
  const auto &E = words(D, PlD[O.Prog].Early, Pr.Early, O.Early);
  const auto &L = words(D, PlD[O.Prog].Late, Pr.Late, O.Late);
  const fab::VmStats &VS = D.vm().stats();
  uint64_t X0 = VS.Executed, W0 = VS.DynWordsWritten;
  uint64_t T0 = nowNs();
  FabResult<uint32_t> A = [&] {
    Scope S(T, "machine.specialize", 0, Req);
    return D.specialize(Pr.Fn, E);
  }();
  uint64_t T1 = nowNs();
  GenInstrs = VS.Executed - X0;
  GenWords = VS.DynWordsWritten - W0;
  if (SpecUs)
    SpecUs->push_back(static_cast<double>(T1 - T0) / 1e3);
  if (!A)
    return A;
  FabResult<uint32_t> R = [&] {
    Scope S(T, "machine.invoke", 0, Req);
    return D.invoke<uint32_t>(*A, L);
  }();
  if (InvUs)
    InvUs->push_back(usSince(T1));
  return R;
}

FabResult<uint32_t> Lone::plain(const Op &O) {
  const Program &Pr = W.Progs[O.Prog];
  std::vector<uint32_t> A = words(*P, PlP[O.Prog].Early, Pr.Early, O.Early);
  const auto &L = words(*P, PlP[O.Prog].Late, Pr.Late, O.Late);
  A.insert(A.end(), L.begin(), L.end());
  return P->invoke<uint32_t>(Pr.Fn, A);
}

std::optional<uint32_t> Lone::interp(const Op &O) {
  // The interpreter's store only grows; every call places fresh copies,
  // so Scratch arguments start zeroed.
  const Program &Pr = W.Progs[O.Prog];
  return I->call(Pr.Fn,
                 place(*I, concat(Pr.Early[O.Early], Pr.Late[O.Late])));
}

Oracle::Oracle(const Workload &W, const Compiled &C) : W(W) {
  if (W.needsInterp())
    Ref = std::make_unique<Lone>(W, C, true, true);
}

bool Oracle::expected(const Op &O, uint32_t &Out) {
  const Program &Pr = W.Progs[O.Prog];
  if (Pr.Check) {
    Out = Pr.Check(Pr.Early[O.Early], Pr.Late[O.Late]);
    return true;
  }
  auto [It, New] = Memo.try_emplace(opKey(O));
  if (New) {
    FabResult<uint32_t> P = Ref->plain(O);
    std::optional<uint32_t> I = Ref->interp(O);
    if (P && I && *P == *I)
      It->second = *P;
  }
  if (!It->second)
    return false;
  Out = *It->second;
  return true;
}

//===----------------------------------------------------------------------===//
// The suite pass
//===----------------------------------------------------------------------===//

double PassResult::simSpeedupGeomean() const {
  std::vector<double> R;
  for (const ProgCost &C : Costs)
    if (C.PlainCycles && C.DeferredCycles)
      R.push_back(static_cast<double>(C.PlainCycles) /
                  static_cast<double>(C.DeferredCycles));
  return geomean(R);
}

double PassResult::genInstrsPerWord() const {
  double Sum = 0;
  size_t N = 0;
  for (const ProgCost &C : Costs)
    if (C.GenWords) {
      Sum += static_cast<double>(C.GenInstrs) / static_cast<double>(C.GenWords);
      ++N;
    }
  return N ? Sum / static_cast<double>(N) : 0;
}

std::vector<uint64_t> PassResult::fingerprint() const {
  std::vector<uint64_t> F = {StaticWords, Memo.GeneratorRuns, Memo.MemoHits,
                             Memo.GenExecuted, Memo.GenDynWords};
  for (const ProgCost &C : Costs) {
    F.push_back(C.PlainCycles);
    F.push_back(C.DeferredCycles);
    F.push_back(C.GenInstrs);
    F.push_back(C.GenWords);
  }
  return F;
}

PassResult pb::suitePass(const Workload &W, Tracer &T) {
  PassResult R;
  uint64_t T0 = nowNs();
  std::unique_ptr<Compiled> C = compileWorkload(W, T);
  if (!C) {
    R.Ops.Attempted = R.Ops.Failed = 1;
    return R;
  }
  R.StaticWords = C->staticWords();
  R.Costs.resize(W.Progs.size());
  Lone L(W, *C, true, W.needsInterp());
  fab::Machine &D = L.def();
  fab::Machine &P = *L.plainMachine();
  uint64_t Req = 0;
  for (const Op &O : W.SuiteOps) {
    const Program &Pr = W.Progs[O.Prog];
    ProgCost &PC = R.Costs[O.Prog];
    ++R.Ops.Attempted;
    uint64_t C0 = D.vm().stats().Cycles;
    uint64_t H0 = nowNs();
    FabResult<uint32_t> Got = L.deferred(O, T, ++Req, &R.SpecUs, &R.InvUs);
    R.MachineS += static_cast<double>(nowNs() - H0) / 1e9;
    PC.DeferredCycles += D.vm().stats().Cycles - C0;
    if (L.lastGenWords()) {
      PC.GenInstrs += L.lastGenInstrs();
      PC.GenWords += L.lastGenWords();
    }
    uint64_t P0 = P.vm().stats().Cycles;
    FabResult<uint32_t> Ref = L.plain(O);
    PC.PlainCycles += P.vm().stats().Cycles - P0;
    bool Ok = Got && Ref && *Got == *Ref;
    if (Ok && Pr.Check) {
      Ok = *Got == Pr.Check(Pr.Early[O.Early], Pr.Late[O.Late]);
    } else if (Ok) {
      std::optional<uint32_t> I = L.interp(O);
      Ok = I && *I == *Got;
    }
    if (!Ok) {
      ++R.Ops.Failed;
      if (Got && Ref)
        ++R.Ops.Mismatches;
    }
  }
  fab::TelemetrySnapshot S = D.telemetry();
  R.Memo = S.Memo;
  R.Decode = S.DecodeCache;
  R.Vm = S.Vm;
  R.WallS = static_cast<double>(nowNs() - T0) / 1e9;
  return R;
}

//===----------------------------------------------------------------------===//
// Open loops
//===----------------------------------------------------------------------===//

bool LoopResult::meets(double LimitUs) const {
  if (Ops.Failed || Aborted || LatUs.empty())
    return false;
  if (percentile(LatUs, 0.99).Value > LimitUs)
    return false;
  if (percentile(LateUs, 0.99).Value > LimitUs)
    return false;
  // A backlog that grows through the phase shows as a last-quarter median
  // well above the first-quarter one.
  return LastQuarterP50 <= std::max(2 * FirstQuarterP50, LimitUs / 4);
}

uint64_t Poisson::gapNs() {
  double U = static_cast<double>(R.next() >> 11) * 0x1.0p-53;
  return static_cast<uint64_t>(-std::log1p(-U) / Rps * 1e9);
}

void pb::quarterMedians(std::vector<std::pair<uint64_t, double>> &DueLat,
                        LoopResult &R) {
  if (DueLat.size() < 8)
    return;
  std::sort(DueLat.begin(), DueLat.end());
  size_t Q = DueLat.size() / 4;
  std::vector<double> A, B;
  for (size_t I = 0; I < Q; ++I) {
    A.push_back(DueLat[I].second);
    B.push_back(DueLat[DueLat.size() - 1 - I].second);
  }
  R.FirstQuarterP50 = median(A);
  R.LastQuarterP50 = median(B);
}

namespace {

/// When a wire phase gives up: a tenth of the requests it plans have
/// already missed the limit. A short host stall misses far fewer; a rate
/// past capacity gets there quickly.
struct AbortRule {
  double LimitUs;
  uint64_t Budget;
  uint64_t Missed = 0;
  AbortRule(const LoopSpec &S)
      : LimitUs(S.AbortLimitUs),
        Budget(static_cast<uint64_t>(S.Rps * S.Seconds / 10) + 10) {}
  bool note(double LatUs) {
    if (LimitUs > 0 && LatUs > LimitUs)
      ++Missed;
    return LimitUs > 0 && Missed > Budget;
  }
};

} // namespace

LoopResult::LoopResult(const LoopSpec &S) : Rps(S.Rps) {
  // Growing these mid-phase would stall the sender.
  size_t N = static_cast<size_t>(S.Rps * S.Seconds * 1.2) + 64;
  LatUs.reserve(N);
  LateUs.reserve(N);
}

std::vector<double> pb::modeledService(const Workload &W, Lone &L, Oracle &O,
                                       size_t Requests, Tally &T) {
  std::vector<double> Out;
  const fab::VmStats &VS = L.def().vm().stats();
  size_t Cursor = 0;
  for (size_t I = 0; I < Requests; ++I) {
    uint64_t C0 = VS.Cycles;
    for (unsigned K = 0; K < W.OpsPerRequest; ++K) {
      const Op &Q = W.Stream[Cursor++ % W.Stream.size()];
      FabResult<uint32_t> Got = L.deferred(Q, NoTrace, 0);
      uint32_t Want = 0;
      ++T.Attempted;
      if (Got && O.expected(Q, Want) && *Got == Want)
        continue;
      ++T.Failed;
      if (Got)
        ++T.Mismatches;
    }
    Out.push_back(static_cast<double>(VS.Cycles - C0) / CyclesPerUs);
  }
  return Out;
}

LoopResult pb::modeledLoop(const std::vector<double> &ServiceUs,
                           const LoopSpec &S, size_t Requests) {
  LoopSpec Sized = S;
  Sized.Seconds = static_cast<double>(Requests) / S.Rps;
  LoopResult R(Sized);
  Poisson Gen(S.Rps, S.Seed);
  std::vector<std::pair<uint64_t, double>> DueLat;
  double Due = 0, Free = 0; // modeled microseconds
  for (size_t I = 0; I < Requests && !ServiceUs.empty(); ++I) {
    Due += static_cast<double>(Gen.gapNs()) / 1e3;
    Free = std::max(Free, Due) + ServiceUs[I % ServiceUs.size()];
    R.LatUs.push_back(Free - Due);
    R.LateUs.push_back(0);
    DueLat.push_back({static_cast<uint64_t>(Due * 1e3), Free - Due});
  }
  quarterMedians(DueLat, R);
  return R;
}

//===----------------------------------------------------------------------===//
// Wire
//===----------------------------------------------------------------------===//

const std::vector<Value> &WireValues::early(const Op &O) {
  auto [It, New] = E[O.Prog].try_emplace(O.Early);
  if (New)
    It->second = toValues(W.Progs[O.Prog].Early[O.Early]);
  return It->second;
}

const std::vector<Value> &WireValues::late(const Op &O) {
  auto [It, New] = L[O.Prog].try_emplace(O.Late);
  if (New)
    It->second = toValues(W.Progs[O.Prog].Late[O.Late]);
  return It->second;
}

fab::service::ServerOptions pb::serverOptions(const Workload &W,
                                              bool Recycle) {
  fab::service::ServerOptions SO;
  SO.Pool.Workers = ServeWorkers;
  SO.Pool.Cache.Capacity = W.CacheCapacity;
  SO.Pool.Cache.CompactWatermark = W.CompactWatermark;
  SO.Pool.Cache.CompactKeepFraction = W.CompactKeepFraction;
  // Unbounded queues: an overloaded ladder probe shows as latency, and
  // no request of a run is refused.
  SO.Pool.MaxQueueDepth = 0;
  if (Recycle && W.TracedRecycleAfter)
    SO.Pool.HeapRecycleMargin = fab::layout::HeapEnd - fab::layout::HeapBase -
                                W.TracedRecycleAfter;
  return SO;
}

double pb::machineBuildMs(const fab::Compilation &C, int Times) {
  std::vector<double> Ms;
  for (int I = 0; I < Times; ++I) {
    uint64_t T0 = nowNs();
    fab::Machine M(C);
    Ms.push_back(static_cast<double>(nowNs() - T0) / 1e6);
  }
  return median(Ms);
}

Rig::Rig(const Workload &W, const fab::Compilation &C, Oracle &O,
         WireValues &V, bool Recycle)
    : W(W), Orc(O), Vals(V),
      Server(std::make_unique<fab::service::SpecServer>(
          C, serverOptions(W, Recycle))) {}

Rig::~Rig() {
  Conns.clear();
  if (Wire)
    Wire->stop();
  Server->shutdown();
}

bool Rig::start(std::string &Err) {
  net::WireOptions WO;
  WO.Shards = ServeShards;
  Wire = std::make_unique<net::WireServer>(*Server, WO);
  if (!Wire->start(&Err))
    return false;
  for (unsigned I = 0; I < ServeConns; ++I) {
    Conn C;
    C.S = net::Socket::connectTcp("127.0.0.1", Wire->port(), &Err);
    if (!C.S.valid())
      return false;
    C.S.setNoDelay();
    std::vector<uint8_t> Pre = net::encodePreamble();
    uint8_t Their[net::PreambleBytes];
    if (!C.S.sendAll(Pre.data(), Pre.size()) ||
        !C.S.recvAll(Their, sizeof(Their)) ||
        net::decodePreamble(Their, sizeof(Their)) != net::PreambleStatus::Ok) {
      Err = "wire handshake failed";
      return false;
    }
    if (!C.S.setNonBlocking(true)) {
      Err = "cannot make the client socket non-blocking";
      return false;
    }
    Conns.push_back(std::move(C));
  }
  return true;
}

std::vector<uint8_t> Rig::encodeOp(uint64_t Tag, const Op &O) {
  net::SubmitBody B;
  B.Fn = W.Progs[O.Prog].Fn;
  B.Early = Vals.early(O);
  B.Late = Vals.late(O);
  return net::encodeSubmit(Tag, B);
}

bool Rig::flush(Conn &C) {
  while (C.OutPos < C.Out.size()) {
    long N = C.S.sendNb(C.Out.data() + C.OutPos, C.Out.size() - C.OutPos);
    if (N < 0)
      return false;
    if (N == 0)
      return true;
    C.OutPos += static_cast<size_t>(N);
  }
  C.Out.clear();
  C.OutPos = 0;
  return true;
}

bool Rig::checkReply(const net::Frame &F, const Op &O, Tally &T) {
  int32_t V = 0;
  uint32_t Want = 0;
  if (F.H.Type != net::FrameType::Result || !net::decodeResult(F, V)) {
    ++T.Failed;
    return false;
  }
  if (!Orc.expected(O, Want) || static_cast<uint32_t>(V) != Want) {
    ++T.Failed;
    ++T.Mismatches;
    return false;
  }
  return true;
}

bool Rig::awaitFrame(uint64_t Tag, net::Frame &F, double TimeoutS) {
  Conn &C = Conns[0];
  const uint64_t Deadline = nowNs() + static_cast<uint64_t>(TimeoutS * 1e9);
  uint8_t Buf[65536];
  for (;;) {
    switch (C.FR.next(F)) {
    case net::FrameReader::Status::Ready:
      if (F.H.Tag == Tag)
        return true;
      continue; // the late reply to a request that already timed out
    case net::FrameReader::Status::TooLarge:
      return false;
    case net::FrameReader::Status::NeedMore:
      break;
    }
    if (!flush(C))
      return false;
    uint64_t Now = nowNs();
    if (Now >= Deadline)
      return false;
    pollfd P{C.S.fd(), static_cast<short>(POLLIN | (C.Out.empty() ? 0 : POLLOUT)),
             0};
    timespec Ts{0, static_cast<long>(std::min<uint64_t>(Deadline - Now,
                                                        100'000'000))};
    if (ppoll(&P, 1, &Ts, nullptr) < 0)
      return false;
    bool Eof = false;
    long N;
    while ((N = C.S.recvNb(Buf, sizeof(Buf), Eof)) > 0)
      C.FR.feed(Buf, static_cast<size_t>(N));
    if (N < 0 || Eof)
      return false;
  }
}

Tally Rig::serial(const std::vector<Op> &Ops, std::vector<double> *RttUs,
                  Tracer &T, uint64_t Req0) {
  Tally Out;
  Conn &C = Conns[0];
  uint64_t Req = Req0;
  for (const Op &O : Ops) {
    ++Out.Attempted;
    uint64_t Tag = NextTag++;
    uint64_t T0 = nowNs();
    uint32_t Rtt = T.begin("wire.rtt", 0, Req);
    {
      Scope S(T, "wire.encode", Rtt, Req);
      std::vector<uint8_t> Bytes = encodeOp(Tag, O);
      C.Out.insert(C.Out.end(), Bytes.begin(), Bytes.end());
    }
    net::Frame F;
    bool Got = flush(C) && awaitFrame(Tag, F, ReplyTimeoutS);
    bool Ok = false;
    if (Got) {
      Scope S(T, "wire.decode", Rtt, Req);
      Ok = checkReply(F, O, Out);
    } else {
      ++Out.Failed;
    }
    T.end(Rtt);
    if (Ok && RttUs)
      RttUs->push_back(usSince(T0));
    ++Req;
  }
  return Out;
}

bool Rig::pings(size_t N, std::vector<double> &RttUs) {
  Conn &C = Conns[0];
  for (size_t I = 0; I < N; ++I) {
    uint64_t Tag = NextTag++;
    uint64_t T0 = nowNs();
    std::vector<uint8_t> Bytes = net::encodePing(Tag);
    C.Out.insert(C.Out.end(), Bytes.begin(), Bytes.end());
    net::Frame F;
    if (!flush(C) || !awaitFrame(Tag, F, ReplyTimeoutS) ||
        F.H.Type != net::FrameType::Pong)
      return false;
    RttUs.push_back(usSince(T0));
  }
  return true;
}

LoopResult Rig::openLoop(size_t &Cursor, const LoopSpec &S) {
  struct Pending {
    uint64_t DueNs;
    Op O;
    bool Control;
  };
  LoopResult R(S);
  Poisson Gen(S.Rps, S.Seed);
  AbortRule Abort(S);
  std::unordered_map<uint64_t, Pending> InFlight;
  InFlight.reserve(4096);
  std::vector<std::pair<uint64_t, double>> DueLat;
  DueLat.reserve(R.LatUs.capacity());
  std::vector<pollfd> Fds(Conns.size());
  uint8_t Buf[65536];
  bool Broken = false;

  const uint64_t Start = nowNs();
  const uint64_t End = Start + static_cast<uint64_t>(S.Seconds * 1e9);
  const uint64_t InvalEvery =
      static_cast<uint64_t>(W.InvalidateEveryS * 1e9);
  uint64_t NextInval = InvalEvery ? Start + InvalEvery : UINT64_MAX;
  size_t InvalProg = 0;
  uint64_t Due = Start + Gen.gapNs();
  bool Sending = true;
  uint64_t DrainEnd = 0;

  auto Send = [&](Conn &C, std::vector<uint8_t> &&Bytes) {
    C.Out.insert(C.Out.end(), Bytes.begin(), Bytes.end());
    if (!flush(C))
      Broken = true;
  };

  for (;;) {
    uint64_t Now = nowNs();
    if (Sending && (Now >= End || R.Aborted || Broken)) {
      Sending = false;
      DrainEnd = Now + static_cast<uint64_t>(ReplyTimeoutS * 1e9);
    }
    if (Sending) {
      while (Due <= Now && Due < End) {
        uint64_t Tag = NextTag++;
        const Op &O = W.Stream[Cursor++ % W.Stream.size()];
        InFlight[Tag] = {Due, O, false};
        R.LateUs.push_back(static_cast<double>(Now - Due) / 1e3);
        ++R.Ops.Attempted;
        Send(Conns[Tag % Conns.size()], encodeOp(Tag, O));
        Due += Gen.gapNs();
      }
      if (Now >= NextInval) {
        uint64_t Tag = NextTag++;
        const Program &P = W.Progs[InvalProg++ % W.Progs.size()];
        InFlight[Tag] = {Now, Op(), true};
        ++R.Ops.Attempted;
        Send(Conns[Tag % Conns.size()], net::encodeInvalidate(Tag, P.Fn));
        NextInval += InvalEvery;
      }
    } else if (InFlight.empty() || Now >= DrainEnd || Broken) {
      break;
    }

    uint64_t Wake = Sending ? std::min({Due, End, NextInval}) : DrainEnd;
    Now = nowNs();
    uint64_t WaitNs = Wake > Now ? std::min<uint64_t>(Wake - Now, 10'000'000)
                                 : 0;
    for (size_t I = 0; I < Conns.size(); ++I)
      Fds[I] = {Conns[I].S.fd(),
                static_cast<short>(POLLIN |
                                   (Conns[I].Out.empty() ? 0 : POLLOUT)),
                0};
    timespec Ts{0, static_cast<long>(WaitNs)};
    if (ppoll(Fds.data(), Fds.size(), &Ts, nullptr) < 0)
      continue;
    for (size_t I = 0; I < Conns.size(); ++I) {
      Conn &C = Conns[I];
      if (Fds[I].revents & POLLOUT && !flush(C))
        Broken = true;
      if (!(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      bool Eof = false;
      long N;
      while ((N = C.S.recvNb(Buf, sizeof(Buf), Eof)) > 0)
        C.FR.feed(Buf, static_cast<size_t>(N));
      if (N < 0 || Eof)
        Broken = true;
      uint64_t Got = nowNs();
      net::Frame F;
      while (C.FR.next(F) == net::FrameReader::Status::Ready) {
        auto It = InFlight.find(F.H.Tag);
        if (It == InFlight.end())
          continue; // a reply that already timed out
        Pending P = It->second;
        InFlight.erase(It);
        if (P.Control) {
          uint64_t Dropped;
          if (F.H.Type != net::FrameType::InvalidateReply ||
              !net::decodeInvalidateReply(F, Dropped))
            ++R.Ops.Failed;
          continue;
        }
        double Lat = static_cast<double>(Got - P.DueNs) / 1e3;
        if (checkReply(F, P.O, R.Ops)) {
          R.LatUs.push_back(Lat);
          DueLat.push_back({P.DueNs, Lat});
        }
        if (Abort.note(Lat))
          R.Aborted = true;
      }
    }
  }
  // Whatever is still in flight timed out.
  R.Ops.Failed += InFlight.size();
  quarterMedians(DueLat, R);
  return R;
}

//===----------------------------------------------------------------------===//
// In-process service
//===----------------------------------------------------------------------===//

Tally pb::replayService(const Workload &W, const fab::Compilation &C,
                        Oracle &O, WireValues &V, const std::vector<Op> &Warm,
                        const std::vector<Op> &Ops, std::vector<double> &LatUs,
                        Tracer &T, double &OpsS) {
  Tally Out;
  fab::service::SpecServer S(C, serverOptions(W));
  fab::service::SubmitOptions SO;
  SO.MaxRetries = 0;
  std::atomic<bool> Done{false};
  uint64_t EndNs = 0;
  std::optional<FabResult<int32_t>> Res;
  auto Submit = [&](const Op &Q) {
    Done.store(false, std::memory_order_relaxed);
    S.submitAsync(W.Progs[Q.Prog].Fn, V.early(Q), V.late(Q), SO,
                  [&](FabResult<int32_t> R) {
                    EndNs = nowNs();
                    Res.emplace(std::move(R));
                    Done.store(true, std::memory_order_release);
                  });
    while (!Done.load(std::memory_order_acquire))
      std::this_thread::yield();
  };
  auto Check = [&](const Op &Q) {
    uint32_t Want = 0;
    ++Out.Attempted;
    if (!*Res) {
      ++Out.Failed;
      return false;
    }
    if (!O.expected(Q, Want) || static_cast<uint32_t>(**Res) != Want) {
      ++Out.Failed;
      ++Out.Mismatches;
      return false;
    }
    return true;
  };
  for (const Op &Q : Warm) {
    Submit(Q);
    Check(Q);
  }
  uint64_t Req = 1;
  const uint64_t Start = nowNs();
  for (const Op &Q : Ops) {
    uint64_t T0 = nowNs();
    Submit(Q);
    T.add("service.submit", 0, Req++, T0, EndNs);
    if (Check(Q))
      LatUs.push_back(static_cast<double>(EndNs - T0) / 1e3);
  }
  OpsS = static_cast<double>(nowNs() - Start) / 1e9;
  S.shutdown();
  return Out;
}
