//===- WireServer.cpp - sharded reactor TCP front-end over SpecServer -----===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//

#include "net/WireServer.h"

#include "telemetry/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <poll.h>

using namespace fab;
using namespace fab::net;
using fab::telemetry::EventKind;

namespace {

/// The per-read scratch size. One recv() of this many bytes can carry
/// hundreds of pipelined small frames — exactly the batches a reactor
/// drains in one pass so they land together in the worker queues.
constexpr size_t ReadChunk = 64 * 1024;

/// How often the accept loop wakes to check the stop flag.
constexpr int AcceptPollMs = 50;

std::string clip(std::string S) {
  if (S.size() > MaxStringBytes)
    S.resize(MaxStringBytes);
  return S;
}

uint64_t steadyMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool reusePortVetoed() {
  const char *Env = std::getenv("FAB_REUSEPORT");
  return Env && std::strcmp(Env, "0") == 0;
}

} // namespace

unsigned fab::net::autoShards() {
  unsigned H = std::thread::hardware_concurrency();
  if (H <= 2)
    return 1;
  return std::min(8u, H / 2);
}

WireServer::WireServer(service::SpecServer &S, const WireOptions &O)
    : Server(S), Opts(O), Trace(O.TraceCapacity, O.EnableTrace) {
  unsigned N = Opts.Shards ? Opts.Shards : autoShards();
  Sh.reserve(N);
  for (unsigned I = 0; I < N; ++I) {
    Sh.push_back(std::make_unique<Shard>(Opts.ForcePollReactor));
    Sh.back()->Index = I;
  }
}

WireServer::~WireServer() { stop(); }

bool WireServer::reactorUsingEpoll() const {
  return !Sh.empty() && Sh.front()->Rx.usingEpoll();
}

bool WireServer::start(std::string *Err) {
  if (Running.load(std::memory_order_acquire))
    return true;
  for (const auto &S : Sh)
    if (!S->Rx.valid()) {
      if (Err)
        *Err = "reactor setup failed (self-pipe)";
      return false;
    }

  // Accept strategy: per-shard SO_REUSEPORT listeners when wanted and
  // possible, else one listener + round-robin handoff. The first
  // listener may bind an ephemeral port; the rest must join it.
  Lst.clear();
  ReusePortLive = false;
  bool WantReuse = Opts.UseReusePort && Sh.size() > 1 && !reusePortVetoed();
  if (WantReuse) {
    auto L0 = std::make_unique<Listener>();
    if (L0->listen(Opts.BindAddr, Opts.Port, Opts.Backlog, nullptr,
                   /*ReusePort=*/true)) {
      uint16_t P = L0->port();
      Lst.push_back(std::move(L0));
      bool AllUp = true;
      for (size_t I = 1; I < Sh.size() && AllUp; ++I) {
        auto L = std::make_unique<Listener>();
        AllUp = L->listen(Opts.BindAddr, P, Opts.Backlog, nullptr,
                          /*ReusePort=*/true);
        if (AllUp)
          Lst.push_back(std::move(L));
      }
      if (AllUp)
        ReusePortLive = true;
      else
        Lst.clear(); // partial fleet: fall back to handoff cleanly
    }
  }
  if (!ReusePortLive) {
    auto L = std::make_unique<Listener>();
    if (!L->listen(Opts.BindAddr, Opts.Port, Opts.Backlog, Err))
      return false;
    Lst.push_back(std::move(L));
  }
  BoundPort = Lst.front()->port();

  StopFlag.store(false, std::memory_order_release);
  Running.store(true, std::memory_order_release);
  NextShard = 0;
  Acceptor = std::thread([this] { runAccept(); });
  for (auto &S : Sh) {
    Shard *P = S.get();
    S->Loop = std::thread([this, P] { runReactor(*P); });
  }
  return true;
}

void WireServer::stop() {
  if (!Running.exchange(false, std::memory_order_acq_rel))
    return;
  StopFlag.store(true, std::memory_order_release);
  if (Acceptor.joinable())
    Acceptor.join();
  for (auto &L : Lst)
    L->close();
  for (auto &S : Sh) {
    S->Rx.wakeup();
    if (S->Loop.joinable())
      S->Loop.join();
    // Completions that raced past the reactor's exit hold ConnPtrs; the
    // conns are already folded, so the payloads are undeliverable.
    std::lock_guard<std::mutex> L(S->DoneMutex);
    S->DoneQ.clear();
  }
}

void WireServer::trace(EventKind K, uint64_t Arg0, uint64_t Arg1) {
  if (!Opts.EnableTrace)
    return;
  std::lock_guard<std::mutex> L(TraceMutex);
  Trace.record(K, /*SimInstr=*/0, Arg0, Arg1);
}

std::vector<telemetry::TraceEvent> WireServer::drainTrace() {
  std::lock_guard<std::mutex> L(TraceMutex);
  return Trace.drain();
}

uint32_t WireServer::retryHint(FabErrc C) const {
  switch (C) {
  case FabErrc::Rejected:
    return Opts.RetryAfterRejectedUs;
  case FabErrc::CircuitOpen:
    return Opts.RetryAfterCircuitUs;
  default:
    return 0; // not an overload refusal; retrying soon will not help
  }
}

//===----------------------------------------------------------------------===//
// Accept loop: admission control, then handoff to the owning shard
//===----------------------------------------------------------------------===//

void WireServer::admit(Socket &&S, Shard &Home) {
  if (Opts.MaxConns && liveConnections() >= Opts.MaxConns) {
    // Refuse while the socket is still blocking and private to this
    // thread: preamble + typed Rejected (tag 0 — no request to
    // attribute it to), then hang up. No reactor ever sees it. The
    // reject is charged to the shard that would have owned it so the
    // per-shard rows still sum exactly.
    std::vector<uint8_t> Bye = encodePreamble();
    std::vector<uint8_t> Err =
        encodeError(0, wireCode(FabErrc::Rejected), Opts.RetryAfterRejectedUs,
                    "connection limit reached");
    Bye.insert(Bye.end(), Err.begin(), Err.end());
    S.sendAll(Bye.data(), Bye.size());
    S.close();
    std::lock_guard<std::mutex> L(Home.RStatsMutex);
    Home.RStats.AcceptRejects++;
    return;
  }

  auto C = std::make_shared<Conn>(Opts.MaxFrameBytes);
  S.setNonBlocking(true);
  C->Tr.reset(new TcpTransport(std::move(S)));
  C->Home = &Home;
  C->Id = NextConnId.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> L(Home.ConnsMutex);
    Home.Conns.push_back(C);
  }
  {
    std::lock_guard<std::mutex> L(C->StatsMutex);
    C->Stats.Connections = 1;
  }
  trace(EventKind::ConnOpen, C->Id, 0);
  {
    std::lock_guard<std::mutex> L(Home.IntakeMutex);
    Home.IntakeQ.push_back(std::move(C));
  }
  Home.Rx.wakeup();
}

void WireServer::runAccept() {
  if (ReusePortLive) {
    // One listener per shard, kernel-hashed: poll the whole fleet and
    // drain whichever fds are ready. A connection's listener index IS
    // its shard.
    std::vector<pollfd> P(Lst.size());
    for (size_t I = 0; I < Lst.size(); ++I)
      P[I] = {Lst[I]->fd(), POLLIN, 0};
    while (!StopFlag.load(std::memory_order_acquire)) {
      int Rc;
      do {
        Rc = ::poll(P.data(), P.size(), AcceptPollMs);
      } while (Rc < 0 && errno == EINTR);
      if (Rc <= 0)
        continue;
      for (size_t I = 0; I < Lst.size(); ++I) {
        if (!(P[I].revents & (POLLIN | POLLERR | POLLHUP)))
          continue;
        for (;;) {
          Socket S = Lst[I]->accept(0);
          if (!S.valid())
            break;
          admit(std::move(S), *Sh[I]);
        }
      }
    }
    return;
  }
  // Handoff mode: one listener, round-robin shard assignment.
  while (!StopFlag.load(std::memory_order_acquire)) {
    bool TimedOut = false;
    Socket S = Lst.front()->accept(AcceptPollMs, &TimedOut);
    if (!S.valid())
      continue;
    Shard &Home = *Sh[NextShard];
    NextShard = (NextShard + 1) % static_cast<unsigned>(Sh.size());
    admit(std::move(S), Home);
  }
}

//===----------------------------------------------------------------------===//
// Reactor loop (one per shard)
//===----------------------------------------------------------------------===//

void WireServer::runReactor(Shard &Sd) {
  std::unordered_map<uint64_t, ConnPtr> ById;
  std::vector<ReactorEvent> Events;
  std::vector<uint8_t> Buf(ReadChunk);

  for (;;) {
    uint64_t NowMs = steadyMs();
    int TimeoutMs = Sd.Wheel.msUntilNext(NowMs);
    Events.clear();
    size_t N = Sd.Rx.wait(Events, TimeoutMs);

    // Clear the coalescing flag before looking at the queues: a
    // completion arriving after this store re-arms the pipe, so nothing
    // pushed after the sweep below can be missed.
    Sd.WakePending.store(false, std::memory_order_seq_cst);
    NowMs = steadyMs();

    bool Stopping = StopFlag.load(std::memory_order_acquire);

    intake(Sd, ById, NowMs);
    drainDone(Sd, ById, NowMs);

    for (const ReactorEvent &Ev : Events) {
      auto It = ById.find(Ev.Cookie);
      if (It == ById.end())
        continue; // closed earlier in this sweep
      ConnPtr C = It->second;
      if (Ev.Mask & (EvRead | EvError))
        readReady(C, Buf, NowMs);
      if (!C->Closed && (Ev.Mask & EvWrite))
        flushOut(C);
    }

    onTimer(Sd, ById, NowMs);

    if (N || !Events.empty()) {
      std::lock_guard<std::mutex> L(Sd.RStatsMutex);
      Sd.RStats.Wakeups++;
      Sd.RStats.EventsDispatched += Events.size();
    }

    if (Stopping) {
      // Best-effort final flush, then teardown. Replies whose requests
      // are still in a worker queue are abandoned — the sockets are
      // closing anyway (same contract as the thread-pair front-end).
      std::vector<ConnPtr> Open;
      Open.reserve(ById.size());
      for (auto &KV : ById)
        Open.push_back(KV.second);
      for (auto &C : Open) {
        if (!C->Closed)
          flushOut(C);
        if (!C->Closed)
          closeConn(C);
      }
      ById.clear();
      // Conns accepted but never drained from intake still need to be
      // counted into the closed aggregate.
      intake(Sd, ById, NowMs);
      for (auto &KV : ById)
        closeConn(KV.second);
      return;
    }

    // Reactor-thread-only cleanup of the cookie map: drop conns closed
    // during this sweep.
    for (auto It = ById.begin(); It != ById.end();) {
      if (It->second->Closed)
        It = ById.erase(It);
      else
        ++It;
    }
  }
}

void WireServer::intake(Shard &Sd, std::unordered_map<uint64_t, ConnPtr> &ById,
                        uint64_t NowMs) {
  std::vector<ConnPtr> Fresh;
  {
    std::lock_guard<std::mutex> L(Sd.IntakeMutex);
    Fresh.swap(Sd.IntakeQ);
  }
  if (Fresh.empty())
    return;
  for (auto &C : Fresh) {
    C->LastActivityMs = NowMs;
    ById[C->Id] = C;
    if (!Sd.Rx.add(C->Tr->fd(), EvRead, C->Id)) {
      closeConn(C);
      ById.erase(C->Id);
      continue;
    }
    appendOut(C, encodePreamble(), /*IsFrame=*/false, /*IsError=*/false);
    if (!flushOut(C))
      continue;
    if (Opts.IdleTimeoutMs)
      Sd.Wheel.schedule(C->Id, NowMs + Opts.IdleTimeoutMs);
  }
  uint64_t Open = 0;
  {
    std::lock_guard<std::mutex> CL(Sd.ConnsMutex);
    Open = Sd.Conns.size();
  }
  std::lock_guard<std::mutex> L(Sd.RStatsMutex);
  if (Open > Sd.RStats.PeakConns)
    Sd.RStats.PeakConns = Open;
}

void WireServer::drainDone(Shard &Sd,
                           std::unordered_map<uint64_t, ConnPtr> &ById,
                           uint64_t NowMs) {
  std::vector<DoneItem> Items;
  {
    std::lock_guard<std::mutex> L(Sd.DoneMutex);
    Items.swap(Sd.DoneQ);
  }
  // Append every reply first, flush each connection once: a pipelined
  // window completing together leaves in one send(), not one per reply.
  std::vector<ConnPtr> Touched;
  for (DoneItem &D : Items) {
    // Every item is one dispatched request coming home, whether or not
    // its connection survived to hear the answer.
    GlobalInFlight.fetch_sub(1, std::memory_order_relaxed);
    if (Sd.InFlight)
      Sd.InFlight--;
    if (D.C->Closed)
      continue;
    D.C->InFlight--;
    D.C->LastActivityMs = NowMs;
    if (!D.C->DirtyOut) {
      D.C->DirtyOut = true;
      Touched.push_back(D.C);
    }
    appendOut(D.C, D.Bytes, /*IsFrame=*/true, D.IsError);
  }
  for (const ConnPtr &C : Touched) {
    C->DirtyOut = false;
    if (!C->Closed)
      flushOut(C);
  }
  (void)ById;
}

//===----------------------------------------------------------------------===//
// Read path: preamble state machine, frame batching, dispatch
//===----------------------------------------------------------------------===//

void WireServer::readReady(const ConnPtr &C, std::vector<uint8_t> &Buf,
                           uint64_t NowMs) {
  if (C->Closed || C->CloseAfterFlush || C->ReadClosed)
    return;

  size_t Got = 0;
  Transport::Io R = C->Tr->read(Buf.data(), Buf.size(), Got);
  if (R == Transport::Io::WouldBlock)
    return;
  if (R == Transport::Io::Eof || R == Transport::Io::Error) {
    // Bytes of a half-received frame — or a half-received preamble —
    // are a protocol violation worth counting (the fuzz tests cut
    // connections mid-frame on purpose).
    if (!C->PreambleDone || C->FR.pendingBytes() > 0) {
      std::lock_guard<std::mutex> L(C->StatsMutex);
      C->Stats.ProtocolErrors++;
    }
    C->ReadClosed = true;
    flushOut(C); // closes now if nothing is owed
    return;
  }

  size_t Off = 0;
  if (!C->PreambleDone) {
    size_t Take = std::min(PreambleBytes - C->PreGot, Got);
    std::memcpy(C->Pre + C->PreGot, Buf.data(), Take);
    C->PreGot += Take;
    Off = Take;
    if (C->PreGot < PreambleBytes)
      return; // dripped preamble bytes are not activity — loris food
    C->PreambleDone = true;
    switch (decodePreamble(C->Pre, PreambleBytes)) {
    case PreambleStatus::Ok: {
      C->LastActivityMs = NowMs;
      std::lock_guard<std::mutex> L(C->StatsMutex);
      C->Stats.BytesIn += PreambleBytes;
      break;
    }
    case PreambleStatus::BadMagic: {
      // Not this protocol at all — flush our own preamble (already
      // queued at intake) and drop silently: no Error frame.
      {
        std::lock_guard<std::mutex> L(C->StatsMutex);
        C->Stats.ProtocolErrors++;
      }
      C->CloseAfterFlush = true;
      flushOut(C);
      return;
    }
    case PreambleStatus::BadVersion: {
      {
        std::lock_guard<std::mutex> L(C->StatsMutex);
        C->Stats.ProtocolErrors++;
      }
      sendError(C, 0, wireCode(WireErrc::BadVersion),
                /*RetryUs=*/0, "unsupported wire version", /*CloseConn=*/true);
      flushOut(C);
      return;
    }
    }
  }

  size_t Rest = Got - Off;
  if (Rest) {
    {
      std::lock_guard<std::mutex> L(C->StatsMutex);
      C->Stats.BytesIn += Rest;
    }
    C->FR.feed(Buf.data() + Off, Rest);
  }

  // Drain every complete frame this read produced before returning to
  // the event loop, so pipelined requests reach the worker queues
  // together. Level-triggered readiness re-arms us if the socket still
  // holds more than one ReadChunk.
  unsigned Batch = 0;
  Frame F;
  while (!C->CloseAfterFlush && !C->Closed) {
    FrameReader::Status St = C->FR.next(F);
    if (St == FrameReader::Status::NeedMore)
      break;
    if (St == FrameReader::Status::TooLarge) {
      {
        std::lock_guard<std::mutex> L(C->StatsMutex);
        C->Stats.ProtocolErrors++;
      }
      // The stream cannot be resynchronized past an oversized length
      // prefix; refuse with the offending tag and hang up.
      sendError(C, C->FR.offendingTag(), wireCode(WireErrc::FrameTooLarge),
                /*RetryUs=*/0, "frame exceeds the server's size ceiling",
                /*CloseConn=*/true);
      break;
    }
    ++Batch;
    C->LastActivityMs = NowMs; // a complete frame is real activity
    handleFrame(C, std::move(F));
  }
  if (Batch) {
    {
      std::lock_guard<std::mutex> L(C->StatsMutex);
      C->Stats.FramesIn += Batch;
      C->Stats.ReadBatches++;
      if (Batch > 1)
        C->Stats.BatchedFrames += Batch;
    }
    trace(EventKind::FrameRecv, C->Id, Batch);
  }
  if (!C->Closed)
    flushOut(C);
}

//===----------------------------------------------------------------------===//
// Frame dispatch
//===----------------------------------------------------------------------===//

bool WireServer::overCap(const ConnPtr &C) const {
  if (Opts.MaxInFlightPerConn && C->InFlight >= Opts.MaxInFlightPerConn)
    return true;
  if (Opts.MaxInFlightGlobal &&
      GlobalInFlight.load(std::memory_order_relaxed) >= Opts.MaxInFlightGlobal)
    return true;
  return false;
}

void WireServer::completeToShard(const ConnPtr &C, DoneItem &&D) {
  Shard &Home = *C->Home;
  {
    std::lock_guard<std::mutex> L(Home.DoneMutex);
    Home.DoneQ.push_back(std::move(D));
  }
  if (!Home.WakePending.exchange(true, std::memory_order_seq_cst))
    Home.Rx.wakeup();
}

void WireServer::handleFrame(const ConnPtr &C, Frame &&F) {
  const uint64_t Tag = F.H.Tag;
  switch (F.H.Type) {
  case FrameType::SubmitSpecialize:
  case FrameType::Call: {
    SubmitBody B;
    if (!decodeSubmit(F, B)) {
      sendError(C, Tag, wireCode(WireErrc::BadFrame), /*RetryUs=*/0,
                "malformed submit payload", /*CloseConn=*/false);
      return;
    }
    if (overCap(C)) {
      {
        std::lock_guard<std::mutex> L(C->StatsMutex);
        C->Stats.CapRejects++;
      }
      sendError(C, Tag, wireCode(FabErrc::Rejected), Opts.RetryAfterRejectedUs,
                "in-flight cap reached", /*CloseConn=*/false);
      return;
    }
    C->InFlight++;
    C->Home->InFlight++;
    GlobalInFlight.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> L(C->StatsMutex);
      C->Stats.Submits++;
      if (C->InFlight > C->Stats.PipelineHighWater)
        C->Stats.PipelineHighWater = C->InFlight;
    }
    service::SubmitOptions O;
    O.DeadlineNs = B.DeadlineNs;
    O.MaxRetries = B.MaxRetries;
    // The completion runs on the serving worker's thread (or inline on
    // a refusal); C is kept alive by the capture until the reply lands
    // in its home shard's DoneQ. Encoding happens off the reactor
    // thread on purpose.
    Server.submitAsync(
        B.Fn, std::move(B.Early), std::move(B.Late), O,
        [this, C, Tag](FabResult<int32_t> R) {
          DoneItem D;
          D.C = C;
          D.IsError = !R.ok();
          if (R.ok())
            D.Bytes = encodeResult(Tag, *R);
          else
            D.Bytes = encodeError(Tag, wireCode(R.error().Code),
                                  retryHint(R.error().Code),
                                  clip(R.error().message()));
          completeToShard(C, std::move(D));
        });
    return;
  }
  case FrameType::Invalidate: {
    std::string Fn;
    if (!decodeInvalidate(F, Fn)) {
      sendError(C, Tag, wireCode(WireErrc::BadFrame), /*RetryUs=*/0,
                "malformed invalidate payload", /*CloseConn=*/false);
      return;
    }
    if (overCap(C)) {
      {
        std::lock_guard<std::mutex> L(C->StatsMutex);
        C->Stats.CapRejects++;
      }
      sendError(C, Tag, wireCode(FabErrc::Rejected), Opts.RetryAfterRejectedUs,
                "in-flight cap reached", /*CloseConn=*/false);
      return;
    }
    C->InFlight++;
    C->Home->InFlight++;
    GlobalInFlight.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> L(C->StatsMutex);
      C->Stats.Invalidates++;
      if (C->InFlight > C->Stats.PipelineHighWater)
        C->Stats.PipelineHighWater = C->InFlight;
    }
    Server.invalidateAsync(Fn, [this, C, Tag](FabResult<int32_t> R) {
      DoneItem D;
      D.C = C;
      D.IsError = !R.ok();
      if (R.ok())
        D.Bytes = encodeInvalidateReply(Tag, static_cast<uint64_t>(*R));
      else
        D.Bytes = encodeError(Tag, wireCode(R.error().Code),
                              retryHint(R.error().Code),
                              clip(R.error().message()));
      completeToShard(C, std::move(D));
    });
    return;
  }
  case FrameType::Stats: {
    {
      std::lock_guard<std::mutex> L(C->StatsMutex);
      C->Stats.StatsRequests++;
    }
    TelemetrySnapshot T = telemetry();
    StatsPairs P;
    P.reserve(38);
    P.emplace_back("workers", T.Workers);
    P.emplace_back("submitted", T.Submitted);
    P.emplace_back("served", T.Served);
    P.emplace_back("errors", T.Errors);
    P.emplace_back("rejected", T.Rejected);
    P.emplace_back("coalesced", T.Coalesced);
    P.emplace_back("queue_high_water", T.QueueHighWater);
    P.emplace_back("shed", T.Overload.Shed);
    P.emplace_back("deadline_misses", T.Overload.DeadlineMisses);
    P.emplace_back("retried", T.Overload.Retried);
    P.emplace_back("breaker_opens", T.Overload.BreakerOpens);
    P.emplace_back("breakers_open_now", T.BreakersOpen);
    P.emplace_back("cache_hits", T.Cache.Hits);
    P.emplace_back("cache_misses", T.Cache.Misses);
    P.emplace_back("cache_invalidated", T.Cache.Invalidated);
    P.emplace_back("memo_generator_runs", T.Memo.GeneratorRuns);
    P.emplace_back("memo_hits", T.Memo.MemoHits);
    P.emplace_back("gen_executed", T.Memo.GenExecuted);
    P.emplace_back("gen_dyn_words", T.Memo.GenDynWords);
    P.emplace_back("net_connections", T.Net.Connections);
    P.emplace_back("net_frames_in", T.Net.FramesIn);
    P.emplace_back("net_frames_out", T.Net.FramesOut);
    P.emplace_back("net_bytes_in", T.Net.BytesIn);
    P.emplace_back("net_bytes_out", T.Net.BytesOut);
    P.emplace_back("net_read_batches", T.Net.ReadBatches);
    P.emplace_back("net_batched_frames", T.Net.BatchedFrames);
    P.emplace_back("net_errors_out", T.Net.ErrorsOut);
    P.emplace_back("net_protocol_errors", T.Net.ProtocolErrors);
    P.emplace_back("net_pipeline_high_water", T.Net.PipelineHighWater);
    P.emplace_back("net_cap_rejects", T.Net.CapRejects);
    P.emplace_back("reactor_shards", shards());
    P.emplace_back("reactor_reuseport", usingReusePort() ? 1 : 0);
    P.emplace_back("reactor_open_conns", T.Reactor.OpenConns);
    P.emplace_back("reactor_peak_conns", T.Reactor.PeakConns);
    P.emplace_back("reactor_idle_closed", T.Reactor.IdleClosed);
    P.emplace_back("reactor_accept_rejects", T.Reactor.AcceptRejects);
    appendOut(C, encodeStatsReply(Tag, P), /*IsFrame=*/true,
              /*IsError=*/false);
    return;
  }
  case FrameType::Ping:
    appendOut(C, encodePong(Tag), /*IsFrame=*/true, /*IsError=*/false);
    return;
  default:
    // Well-framed but unknown: the connection stays usable (forward
    // compatibility — an old server refuses new request types politely).
    sendError(C, Tag, wireCode(WireErrc::UnknownType), /*RetryUs=*/0,
              "unknown frame type", /*CloseConn=*/false);
    return;
  }
}

void WireServer::sendError(const ConnPtr &C, uint64_t Tag, uint16_t Code,
                           uint32_t RetryUs, const std::string &Msg,
                           bool CloseConn) {
  if (CloseConn)
    C->CloseAfterFlush = true;
  // Append only — no flush here. A flush can close and retire the
  // connection, and callers inside the read loop still have batch
  // counters to record; they flush once the batch is accounted.
  appendOut(C, encodeError(Tag, Code, RetryUs, Msg), /*IsFrame=*/true,
            /*IsError=*/true);
}

//===----------------------------------------------------------------------===//
// Write path: flat output buffer, EPOLLOUT arming, close eligibility
//===----------------------------------------------------------------------===//

void WireServer::appendOut(const ConnPtr &C, const std::vector<uint8_t> &Bytes,
                           bool IsFrame, bool IsError) {
  if (C->Closed)
    return;
  {
    std::lock_guard<std::mutex> L(C->StatsMutex);
    C->Stats.BytesOut += Bytes.size();
    if (IsFrame) {
      C->Stats.FramesOut++;
      if (IsError)
        C->Stats.ErrorsOut++;
    }
  }
  // Compact the consumed prefix before growing: a healthy connection
  // keeps flushing to empty, so this usually resets to offset zero.
  if (C->OutPos == C->Out.size()) {
    C->Out.clear();
    C->OutPos = 0;
  } else if (C->OutPos > ReadChunk && C->OutPos > C->Out.size() / 2) {
    C->Out.erase(C->Out.begin(),
                 C->Out.begin() + static_cast<long>(C->OutPos));
    C->OutPos = 0;
  }
  C->Out.insert(C->Out.end(), Bytes.begin(), Bytes.end());
}

bool WireServer::flushOut(const ConnPtr &C) {
  if (C->Closed)
    return false;
  Shard &Home = *C->Home;
  while (C->OutPos < C->Out.size()) {
    size_t Put = 0;
    Transport::Io R = C->Tr->write(C->Out.data() + C->OutPos,
                                   C->Out.size() - C->OutPos, Put);
    if (R == Transport::Io::Ok) {
      C->OutPos += Put;
      continue;
    }
    if (R == Transport::Io::WouldBlock) {
      uint64_t Backlog = C->Out.size() - C->OutPos;
      if (!C->WantWrite) {
        C->WantWrite = true;
        Home.Rx.modify(C->Tr->fd(), EvRead | EvWrite);
      }
      std::lock_guard<std::mutex> L(Home.RStatsMutex);
      Home.RStats.WriteStalls++;
      if (Backlog > Home.RStats.WriteStallPeakBytes)
        Home.RStats.WriteStallPeakBytes = Backlog;
      return true;
    }
    // The peer is gone; nothing more can be delivered.
    closeConn(C);
    return false;
  }
  if (C->WantWrite) {
    C->WantWrite = false;
    Home.Rx.modify(C->Tr->fd(), EvRead);
  }
  // Everything owed has been handed to the kernel. Tear down if this
  // connection is waiting only on the flush.
  if ((C->CloseAfterFlush || C->ReadClosed) && C->InFlight == 0) {
    closeConn(C);
    return false;
  }
  return true;
}

void WireServer::closeConn(const ConnPtr &C) {
  if (C->Closed)
    return;
  C->Closed = true;
  Shard &Home = *C->Home;
  Home.Rx.remove(C->Tr->fd());
  C->Tr->shutdownBoth();
  C->Tr->close();

  // Fold the connection's counters into its shard's closed aggregate —
  // O(shards) retained state no matter how many connections churn
  // through, while the telemetry sums stay exact.
  NetStats Final;
  {
    std::lock_guard<std::mutex> L(C->StatsMutex);
    C->Stats.Disconnects = 1;
    Final = C->Stats;
  }
  trace(EventKind::ConnClose, C->Id, Final.FramesIn);
  if (Final.FramesOut)
    trace(EventKind::FrameSend, C->Id, Final.FramesOut);
  std::lock_guard<std::mutex> L(Home.ConnsMutex);
  Home.Conns.erase(std::remove(Home.Conns.begin(), Home.Conns.end(), C),
                   Home.Conns.end());
  Home.ClosedAgg += Final;
  Home.ClosedConns++;
}

//===----------------------------------------------------------------------===//
// Idle reaping
//===----------------------------------------------------------------------===//

void WireServer::onTimer(Shard &Sd, std::unordered_map<uint64_t, ConnPtr> &ById,
                         uint64_t NowMs) {
  if (!Opts.IdleTimeoutMs || !Sd.Wheel.armed())
    return;
  std::vector<uint64_t> Fired;
  if (!Sd.Wheel.advance(NowMs, Fired))
    return;
  {
    std::lock_guard<std::mutex> L(Sd.RStatsMutex);
    Sd.RStats.TimerTicks++;
  }
  for (uint64_t Id : Fired) {
    auto It = ById.find(Id);
    if (It == ById.end() || It->second->Closed)
      continue; // lazily cancelled: the connection is already gone
    ConnPtr C = It->second;
    uint64_t IdleAt = C->LastActivityMs + Opts.IdleTimeoutMs;
    bool Flushed = C->OutPos == C->Out.size();
    if (NowMs >= IdleAt && C->InFlight == 0 && Flushed) {
      closeConn(C);
      std::lock_guard<std::mutex> L(Sd.RStatsMutex);
      Sd.RStats.IdleClosed++;
      continue;
    }
    // Activity moved the deadline (or the conn is busy): re-arm at the
    // earliest moment it could genuinely be idle.
    Sd.Wheel.schedule(Id, IdleAt > NowMs ? IdleAt : NowMs + Opts.IdleTimeoutMs);
  }
}

//===----------------------------------------------------------------------===//
// Observability
//===----------------------------------------------------------------------===//

unsigned WireServer::liveConnections() const {
  unsigned N = 0;
  for (const auto &S : Sh) {
    std::lock_guard<std::mutex> L(S->ConnsMutex);
    N += static_cast<unsigned>(S->Conns.size());
  }
  return N;
}

unsigned WireServer::liveConnections(unsigned Shard) const {
  if (Shard >= Sh.size())
    return 0;
  std::lock_guard<std::mutex> L(Sh[Shard]->ConnsMutex);
  return static_cast<unsigned>(Sh[Shard]->Conns.size());
}

std::vector<ConnStatsRow> WireServer::connectionStats() const {
  std::vector<ConnStatsRow> Out;
  for (const auto &S : Sh) {
    std::lock_guard<std::mutex> L(S->ConnsMutex);
    if (S->ClosedConns) {
      ConnStatsRow Agg;
      Agg.ConnId = 0; // aggregate row, not a single connection
      Agg.Shard = S->Index;
      Agg.Live = false;
      Agg.Net = S->ClosedAgg;
      Out.push_back(std::move(Agg));
    }
    for (const auto &C : S->Conns) {
      ConnStatsRow Row;
      Row.ConnId = C->Id;
      Row.Shard = S->Index;
      Row.Live = true;
      std::lock_guard<std::mutex> SL(C->StatsMutex);
      Row.Net = C->Stats;
      Out.push_back(std::move(Row));
    }
  }
  std::sort(Out.begin(), Out.end(),
            [](const ConnStatsRow &A, const ConnStatsRow &B) {
              return A.ConnId < B.ConnId;
            });
  return Out;
}

TelemetrySnapshot WireServer::telemetry() const {
  TelemetrySnapshot T = Server.telemetry();
  for (const auto &S : Sh) {
    ShardLoadRow Row;
    Row.Shard = S->Index;
    unsigned Live = 0;
    {
      std::lock_guard<std::mutex> L(S->ConnsMutex);
      Row.Net = S->ClosedAgg;
      for (const auto &C : S->Conns) {
        std::lock_guard<std::mutex> SL(C->StatsMutex);
        Row.Net += C->Stats;
      }
      Live = static_cast<unsigned>(S->Conns.size());
    }
    {
      std::lock_guard<std::mutex> L(S->RStatsMutex);
      Row.Reactor = S->RStats;
    }
    Row.Reactor.OpenConns = Live;
    T.Net += Row.Net;
    T.Reactor += Row.Reactor;
    T.ShardLoads.push_back(std::move(Row));
  }
  return T;
}
