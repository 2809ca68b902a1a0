//===- MachinePool.cpp ----------------------------------------------------===//

#include "service/MachinePool.h"

#include "support/StringUtil.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

using namespace fab;
using namespace fab::service;

MachinePool::MachinePool(const Compilation &C, const PoolOptions &O)
    : Comp(C), Opts(O) {
  // Process-wide robustness vetoes (see docs/INTERNALS.md): the env var
  // always wins over the options the caller passed. A count that does
  // not parse is reported and ignored, never read as 0 or wrapped.
  auto envCount = [](const char *Name, size_t &Out) {
    const char *E = std::getenv(Name);
    if (!E)
      return;
    if (std::optional<uint64_t> V = parseCount(E))
      Out = static_cast<size_t>(*V);
    else
      std::fprintf(stderr, "fab: ignoring %s=%s (not a count); keeping %zu\n",
                   Name, E, Out);
  };
  envCount("FAB_QUEUE_DEPTH", Opts.MaxQueueDepth);
  if (const char *E = std::getenv("FAB_BREAKER"); E && E[0] == '0' && !E[1])
    Opts.Breaker.Enabled = false;
  if (const char *E = std::getenv("FAB_RETRIES"); E && E[0] == '0' && !E[1])
    RetriesVetoed = true;
  envCount("FAB_CACHE_CAPACITY", Opts.Cache.Capacity);
  Opts.Cache.Capacity = std::max<size_t>(1, Opts.Cache.Capacity);
  if (const char *E = std::getenv("FAB_ADMISSION"); E && E[0] == '0' && !E[1])
    Opts.Cache.Admission = false;
  if (const char *E = std::getenv("FAB_CACHE_FILE")) {
    // A set-but-empty value vetoes persistence entirely; a path enables
    // the full warm cycle (load at boot, save at shutdown).
    Opts.Cache.LoadFile = Opts.Cache.SaveFile = E;
  }
  unsigned N = std::max(1u, Opts.Workers);
  if (!Opts.Cache.LoadFile.empty()) {
    Restore = loadCacheFile(Opts.Cache.LoadFile, compilationFingerprint(C));
    if (Restore && Restore->Workers.size() != N) {
      std::fprintf(stderr,
                   "fab: cache file %s holds %zu worker images but the pool "
                   "has %u workers; cold-starting\n",
                   Opts.Cache.LoadFile.c_str(), Restore->Workers.size(), N);
      Restore.reset();
    }
  }
  Ws.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Ws.push_back(std::make_unique<Worker>());
  for (unsigned I = 0; I < N; ++I)
    Ws[I]->Thread = std::thread([this, I] { runWorker(I); });
}

MachinePool::~MachinePool() { shutdown(); }

MachinePool::PostStatus MachinePool::post(unsigned W, Request R) {
  Worker &Wk = *Ws.at(W);
  {
    std::lock_guard<std::mutex> L(Wk.QueueMutex);
    if (Wk.Stopped)
      return PostStatus::Stopped;
    if (R.K == Request::Kind::Serve && Opts.MaxQueueDepth &&
        Wk.Queue.size() >= Opts.MaxQueueDepth) {
      ++Wk.Shed;
      return PostStatus::Full;
    }
    Wk.Queue.push_back(std::move(R));
    Wk.QueueHighWater = std::max(Wk.QueueHighWater,
                                 static_cast<uint64_t>(Wk.Queue.size()));
  }
  Wk.Ready.notify_one();
  return PostStatus::Ok;
}

void MachinePool::shutdown() {
  {
    std::lock_guard<std::mutex> L(ShutdownMutex);
    if (ShutDown)
      return;
    ShutDown = true;
  }
  for (auto &W : Ws) {
    {
      std::lock_guard<std::mutex> L(W->QueueMutex);
      W->Stopped = true;
    }
    W->Ready.notify_all();
  }
  for (auto &W : Ws)
    if (W->Thread.joinable())
      W->Thread.join();
  if (!Opts.Cache.SaveFile.empty()) {
    // Workers captured their images as they exited; the joins above
    // ordered those writes before this read.
    CacheFile F;
    F.Fingerprint = compilationFingerprint(Comp);
    bool All = true;
    for (auto &W : Ws) {
      All = All && W->SaveCaptured;
      F.Workers.push_back(std::move(W->SaveImage));
    }
    if (All && !saveCacheFile(Opts.Cache.SaveFile, F))
      std::fprintf(stderr, "fab: failed to write cache file %s\n",
                   Opts.Cache.SaveFile.c_str());
  }
}

TelemetrySnapshot MachinePool::workerStats(unsigned W) const {
  const Worker &Wk = *Ws.at(W);
  TelemetrySnapshot S;
  {
    std::lock_guard<std::mutex> L(Wk.StatsMutex);
    S = Wk.Stats;
  }
  // Patch in the intake-side counters that live under the queue lock:
  // sheds happen in post() without the worker ever seeing the request,
  // and the high-water mark may have risen since the last publish().
  // Sequential lock acquisition (never nested).
  {
    std::lock_guard<std::mutex> L(Wk.QueueMutex);
    S.Overload.Shed = Wk.Shed;
    S.QueueHighWater = std::max(S.QueueHighWater, Wk.QueueHighWater);
  }
  return S;
}

std::vector<telemetry::TraceEvent> MachinePool::drainTrace(unsigned W) {
  Worker &Wk = *Ws.at(W);
  std::lock_guard<std::mutex> L(Wk.StatsMutex);
  std::vector<telemetry::TraceEvent> Out;
  Out.swap(Wk.TraceLog);
  return Out;
}

namespace {

/// Lays the request values out in the worker heap; vectors go through the
/// intern table when one is given (one heap copy per distinct value).
std::vector<uint32_t>
materialize(Machine &M, std::map<std::vector<int32_t>, uint32_t> *Intern,
            const std::vector<Value> &Vals) {
  // In-VM allocation may have pushed $hp past the host bump pointer.
  M.heap().advanceTo(M.vm().reg(Hp));
  std::vector<uint32_t> Words;
  Words.reserve(Vals.size());
  for (const Value &V : Vals) {
    if (V.K == Value::Kind::Int) {
      Words.push_back(static_cast<uint32_t>(V.I));
    } else if (Intern) {
      auto [It, Inserted] = Intern->try_emplace(V.Vec, 0);
      if (Inserted)
        It->second = M.heap().vector(V.Vec);
      Words.push_back(It->second);
    } else {
      Words.push_back(M.heap().vector(V.Vec));
    }
  }
  return Words;
}

} // namespace

FabResult<MachinePool::Resolved>
MachinePool::resolve(Machine &M, SpecCache &Cache,
                     std::map<std::vector<int32_t>, uint32_t> &Intern,
                     const SpecKey &Key, const std::vector<Value> &Early) {
  std::vector<uint32_t> Words =
      materialize(M, Opts.EnableCache ? &Intern : nullptr, Early);
  uint64_t GenBefore = M.vm().stats().DynWordsWritten;
  FabResult<uint32_t> S = M.specialize(Key.Fn, Words);
  if (!S)
    return S.error();
  Resolved Out{*S, M.specializationBytes(*S),
               M.vm().stats().DynWordsWritten == GenBefore};
  // specialize() may have reset the code space (reset-and-retry), so tag
  // with the epoch as of *now*; the bytes fund the compaction planner's
  // budget.
  if (Opts.EnableCache)
    Cache.insert(Key, Out.Addr, M.codeEpoch(), Out.Bytes);
  return Out;
}

FabResult<int32_t>
MachinePool::serve(Machine &M, SpecCache &Cache,
                   std::map<std::vector<int32_t>, uint32_t> &Intern,
                   Request &R, TelemetrySnapshot &Local) {
  VmStats Before = M.vm().stats();
  // Served/Errors are counted once per *request* by the worker loop, not
  // here: a request may run serve() several times (retries) and must not
  // be double-counted.
  auto finish = [&](FabResult<int32_t> Res) {
    Local.BusyCyclesTotal += (M.vm().stats() - Before).Cycles;
    return Res;
  };

  std::optional<uint32_t> Addr;
  if (Opts.EnableCache)
    Addr = Cache.lookup(R.Key, M.codeEpoch());
  if (!Addr) {
    FabResult<Resolved> S = resolve(M, Cache, Intern, R.Key, R.Early);
    if (!S)
      return finish(S.error());
    if (S.value().MemoHit)
      ++Local.Coalesced; // the in-VM memo answered the miss
    Addr = S.value().Addr;
  }
  std::vector<uint32_t> LateWords = materialize(M, nullptr, R.Late);
  return finish(M.invoke<int32_t>(*Addr, LateWords));
}

void MachinePool::runWorker(unsigned Idx) {
  Worker &W = *Ws[Idx];

  std::optional<Machine> M;
  auto rebuild = [&] {
    M.emplace(Comp, Opts.Vm);
    if (Opts.ConfigureWorker)
      Opts.ConfigureWorker(Idx, *M);
  };
  rebuild();
  SpecCache Cache(Opts.Cache);
  std::map<std::vector<int32_t>, uint32_t> Intern;
  // The worker-owned counters (the snapshot's service-level block); the
  // machine and the cache own the rest. publish() assembles the three.
  TelemetrySnapshot Local;

  // Warm start: replay this worker's image from the validated cache file
  // (fingerprint and worker count already checked in the ctor). Every
  // write is host-side (writeBlock / loader-style flush), so the restore
  // adds zero DynWordsWritten and zero generator runs — the first warm
  // request is served straight from the restored code.
  if (Restore && Idx < Restore->Workers.size()) {
    const WorkerImage &WI = Restore->Workers[Idx];
    Vm &V = M->vm();
    auto restoreSegment = [&](uint32_t Base, const WorkerImage::Segment &S) {
      // The file trims trailing zeros; the tail must still be zeroed,
      // because the fresh machine may hold nonzero init data there.
      std::vector<uint32_t> Zeros(S.FullWords - S.Words.size(), 0);
      return V.writeBlock(Base, S.Words.data(), S.Words.size()) &&
             V.writeBlock(Base + static_cast<uint32_t>(S.Words.size() * 4),
                          Zeros.data(), Zeros.size());
    };
    if (restoreSegment(layout::StaticDataBase, WI.StaticData) &&
        restoreSegment(layout::HeapBase, WI.Heap) &&
        restoreSegment(layout::DynCodeBase, WI.DynCode)) {
      if (WI.CpReg > layout::DynCodeBase)
        V.flushIcache(layout::DynCodeBase, WI.CpReg - layout::DynCodeBase);
      V.setReg(Hp, WI.HpReg);
      V.setReg(Cp, WI.CpReg);
      M->heap().advanceTo(WI.HpReg);
      for (const WorkerImage::InternRow &Row : WI.Intern)
        Intern[Row.Vec] = Row.Addr;
      for (const WorkerImage::EntryRow &E : WI.Entries)
        Cache.importEntry(SpecKey::fromWords(E.Fn, E.Words), E.Addr,
                          M->codeEpoch(), E.Bytes, E.Pinned);
    } else {
      // An image that does not fit the VM: discard the partial restore.
      std::fprintf(stderr,
                   "fab: worker %u's cached image does not fit the VM; "
                   "cold-starting\n",
                   Idx);
      rebuild();
    }
  }

  // Moves everything buffered in the machine's trace ring into the
  // worker's log (the cross-thread hand-off point: the ring is written
  // only here on the worker thread; readers take the log under
  // StatsMutex via drainTrace()).
  constexpr size_t MaxTraceLog = 1u << 16;
  auto drainRing = [&] {
    if (!M->trace().size())
      return;
    std::vector<telemetry::TraceEvent> Ev = M->trace().drain();
    std::lock_guard<std::mutex> L(W.StatsMutex);
    W.TraceLog.insert(W.TraceLog.end(), Ev.begin(), Ev.end());
    if (W.TraceLog.size() > MaxTraceLog)
      W.TraceLog.erase(W.TraceLog.begin(),
                       W.TraceLog.end() - MaxTraceLog);
  };

  // Counters carried over from machines retired by heap recycling (a
  // fresh Machine restarts its statistics from zero). Gauges describe
  // the live machine only, so they are zeroed before folding in.
  TelemetrySnapshot Retired;
  auto retire = [&] {
    drainRing();
    TelemetrySnapshot T = M->telemetry();
    T.SpecializationsLive = 0;
    T.CodeSpaceUsed = 0;
    T.CodeEpoch = 0;
    Retired += T;
  };

  auto publish = [&] {
    TelemetrySnapshot T = Retired;
    T += M->telemetry();
    T.Workers = 1;
    T.Cache = Cache.stats();
    T.Served = Local.Served;
    T.Errors = Local.Errors;
    T.Coalesced = Local.Coalesced;
    T.QueueHighWater = Local.QueueHighWater;
    T.BusyCyclesTotal = T.BusyCyclesMax = Local.BusyCyclesTotal;
    T.HeapRecycles = Local.HeapRecycles;
    T.Overload = Local.Overload;
    T.Latency = Local.Latency;
    T.BreakersOpen = Local.BreakersOpen;
    std::lock_guard<std::mutex> L(W.StatsMutex);
    W.Stats = std::move(T);
  };

  // Per-entry-point circuit breakers: worker-private state, keyed by
  // function name. OpenLeft counts the remaining cooldown requests; when
  // it reaches zero the next request probes the staged path.
  struct BreakerState {
    unsigned Fails = 0;    ///< consecutive counted failures
    unsigned OpenLeft = 0; ///< cooldown requests before the next probe
    bool Open = false;
  };
  std::unordered_map<std::string, BreakerState> Breakers;
  auto breakersOpen = [&] {
    unsigned N = 0;
    for (const auto &KV : Breakers)
      N += KV.second.Open ? 1 : 0;
    return N;
  };

  // An open breaker's route around the staged path: the Plain image
  // collapses currying, so the early and late arguments go to
  // Machine::callPlainInt as one list.
  auto servePlain = [&](Request &R) -> FabResult<int32_t> {
    VmStats Before = M->vm().stats();
    std::vector<uint32_t> Words =
        materialize(*M, Opts.EnableCache ? &Intern : nullptr, R.Early);
    std::vector<uint32_t> LateW = materialize(*M, nullptr, R.Late);
    Words.insert(Words.end(), LateW.begin(), LateW.end());
    FabResult<int32_t> Res = M->callPlainInt(R.Key.Fn, Words);
    Local.BusyCyclesTotal += (M->vm().stats() - Before).Cycles;
    return Res;
  };

  // Remaining wall deadline -> VM fuel cap at the modeled clock rate;
  // .second says the cap came from the deadline (an OutOfFuel stop under
  // such a cap is reported as DeadlineExceeded, not as a VM error).
  auto fuelCap = [&](const Request &R) -> std::pair<uint64_t, bool> {
    uint64_t Cap = Opts.RequestFuel;
    bool FromDeadline = false;
    if (R.DeadlineNs) {
      uint64_t Now = telemetry::traceNowNs();
      uint64_t RemainNs = R.DeadlineNs > Now ? R.DeadlineNs - Now : 0;
      uint64_t DFuel =
          std::max<uint64_t>(1, RemainNs / 1000 * Opts.DeadlineInstrPerUs);
      if (!Cap || DFuel < Cap) {
        Cap = DFuel;
        FromDeadline = true;
      }
    }
    return {Cap, FromDeadline};
  };

  auto serveRobust = [&](Request &R) -> FabResult<int32_t> {
    const bool Tracing = M->trace().enabled();
    const uint16_t NameId =
        Tracing ? telemetry::internName(R.Key.Fn) : uint16_t(0);
    // Shed late work at dequeue, before paying any specialization cost.
    uint64_t Now = telemetry::traceNowNs();
    if (R.DeadlineNs && Now >= R.DeadlineNs) {
      ++Local.Overload.DeadlineMisses;
      if (Tracing)
        M->trace().record(telemetry::EventKind::RequestShed,
                          M->vm().stats().Executed, Now - R.DeadlineNs, 0,
                          NameId);
      return FabError{FabErrc::DeadlineExceeded, R.Key.Fn, {}};
    }

    BreakerState *B = nullptr;
    bool Probe = false;
    if (Opts.Breaker.Enabled) {
      B = &Breakers[R.Key.Fn];
      if (B->Open) {
        if (B->OpenLeft > 0) {
          // Cooling down: route around the staged path entirely.
          --B->OpenLeft;
          auto [Cap, FromDeadline] = fuelCap(R);
          if (M->hasPlainFallback()) {
            ++Local.Overload.BreakerFallbacks;
            ScopedFuelCap FC(M->vm(), Cap);
            FabResult<int32_t> Res = servePlain(R);
            if (!Res.ok() && FromDeadline &&
                Res.error().Code == FabErrc::OutOfFuel) {
              Res.error().Code = FabErrc::DeadlineExceeded;
              ++Local.Overload.DeadlineMisses;
            }
            return Res;
          }
          ++Local.Overload.BreakerFastFails;
          return FabError{FabErrc::CircuitOpen, R.Key.Fn, {}};
        }
        Probe = true;
        ++Local.Overload.BreakerProbes;
        if (Tracing)
          M->trace().record(telemetry::EventKind::BreakerProbe,
                            M->vm().stats().Executed, 0, 0, NameId);
      }
    }

    // Attempt loop: serve, classify, maybe retry with backoff.
    FabResult<int32_t> Res = FabError{FabErrc::Trapped, R.Key.Fn, {}};
    unsigned Attempt = 0;
    for (;;) {
      auto [Cap, FromDeadline] = fuelCap(R);
      {
        ScopedFuelCap FC(M->vm(), Cap);
        Res = serve(*M, Cache, Intern, R, Local);
      }
      if (Res.ok())
        break;
      if (FromDeadline && Res.error().Code == FabErrc::OutOfFuel) {
        // The run was cut short by the deadline-derived cap, not by the
        // caller's own fuel budget.
        Res.error().Code = FabErrc::DeadlineExceeded;
        ++Local.Overload.DeadlineMisses;
        break;
      }
      // CodeSpaceExhausted is final: the machine has already retried
      // from an empty segment, so another attempt repeats that run.
      FabErrc C = Res.error().Code;
      bool Transient = C == FabErrc::Trapped || C == FabErrc::OutOfFuel;
      if (!Transient || Attempt >= R.Retries)
        break;
      if (R.DeadlineNs && telemetry::traceNowNs() >= R.DeadlineNs)
        break; // no budget left to retry in
      ++Attempt;
      ++Local.Overload.Retried;
      if (Tracing)
        M->trace().record(telemetry::EventKind::RequestRetry,
                          M->vm().stats().Executed, Attempt,
                          static_cast<uint64_t>(C), NameId);
      if (Opts.RetryBackoffUs)
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<uint64_t>(Opts.RetryBackoffUs)
            << std::min(Attempt - 1, 4u)));
    }
    if (Res.ok() && Attempt)
      ++Local.Overload.RetrySuccesses;

    if (B) {
      // DeadlineExceeded speaks to load, not entry-point health, so it
      // neither trips nor resets the breaker.
      bool Counted =
          !Res.ok() && Res.error().Code != FabErrc::DeadlineExceeded &&
          Res.error().Code != FabErrc::Rejected;
      if (Res.ok()) {
        if (Probe && Tracing)
          M->trace().record(telemetry::EventKind::BreakerClose,
                            M->vm().stats().Executed, 0, 0, NameId);
        B->Open = false;
        B->Fails = 0;
      } else if (Counted) {
        ++B->Fails;
        if (Probe || (!B->Open && B->Fails >= Opts.Breaker.FailureThreshold)) {
          B->Open = true;
          B->OpenLeft = Opts.Breaker.CooldownRequests;
          ++Local.Overload.BreakerOpens;
          if (Tracing)
            M->trace().record(telemetry::EventKind::BreakerOpen,
                              M->vm().stats().Executed, B->Fails, 0, NameId);
        }
      }
      // A deadline miss during a probe leaves the breaker open with no
      // cooldown: the next request for this entry point probes again.
    }
    return Res;
  };

  // Code-space compaction, the only preemptive reclaim: when the dynamic
  // segment crosses the policy watermark, re-specialize only the pinned +
  // hottest cached keys — within the byte budget the per-entry accounting
  // funds — into a fresh segment, before pressure makes the Machine's
  // reset-and-retry dump the whole working set.
  // Early arguments are decoded straight out of the self-delimiting keys.
  auto maybeCompact = [&] {
    if (!Opts.EnableCache || !Opts.Cache.Compaction)
      return;
    const uint64_t Watermark = static_cast<uint64_t>(
        Opts.Cache.CompactWatermark * layout::DynCodeBytes);
    if (M->codeSpaceUsed() < Watermark)
      return;
    const uint64_t KeepBytes = static_cast<uint64_t>(
        Opts.Cache.CompactKeepFraction * static_cast<double>(Watermark));
    std::vector<SpecCache::PlanEntry> Plan =
        Cache.compactionPlan(KeepBytes, M->codeEpoch());
    const uint64_t Resident = Cache.size();
    Cache.clear();
    VmStats Before = M->vm().stats();
    M->resetCodeSpace();
    uint64_t Kept = 0;
    for (const SpecCache::PlanEntry &P : Plan) {
      std::optional<std::vector<Value>> Early = P.Key.earlyValues();
      if (!Early || !resolve(*M, Cache, Intern, P.Key, *Early))
        continue;
      if (P.Pinned)
        Cache.pin(P.Key, true);
      ++Kept;
    }
    Local.BusyCyclesTotal += (M->vm().stats() - Before).Cycles;
    Cache.noteCompaction(Kept, Resident - Kept);
  };

  uint64_t Seq = 0;
  for (;;) {
    std::deque<Request> Batch;
    {
      std::unique_lock<std::mutex> L(W.QueueMutex);
      W.Ready.wait(L, [&] { return !W.Queue.empty() || W.Stopped; });
      if (W.Queue.empty() && W.Stopped)
        break;
      Batch.swap(W.Queue);
      Local.QueueHighWater = W.QueueHighWater;
    }

    for (Request &R : Batch) {
      ++Seq;
      if (RetriesVetoed)
        R.Retries = 0;
      uint32_t HeapUsed =
          std::max(M->heap().heapTop(), M->vm().reg(Hp));
      if (HeapUsed > layout::HeapEnd - Opts.HeapRecycleMargin) {
        retire();
        rebuild();
        Cache.clear();
        Intern.clear();
        ++Local.HeapRecycles;
      }
      if (R.K == Request::Kind::Serve)
        maybeCompact();
      if (Opts.BeforeRequest && R.K == Request::Kind::Serve)
        Opts.BeforeRequest(Idx, *M, Seq);
      const bool Tracing = M->trace().enabled();
      if (Tracing)
        M->trace().record(telemetry::EventKind::WorkerBegin,
                          M->vm().stats().Executed, 0, 0,
                          telemetry::internName(R.Key.Fn));
      FabResult<int32_t> Res = FabError{FabErrc::Trapped, R.Key.Fn, {}};
      if (R.K == Request::Kind::Invalidate) {
        // Control request: drop this worker's cached addresses for the
        // named entry point (all of them when unnamed) and answer with
        // the count. The in-VM memo table is left alone: its entries key
        // on interned early data whose content never changes, so
        // anything it answers is still value-correct.
        Res = static_cast<int32_t>(Cache.invalidate(R.Key.Fn));
      } else {
        Res = serveRobust(R);
      }
      if (Tracing)
        M->trace().record(telemetry::EventKind::WorkerComplete,
                          M->vm().stats().Executed, Res ? 1 : 0, 0,
                          telemetry::internName(R.Key.Fn));
      if (Res)
        ++Local.Served;
      else
        ++Local.Errors;
      if (R.SubmitNs)
        Local.Latency.record(telemetry::traceNowNs() - R.SubmitNs);
      Local.BreakersOpen = breakersOpen();
      drainRing();
      // Publish before resolving the future: once a caller observes a
      // result, workerStats() already accounts for the request that
      // produced it (tests and benches rely on this ordering).
      publish();
      if (R.Completion)
        R.Completion(std::move(Res));
      else
        R.Promise.set_value(std::move(Res));
    }
  }
  drainRing();
  publish();

  // Capture this worker's warm state for the shutdown save. The joins in
  // shutdown() order these plain writes before the file is assembled.
  if (!Opts.Cache.SaveFile.empty()) {
    WorkerImage WI;
    Vm &V = M->vm();
    uint32_t HpTop = std::max(M->heap().heapTop(), V.reg(Hp));
    WI.HpReg = HpTop;
    WI.CpReg = V.reg(Cp);
    auto captureSegment = [&](uint32_t Base, uint32_t End) {
      WorkerImage::Segment S;
      S.FullWords = (End - Base) / 4;
      S.Words.resize(S.FullWords);
      for (uint32_t I = 0; I < S.FullWords; ++I)
        S.Words[I] = V.load32(Base + I * 4);
      while (!S.Words.empty() && S.Words.back() == 0)
        S.Words.pop_back();
      return S;
    };
    WI.StaticData =
        captureSegment(layout::StaticDataBase, layout::StaticDataEnd);
    WI.Heap = captureSegment(layout::HeapBase, HpTop);
    WI.DynCode = captureSegment(layout::DynCodeBase, WI.CpReg);
    for (const auto &[Vec, Addr] : Intern)
      WI.Intern.push_back({Vec, Addr});
    for (const SpecCache::Exported &E : Cache.exportEntries()) {
      if (E.Epoch != M->codeEpoch())
        continue; // stale epoch: its address no longer exists
      WI.Entries.push_back({E.Key.Fn, E.Key.Words, E.Addr, E.Bytes, E.Pinned});
    }
    W.SaveImage = std::move(WI);
    W.SaveCaptured = true;
  }
}
