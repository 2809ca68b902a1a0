//===- SpecServer.cpp -----------------------------------------------------===//

#include "service/SpecServer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

using namespace fab;
using namespace fab::service;

SpecServer::SpecServer(const Compilation &C, const ServerOptions &Opts)
    : Pool(C, Opts.Pool), ReportIntervalMs(Opts.ReportIntervalMs),
      ReportSink(Opts.ReportSink) {
  if (ReportIntervalMs) {
    if (!ReportSink)
      ReportSink = [](const TelemetrySnapshot &T) {
        std::fprintf(stderr, "fabserve: %s\n", T.summaryLine().c_str());
      };
    Reporter = std::thread([this] { runReporter(); });
  }
}

SpecServer::~SpecServer() { shutdown(); }

void SpecServer::runReporter() {
  std::unique_lock<std::mutex> L(ReporterMutex);
  while (!ReporterStop) {
    ReporterCv.wait_for(L, std::chrono::milliseconds(ReportIntervalMs));
    if (ReporterStop)
      break;
    // telemetry() only touches published worker snapshots (mutex-guarded
    // copies), so reporting never blocks the serving path.
    L.unlock();
    ReportSink(telemetry());
    L.lock();
  }
}

void SpecServer::shutdown() {
  Pool.shutdown();
  {
    std::lock_guard<std::mutex> L(ReporterMutex);
    ReporterStop = true;
  }
  ReporterCv.notify_all();
  if (Reporter.joinable()) {
    Reporter.join();
    // Final report over the drained pool: even a server shut down before
    // the first interval elapsed gets one complete line.
    ReportSink(telemetry());
  }
}

unsigned SpecServer::workerFor(const std::string &Fn,
                               const std::vector<Value> &Early) const {
  SpecKey K = SpecKey::make(Fn, Early);
  return static_cast<unsigned>(K.Hash % Pool.workers());
}

Request SpecServer::buildRequest(const std::string &Fn,
                                 std::vector<Value> Early,
                                 std::vector<Value> Late,
                                 const SubmitOptions &O) {
  Request R;
  R.Key = SpecKey::make(Fn, Early);
  R.Early = std::move(Early);
  R.Late = std::move(Late);
  R.SubmitNs = telemetry::traceNowNs();
  R.DeadlineNs = O.DeadlineNs ? R.SubmitNs + O.DeadlineNs : 0;
  R.Retries = O.MaxRetries;
  return R;
}

bool SpecServer::postRouted(Request R) {
  unsigned W = static_cast<unsigned>(R.Key.Hash % Pool.workers());
  Submitted.fetch_add(1, std::memory_order_relaxed);
  switch (Pool.post(W, std::move(R))) {
  case MachinePool::PostStatus::Ok:
    return true;
  case MachinePool::PostStatus::Stopped:
    RejectedCount.fetch_add(1, std::memory_order_relaxed);
    return false;
  case MachinePool::PostStatus::Full:
    // Load shedding: the pool counted the shed under its queue lock; the
    // caller just hands back the immediate structured refusal.
    return false;
  }
  return false;
}

std::future<FabResult<int32_t>> SpecServer::submit(const std::string &Fn,
                                                   std::vector<Value> Early,
                                                   std::vector<Value> Late,
                                                   const SubmitOptions &O) {
  Request R = buildRequest(Fn, std::move(Early), std::move(Late), O);
  std::future<FabResult<int32_t>> F = R.Promise.get_future();
  if (postRouted(std::move(R)))
    return F;
  // The pool refused: hand back an already-resolved future.
  std::promise<FabResult<int32_t>> P;
  P.set_value(FabError{FabErrc::Rejected, Fn, {}});
  return P.get_future();
}

void SpecServer::submitAsync(const std::string &Fn, std::vector<Value> Early,
                             std::vector<Value> Late, const SubmitOptions &O,
                             std::function<void(FabResult<int32_t>)> Done) {
  Request R = buildRequest(Fn, std::move(Early), std::move(Late), O);
  // post() consumes the request whether or not it admits it, so the
  // refusal path needs its own handle on the completion.
  R.Completion = Done;
  if (!postRouted(std::move(R)))
    Done(FabError{FabErrc::Rejected, Fn, {}});
}

FabResult<int32_t> SpecServer::call(const std::string &Fn,
                                    std::vector<Value> Early,
                                    std::vector<Value> Late) {
  return submit(Fn, std::move(Early), std::move(Late)).get();
}

void SpecServer::invalidateAsync(
    const std::string &Fn, std::function<void(FabResult<int32_t>)> Done) {
  // One control request per worker; the last shard to finish reports the
  // pool-wide total. Refusals (shutdown mid-fan-out) surface as Rejected
  // but still wait for the shards that were accepted.
  struct FanOut {
    std::atomic<unsigned> Left;
    std::atomic<int64_t> Dropped{0};
    std::atomic<bool> Refused{false};
    std::string Fn;
    std::function<void(FabResult<int32_t>)> Done;
  };
  auto S = std::make_shared<FanOut>();
  S->Left = Pool.workers();
  S->Fn = Fn;
  S->Done = std::move(Done);
  auto finishOne = [](const std::shared_ptr<FanOut> &S) {
    if (S->Left.fetch_sub(1, std::memory_order_acq_rel) != 1)
      return;
    if (S->Refused.load(std::memory_order_acquire))
      S->Done(FabError{FabErrc::Rejected, S->Fn, {}});
    else
      S->Done(static_cast<int32_t>(
          S->Dropped.load(std::memory_order_acquire)));
  };
  for (unsigned W = 0; W < Pool.workers(); ++W) {
    Request R;
    R.K = Request::Kind::Invalidate;
    R.Key.Fn = Fn;
    R.SubmitNs = telemetry::traceNowNs();
    R.Completion = [S, finishOne](FabResult<int32_t> Res) {
      if (Res.ok())
        S->Dropped.fetch_add(*Res, std::memory_order_acq_rel);
      else
        S->Refused.store(true, std::memory_order_release);
      finishOne(S);
    };
    Submitted.fetch_add(1, std::memory_order_relaxed);
    if (Pool.post(W, std::move(R)) != MachinePool::PostStatus::Ok) {
      RejectedCount.fetch_add(1, std::memory_order_relaxed);
      S->Refused.store(true, std::memory_order_release);
      finishOne(S);
    }
  }
}

FabResult<int32_t> SpecServer::invalidate(const std::string &Fn) {
  std::promise<FabResult<int32_t>> P;
  std::future<FabResult<int32_t>> F = P.get_future();
  invalidateAsync(Fn,
                  [&P](FabResult<int32_t> R) { P.set_value(std::move(R)); });
  return F.get();
}

TelemetrySnapshot SpecServer::telemetry() const {
  TelemetrySnapshot T;
  for (unsigned I = 0; I < Pool.workers(); ++I) {
    TelemetrySnapshot Ws = Pool.workerStats(I);
    // One load row per worker survives aggregation, so a single hot or
    // failing worker stays visible behind the pool-wide sums.
    WorkerLoadRow Row;
    Row.Worker = I;
    Row.QueueHighWater = Ws.QueueHighWater;
    Row.Shed = Ws.Overload.Shed;
    Row.DeadlineMisses = Ws.Overload.DeadlineMisses;
    Row.Retried = Ws.Overload.Retried;
    Row.BreakerOpens = Ws.Overload.BreakerOpens;
    Row.Served = Ws.Served;
    Row.Errors = Ws.Errors;
    Ws.WorkerLoads = {Row};
    T += Ws;
  }
  // A worker publishes only after its first request; count every worker
  // regardless, and add the server-side intake counters.
  T.Workers = Pool.workers();
  T.Submitted = Submitted.load(std::memory_order_relaxed);
  T.Rejected += RejectedCount.load(std::memory_order_relaxed);
  return T;
}
