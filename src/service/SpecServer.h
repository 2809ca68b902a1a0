//===- SpecServer.h - Concurrent specialization serving front-end -*- C++ -*-=//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving API over a MachinePool: submit(fn, earlyArgs, lateArgs)
/// returns a std::future of the call result. Requests are routed to a
/// worker by the hash of their specialization key, so all requests with
/// the same early values land on the same machine and share one
/// specialization (via batch coalescing and the worker's SpecCache);
/// distinct keys spread across the pool. Arguments travel as host-side
/// *values* (ints and vectors), never machine addresses — each worker
/// materializes them into its own heap.
///
///   fab::Compilation C = fab::compileOrDie(Src, Opts);
///   fab::service::ServerOptions SO;
///   SO.Pool.Workers = 4;
///   fab::service::SpecServer S(C, SO);
///   auto F = S.submit("dotloop",
///                     {Value::ofVec(Row), Value::ofInt(0), Value::ofInt(N)},
///                     {Value::ofVec(Col), Value::ofInt(0)});
///   FabResult<int32_t> R = F.get();
///
//===----------------------------------------------------------------------===//

#ifndef FAB_SERVICE_SPECSERVER_H
#define FAB_SERVICE_SPECSERVER_H

#include "service/MachinePool.h"

#include <atomic>

namespace fab {
namespace service {

/// Per-request service parameters. The default is no deadline and no
/// retries.
struct SubmitOptions {
  /// Relative deadline in nanoseconds from submit; 0 = none. Enforced at
  /// dequeue (late work is shed with DeadlineExceeded before any
  /// specialization cost is paid) and mid-run through the VM fuel
  /// mechanism (the remaining budget converts to an instruction cap at
  /// the modeled clock; see PoolOptions::DeadlineInstrPerUs).
  uint64_t DeadlineNs = 0;
  /// Retries after transient failures (traps, fuel exhaustion), with
  /// bounded exponential host-side backoff between attempts. Code-space
  /// exhaustion is not retried: the machine has already retried from an
  /// empty segment. FAB_RETRIES=0 forces 0 process-wide.
  unsigned MaxRetries = 0;
};

struct ServerOptions {
  PoolOptions Pool;
  /// When nonzero, a reporter thread emits an aggregated telemetry()
  /// snapshot every interval (fabserve --report-interval). shutdown()
  /// emits one final report, so even a short-lived server produces at
  /// least one line.
  unsigned ReportIntervalMs = 0;
  /// Where periodic reports go; defaults to a summaryLine() on stderr.
  std::function<void(const TelemetrySnapshot &)> ReportSink;
};

class SpecServer {
public:
  /// \p C must outlive the server.
  explicit SpecServer(const Compilation &C, const ServerOptions &Opts = {});
  ~SpecServer();

  /// Enqueues one call of staged function \p Fn. The future resolves
  /// once a worker has specialized (or found cached code for) the early
  /// values and run it on the late values. After shutdown(), or when the
  /// routed worker's queue is at PoolOptions::MaxQueueDepth (load
  /// shedding), the future is already resolved with FabErrc::Rejected.
  std::future<FabResult<int32_t>> submit(const std::string &Fn,
                                         std::vector<Value> Early,
                                         std::vector<Value> Late,
                                         const SubmitOptions &O = {});

  /// Callback form of submit() for callers that complete requests out of
  /// submission order without parking a thread per future (the wire
  /// front-end). \p Done runs exactly once: on the serving worker's
  /// thread after it publishes stats, or synchronously on the caller's
  /// thread when the request is refused at submit (Rejected). It must
  /// not block for long.
  void submitAsync(const std::string &Fn, std::vector<Value> Early,
                   std::vector<Value> Late, const SubmitOptions &O,
                   std::function<void(FabResult<int32_t>)> Done);

  /// Synchronous convenience wrapper around submit().get().
  FabResult<int32_t> call(const std::string &Fn, std::vector<Value> Early,
                          std::vector<Value> Late);

  /// Drops every worker's cached specialization addresses for \p Fn
  /// (every entry point when empty). The drop rides each worker's queue
  /// as a control request, so it is ordered with the serve traffic
  /// around it and the next request per dropped key re-specializes.
  /// Resolves with the total number of entries dropped across the pool,
  /// or Rejected after shutdown. \p Done runs after the last worker has
  /// processed its shard (worker thread, or synchronously on refusal).
  void invalidateAsync(const std::string &Fn,
                       std::function<void(FabResult<int32_t>)> Done);
  FabResult<int32_t> invalidate(const std::string &Fn);

  /// The worker a request with these early values routes to (stable;
  /// exposed for tests and load inspection).
  unsigned workerFor(const std::string &Fn,
                     const std::vector<Value> &Early) const;

  /// Graceful: stops intake, drains every queue, joins the workers, then
  /// stops the reporter thread (emitting one final report when periodic
  /// reporting was configured). Idempotent.
  void shutdown();

  unsigned workers() const { return Pool.workers(); }
  TelemetrySnapshot workerStats(unsigned W) const {
    return Pool.workerStats(W);
  }

  /// The unified snapshot summed across workers (counters add, high-water
  /// marks take the max, entry profiles merge by name) plus the
  /// server-side Submitted/Rejected counters. See docs/TELEMETRY.md.
  TelemetrySnapshot telemetry() const;

  /// Takes worker \p W's accumulated trace events (complete after
  /// shutdown()); fabserve merges these into one multi-track export.
  std::vector<fab::telemetry::TraceEvent> drainWorkerTrace(unsigned W) {
    return Pool.drainTrace(W);
  }

private:
  void runReporter();
  /// The one submit core every public entry point funnels through:
  /// stamps the key, submit time, absolute deadline, and retry budget.
  Request buildRequest(const std::string &Fn, std::vector<Value> Early,
                       std::vector<Value> Late, const SubmitOptions &O);
  /// Routes by key hash and posts; false = refused (Rejected accounting
  /// done; the caller resolves its future/callback itself, since post()
  /// consumed the request).
  bool postRouted(Request R);

  MachinePool Pool;
  std::atomic<uint64_t> Submitted{0};
  std::atomic<uint64_t> RejectedCount{0};

  unsigned ReportIntervalMs = 0;
  std::function<void(const TelemetrySnapshot &)> ReportSink;
  std::mutex ReporterMutex;
  std::condition_variable ReporterCv;
  bool ReporterStop = false; // guarded by ReporterMutex
  std::thread Reporter;
};

} // namespace service
} // namespace fab

#endif // FAB_SERVICE_SPECSERVER_H
