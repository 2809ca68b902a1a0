//===- MachinePool.h - Sharded pool of FAB-32 machines ----------*- C++ -*-===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// N worker threads, each owning an *independent* Machine (simulator +
/// heap + memo tables) and a value-keyed SpecCache over it. The FAB-32
/// simulator is single-threaded by design, so isolation-per-worker is
/// the sharding model: a request is routed to one worker (by key hash —
/// see SpecServer) and everything it touches — heap materialization,
/// generator runs, the specialized code itself — stays private to that
/// worker's machine. No lock is ever held around simulator execution.
///
/// Each worker drains its queue in batches. Within a batch, requests
/// with the same specialization key are coalesced: the first one runs
/// (or reuses) the generator, the rest jump straight to the produced
/// address. The pool owns every code-space recovery decision above the
/// Machine's fixed reset-and-retry: compaction (the only preemptive
/// reclaim), request retries, and routing to the Plain image (circuit
/// breaker, profile gate). A worker whose entry point keeps failing
/// keeps draining its queue (answering with structured errors or
/// Plain-fallback results) rather than stalling the pool.
///
//===----------------------------------------------------------------------===//

#ifndef FAB_SERVICE_MACHINEPOOL_H
#define FAB_SERVICE_MACHINEPOOL_H

#include "core/Fabius.h"
#include "service/CachePersist.h"
#include "service/SpecCache.h"

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace fab {
namespace service {

/// One unit of work: run `Fn` specialized on `Early` with the late
/// arguments `Late`, answering through `Promise` (or `Completion` when
/// set). `Key` is precomputed by the front-end (it also routes the
/// request).
struct Request {
  /// Serve is the normal specialize-and-call path. Invalidate is a
  /// control request: the worker drops its SpecCache entries for
  /// Key.Fn (all entries when the name is empty) and answers with the
  /// number dropped. Control requests ride the same queue so they are
  /// ordered with the serve traffic around them, but bypass the
  /// MaxQueueDepth admission check (they are rare, caller-bounded, and
  /// shedding one would silently skip one worker's shard).
  enum class Kind : uint8_t { Serve, Invalidate };
  Kind K = Kind::Serve;
  SpecKey Key;
  std::vector<Value> Early;
  std::vector<Value> Late;
  std::promise<FabResult<int32_t>> Promise;
  /// When set, the worker invokes this — on the worker thread, after
  /// publishing stats — instead of resolving Promise. The wire layer
  /// uses it to write replies out of submission order without a thread
  /// parked per future. Must not block for long and must not touch the
  /// worker's machine.
  std::function<void(FabResult<int32_t>)> Completion;
  /// traceNowNs() when the request was accepted (latency accounting;
  /// 0 = not stamped, latency not recorded).
  uint64_t SubmitNs = 0;
  /// Absolute deadline on the traceNowNs() clock; 0 = none. Checked at
  /// dequeue (late work is shed before paying specialization cost) and
  /// enforced mid-run by converting the remaining budget into a VM fuel
  /// cap at the modeled clock rate.
  uint64_t DeadlineNs = 0;
  /// Transient-failure retry budget for this request.
  unsigned Retries = 0;
};

/// Per-entry-point circuit breaker discipline (state is per worker, since
/// each worker owns an independent machine whose health is independent).
/// After FailureThreshold consecutive failures of an entry point, the
/// worker stops specializing it and serves it from the Plain fall-back
/// image (when one is compiled; CircuitOpen fast-fail otherwise) for
/// CooldownRequests requests, then lets one probe request through the
/// staged path: success closes the breaker, failure re-opens it for
/// another cooldown window. Cooldown is counted in requests, not wall
/// time, so breaker behaviour is deterministic under test.
struct BreakerPolicy {
  bool Enabled = true; ///< FAB_BREAKER=0 forces off process-wide
  unsigned FailureThreshold = 3;
  unsigned CooldownRequests = 8;
};

struct PoolOptions {
  unsigned Workers = 1;
  /// Cache policy for every worker's SpecCache: capacity, the admission
  /// doorkeeper, compaction thresholds, the profile gate, and warm-start
  /// persistence files. FAB_CACHE_CAPACITY / FAB_ADMISSION=0 /
  /// FAB_CACHE_FILE override at process level (see docs/INTERNALS.md).
  CachePolicy Cache;
  /// Host-side value-keyed caching of specialization addresses. Off =
  /// every request goes through the generator path (the in-VM memo may
  /// still answer it when the early data is interned).
  bool EnableCache = true;
  /// Reuse one heap copy per distinct early vector value (content-
  /// addressed). Besides bounding heap growth this keeps the in-VM memo
  /// effective across requests, since it keys on pointer equality.
  /// Specialized code treats early data as constant, so interned vectors
  /// must not be mutated by the program — true of staged early arguments
  /// by construction. Off = re-materialize per request (with the cache
  /// also off this is the always-respecialize baseline).
  bool InternEarlyArgs = true;
  /// When the worker heap's bump pointer crosses HeapEnd - margin, the
  /// worker rebuilds its machine from the compilation (fresh heap and
  /// code space) and clears its cache and intern table.
  uint32_t HeapRecycleMargin = 1u << 20;
  VmOptions Vm;
  /// Called on the worker thread right after its Machine is (re)built;
  /// tests use it to arm a per-worker fault injector.
  std::function<void(unsigned WorkerIdx, Machine &M)> ConfigureWorker;
  /// Bounded admission: post() refuses (and SpecServer::submit resolves
  /// the future immediately with FabErrc::Rejected, counted as Shed) once
  /// a worker's queue holds this many requests. 0 = unbounded.
  /// FAB_QUEUE_DEPTH=N overrides at process level (0 forces unbounded).
  size_t MaxQueueDepth = 1024;
  /// Fuel ceiling per request served (0 = the VmOptions::Fuel default).
  /// A request deadline lowers it further (deadline-as-fuel).
  uint64_t RequestFuel = 0;
  /// Base host-side backoff between retry attempts; doubles per attempt,
  /// capped at 16x. 0 disables the sleep (tests).
  unsigned RetryBackoffUs = 50;
  /// Simulated instructions a worker may spend per microsecond of
  /// remaining deadline — the deadline-as-fuel conversion rate. The
  /// modeled core retires ~25 instructions/us (25 MHz, ~1 CPI), so the
  /// default models "the deadline is simulated time".
  uint64_t DeadlineInstrPerUs = 25;
  BreakerPolicy Breaker;
  /// Chaos/test hook: runs on the worker thread before each request is
  /// served (after any heap recycle), with the request sequence number on
  /// that worker (1-based). The chaos harness uses it to arm injectors
  /// and force resets from the owning thread, the only thread that may
  /// touch a worker's machine.
  std::function<void(unsigned WorkerIdx, Machine &M, uint64_t Seq)>
      BeforeRequest;
};

class MachinePool {
public:
  /// \p C must outlive the pool (machines are rebuilt from it on heap
  /// recycle). When C.PlainUnit is present each worker loads it for the
  /// breaker and the profile gate.
  MachinePool(const Compilation &C, const PoolOptions &Opts);
  ~MachinePool();

  MachinePool(const MachinePool &) = delete;
  MachinePool &operator=(const MachinePool &) = delete;

  unsigned workers() const { return static_cast<unsigned>(Ws.size()); }

  /// Admission verdicts for post(). Full counts toward the worker's Shed
  /// statistic (under the queue lock, so the count is exact even with
  /// many submitters racing).
  enum class PostStatus {
    Ok,      ///< enqueued; the promise will be resolved by the worker
    Full,    ///< refused: queue at MaxQueueDepth (promise untouched)
    Stopped, ///< refused: shutdown has begun (promise untouched)
  };

  /// Enqueues \p R on worker \p W, or refuses without touching the
  /// promise/completion (the caller answers Rejected). Control requests
  /// (Kind::Invalidate) are never refused as Full, only as Stopped.
  PostStatus post(unsigned W, Request R);

  /// Stops intake, lets every worker drain its queue, joins the threads.
  /// Idempotent; the destructor calls it.
  void shutdown();

  /// Worker \p W's snapshot: its machine counters (with those of
  /// machines retired by heap recycling folded in), its SpecCache and
  /// its serving counters, with Workers = 1. The worker publishes it
  /// before each request's result is delivered, so a caller that has
  /// observed a result observes its accounting too.
  TelemetrySnapshot workerStats(unsigned W) const;

  /// Takes (and clears) worker \p W's accumulated trace events. The
  /// worker drains its machine's ring into this log after every request
  /// and on exit, so after shutdown() the log is complete; while the
  /// worker is live, events still sitting in the ring are not included.
  std::vector<telemetry::TraceEvent> drainTrace(unsigned W);

private:
  struct Worker {
    mutable std::mutex QueueMutex;
    std::condition_variable Ready;
    std::deque<Request> Queue;       // guarded by QueueMutex
    uint64_t QueueHighWater = 0;     // guarded by QueueMutex
    uint64_t Shed = 0;               // queue-full refusals; QueueMutex
    bool Stopped = false;            // guarded by QueueMutex

    mutable std::mutex StatsMutex;
    TelemetrySnapshot Stats; // guarded by StatsMutex
    /// Trace events drained from the worker machine's ring (bounded;
    /// oldest dropped). Guarded by StatsMutex.
    std::vector<telemetry::TraceEvent> TraceLog;

    /// Warm state captured by the worker thread as it exits (only when
    /// CachePolicy::SaveFile is set); shutdown() assembles the images
    /// into the cache file after the joins, so no lock is needed.
    WorkerImage SaveImage;
    bool SaveCaptured = false;

    std::thread Thread;
  };

  /// Specializations produced earlier in the same batch: key -> (addr,
  /// epoch). Peers reuse the address only while the epoch still matches.
  using BatchSpecMap =
      std::unordered_map<SpecKey, std::pair<uint32_t, uint64_t>, SpecKeyHash>;

  void runWorker(unsigned Idx);
  FabResult<int32_t> serve(Machine &M, SpecCache &Cache,
                           std::map<std::vector<int32_t>, uint32_t> &Intern,
                           Request &R, BatchSpecMap &BatchSpecs,
                           TelemetrySnapshot &Local);

  const Compilation &Comp;
  PoolOptions Opts;
  bool RetriesVetoed = false; ///< FAB_RETRIES=0: clamp Request::Retries
  /// Warm-start images loaded (and fingerprint-validated) in the ctor
  /// before any worker thread starts; workers read their slot read-only.
  std::optional<CacheFile> Restore;
  std::vector<std::unique_ptr<Worker>> Ws;
  std::mutex ShutdownMutex;
  bool ShutDown = false; // guarded by ShutdownMutex
};

} // namespace service
} // namespace fab

#endif // FAB_SERVICE_MACHINEPOOL_H
