//===- Stats.h - Counter structs shared across layers -----------*- C++ -*-===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The counter structs every layer publishes — simulator execution,
/// decode-cache activity, specialization/memo behaviour, recovery
/// activity, and the host-side specialization cache. They live here, at
/// the bottom of the dependency stack, so the telemetry layer can
/// aggregate all of them into one TelemetrySnapshot without pulling in
/// the VM, Machine, or service headers. Each struct has operator+= so
/// per-worker and retired-machine counters sum mechanically instead of
/// field-by-field at every aggregation site.
///
//===----------------------------------------------------------------------===//

#ifndef FAB_TELEMETRY_STATS_H
#define FAB_TELEMETRY_STATS_H

#include <cstdint>

namespace fab {

/// Execution statistics. All counters are cumulative over the life of the
/// machine; benchmarks snapshot-and-subtract around regions of interest.
struct VmStats {
  uint64_t Executed = 0;        ///< instructions executed, total
  uint64_t ExecutedStatic = 0;  ///< ... with PC in the static code region
  uint64_t ExecutedDynamic = 0; ///< ... with PC in the dynamic code region
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t DynWordsWritten = 0; ///< words stored into the dynamic code
                                ///< segment == instructions generated
  uint64_t Flushes = 0;
  uint64_t FlushedBytes = 0;
  uint64_t Cycles = 0; ///< Executed + modeled flush penalties

  bool operator==(const VmStats &) const = default;
  VmStats operator-(const VmStats &Rhs) const {
    VmStats D;
    D.Executed = Executed - Rhs.Executed;
    D.ExecutedStatic = ExecutedStatic - Rhs.ExecutedStatic;
    D.ExecutedDynamic = ExecutedDynamic - Rhs.ExecutedDynamic;
    D.Loads = Loads - Rhs.Loads;
    D.Stores = Stores - Rhs.Stores;
    D.DynWordsWritten = DynWordsWritten - Rhs.DynWordsWritten;
    D.Flushes = Flushes - Rhs.Flushes;
    D.FlushedBytes = FlushedBytes - Rhs.FlushedBytes;
    D.Cycles = Cycles - Rhs.Cycles;
    return D;
  }

  VmStats &operator+=(const VmStats &R) {
    Executed += R.Executed;
    ExecutedStatic += R.ExecutedStatic;
    ExecutedDynamic += R.ExecutedDynamic;
    Loads += R.Loads;
    Stores += R.Stores;
    DynWordsWritten += R.DynWordsWritten;
    Flushes += R.Flushes;
    FlushedBytes += R.FlushedBytes;
    Cycles += R.Cycles;
    return *this;
  }
};

/// Counters for the predecoded basic-block engine (see docs/VM.md).
/// Host-side only: none of these affect simulated state or VmStats.
struct DecodeCacheStats {
  uint64_t BlocksBuilt = 0;   ///< blocks predecoded (including rebuilds)
  uint64_t BlockRuns = 0;     ///< cached-block executions
  uint64_t FastInsts = 0;     ///< instructions retired through cached blocks
  uint64_t SlowInsts = 0;     ///< instructions retired by the slow path
  uint64_t FusedOps = 0;      ///< fused micro-ops built (lui+ori, cmp+branch)
  uint64_t Invalidations = 0; ///< cached blocks dropped (code writes, resets)

  DecodeCacheStats &operator+=(const DecodeCacheStats &R) {
    BlocksBuilt += R.BlocksBuilt;
    BlockRuns += R.BlockRuns;
    FastInsts += R.FastInsts;
    SlowInsts += R.SlowInsts;
    FusedOps += R.FusedOps;
    Invalidations += R.Invalidations;
    return *this;
  }
};

/// Host-visible memoization behaviour of the in-VM memo tables; see
/// TelemetrySnapshot::Memo. A "hit" is a successful specialize() that
/// emitted no dynamic code (the generator was answered entirely from its
/// memo table), so callers can prove a cached path skipped the generator
/// by checking instructionsGenerated() stayed constant.
struct SpecializationStats {
  uint64_t GeneratorRuns = 0; ///< successful specialize() operations
  uint64_t MemoHits = 0;      ///< ... that emitted no code
  uint64_t MemoMisses = 0;    ///< ... that emitted code
  /// Generator efficiency accounting: guest instructions executed by
  /// specialize() runs and dynamic code words they emitted. The ratio
  /// GenExecuted / GenDynWords is the paper's "generator instructions per
  /// generated instruction" (about 6 in the paper's system).
  uint64_t GenExecuted = 0;
  uint64_t GenDynWords = 0;

  SpecializationStats &operator+=(const SpecializationStats &R) {
    GeneratorRuns += R.GeneratorRuns;
    MemoHits += R.MemoHits;
    MemoMisses += R.MemoMisses;
    GenExecuted += R.GenExecuted;
    GenDynWords += R.GenDynWords;
    return *this;
  }
};

/// Counters describing recovery activity; see TelemetrySnapshot::Recovery.
struct RecoveryStats {
  uint64_t FaultResets = 0;        ///< resets in response to pressure stops
  uint64_t RecoveredRetries = 0;   ///< retries that then succeeded
  uint64_t PlainFallbackCalls = 0; ///< calls served by the Plain image

  RecoveryStats &operator+=(const RecoveryStats &R) {
    FaultResets += R.FaultResets;
    RecoveredRetries += R.RecoveredRetries;
    PlainFallbackCalls += R.PlainFallbackCalls;
    return *this;
  }
};

/// Hit/miss/eviction counters for the host-side specialization cache
/// (service layer); hitRate() is hits over all lookups. The policy-layer
/// counters (admission, compaction, profile gating, warm-start restore)
/// are described in docs/SERVICE.md "Cache policy".
struct SpecCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  /// Lookups that found an entry from an earlier code epoch: the address
  /// died in a resetCodeSpace(), so the caller re-specialized. Counted in
  /// Misses as well.
  uint64_t Rehydrations = 0;
  /// Entries dropped by an explicit invalidate() (wire Invalidate frames
  /// and SpecServer::invalidate); not counted as evictions.
  uint64_t Invalidated = 0;
  /// First-sighting inserts the doorkeeper refused while the cache was
  /// full (the key's hash is remembered in the ghost LRU instead — the
  /// scan-resistance mechanism; see CachePolicy::Admission).
  uint64_t AdmissionRejects = 0;
  /// Inserts admitted on a second sighting via the ghost LRU, each
  /// paying one eviction the first sighting did not.
  uint64_t AdmissionAdmits = 0;
  /// Selective code-space rebuilds: on pressure the worker re-specializes
  /// only pinned/hot keys into a fresh segment instead of dropping the
  /// whole cache with the all-or-nothing reset.
  uint64_t Compactions = 0;
  uint64_t CompactKept = 0;    ///< entries re-specialized across a compaction
  uint64_t CompactDropped = 0; ///< entries abandoned by compactions
  /// Entries restored from a warm-start file (CachePolicy::LoadFile).
  uint64_t WarmRestored = 0;

  double hitRate() const {
    uint64_t Total = Hits + Misses;
    return Total ? static_cast<double>(Hits) / static_cast<double>(Total) : 0.0;
  }

  SpecCacheStats &operator+=(const SpecCacheStats &R) {
    Hits += R.Hits;
    Misses += R.Misses;
    Evictions += R.Evictions;
    Rehydrations += R.Rehydrations;
    Invalidated += R.Invalidated;
    AdmissionRejects += R.AdmissionRejects;
    AdmissionAdmits += R.AdmissionAdmits;
    Compactions += R.Compactions;
    CompactKept += R.CompactKept;
    CompactDropped += R.CompactDropped;
    WarmRestored += R.WarmRestored;
    return *this;
  }
};

/// Admission-control and failure-recovery counters for the serving layer
/// (bounded queues, deadlines, retry, circuit breaker); see
/// docs/SERVICE.md "Overload and failure semantics".
struct OverloadStats {
  uint64_t Shed = 0;             ///< refused at submit: queue over depth
  uint64_t DeadlineMisses = 0;   ///< shed at dequeue or stopped mid-run
  uint64_t Retried = 0;          ///< retry attempts after transient errors
  uint64_t RetrySuccesses = 0;   ///< requests that succeeded on a retry
  uint64_t BreakerOpens = 0;     ///< closed/half-open -> open transitions
  uint64_t BreakerFallbacks = 0; ///< requests served by Plain while open
  uint64_t BreakerProbes = 0;    ///< half-open specialization probes
  uint64_t BreakerFastFails = 0; ///< CircuitOpen responses (no fallback)

  OverloadStats &operator+=(const OverloadStats &R) {
    Shed += R.Shed;
    DeadlineMisses += R.DeadlineMisses;
    Retried += R.Retried;
    RetrySuccesses += R.RetrySuccesses;
    BreakerOpens += R.BreakerOpens;
    BreakerFallbacks += R.BreakerFallbacks;
    BreakerProbes += R.BreakerProbes;
    BreakerFastFails += R.BreakerFastFails;
    return *this;
  }
};

/// Wire front-end counters (src/net/). One instance per connection,
/// accumulated by its reader/writer threads and summed — together with
/// the listener-level fields — into TelemetrySnapshot::Net, so the
/// pool-wide totals are exactly the per-connection sums (net_test
/// asserts this).
struct NetStats {
  uint64_t Connections = 0;    ///< connections accepted (listener) / 1 (conn)
  uint64_t Disconnects = 0;    ///< connections fully closed
  uint64_t FramesIn = 0;       ///< complete request frames decoded
  uint64_t FramesOut = 0;      ///< reply frames written
  uint64_t BytesIn = 0;        ///< payload + header bytes received
  uint64_t BytesOut = 0;       ///< payload + header bytes sent
  uint64_t ReadBatches = 0;    ///< recv() calls that yielded >=1 frame
  uint64_t BatchedFrames = 0;  ///< frames that arrived sharing a recv()
                               ///< with at least one other frame (the
                               ///< socket-read batching feeding the
                               ///< worker queues)
  uint64_t Submits = 0;        ///< SubmitSpecialize/Call frames accepted
  uint64_t Invalidates = 0;    ///< Invalidate frames served
  uint64_t StatsRequests = 0;  ///< Stats frames served
  uint64_t ErrorsOut = 0;      ///< Error frames sent (typed refusals)
  uint64_t ProtocolErrors = 0; ///< malformed input (bad magic/version/
                               ///< frame); usually followed by a close
  uint64_t PipelineHighWater = 0; ///< max submits in flight on one conn
  uint64_t CapRejects = 0;     ///< requests refused over an in-flight cap
                               ///< (per-connection or global), answered
                               ///< with typed rejected + retry hint

  NetStats &operator+=(const NetStats &R) {
    Connections += R.Connections;
    Disconnects += R.Disconnects;
    FramesIn += R.FramesIn;
    FramesOut += R.FramesOut;
    BytesIn += R.BytesIn;
    BytesOut += R.BytesOut;
    ReadBatches += R.ReadBatches;
    BatchedFrames += R.BatchedFrames;
    Submits += R.Submits;
    Invalidates += R.Invalidates;
    StatsRequests += R.StatsRequests;
    ErrorsOut += R.ErrorsOut;
    ProtocolErrors += R.ProtocolErrors;
    if (R.PipelineHighWater > PipelineHighWater)
      PipelineHighWater = R.PipelineHighWater;
    CapRejects += R.CapRejects;
    return *this;
  }
};

/// Event-loop counters for the wire front-end's reactor (src/net/): one
/// epoll/poll-driven thread owns every connection socket, so these are
/// the scaling gauges — how many connections one loop is carrying, how
/// much work each kernel wakeup amortizes, and how often writes stall
/// behind a slow peer. Summed into TelemetrySnapshot::Reactor.
struct ReactorStats {
  uint64_t Wakeups = 0;          ///< wait() returns that found work
  uint64_t EventsDispatched = 0; ///< readiness events handled
  uint64_t TimerTicks = 0;       ///< timer-wheel advances that fired
  uint64_t IdleClosed = 0;       ///< connections reaped by idle timeout
  uint64_t AcceptRejects = 0;    ///< connections refused over MaxConns
  uint64_t WriteStalls = 0;      ///< flushes that left bytes queued
                                 ///< (peer's socket buffer full)
  uint64_t WriteStallPeakBytes = 0; ///< deepest queued-unsent backlog
  uint64_t OpenConns = 0;        ///< gauge: connections open right now
  uint64_t PeakConns = 0;        ///< most connections open at once

  /// Readiness events amortized per kernel wakeup — the reactor's whole
  /// argument; 1.0 means epoll buys nothing over blocking threads.
  double wakeupBatch() const {
    return Wakeups ? static_cast<double>(EventsDispatched) /
                         static_cast<double>(Wakeups)
                   : 0.0;
  }

  ReactorStats &operator+=(const ReactorStats &R) {
    Wakeups += R.Wakeups;
    EventsDispatched += R.EventsDispatched;
    TimerTicks += R.TimerTicks;
    IdleClosed += R.IdleClosed;
    AcceptRejects += R.AcceptRejects;
    WriteStalls += R.WriteStalls;
    if (R.WriteStallPeakBytes > WriteStallPeakBytes)
      WriteStallPeakBytes = R.WriteStallPeakBytes;
    OpenConns += R.OpenConns;
    if (R.PeakConns > PeakConns)
      PeakConns = R.PeakConns;
    return *this;
  }
};

/// Log2-bucketed wall-clock latency histogram (submit to resolve).
/// Bucket I covers [2^I, 2^(I+1)) nanoseconds; quantileNs reports the
/// upper bound of the bucket holding the requested quantile, which is
/// precise enough for the "p99 stays bounded under overload" assertions
/// bench_overload makes (adjacent buckets differ by 2x, the latencies
/// being compared by orders of magnitude).
struct LatencyStats {
  static constexpr unsigned Buckets = 40;
  uint64_t Count = 0;
  uint64_t MaxNs = 0;
  uint64_t Hist[Buckets] = {};

  void record(uint64_t Ns) {
    ++Count;
    if (Ns > MaxNs)
      MaxNs = Ns;
    unsigned B = 0;
    while (B + 1 < Buckets && Ns >= (uint64_t(1) << (B + 1)))
      ++B;
    ++Hist[B];
  }

  /// Upper bound of the bucket containing quantile \p Q in [0, 1];
  /// 0 when empty.
  uint64_t quantileNs(double Q) const {
    if (!Count)
      return 0;
    uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(Count - 1));
    uint64_t Seen = 0;
    for (unsigned B = 0; B < Buckets; ++B) {
      Seen += Hist[B];
      if (Seen > Rank) {
        // The observed max is a tighter bound than the bucket ceiling
        // whenever the quantile lands in the max's own bucket.
        uint64_t Ceil = uint64_t(1) << (B + 1);
        return Ceil < MaxNs ? Ceil : MaxNs;
      }
    }
    return MaxNs;
  }

  LatencyStats &operator+=(const LatencyStats &R) {
    Count += R.Count;
    if (R.MaxNs > MaxNs)
      MaxNs = R.MaxNs;
    for (unsigned B = 0; B < Buckets; ++B)
      Hist[B] += R.Hist[B];
    return *this;
  }
};

} // namespace fab

#endif // FAB_TELEMETRY_STATS_H
