//===- service_test.cpp - Specialization service tests --------------------===//
//
// Covers the three layers of src/service/: SpecKey/SpecCache (value
// keying, LRU eviction, pinning, epoch invalidation after
// resetCodeSpace), MachinePool (per-worker isolation, heap recycling,
// faulting workers that never stall the pool, circuit breaking to the
// Plain image), and SpecServer (futures,
// coalescing, graceful shutdown, N-thread hammer against the
// single-threaded Machine baseline). Also covers the core hooks the
// service depends on: Machine::codeEpoch(), specializationsLive(), and
// the memo hit/miss counters.
//
//===----------------------------------------------------------------------===//

#include "service/SpecServer.h"

#include "bpf/Bpf.h"
#include "support/Rng.h"
#include "workloads/MlPrograms.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

using namespace fab;
using namespace fab::service;

namespace {

const char *SimpleSrc = "fun f (k : int) (x : int) = x * k + k";

/// Self calls in both arms of a late conditional: exponential emission
/// that exhausts a shrunken code segment even from empty.
const char *ScanSrc =
    "fun scan (v : int vector, i, n) (best : int) ="
    " if i = n then best"
    " else if (v sub i) < best then scan (v, i + 1, n) (v sub i)"
    " else scan (v, i + 1, n) (best)";

/// A plain LRU of \p Capacity: the admission doorkeeper is off.
CachePolicy lruPolicy(size_t Capacity) {
  CachePolicy P;
  P.Capacity = Capacity;
  P.Admission = false;
  return P;
}

/// Matmul (dotloop/dotprod) plus the BPF interpreter (eval/runfilter) in
/// one program: the service's mixed workload. Names are disjoint.
std::string mixedSrc() {
  return std::string(workloads::MatmulSrc) + "\n" + workloads::EvalSrc;
}

FabiusOptions mixedOptions() {
  FabiusOptions Opts = FabiusOptions::deferred();
  // Filter programs are DAGs; memoized self calls share their suffixes.
  Opts.Backend.MemoizedSelfCalls.insert("eval");
  return Opts;
}

/// A mixed request stream: dot products over a few distinct rows
/// interleaved with telnet-filter runs over a packet trace.
struct MixedRequest {
  std::string Fn;
  std::vector<Value> Early, Late;
};

std::vector<MixedRequest> mixedWorkload(size_t Count, uint64_t Seed) {
  Rng R(Seed);
  const uint32_t N = 16;
  std::vector<std::vector<int32_t>> Rows;
  for (int I = 0; I < 8; ++I) {
    std::vector<int32_t> Row(N);
    for (uint32_t J = 0; J < N; ++J)
      Row[J] = static_cast<int32_t>(R.next() % 100) - 20;
    Rows.push_back(Row);
  }
  bpf::Program Filter = bpf::telnetFilter();
  auto Trace = bpf::makeTrace(24, Seed ^ 0x9E3779B9u);

  std::vector<MixedRequest> Reqs;
  for (size_t I = 0; I < Count; ++I) {
    if (I % 3 == 2) {
      MixedRequest Q;
      Q.Fn = "eval";
      Q.Early = {Value::ofVec(Filter.Words), Value::ofInt(0)};
      Q.Late = {Value::ofInt(0), Value::ofInt(0),
                Value::ofVec(std::vector<int32_t>(16, 0)),
                Value::ofVec(Trace[I % Trace.size()])};
      Reqs.push_back(std::move(Q));
    } else {
      std::vector<int32_t> Col(N);
      for (uint32_t J = 0; J < N; ++J)
        Col[J] = static_cast<int32_t>(R.next() % 50) - 10;
      MixedRequest Q;
      Q.Fn = "dotloop";
      Q.Early = {Value::ofVec(Rows[I % Rows.size()]), Value::ofInt(0),
                 Value::ofInt(static_cast<int32_t>(N))};
      Q.Late = {Value::ofVec(Col), Value::ofInt(0)};
      Reqs.push_back(std::move(Q));
    }
  }
  return Reqs;
}

/// Serves one request on a plain single-threaded Machine (the baseline
/// the pool must match byte for byte).
FabResult<int32_t> baselineServe(Machine &M, const MixedRequest &Q) {
  auto materialize = [&](const std::vector<Value> &Vals) {
    std::vector<uint32_t> Words;
    for (const Value &V : Vals)
      Words.push_back(V.K == Value::Kind::Int ? static_cast<uint32_t>(V.I)
                                              : M.heap().vector(V.Vec));
    return Words;
  };
  FabResult<uint32_t> S = M.specialize(Q.Fn, materialize(Q.Early));
  if (!S)
    return S.error();
  return M.invoke<int32_t>(*S, materialize(Q.Late));
}

} // namespace

//===----------------------------------------------------------------------===//
// Keys
//===----------------------------------------------------------------------===//

TEST(SpecKey, ValueKeyingIsAddressFree) {
  SpecKey A = SpecKey::make("f", {Value::ofVec({1, 2, 3}), Value::ofInt(7)});
  SpecKey B = SpecKey::make("f", {Value::ofVec({1, 2, 3}), Value::ofInt(7)});
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.Hash, B.Hash);

  // Different content, length, function, or arg shape: different keys.
  EXPECT_FALSE(A == SpecKey::make("f", {Value::ofVec({1, 2, 4}),
                                        Value::ofInt(7)}));
  EXPECT_FALSE(A == SpecKey::make("g", {Value::ofVec({1, 2, 3}),
                                        Value::ofInt(7)}));
  EXPECT_FALSE(SpecKey::make("f", {Value::ofVec({1})}) ==
               SpecKey::make("f", {Value::ofInt(1)}));
}

TEST(SpecKey, FromHeapMatchesHostValues) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  Machine M1(C.Unit), M2(C.Unit);
  // The same values at different addresses (M2 allocates a decoy first)
  // produce the same key, and match the host-side construction.
  uint32_t V1 = M1.heap().vector({5, 6, 7});
  M2.heap().vector({99});
  uint32_t V2 = M2.heap().vector({5, 6, 7});
  EXPECT_NE(V1, V2);

  SpecKey Host = SpecKey::make("f", {Value::ofVec({5, 6, 7}), Value::ofInt(2)});
  SpecKey H1 = SpecKey::fromHeap("f", {V1, 2}, {true, false}, M1.heap());
  SpecKey H2 = SpecKey::fromHeap("f", {V2, 2}, {true, false}, M2.heap());
  EXPECT_EQ(Host, H1);
  EXPECT_EQ(Host, H2);
  // Deep hashing goes through HeapImage::hashVector: flipping one element
  // in the heap flips the key.
  M1.vm().store32(V1 + 4, 100);
  SpecKey H1b = SpecKey::fromHeap("f", {V1, 2}, {true, false}, M1.heap());
  EXPECT_FALSE(Host == H1b);
}

//===----------------------------------------------------------------------===//
// SpecCache
//===----------------------------------------------------------------------===//

TEST(SpecCache, HitMissLruEvictionAndPinning) {
  SpecCache Cache(lruPolicy(2));
  SpecKey K1 = SpecKey::make("f", {Value::ofInt(1)});
  SpecKey K2 = SpecKey::make("f", {Value::ofInt(2)});
  SpecKey K3 = SpecKey::make("f", {Value::ofInt(3)});

  EXPECT_FALSE(Cache.lookup(K1, 0).has_value());
  Cache.insert(K1, 0x100, 0);
  Cache.insert(K2, 0x200, 0);
  EXPECT_EQ(*Cache.lookup(K1, 0), 0x100u); // K1 now hottest
  Cache.insert(K3, 0x300, 0);              // evicts K2 (LRU)
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_FALSE(Cache.lookup(K2, 0).has_value());
  EXPECT_TRUE(Cache.lookup(K1, 0).has_value());
  EXPECT_TRUE(Cache.lookup(K3, 0).has_value());

  // Pin K3; the next insert must evict K1 instead of the colder pin.
  EXPECT_TRUE(Cache.pin(K3, true));
  EXPECT_TRUE(Cache.lookup(K1, 0).has_value()); // K1 hottest, K3 coldest
  Cache.insert(K2, 0x201, 0);
  EXPECT_TRUE(Cache.lookup(K3, 0).has_value());
  EXPECT_FALSE(Cache.lookup(K1, 0).has_value());
  EXPECT_FALSE(Cache.pin(K1, true)); // absent

  EXPECT_EQ(Cache.stats().Hits, 5u);
  EXPECT_EQ(Cache.stats().Misses, 3u);
  EXPECT_NEAR(Cache.stats().hitRate(), 5.0 / 8.0, 1e-9);
}

TEST(SpecCache, EpochInvalidationAfterResetCodeSpace) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  Machine M(C.Unit);
  SpecCache Cache(lruPolicy(16));
  SpecKey K = SpecKey::make("f", {Value::ofInt(3)});

  EXPECT_EQ(M.codeEpoch(), 0u);
  uint32_t A = M.specializeOrDie("f", {3});
  Cache.insert(K, A, M.codeEpoch());
  EXPECT_EQ(*Cache.lookup(K, M.codeEpoch()), A);

  M.resetCodeSpace();
  EXPECT_EQ(M.codeEpoch(), 1u);
  // The cached address died with the epoch: stale entry reported as a
  // rehydration, then the caller re-specializes and re-inserts.
  EXPECT_FALSE(Cache.lookup(K, M.codeEpoch()).has_value());
  EXPECT_EQ(Cache.stats().Rehydrations, 1u);
  uint32_t A2 = M.specializeOrDie("f", {3});
  Cache.insert(K, A2, M.codeEpoch());
  EXPECT_EQ(*Cache.lookup(K, M.codeEpoch()), A2);
  EXPECT_EQ(M.invokeOrDie<int32_t>(A2, {10}), 33);
}

//===----------------------------------------------------------------------===//
// Core hooks: memo counters, live-specialization query, code epoch
//===----------------------------------------------------------------------===//

TEST(MachineMemo, CountersAndLiveQuery) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  Machine M(C.Unit);
  EXPECT_EQ(M.specializationsLive(), 0u);

  for (uint32_t K = 1; K <= 3; ++K)
    M.specializeOrDie("f", {K});
  EXPECT_EQ(M.specializationsLive(), 3u);
  EXPECT_EQ(M.telemetry().Memo.GeneratorRuns, 3u);
  EXPECT_EQ(M.telemetry().Memo.MemoMisses, 3u);
  EXPECT_EQ(M.telemetry().Memo.MemoHits, 0u);

  // A repeated key is answered from the memo table: counted as a hit,
  // no new code, no new live entry.
  uint64_t Gen = M.instructionsGenerated();
  M.specializeOrDie("f", {2});
  EXPECT_EQ(M.telemetry().Memo.MemoHits, 1u);
  EXPECT_EQ(M.instructionsGenerated(), Gen);
  EXPECT_EQ(M.specializationsLive(), 3u);

  M.resetCodeSpace();
  EXPECT_EQ(M.specializationsLive(), 0u);
}

//===----------------------------------------------------------------------===//
// SpecServer
//===----------------------------------------------------------------------===//

TEST(SpecServer, CacheHitSkipsGeneratorEntirely) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  SpecServer S(C);

  std::vector<Value> Early = {Value::ofInt(6)};
  FabResult<int32_t> R1 = S.call("f", Early, {Value::ofInt(10)});
  ASSERT_TRUE(R1.ok());
  EXPECT_EQ(*R1, 66);
  uint64_t GenAfterCold = S.telemetry().Vm.DynWordsWritten;
  EXPECT_GT(GenAfterCold, 0u);
  EXPECT_EQ(S.telemetry().Cache.Misses, 1u);

  // Warm request: same early value, different late value. The host cache
  // answers it without even entering the generator.
  FabResult<int32_t> R2 = S.call("f", Early, {Value::ofInt(11)});
  ASSERT_TRUE(R2.ok());
  EXPECT_EQ(*R2, 72);
  TelemetrySnapshot St = S.telemetry();
  EXPECT_EQ(St.Vm.DynWordsWritten, GenAfterCold); // zero generator instructions
  EXPECT_EQ(St.Cache.Hits, 1u);
  EXPECT_EQ(St.Memo.GeneratorRuns, 1u); // generator entered exactly once
  EXPECT_EQ(St.Served, 2u);
}

TEST(SpecServer, EvictionUnderTinyCapacityStaysCorrect) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  ServerOptions SO;
  SO.Pool.Workers = 1;
  SO.Pool.Cache.Capacity = 2;
  // This exercises plain-LRU eviction; the admission doorkeeper would
  // (correctly) refuse the cycling keys and keep the first two resident.
  SO.Pool.Cache.Admission = false;
  SpecServer S(C, SO);
  for (int Round = 0; Round < 3; ++Round)
    for (int32_t K = 1; K <= 5; ++K) {
      FabResult<int32_t> R =
          S.call("f", {Value::ofInt(K)}, {Value::ofInt(100)});
      ASSERT_TRUE(R.ok());
      EXPECT_EQ(*R, 100 * K + K);
    }
  TelemetrySnapshot St = S.telemetry();
  EXPECT_GT(St.Cache.Evictions, 0u);
  EXPECT_LE(St.Cache.Hits, 14u); // capacity 2 of 5 keys: mostly misses
  // Evicted host entries fall back to the in-VM memo (pointer-keyed, but
  // the early scalar is the key word itself), not to regeneration.
  EXPECT_GT(St.Memo.MemoHits, 0u);
}

TEST(SpecServer, HammerMatchesSingleThreadedMachine) {
  Compilation C = compileOrDie(mixedSrc(), mixedOptions());
  std::vector<MixedRequest> Reqs = mixedWorkload(240, 42);

  // Baseline: every request on one single-threaded Machine.
  std::vector<int32_t> Expected;
  {
    Machine M(C.Unit);
    for (const MixedRequest &Q : Reqs) {
      FabResult<int32_t> R = baselineServe(M, Q);
      ASSERT_TRUE(R.ok());
      Expected.push_back(*R);
    }
  }

  // Pool: 4 workers hammered from 3 submitter threads.
  ServerOptions SO;
  SO.Pool.Workers = 4;
  SpecServer S(C, SO);
  std::vector<std::future<FabResult<int32_t>>> Futures(Reqs.size());
  {
    std::vector<std::thread> Submitters;
    std::atomic<size_t> NextIdx{0};
    for (int T = 0; T < 3; ++T)
      Submitters.emplace_back([&] {
        for (;;) {
          size_t I = NextIdx.fetch_add(1);
          if (I >= Reqs.size())
            return;
          Futures[I] = S.submit(Reqs[I].Fn, Reqs[I].Early, Reqs[I].Late);
        }
      });
    for (std::thread &T : Submitters)
      T.join();
  }
  for (size_t I = 0; I < Reqs.size(); ++I) {
    FabResult<int32_t> R = Futures[I].get();
    ASSERT_TRUE(R.ok()) << "request " << I << ": " << R.error().message();
    EXPECT_EQ(*R, Expected[I]) << "request " << I;
  }
  TelemetrySnapshot St = S.telemetry();
  EXPECT_EQ(St.Served, Reqs.size());
  EXPECT_EQ(St.Errors, 0u);
  // 9 distinct keys across 240 requests: the cache carries the load.
  EXPECT_GT(St.Cache.Hits + St.Coalesced, St.Cache.Misses);
}

TEST(SpecServer, HeapRecyclingKeepsServing) {
  Compilation C = compileOrDie(mixedSrc(), mixedOptions());
  std::vector<MixedRequest> Reqs = mixedWorkload(60, 7);
  ServerOptions SO;
  SO.Pool.Workers = 2;
  // Recycle as soon as the heap holds more than ~4 KB: forces machine
  // rebuilds (fresh heap + code space, cleared cache/intern) mid-stream.
  SO.Pool.HeapRecycleMargin = layout::HeapEnd - (layout::HeapBase + 4096);
  SpecServer S(C, SO);

  Machine Baseline(C.Unit);
  for (const MixedRequest &Q : Reqs) {
    FabResult<int32_t> Want = baselineServe(Baseline, Q);
    ASSERT_TRUE(Want.ok());
    FabResult<int32_t> Got = S.call(Q.Fn, Q.Early, Q.Late);
    ASSERT_TRUE(Got.ok()) << Got.error().message();
    EXPECT_EQ(*Got, *Want);
  }
  EXPECT_GT(S.telemetry().HeapRecycles, 0u);
}

TEST(SpecServer, FaultInjectedWorkerDegradesWithoutStallingPool) {
  // Worker 0's machine faults on every run (a repeating injector), so its
  // breaker for "f" opens. The pool keeps draining: every future
  // resolves, and other workers' results stay correct.
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferredWithFallback());
  ServerOptions SO;
  SO.Pool.Workers = 2;
  SO.Pool.ConfigureWorker = [](unsigned Idx, Machine &M) {
    if (Idx != 0)
      return;
    FaultInjector FI;
    FI.Armed = true;
    FI.AfterInstructions = 8; // early in the generator: static code
    FI.Kind = Fault::BadAccess;
    FI.OneShot = false;
    M.vm().injectFault(FI);
  };
  SpecServer S(C, SO);

  std::vector<std::future<FabResult<int32_t>>> Futures;
  std::vector<unsigned> Route;
  const int32_t NumKeys = 64;
  for (int32_t K = 1; K <= NumKeys; ++K) {
    std::vector<Value> Early = {Value::ofInt(K)};
    Route.push_back(S.workerFor("f", Early));
    Futures.push_back(S.submit("f", Early, {Value::ofInt(5)}));
  }
  unsigned Healthy = 0, Faulted = 0;
  for (int32_t K = 1; K <= NumKeys; ++K) {
    FabResult<int32_t> R = Futures[K - 1].get(); // no future may hang
    if (Route[K - 1] == 0) {
      EXPECT_FALSE(R.ok());
      ++Faulted;
    } else {
      ASSERT_TRUE(R.ok());
      EXPECT_EQ(*R, 5 * K + K);
      ++Healthy;
    }
  }
  EXPECT_GT(Healthy, 0u);
  EXPECT_GT(Faulted, 0u);

  TelemetrySnapshot W0 = S.workerStats(0);
  EXPECT_GE(W0.Overload.BreakerOpens, 1u);
  EXPECT_EQ(W0.Errors, Faulted);
  TelemetrySnapshot W1 = S.workerStats(1);
  EXPECT_EQ(W1.Overload.BreakerOpens, 0u);
  EXPECT_EQ(W1.Served, Healthy);
}

TEST(SpecServer, SubmitsRacingStopAllResolve) {
  // Submitter threads race shutdown(): every future must resolve — a
  // value for drained work, FabErrc::Rejected for refused work — and
  // none may hang. (Covers the shutdown path of the admission contract:
  // accepted work is never dropped, refused work is answered
  // immediately.)
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  ServerOptions SO;
  SO.Pool.Workers = 2;
  SpecServer S(C, SO);

  constexpr int Threads = 4, PerThread = 200;
  std::vector<std::vector<std::future<FabResult<int32_t>>>> All(Threads);
  std::atomic<bool> Go{false};
  std::vector<std::thread> Submitters;
  for (int T = 0; T < Threads; ++T)
    Submitters.emplace_back([&, T] {
      All[T].reserve(PerThread);
      while (!Go.load())
        std::this_thread::yield();
      for (int I = 0; I < PerThread; ++I) {
        int32_t K = (T * PerThread + I) % 32 + 1;
        All[T].push_back(
            S.submit("f", {Value::ofInt(K)}, {Value::ofInt(5)}));
      }
    });
  Go.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  S.shutdown(); // races the submitters
  for (std::thread &T : Submitters)
    T.join();

  size_t Ok = 0, Refused = 0;
  for (int T = 0; T < Threads; ++T)
    for (size_t I = 0; I < All[T].size(); ++I) {
      FabResult<int32_t> R = All[T][I].get(); // must not hang
      int32_t K = static_cast<int32_t>(T * PerThread + I) % 32 + 1;
      if (R.ok()) {
        EXPECT_EQ(*R, 5 * K + K);
        ++Ok;
      } else {
        EXPECT_EQ(R.error().Code, FabErrc::Rejected);
        ++Refused;
      }
    }
  EXPECT_EQ(Ok + Refused, static_cast<size_t>(Threads * PerThread));
  TelemetrySnapshot T = S.telemetry();
  EXPECT_EQ(T.Served, Ok);
  EXPECT_EQ(T.Rejected + T.Overload.Shed, Refused);
}

TEST(SpecServer, BoundedQueueShedsWithRejected) {
  // One worker, queue depth 2, the in-flight request parked on a latch:
  // submissions beyond the depth resolve immediately with Rejected and
  // are counted as Shed, while everything accepted is still served.
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  ServerOptions SO;
  SO.Pool.Workers = 1;
  SO.Pool.MaxQueueDepth = 2;
  std::promise<void> EnteredP, ReleaseP;
  std::future<void> Entered = EnteredP.get_future();
  std::shared_future<void> Release = ReleaseP.get_future().share();
  SO.Pool.BeforeRequest = [&, Signalled = false](unsigned, Machine &,
                                                 uint64_t Seq) mutable {
    if (Seq == 1 && !Signalled) {
      Signalled = true;
      EnteredP.set_value();
      Release.wait();
    }
  };
  SpecServer S(C, SO);

  // First request: dequeued (the batch swap empties the queue), then
  // parked in the hook — so the worker is busy and the queue is empty.
  auto F0 = S.submit("f", {Value::ofInt(1)}, {Value::ofInt(5)});
  Entered.wait();
  // Fill the queue to its depth, then two more that must shed.
  auto F1 = S.submit("f", {Value::ofInt(2)}, {Value::ofInt(5)});
  auto F2 = S.submit("f", {Value::ofInt(3)}, {Value::ofInt(5)});
  auto F3 = S.submit("f", {Value::ofInt(4)}, {Value::ofInt(5)});
  auto F4 = S.submit("f", {Value::ofInt(5)}, {Value::ofInt(5)});
  // Shed futures are already resolved, before the worker moves at all.
  ASSERT_EQ(F3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  ASSERT_EQ(F4.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  FabResult<int32_t> R3 = F3.get(), R4 = F4.get();
  ASSERT_FALSE(R3.ok());
  ASSERT_FALSE(R4.ok());
  EXPECT_EQ(R3.error().Code, FabErrc::Rejected);
  EXPECT_EQ(R4.error().Code, FabErrc::Rejected);

  ReleaseP.set_value();
  for (auto *F : {&F0, &F1, &F2}) {
    FabResult<int32_t> R = F->get();
    ASSERT_TRUE(R.ok());
  }
  S.shutdown();

  TelemetrySnapshot T = S.telemetry();
  EXPECT_EQ(T.Overload.Shed, 2u);
  EXPECT_EQ(T.Served, 3u);
  EXPECT_EQ(T.Rejected, 0u); // sheds are not shutdown rejections
  // The new counters surface in the text exporter, the per-worker rows
  // included, and in the live reporter's summary line.
  std::string Text = T.text();
  EXPECT_NE(Text.find("fab.server.shed 2\n"), std::string::npos) << Text;
  EXPECT_NE(Text.find("fab.worker.0.shed 2\n"), std::string::npos) << Text;
  EXPECT_NE(Text.find("fab.worker.0.queue_high_water"), std::string::npos);
  EXPECT_NE(T.summaryLine().find("shed=2"), std::string::npos)
      << T.summaryLine();
}

TEST(SpecServer, DeadlineShedsLateWorkAtDequeue) {
  // A request whose deadline passes while it waits in the queue is shed
  // at dequeue with DeadlineExceeded — before any specialization cost.
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  ServerOptions SO;
  SO.Pool.Workers = 1;
  std::promise<void> EnteredP, ReleaseP;
  std::future<void> Entered = EnteredP.get_future();
  std::shared_future<void> Release = ReleaseP.get_future().share();
  SO.Pool.BeforeRequest = [&, Signalled = false](unsigned, Machine &,
                                                 uint64_t Seq) mutable {
    if (Seq == 1 && !Signalled) {
      Signalled = true;
      EnteredP.set_value();
      Release.wait();
    }
  };
  SpecServer S(C, SO);

  auto F0 = S.submit("f", {Value::ofInt(1)}, {Value::ofInt(5)});
  Entered.wait();
  SubmitOptions O;
  O.DeadlineNs = 2'000'000; // 2 ms
  O.MaxRetries = 1;
  auto F1 = S.submit("f", {Value::ofInt(2)}, {Value::ofInt(5)}, O);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ReleaseP.set_value();

  ASSERT_TRUE(F0.get().ok());
  FabResult<int32_t> R1 = F1.get();
  ASSERT_FALSE(R1.ok());
  EXPECT_EQ(R1.error().Code, FabErrc::DeadlineExceeded);
  S.shutdown();
  EXPECT_GE(S.telemetry().Overload.DeadlineMisses, 1u);
}

TEST(SpecServer, DeadlineCapsRunawayExecutionAsFuel) {
  // Deadline-as-fuel: a specialized function that would run for billions
  // of simulated instructions is stopped by the fuel cap derived from the
  // request deadline and reported as DeadlineExceeded — the worker is
  // not wedged and keeps serving.
  const char *SpinSrc =
      "fun spin (k : int) (n : int) = if n < 1 then k else spin k (n - 1)";
  FabiusOptions Opts = FabiusOptions::deferred();
  // The self-call recurses on a *late* argument: memoize it so the
  // residual code loops at run time instead of the generator unrolling.
  Opts.Backend.MemoizedSelfCalls.insert("spin");
  Compilation C = compileOrDie(SpinSrc, Opts);
  ServerOptions SO;
  SO.Pool.Workers = 1;
  SpecServer S(C, SO);

  SubmitOptions O;
  O.DeadlineNs = 20'000'000; // 20 ms -> ~500k simulated instructions
  O.MaxRetries = 1;          // OutOfFuel under a deadline must NOT retry
  FabResult<int32_t> R =
      S.submit("spin", {Value::ofInt(7)}, {Value::ofInt(2'000'000'000)}, O)
          .get();
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().Code, FabErrc::DeadlineExceeded);

  // The worker survives: a bounded run of the same entry point succeeds.
  FabResult<int32_t> R2 =
      S.submit("spin", {Value::ofInt(7)}, {Value::ofInt(10)}).get();
  ASSERT_TRUE(R2.ok()) << R2.error().message();
  EXPECT_EQ(*R2, 7);
  S.shutdown();
  TelemetrySnapshot T = S.telemetry();
  EXPECT_GE(T.Overload.DeadlineMisses, 1u);
  EXPECT_EQ(T.Overload.Retried, 0u);
}

TEST(SpecServer, BreakerOpensRoutesToPlainThenRecloses) {
  // Per-entry-point circuit breaker: three consecutive generator faults
  // open the breaker for "f"; during cooldown requests are served by the
  // Plain fall-back image (correct values, no staged path); the first
  // probe fails and re-opens it; once the injector is disarmed the next
  // probe succeeds and the breaker closes for good.
  Compilation C =
      compileOrDie(SimpleSrc, FabiusOptions::deferredWithFallback());
  ServerOptions SO;
  SO.Pool.Workers = 1;
  SO.Pool.RetryBackoffUs = 0;
  SO.Pool.Breaker.FailureThreshold = 3;
  SO.Pool.Breaker.CooldownRequests = 4;
  std::atomic<bool> Disarm{false};
  uint32_t GenEntry = C.Unit.genAddr("f");
  SO.Pool.ConfigureWorker = [&](unsigned, Machine &M) {
    // Faults the moment the generator entry runs; the Plain image lives
    // at different addresses, so fallback calls run clean.
    FaultInjector FI;
    FI.Armed = true;
    FI.AtPc = GenEntry;
    FI.Kind = Fault::BadAccess;
    FI.OneShot = false;
    M.vm().injectFault(FI);
  };
  SO.Pool.BeforeRequest = [&](unsigned, Machine &M, uint64_t) {
    if (Disarm.load(std::memory_order_relaxed) && M.vm().injector().Armed)
      M.vm().injectFault(FaultInjector{});
  };
  SpecServer S(C, SO);

  auto call = [&](int32_t K) {
    return S.call("f", {Value::ofInt(K)}, {Value::ofInt(5)});
  };
  // Requests 1-3: generator faults -> errors; breaker opens at the 3rd.
  for (int32_t K = 1; K <= 3; ++K) {
    FabResult<int32_t> R = call(K);
    ASSERT_FALSE(R.ok()) << "request " << K;
    EXPECT_EQ(R.error().Code, FabErrc::Trapped);
  }
  // Requests 4-7 (cooldown): served by the Plain image, correct values.
  for (int32_t K = 4; K <= 7; ++K) {
    FabResult<int32_t> R = call(K);
    ASSERT_TRUE(R.ok()) << "request " << K << ": " << R.error().message();
    EXPECT_EQ(*R, 5 * K + K);
  }
  // Request 8: the probe runs the still-faulting generator -> re-open.
  ASSERT_FALSE(call(8).ok());
  // Requests 9-12: second cooldown window, Plain again.
  for (int32_t K = 9; K <= 12; ++K) {
    FabResult<int32_t> R = call(K);
    ASSERT_TRUE(R.ok()) << "request " << K;
    EXPECT_EQ(*R, 5 * K + K);
  }
  // Disarm, then the next probe succeeds and the breaker closes.
  Disarm.store(true, std::memory_order_relaxed);
  for (int32_t K = 13; K <= 15; ++K) {
    FabResult<int32_t> R = call(K);
    ASSERT_TRUE(R.ok()) << "request " << K;
    EXPECT_EQ(*R, 5 * K + K);
  }
  S.shutdown();

  TelemetrySnapshot T = S.telemetry();
  EXPECT_EQ(T.Overload.BreakerOpens, 2u);
  EXPECT_EQ(T.Overload.BreakerFallbacks, 8u);
  EXPECT_EQ(T.Overload.BreakerProbes, 2u);
  EXPECT_EQ(T.Errors, 4u);  // requests 1, 2, 3, 8
  EXPECT_EQ(T.Served, 11u); // 4-7, 9-12, 13-15
  EXPECT_EQ(T.BreakersOpen, 0u);
  // Requests 13+ went back through the staged path.
  EXPECT_GT(T.Memo.GeneratorRuns, 0u);
}

TEST(SpecServer, BreakerRoutesExhaustedEntryPointToPlain) {
  // A generator that exhausts the code space even from an empty segment.
  // The machine has already reset and retried, so the pool does not
  // retry CodeSpaceExhausted; after FailureThreshold failures the breaker
  // serves the entry point from the Plain image.
  FabiusOptions Opts = FabiusOptions::deferredWithFallback();
  Opts.Backend.CodeSpaceGuardMargin = layout::DynCodeBytes - 0x8000;
  Compilation C = compileOrDie(ScanSrc, Opts);
  ServerOptions SO;
  SO.Pool.Workers = 1;
  SO.Pool.RetryBackoffUs = 0;
  const BreakerPolicy &BP = SO.Pool.Breaker;
  SpecServer S(C, SO);

  std::vector<int32_t> V(64, 5);
  V[40] = 2;
  auto call = [&] {
    return S
        .submit("scan", {Value::ofVec(V), Value::ofInt(0), Value::ofInt(64)},
                {Value::ofInt(1000)},
                SubmitOptions{/*DeadlineNs=*/0, /*MaxRetries=*/1})
        .get();
  };
  for (unsigned I = 0; I < BP.FailureThreshold; ++I) {
    FabResult<int32_t> R = call();
    ASSERT_FALSE(R.ok()) << "request " << I;
    EXPECT_EQ(R.error().Code, FabErrc::CodeSpaceExhausted);
  }
  TelemetrySnapshot T = S.telemetry();
  EXPECT_EQ(T.Overload.Retried, 0u);
  EXPECT_EQ(T.Recovery.FaultResets, 2u * BP.FailureThreshold);
  EXPECT_EQ(T.Overload.BreakerOpens, 1u);
  EXPECT_EQ(T.BreakersOpen, 1u);

  for (unsigned I = 0; I < BP.CooldownRequests; ++I) {
    FabResult<int32_t> R = call();
    ASSERT_TRUE(R.ok()) << "cooldown request " << I << ": "
                        << R.error().message();
    EXPECT_EQ(*R, 2);
  }
  T = S.telemetry();
  EXPECT_EQ(T.Overload.BreakerFallbacks, BP.CooldownRequests);
  EXPECT_EQ(T.Recovery.PlainFallbackCalls, BP.CooldownRequests);
}

TEST(SpecServer, GracefulShutdownDrainsThenRejects) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  std::vector<std::future<FabResult<int32_t>>> Futures;
  ServerOptions SO;
  SO.Pool.Workers = 2;
  SpecServer S(C, SO);
  for (int32_t K = 1; K <= 32; ++K)
    Futures.push_back(S.submit("f", {Value::ofInt(K)}, {Value::ofInt(1)}));
  S.shutdown(); // drains the queues; never drops accepted work
  for (int32_t K = 1; K <= 32; ++K) {
    FabResult<int32_t> R = Futures[K - 1].get();
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(*R, K + K);
  }
  // Post-shutdown submissions resolve immediately with Rejected.
  FabResult<int32_t> R = S.call("f", {Value::ofInt(1)}, {Value::ofInt(1)});
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().Code, FabErrc::Rejected);
  EXPECT_EQ(S.telemetry().Rejected, 1u);
  EXPECT_EQ(S.telemetry().Served, 32u);
}
