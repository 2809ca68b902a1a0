//===- cache_policy_test.cpp - Production cache policy tests --------------===//
//
// Covers the CachePolicy subsystem end to end: the ghost-LRU admission
// doorkeeper (scan resistance at the SpecCache level and through a full
// server, and how batch peers of one key meet it), selective code-space
// compaction (alone and under injected code-space faults), strict
// parsing of the FAB_CACHE_CAPACITY/FAB_QUEUE_DEPTH overrides, warm-start
// persistence (save/restore round trip that is byte-identical and
// generator-free, plus graceful cold-start on corrupt or mismatched
// files), and the self-delimiting SpecKey word encoding that compaction
// and persistence both decode early values from.
//
//===----------------------------------------------------------------------===//

#include "ParkFirstRequest.h"
#include "service/CachePersist.h"
#include "service/SpecServer.h"

#include "support/Rng.h"
#include "support/StringUtil.h"
#include "workloads/MlPrograms.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>

using namespace fab;
using namespace fab::service;

namespace {

const char *SimpleSrc = "fun f (k : int) (x : int) = x * k + k";

SpecKey intKey(int32_t K) { return SpecKey::make("f", {Value::ofInt(K)}); }

} // namespace

//===----------------------------------------------------------------------===//
// SpecKey word encoding
//===----------------------------------------------------------------------===//

TEST(CachePolicy, EarlyValuesRoundTripThroughKeyWords) {
  std::vector<Value> Early = {Value::ofInt(-3), Value::ofVec({1, 2, 3}),
                              Value::ofInt(7), Value::ofVec({})};
  SpecKey K = SpecKey::make("f", Early);

  // Decode the self-delimiting word stream back into values...
  std::optional<std::vector<Value>> Decoded = K.earlyValues();
  ASSERT_TRUE(Decoded.has_value());
  ASSERT_EQ(Decoded->size(), Early.size());
  // ...and re-encoding them reproduces the identical key and hash.
  SpecKey K2 = SpecKey::make("f", *Decoded);
  EXPECT_EQ(K, K2);
  EXPECT_EQ(K.Hash, K2.Hash);

  // fromWords (the persistence path) also reproduces hash and identity.
  SpecKey K3 = SpecKey::fromWords(K.Fn, K.Words);
  EXPECT_EQ(K, K3);
  EXPECT_EQ(K.Hash, K3.Hash);

  // Malformed streams decode to nullopt, never to garbage values.
  EXPECT_FALSE(
      SpecKey::fromWords("f", {SpecKey::ScalarTag}).earlyValues().has_value());
  EXPECT_FALSE(SpecKey::fromWords("f", {SpecKey::VectorTag, 5, 1})
                   .earlyValues()
                   .has_value());
  EXPECT_FALSE(SpecKey::fromWords("f", {0x999u}).earlyValues().has_value());
}

//===----------------------------------------------------------------------===//
// Admission doorkeeper (unit level)
//===----------------------------------------------------------------------===//

TEST(CachePolicy, DoorkeeperResistsOneShotScan) {
  CachePolicy P;
  P.Capacity = 4;
  P.Admission = true;
  SpecCache Cache(P);

  // Four hot keys fill the cache.
  for (int32_t K = 1; K <= 4; ++K)
    EXPECT_TRUE(Cache.insert(intKey(K), 0x100u * K, 0));
  for (int32_t K = 1; K <= 4; ++K)
    EXPECT_TRUE(Cache.lookup(intKey(K), 0).has_value());

  // A 100-key one-shot scan: every first sighting is refused, so the
  // hot set never leaves the cache.
  for (int32_t K = 100; K < 200; ++K)
    EXPECT_FALSE(Cache.insert(intKey(K), 0x9000u, 0));
  EXPECT_EQ(Cache.stats().AdmissionRejects, 100u);
  EXPECT_EQ(Cache.stats().Evictions, 0u);
  for (int32_t K = 1; K <= 4; ++K)
    EXPECT_TRUE(Cache.lookup(intKey(K), 0).has_value());

  // A plain LRU of the same capacity loses everything to the same scan.
  P.Admission = false;
  SpecCache Lru(P);
  for (int32_t K = 1; K <= 4; ++K)
    Lru.insert(intKey(K), 0x100u * K, 0);
  for (int32_t K = 100; K < 200; ++K)
    Lru.insert(intKey(K), 0x9000u, 0);
  for (int32_t K = 1; K <= 4; ++K)
    EXPECT_FALSE(Lru.lookup(intKey(K), 0).has_value());

  // A key seen twice has proven reuse: its second insert is admitted
  // and pays one LRU eviction.
  SpecKey Repeat = intKey(50);
  EXPECT_FALSE(Cache.insert(Repeat, 0xAA00u, 0));
  EXPECT_TRUE(Cache.insert(Repeat, 0xAA00u, 0));
  EXPECT_EQ(Cache.stats().AdmissionAdmits, 1u);
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_TRUE(Cache.lookup(Repeat, 0).has_value());

  // The ghost list describes the request stream, not the machine: it
  // survives clear() (heap recycling must not forget sightings). Key 777
  // is refused at a full cache; after clear() and a refill, its next
  // insert is admitted as a second sighting instead of refused again.
  EXPECT_FALSE(Cache.insert(intKey(777), 0xBB00u, 0));
  Cache.clear();
  for (int32_t K = 1; K <= 4; ++K)
    EXPECT_TRUE(Cache.insert(intKey(K), 0x100u * K, 0));
  EXPECT_TRUE(Cache.insert(intKey(777), 0xBB00u, 0));
  EXPECT_EQ(Cache.stats().AdmissionRejects, 102u);
  EXPECT_EQ(Cache.stats().AdmissionAdmits, 2u);
}

//===----------------------------------------------------------------------===//
// Admission doorkeeper (through a server)
//===----------------------------------------------------------------------===//

TEST(CachePolicy, ServerKeepsHotKeysThroughScanChurn) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  ServerOptions SO;
  SO.Pool.Workers = 1;
  SO.Pool.Cache.Capacity = 4;
  SpecServer S(C, SO);

  // Warm the four hot keys.
  for (int32_t K = 1; K <= 4; ++K) {
    FabResult<int32_t> R = S.call("f", {Value::ofInt(K)}, {Value::ofInt(10)});
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(*R, 10 * K + K);
  }
  // Ten rounds of hot traffic with two never-repeating scan keys mixed
  // into each round. The doorkeeper refuses every one-shot key, so the
  // hot set stays resident and every hot request after warm-up hits.
  int32_t Scan = 1000;
  for (int Round = 0; Round < 10; ++Round) {
    for (int32_t K = 1; K <= 4; ++K) {
      FabResult<int32_t> R = S.call("f", {Value::ofInt(K)}, {Value::ofInt(7)});
      ASSERT_TRUE(R.ok());
      EXPECT_EQ(*R, 7 * K + K);
    }
    for (int I = 0; I < 2; ++I, ++Scan) {
      FabResult<int32_t> R =
          S.call("f", {Value::ofInt(Scan)}, {Value::ofInt(3)});
      ASSERT_TRUE(R.ok());
      EXPECT_EQ(*R, 3 * Scan + Scan);
    }
  }
  TelemetrySnapshot St = S.telemetry();
  EXPECT_EQ(St.Cache.Hits, 40u);              // every post-warm-up hot request
  EXPECT_EQ(St.Cache.AdmissionRejects, 20u);  // every scan key, exactly once
  EXPECT_EQ(St.Cache.Evictions, 0u);          // the hot set never churned
}

//===----------------------------------------------------------------------===//
// Batch peers resolve through the cache and the in-VM memo
//===----------------------------------------------------------------------===//

TEST(CachePolicy, BatchPeersResolveThroughCacheAndMemo) {
  // One cache slot, held by key 1. Four requests for key 2 arrive in
  // one batch. The first specializes, and the doorkeeper refuses it (a
  // first sighting that would force an eviction). The second misses the
  // cache, the in-VM memo answers it without emitting code, and as the
  // key's second sighting it is admitted. The next two hit the cache.
  // An invalidate in the same batch then drops key 2, so the request
  // after it misses and the memo answers it again. Each memo-answered
  // insert is charged the bytes key 2's generator run emitted.
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  std::string Path = testing::TempDir() + "cache_policy_batch_peers.fabc";
  std::remove(Path.c_str());
  ServerOptions SO;
  SO.Pool.Workers = 1;
  SO.Pool.Cache.Capacity = 1;
  SO.Pool.Cache.SaveFile = Path;
  ParkFirstRequest Park;
  SO.Pool.BeforeRequest = Park.hook();
  SpecServer S(C, SO);
  auto Unpark = Park.releaseOnExit();

  auto Resident = S.submit("f", {Value::ofInt(1)}, {Value::ofInt(10)});
  Park.Entered.wait();
  std::vector<std::future<FabResult<int32_t>>> Peers;
  for (int32_t X = 0; X < 4; ++X)
    Peers.push_back(S.submit("f", {Value::ofInt(2)}, {Value::ofInt(X)}));
  std::promise<FabResult<int32_t>> DroppedP;
  std::future<FabResult<int32_t>> Dropped = DroppedP.get_future();
  S.invalidateAsync("f", [&DroppedP](FabResult<int32_t> N) {
    DroppedP.set_value(std::move(N));
  });
  Peers.push_back(S.submit("f", {Value::ofInt(2)}, {Value::ofInt(4)}));
  Park.release();

  FabResult<int32_t> R = Resident.get(), N = Dropped.get();
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(*R, 11);
  ASSERT_TRUE(N.ok());
  EXPECT_EQ(*N, 1);
  for (int32_t X = 0; X < 5; ++X) {
    FabResult<int32_t> P = Peers[X].get();
    ASSERT_TRUE(P.ok()) << "peer " << X;
    EXPECT_EQ(*P, 2 * X + 2) << "peer " << X;
  }
  TelemetrySnapshot St = S.telemetry();
  EXPECT_EQ(St.Cache.AdmissionRejects, 1u);
  EXPECT_EQ(St.Cache.AdmissionAdmits, 1u);
  EXPECT_EQ(St.Cache.Evictions, 1u);
  EXPECT_EQ(St.Cache.Invalidated, 1u);
  EXPECT_EQ(St.Cache.Hits, 2u);
  EXPECT_EQ(St.Cache.Misses, 4u);
  EXPECT_EQ(St.Coalesced, 2u);
  EXPECT_EQ(St.Memo.GeneratorRuns, 4u);
  EXPECT_EQ(St.Memo.MemoHits, 2u);

  // What key 2's code costs, from a lone machine's emitting run.
  Machine Lone(C);
  const uint64_t WordsBefore = Lone.vm().stats().DynWordsWritten;
  const uint32_t Addr = Lone.specializeOrDie("f", {2});
  const uint64_t Key2Bytes =
      (Lone.vm().stats().DynWordsWritten - WordsBefore) * 4;
  ASSERT_GT(Key2Bytes, 0u);
  EXPECT_EQ(Lone.specializationBytes(Addr), Key2Bytes);

  // The cache ends holding key 2 from the last, memo-answered insert.
  S.shutdown();
  std::optional<CacheFile> Saved = loadCacheFile(Path, compilationFingerprint(C));
  std::remove(Path.c_str());
  ASSERT_TRUE(Saved);
  ASSERT_EQ(Saved->Workers.size(), 1u);
  const std::vector<WorkerImage::EntryRow> &Entries = Saved->Workers[0].Entries;
  ASSERT_EQ(Entries.size(), 1u);
  EXPECT_EQ(Entries[0].Words, intKey(2).Words);
  EXPECT_EQ(Entries[0].Bytes, Key2Bytes);
}

//===----------------------------------------------------------------------===//
// Process-level count overrides
//===----------------------------------------------------------------------===//

TEST(PoolEnv, MalformedCountOverridesKeepOptionValues) {
  // The parser behind FAB_QUEUE_DEPTH, FAB_CACHE_CAPACITY and fabserve's
  // numeric flags accepts only a whole unsigned count.
  EXPECT_EQ(parseCount("1024"), 1024u);
  EXPECT_EQ(parseCount("0x10"), 16u);
  for (const char *Bad : {"", "abc", "-1", " 1", "12x", "99999999999999999999"})
    EXPECT_FALSE(parseCount(Bad)) << '"' << Bad << '"';

  // strtoull reads "abc" as 0 (an unbounded queue) and "-1" as
  // UINT64_MAX (a cache that never refuses). Both are reported, and the
  // pool keeps the depth and capacity it was given: 1 each.
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  ServerOptions SO;
  SO.Pool.Workers = 1;
  SO.Pool.MaxQueueDepth = 1;
  SO.Pool.Cache.Capacity = 1;
  ParkFirstRequest Park;
  SO.Pool.BeforeRequest = Park.hook();
  setenv("FAB_QUEUE_DEPTH", "abc", 1);
  setenv("FAB_CACHE_CAPACITY", "-1", 1);
  testing::internal::CaptureStderr();
  SpecServer S(C, SO);
  auto Unpark = Park.releaseOnExit();
  std::string Err = testing::internal::GetCapturedStderr();
  unsetenv("FAB_QUEUE_DEPTH");
  unsetenv("FAB_CACHE_CAPACITY");
  EXPECT_NE(Err.find("FAB_QUEUE_DEPTH=abc"), std::string::npos) << Err;
  EXPECT_NE(Err.find("FAB_CACHE_CAPACITY=-1"), std::string::npos) << Err;

  auto F0 = S.submit("f", {Value::ofInt(1)}, {Value::ofInt(5)});
  Park.Entered.wait();
  auto F1 = S.submit("f", {Value::ofInt(2)}, {Value::ofInt(5)});
  auto F2 = S.submit("f", {Value::ofInt(3)}, {Value::ofInt(5)});
  // Depth 1: the second queued request is shed at once.
  bool ShedAtOnce =
      F2.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  Park.release();
  EXPECT_TRUE(ShedAtOnce);
  FabResult<int32_t> R0 = F0.get(), R1 = F1.get(), R2 = F2.get();
  ASSERT_TRUE(R0.ok() && R1.ok());
  EXPECT_EQ(*R0, 6);
  EXPECT_EQ(*R1, 12);
  EXPECT_TRUE(!R2.ok() && R2.error().Code == FabErrc::Rejected);
  // Capacity 1: key 1 holds the slot, so key 2's first sighting is
  // refused.
  EXPECT_EQ(S.telemetry().Cache.AdmissionRejects, 1u);
}

//===----------------------------------------------------------------------===//
// Code-space compaction
//===----------------------------------------------------------------------===//

TEST(CachePolicy, CompactionKeepsWorkingSetCorrect) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  ServerOptions SO;
  SO.Pool.Workers = 1;
  // Trip the watermark after a handful of specializations (128 bytes of
  // the 8 MiB segment) but budget enough bytes to keep everything, so
  // the plan re-specializes the whole working set each pass.
  SO.Pool.Cache.CompactWatermark = 1.0 / 65536.0;
  SO.Pool.Cache.CompactKeepFraction = 64.0;
  SpecServer S(C, SO);

  for (int Round = 0; Round < 2; ++Round)
    for (int32_t K = 1; K <= 12; ++K) {
      FabResult<int32_t> R =
          S.call("f", {Value::ofInt(K)}, {Value::ofInt(100 + Round)});
      ASSERT_TRUE(R.ok());
      EXPECT_EQ(*R, (100 + Round) * K + K);
    }
  TelemetrySnapshot St = S.telemetry();
  EXPECT_EQ(St.Errors, 0u);
  EXPECT_GT(St.Cache.Compactions, 0u);
  EXPECT_GT(St.Cache.CompactKept, 0u);
}

TEST(CachePolicy, CompactionSurvivesInjectedCodeSpaceFaults) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  ServerOptions SO;
  SO.Pool.Workers = 1;
  SO.Pool.RetryBackoffUs = 0;
  SO.Pool.Cache.CompactWatermark = 1.0 / 65536.0;
  SO.Pool.Cache.CompactKeepFraction = 64.0;
  // Every fifth request arms a one-shot code-space fault mid-run; the
  // machine's own reset-and-retry absorbs it.
  SO.Pool.BeforeRequest = [](unsigned, Machine &M, uint64_t Seq) {
    if (Seq % 5 == 0) {
      FaultInjector FI;
      FI.Armed = true;
      FI.OneShot = true;
      FI.AfterInstructions = 3;
      FI.Kind = Fault::CodeSpaceExhausted;
      M.vm().injectFault(FI);
    }
  };
  SpecServer S(C, SO);

  for (int Round = 0; Round < 3; ++Round)
    for (int32_t K = 1; K <= 10; ++K) {
      FabResult<int32_t> R =
          S.submit("f", {Value::ofInt(K)}, {Value::ofInt(9)},
                   SubmitOptions{/*DeadlineNs=*/0, /*MaxRetries=*/3})
              .get();
      ASSERT_TRUE(R.ok()) << "round " << Round << " key " << K;
      EXPECT_EQ(*R, 9 * K + K);
    }
  TelemetrySnapshot St = S.telemetry();
  EXPECT_EQ(St.Errors, 0u);
  EXPECT_EQ(St.Served, 30u);
  EXPECT_GT(St.Cache.Compactions, 0u);
}

//===----------------------------------------------------------------------===//
// Warm-start persistence
//===----------------------------------------------------------------------===//

namespace {

struct VecRequest {
  std::vector<Value> Early, Late;
};

/// Dot products over three distinct rows (vector early args exercise the
/// intern table and heap segment in the persisted image).
std::vector<VecRequest> dotWorkload() {
  const uint32_t N = 8;
  Rng R(7);
  std::vector<std::vector<int32_t>> Rows;
  for (int I = 0; I < 3; ++I) {
    std::vector<int32_t> Row(N);
    for (uint32_t J = 0; J < N; ++J)
      Row[J] = static_cast<int32_t>(R.next() % 100) - 20;
    Rows.push_back(Row);
  }
  std::vector<VecRequest> Reqs;
  for (int I = 0; I < 9; ++I) {
    std::vector<int32_t> Col(N);
    for (uint32_t J = 0; J < N; ++J)
      Col[J] = static_cast<int32_t>(R.next() % 50) - 10;
    Reqs.push_back({{Value::ofVec(Rows[I % 3]), Value::ofInt(0),
                     Value::ofInt(static_cast<int32_t>(N))},
                    {Value::ofVec(Col), Value::ofInt(0)}});
  }
  return Reqs;
}

std::vector<int32_t> playAll(SpecServer &S,
                             const std::vector<VecRequest> &Reqs) {
  std::vector<int32_t> Vals;
  for (const VecRequest &Q : Reqs) {
    FabResult<int32_t> R = S.call("dotloop", Q.Early, Q.Late);
    EXPECT_TRUE(R.ok());
    Vals.push_back(R.ok() ? *R : -1);
  }
  return Vals;
}

} // namespace

TEST(CachePolicy, WarmStartRoundTripIsByteIdenticalAndGeneratorFree) {
  Compilation C = compileOrDie(workloads::MatmulSrc, FabiusOptions::deferred());
  std::vector<VecRequest> Reqs = dotWorkload();
  std::string Path = testing::TempDir() + "cache_policy_roundtrip.fabc";
  std::remove(Path.c_str());

  // Phase A: cold server, saves its warm state at shutdown.
  std::vector<int32_t> ValsA;
  {
    ServerOptions SO;
    SO.Pool.Workers = 1;
    SO.Pool.Cache.SaveFile = Path;
    SpecServer S(C, SO);
    ValsA = playAll(S, Reqs);
    EXPECT_GT(S.telemetry().Memo.GeneratorRuns, 0u);
    S.shutdown();
  }

  // Phase B: restored server. The first warm request is served straight
  // from the restored code: zero generator runs, zero emitted words,
  // every request a host-cache hit, and byte-identical values.
  {
    ServerOptions SO;
    SO.Pool.Workers = 1;
    SO.Pool.Cache.LoadFile = Path;
    SpecServer S(C, SO);
    std::vector<int32_t> ValsB = playAll(S, Reqs);
    EXPECT_EQ(ValsB, ValsA);
    TelemetrySnapshot St = S.telemetry();
    EXPECT_EQ(St.Cache.WarmRestored, 3u); // one per distinct row
    EXPECT_EQ(St.Memo.GeneratorRuns, 0u);
    EXPECT_EQ(St.Vm.DynWordsWritten, 0u);
    EXPECT_EQ(St.Cache.Hits, Reqs.size());
    EXPECT_EQ(St.Cache.Misses, 0u);
  }
  std::remove(Path.c_str());
}

TEST(CachePolicy, CorruptCacheFileColdStartsGracefully) {
  Compilation C = compileOrDie(workloads::MatmulSrc, FabiusOptions::deferred());
  std::vector<VecRequest> Reqs = dotWorkload();
  std::string Path = testing::TempDir() + "cache_policy_corrupt.fabc";
  {
    std::ofstream F(Path, std::ios::binary);
    F << "FABCnot really a cache file at all";
  }
  ServerOptions SO;
  SO.Pool.Workers = 1;
  SO.Pool.Cache.LoadFile = Path;
  SpecServer S(C, SO);
  std::vector<int32_t> Vals = playAll(S, Reqs);
  TelemetrySnapshot St = S.telemetry();
  EXPECT_EQ(St.Cache.WarmRestored, 0u);    // nothing restored...
  EXPECT_GT(St.Memo.GeneratorRuns, 0u);    // ...so it specialized afresh
  EXPECT_EQ(St.Errors, 0u);
  std::remove(Path.c_str());
}

TEST(CachePolicy, WorkerCountMismatchColdStartsGracefully) {
  Compilation C = compileOrDie(workloads::MatmulSrc, FabiusOptions::deferred());
  std::vector<VecRequest> Reqs = dotWorkload();
  std::string Path = testing::TempDir() + "cache_policy_mismatch.fabc";
  std::remove(Path.c_str());
  {
    ServerOptions SO;
    SO.Pool.Workers = 1;
    SO.Pool.Cache.SaveFile = Path;
    SpecServer S(C, SO);
    playAll(S, Reqs);
    S.shutdown();
  }
  // A two-worker pool cannot replay a one-worker image: cold start.
  ServerOptions SO;
  SO.Pool.Workers = 2;
  SO.Pool.Cache.LoadFile = Path;
  SpecServer S(C, SO);
  std::vector<int32_t> Vals = playAll(S, Reqs);
  TelemetrySnapshot St = S.telemetry();
  EXPECT_EQ(St.Cache.WarmRestored, 0u);
  EXPECT_GT(St.Memo.GeneratorRuns, 0u);
  EXPECT_EQ(St.Errors, 0u);
  std::remove(Path.c_str());
}

// The save goes through a temp file and a rename: when the temp file
// cannot be written, the save fails and the live file is untouched.
TEST(CachePolicy, FailedSaveLeavesPreviousFileIntact) {
  Compilation C = compileOrDie(workloads::MatmulSrc, FabiusOptions::deferred());
  std::string Path = testing::TempDir() + "cache_policy_atomic.fabc";
  std::string Tmp = Path + ".tmp";
  std::remove(Path.c_str());
  std::filesystem::remove_all(Tmp);
  {
    ServerOptions SO;
    SO.Pool.Workers = 1;
    SO.Pool.Cache.SaveFile = Path;
    SpecServer S(C, SO);
    playAll(S, dotWorkload());
    S.shutdown();
  }
  EXPECT_FALSE(std::filesystem::exists(Tmp));
  const uint64_t Fp = compilationFingerprint(C);
  std::optional<CacheFile> Saved = loadCacheFile(Path, Fp);
  ASSERT_TRUE(Saved);
  ASSERT_EQ(Saved->Workers.size(), 1u);
  const std::vector<WorkerImage::EntryRow> &Entries = Saved->Workers[0].Entries;
  ASSERT_FALSE(Entries.empty());

  // A directory where the temp file goes: opening it fails for any user.
  ASSERT_TRUE(std::filesystem::create_directory(Tmp));
  CacheFile Other = *Saved;
  Other.Fingerprint = Fp + 1;
  Other.Workers[0].Entries.clear();
  EXPECT_FALSE(saveCacheFile(Path, Other));

  std::optional<CacheFile> Again = loadCacheFile(Path, Fp);
  ASSERT_TRUE(Again);
  EXPECT_EQ(Again->Fingerprint, Fp);
  ASSERT_EQ(Again->Workers.size(), 1u);
  const std::vector<WorkerImage::EntryRow> &Kept = Again->Workers[0].Entries;
  ASSERT_EQ(Kept.size(), Entries.size());
  for (size_t I = 0; I < Kept.size(); ++I) {
    EXPECT_EQ(Kept[I].Fn, Entries[I].Fn);
    EXPECT_EQ(Kept[I].Words, Entries[I].Words);
    EXPECT_EQ(Kept[I].Addr, Entries[I].Addr);
    EXPECT_EQ(Kept[I].Bytes, Entries[I].Bytes);
    EXPECT_EQ(Kept[I].Pinned, Entries[I].Pinned);
  }
  std::filesystem::remove_all(Tmp);
  std::remove(Path.c_str());
}

// A file with a valid fingerprint whose fields do not fit runtime/Layout.h
// must cold-start, never reach the VM: a dyn-code segment claiming 6 Mi
// words used to be written 25 MB past the end of the 64 MiB image.
TEST(CachePolicy, OutOfLayoutCacheFileColdStarts) {
  Compilation C = compileOrDie(workloads::MatmulSrc, FabiusOptions::deferred());
  std::vector<VecRequest> Reqs = dotWorkload();
  std::string Path = testing::TempDir() + "cache_policy_layout.fabc";
  std::remove(Path.c_str());
  std::vector<int32_t> ValsA;
  {
    ServerOptions SO;
    SO.Pool.Workers = 1;
    SO.Pool.Cache.SaveFile = Path;
    SpecServer S(C, SO);
    ValsA = playAll(S, Reqs);
    S.shutdown();
  }
  const uint64_t Fp = compilationFingerprint(C);
  std::optional<CacheFile> Saved = loadCacheFile(Path, Fp);
  ASSERT_TRUE(Saved);
  ASSERT_EQ(Saved->Workers.size(), 1u);
  ASSERT_FALSE(Saved->Workers[0].Intern.empty());
  ASSERT_FALSE(Saved->Workers[0].Entries.empty());

  // Each mutation alone makes the loader refuse the file.
  const std::vector<std::pair<const char *, std::function<void(WorkerImage &)>>>
      Mutations = {
          {"static data overflows its region",
           [](WorkerImage &W) {
             W.StaticData.FullWords =
                 (layout::StaticDataEnd - layout::StaticDataBase) / 4 + 1;
           }},
          {"heap overflows its region",
           [](WorkerImage &W) {
             W.Heap.FullWords = (layout::HeapEnd - layout::HeapBase) / 4 + 1;
           }},
          {"dyn code overflows its region",
           [](WorkerImage &W) { W.DynCode.FullWords = 6u << 20; }},
          {"hp below the heap",
           [](WorkerImage &W) { W.HpReg = layout::HeapBase - 4; }},
          {"hp at the heap end",
           [](WorkerImage &W) { W.HpReg = layout::HeapEnd; }},
          {"cp below the dyn segment",
           [](WorkerImage &W) { W.CpReg = layout::DynCodeBase - 4; }},
          {"cp at the dyn segment end",
           [](WorkerImage &W) { W.CpReg = layout::DynCodeEnd; }},
          {"entry at cp",
           [](WorkerImage &W) { W.Entries[0].Addr = W.CpReg; }},
          {"entry below the dyn segment",
           [](WorkerImage &W) { W.Entries[0].Addr = layout::HeapBase; }},
          {"intern outside the heap",
           [](WorkerImage &W) { W.Intern[0].Addr = layout::DynCodeBase; }},
      };
  for (const auto &[What, Mutate] : Mutations) {
    CacheFile F = *Saved;
    Mutate(F.Workers[0]);
    ASSERT_TRUE(saveCacheFile(Path, F));
    EXPECT_FALSE(loadCacheFile(Path, Fp)) << What;
  }

  // The 6 Mi-word dyn-code file through a whole server: a cold start that
  // serves the same values as the run that saved the original.
  CacheFile F = *Saved;
  F.Workers[0].DynCode.FullWords = 6u << 20;
  ASSERT_TRUE(saveCacheFile(Path, F));
  ServerOptions SO;
  SO.Pool.Workers = 1;
  SO.Pool.Cache.LoadFile = Path;
  SpecServer S(C, SO);
  EXPECT_EQ(playAll(S, Reqs), ValsA);
  TelemetrySnapshot St = S.telemetry();
  EXPECT_EQ(St.Cache.WarmRestored, 0u);
  EXPECT_GT(St.Memo.GeneratorRuns, 0u);
  EXPECT_EQ(St.Errors, 0u);
  std::remove(Path.c_str());
}
