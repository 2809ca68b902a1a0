//===- chaos_test.cpp - Seeded chaos harness for the service --------------===//
//
// Drives the overload-safe serving stack the way a hostile deployment
// would, from a fixed seed: four workers with deliberately small queues,
// three submitter threads racing an overload burst of the mixed workload
// (dot products + staged BPF filtering), per-worker deterministic fault
// injection of every recoverable flavour (traps, fuel exhaustion,
// code-space exhaustion), mid-flight resetCodeSpace() calls, and tight
// deadlines on a slice of the requests — with breakers, retries, and
// load shedding all live.
//
// Each worker's fault schedule is seeded, but the ok/shed/retried counts
// depend on how the submitter threads race for queue slots, so they vary
// between runs of the same seed. Only the invariants are exact; they are
// the service's whole contract, and they must hold under any seed:
//   1. every future resolves (no deadlock, no abandoned promise);
//   2. every resolved *value* is byte-identical to the host oracle;
//   3. every resolved *error* is one of the structured overload/fault
//      codes — nothing unclassified leaks out;
//   4. the telemetry accounting adds up: served + worker errors + sheds
//      equals submissions.
//
// CI runs this under TSan with three fixed seeds, once as is and once
// with FAB_RETRIES=0 (the machine's reset-and-retry is then the only
// retry); FAB_CHAOS_SEED=N reruns any single seed locally. The seed is printed (and attached to
// every failure via SCOPED_TRACE) so a failing run is reproducible.
//
//===----------------------------------------------------------------------===//

#include "service/SpecServer.h"

#include "bpf/Bpf.h"
#include "support/Rng.h"
#include "workloads/MlPrograms.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>

using namespace fab;
using namespace fab::service;

namespace {

struct ChaosRequest {
  std::string Fn;
  std::vector<Value> Early, Late;
  int32_t Oracle; // host-side expected result
};

/// The mixed request stream with host oracles: dot products over a few
/// distinct rows interleaved with telnet-filter runs over a packet trace.
std::vector<ChaosRequest> chaosWorkload(size_t Count, uint64_t Seed) {
  Rng R(Seed);
  const uint32_t N = 24;
  std::vector<std::vector<int32_t>> Rows;
  for (int I = 0; I < 8; ++I) {
    std::vector<int32_t> Row(N);
    for (uint32_t J = 0; J < N; ++J)
      Row[J] = static_cast<int32_t>(R.next() % 200) - 50;
    Rows.push_back(Row);
  }
  bpf::Program Filter = bpf::telnetFilter();
  auto Trace = bpf::makeTrace(24, Seed ^ 0xBADCAB);

  std::vector<ChaosRequest> Reqs;
  for (size_t I = 0; I < Count; ++I) {
    if (I % 3 == 2) {
      const std::vector<int32_t> &Pkt = Trace[I % Trace.size()];
      Reqs.push_back({"eval",
                      {Value::ofVec(Filter.Words), Value::ofInt(0)},
                      {Value::ofInt(0), Value::ofInt(0),
                       Value::ofVec(std::vector<int32_t>(16, 0)),
                       Value::ofVec(Pkt)},
                      bpf::interpret(Filter, Pkt)});
    } else {
      const std::vector<int32_t> &Row = Rows[I % Rows.size()];
      std::vector<int32_t> Col(N);
      int32_t Dot = 0;
      for (uint32_t J = 0; J < N; ++J) {
        Col[J] = static_cast<int32_t>(R.next() % 100) - 25;
        Dot += Row[J] * Col[J];
      }
      Reqs.push_back({"dotloop",
                      {Value::ofVec(Row), Value::ofInt(0),
                       Value::ofInt(static_cast<int32_t>(N))},
                      {Value::ofVec(Col), Value::ofInt(0)},
                      Dot});
    }
  }
  return Reqs;
}

void runChaos(uint64_t Seed) {
  SCOPED_TRACE("chaos seed=" + std::to_string(Seed));
  // On failure the seed is the repro: FAB_CHAOS_SEED=<seed> ./chaos_test
  std::fprintf(stderr, "[chaos] seed=%llu\n",
               static_cast<unsigned long long>(Seed));

  // The Plain fall-back image is compiled too, so circuit-broken entry
  // points keep producing oracle-checkable values while cooling down.
  FabiusOptions Opts = FabiusOptions::deferredWithFallback();
  Opts.Backend.MemoizedSelfCalls.insert("eval");
  std::string Src =
      std::string(workloads::MatmulSrc) + "\n" + workloads::EvalSrc;
  Compilation C = compileOrDie(Src, Opts);

  constexpr unsigned Workers = 4;
  ServerOptions SO;
  SO.Pool.Workers = Workers;
  SO.Pool.MaxQueueDepth = 24; // small enough that the burst sheds
  SO.Pool.RetryBackoffUs = 0; // keep the harness fast
  SO.Pool.Breaker.FailureThreshold = 2;
  SO.Pool.Breaker.CooldownRequests = 4;

  // Each worker perturbs only its own machine, from its own thread, with
  // its own deterministic stream: one-shot injected faults of every
  // recoverable flavour, and occasional mid-flight code-space resets.
  std::vector<Rng> ChaosRng;
  for (unsigned W = 0; W < Workers; ++W)
    ChaosRng.emplace_back(Seed * 0x9E3779B97F4A7C15ull + W + 1);
  SO.Pool.BeforeRequest = [&ChaosRng](unsigned W, Machine &M, uint64_t) {
    Rng &R = ChaosRng[W];
    uint64_t Roll = R.next() % 100;
    if (Roll < 12) {
      FaultInjector FI;
      FI.Armed = true;
      FI.OneShot = true;
      FI.AfterInstructions = 1 + R.next() % 5000;
      switch (R.next() % 3) {
      case 0:
        FI.Kind = Fault::BadAccess;
        break;
      case 1:
        FI.Kind = Fault::CodeSpaceExhausted;
        break;
      default:
        FI.Reason = StopReason::OutOfFuel;
        break;
      }
      M.vm().injectFault(FI);
    } else if (Roll < 16) {
      M.resetCodeSpace();
    }
  };
  SpecServer S(C, SO);

  std::vector<ChaosRequest> Reqs = chaosWorkload(300, Seed);
  std::vector<std::future<FabResult<int32_t>>> Futures(Reqs.size());

  // Overload burst: three submitter threads race the queues; every third
  // request carries a deadline tight enough that some of them miss.
  std::vector<std::thread> Submitters;
  std::atomic<size_t> NextIdx{0};
  for (int T = 0; T < 3; ++T)
    Submitters.emplace_back([&] {
      for (;;) {
        size_t I = NextIdx.fetch_add(1);
        if (I >= Reqs.size())
          return;
        SubmitOptions O;
        O.MaxRetries = 1;
        if (I % 3 == 1)
          O.DeadlineNs = 25'000'000; // 25 ms
        Futures[I] = S.submit(Reqs[I].Fn, Reqs[I].Early, Reqs[I].Late, O);
      }
    });
  for (std::thread &T : Submitters)
    T.join();

  // Invariants 1-3: every future resolves, values match the oracle,
  // errors are structured overload/fault outcomes.
  size_t Ok = 0, ShedCount = 0, WorkerErrors = 0;
  for (size_t I = 0; I < Reqs.size(); ++I) {
    ASSERT_TRUE(Futures[I].valid()) << "request " << I << " never submitted";
    FabResult<int32_t> Res = Futures[I].get(); // must not hang
    if (Res.ok()) {
      ++Ok;
      EXPECT_EQ(*Res, Reqs[I].Oracle) << "request " << I << " (" << Reqs[I].Fn
                                      << ") disagrees with the host oracle";
      continue;
    }
    switch (Res.error().Code) {
    case FabErrc::Rejected: // shed at submit; never reached a worker
      ++ShedCount;
      break;
    case FabErrc::DeadlineExceeded:
    case FabErrc::CircuitOpen:
    case FabErrc::Trapped:
    case FabErrc::OutOfFuel:
    case FabErrc::CodeSpaceExhausted:
      ++WorkerErrors;
      break;
    default:
      ADD_FAILURE() << "request " << I << " resolved with unclassified error: "
                    << Res.error().message();
    }
  }
  S.shutdown();

  // Invariant 4: the accounting adds up exactly.
  TelemetrySnapshot T = S.telemetry();
  EXPECT_EQ(T.Submitted, Reqs.size());
  EXPECT_EQ(T.Served, Ok);
  EXPECT_EQ(T.Errors, WorkerErrors);
  EXPECT_EQ(T.Overload.Shed + T.Rejected, ShedCount);
  EXPECT_EQ(T.Served + T.Errors + T.Overload.Shed + T.Rejected, Reqs.size());
  // The harness must have actually served real work, whatever the seed.
  EXPECT_GT(Ok, Reqs.size() / 10);
  std::fprintf(stderr,
               "[chaos] seed=%llu ok=%zu shed=%zu errors=%zu "
               "(dl_miss=%llu retried=%llu brk_open=%llu epoch=%llu)\n",
               static_cast<unsigned long long>(Seed), Ok, ShedCount,
               WorkerErrors,
               static_cast<unsigned long long>(T.Overload.DeadlineMisses),
               static_cast<unsigned long long>(T.Overload.Retried),
               static_cast<unsigned long long>(T.Overload.BreakerOpens),
               static_cast<unsigned long long>(T.CodeEpoch));
}

} // namespace

TEST(ChaosHarness, SurvivesFixedSeeds) {
  // FAB_CHAOS_SEED=N replays a single seed (the repro path CI prints);
  // the default sweep is the three seeds CI pins.
  if (const char *Env = std::getenv("FAB_CHAOS_SEED")) {
    runChaos(std::strtoull(Env, nullptr, 0));
    return;
  }
  for (uint64_t Seed : {11ull, 23ull, 47ull})
    runChaos(Seed);
}
