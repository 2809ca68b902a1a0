//===- fabserve.cpp - Specialization service demo driver ------------------===//
//
// Replays a synthetic mixed workload — Figure 2 dot-product rows
// interleaved with Figure 4 packet-filter runs — through the
// src/service/ stack (SpecServer over a MachinePool of FAB-32
// machines), validates every result against host-side oracles (a plain
// C++ dot product and the BPF reference interpreter), and prints the
// server's aggregate TelemetrySnapshot.
//
// Usage: fabserve [--workers N] [--requests N] [--rows N] [--len N]
//                 [--seed S] [--no-cache] [--cache-capacity N]
//                 [--no-admission] [--no-compaction] [--profile-gate]
//                 [--cache-load FILE] [--cache-save FILE]
//                 [--report-interval MS] [--trace FILE]
//                 [--queue-depth N] [--deadline-ms N] [--retries N]
//                 [--no-breaker] [--chaos]
//                 [--listen PORT] [--bind ADDR] [--shards N]
//                 [--max-conns N] [--idle-timeout-ms MS]
//
//   fabserve --workers 4 --requests 1000 --report-interval 200
//   fabserve --chaos --seed 7 --workers 4
//   fabserve --workers 4 --listen 7432        # wire server (docs/WIRE.md)
//   fabserve --workers 4 --listen 7432 --shards 4   # sharded reactor
//
// --listen puts the service on the wire instead of replaying the
// built-in workload: a WireServer accepts fabctl/FabClient connections
// on PORT (0 = ephemeral; the bound port is printed either way) until
// SIGINT/SIGTERM, then prints the unified telemetry snapshot. All pool
// and overload options apply unchanged. --max-conns caps concurrent
// connections (excess accepts get a typed Rejected and are closed) and
// --idle-timeout-ms reaps connections that go that long without a
// complete frame — see docs/WIRE.md "Connection lifecycle and limits".
// --shards N runs N independent reactor event loops (default: derived
// from hardware_concurrency; the banner prints the count in effect and
// whether accept distribution is SO_REUSEPORT kernel hashing or the
// single-listener round-robin handoff fallback) — see docs/WIRE.md
// "Sharding".
//
// --report-interval starts the server's reporter thread: an aggregated
// TelemetrySnapshot summary line every MS milliseconds (plus one final
// line at shutdown). --trace enables per-worker lifecycle tracing and
// merges every worker's events into one Chrome trace_event JSON file,
// one track per worker (see docs/TELEMETRY.md).
//
// Overload controls (see docs/SERVICE.md "Overload and failure
// semantics"): --queue-depth bounds each worker queue (0 = unbounded;
// excess submissions shed with Rejected), --deadline-ms attaches a
// per-request deadline, --retries sets the transient-failure retry
// budget, --no-breaker disables the per-entry-point circuit breaker.
//
// Cache policy (see docs/SERVICE.md "Cache policy"): --cache-capacity
// sizes each worker's SpecCache, --no-admission disables the ghost-LRU
// doorkeeper (reverting to plain LRU), --no-compaction disables
// selective code-space rebuilds, --profile-gate serves cold keys via
// the Plain image when the entry point's observed reuse is too low
// (requires a Plain fall-back, so it implies the fallback compile), and
// --cache-load/--cache-save restore/persist warm cache state so a
// restarted server skips the cold phase. FAB_CACHE_CAPACITY,
// FAB_ADMISSION=0, and FAB_CACHE_FILE override at process level.
//
// --chaos turns fabserve into a chaos harness seeded by --seed: every
// worker randomly arms one-shot fault injectors and forces mid-flight
// code-space resets, requests are blasted from several submitter threads
// through a deliberately small queue, and a third of them carry tight
// deadlines. Each worker's fault schedule is seeded, but the ok/shed/
// faulted counts depend on submitter timing and vary between runs of the
// same seed. Only the invariants it asserts are exact — every future
// resolves, and every resolved value matches the host oracle — and it
// prints the seed so a failing schedule can be replayed.
//
//===----------------------------------------------------------------------===//

#include "bpf/Bpf.h"
#include "net/WireServer.h"
#include "service/SpecServer.h"
#include "support/Rng.h"
#include "workloads/MlPrograms.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

using namespace fab;
using namespace fab::service;

namespace {

[[noreturn]] void usage(const char *Msg) {
  if (Msg)
    std::fprintf(stderr, "fabserve: %s\n", Msg);
  std::fprintf(stderr,
               "usage: fabserve [--workers N] [--requests N] [--rows N]\n"
               "                [--len N] [--seed S] [--no-cache]\n"
               "                [--cache-capacity N] [--no-admission]\n"
               "                [--no-compaction] [--profile-gate]\n"
               "                [--cache-load FILE] [--cache-save FILE]\n"
               "                [--report-interval MS] [--trace FILE]\n"
               "                [--queue-depth N] [--deadline-ms N]\n"
               "                [--retries N] [--no-breaker] [--chaos]\n"
               "                [--listen PORT] [--bind ADDR] [--shards N]\n"
               "                [--max-conns N] [--idle-timeout-ms MS]\n");
  std::exit(2);
}

uint64_t parseNum(const char *S) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 0);
  if (!End || *End)
    usage("malformed number");
  return V;
}

struct MixedRequest {
  std::string Fn;
  std::vector<Value> Early, Late;
  int32_t Oracle; // host-side expected result
};

std::atomic<bool> StopServing{false};

void onSignal(int) { StopServing.store(true, std::memory_order_release); }

} // namespace

int main(int argc, char **argv) {
  unsigned Workers = 2;
  size_t NumRequests = 300, NumRows = 24;
  uint32_t Len = 64;
  uint64_t Seed = 1;
  size_t CacheCapacity = 1024;
  bool Cache = true;
  bool Admission = true;
  bool Compaction = true;
  bool ProfileGate = false;
  std::string CacheLoad, CacheSave;
  unsigned ReportIntervalMs = 0;
  std::string TraceFile;
  size_t QueueDepth = 1024;
  bool QueueDepthSet = false;
  uint64_t DeadlineMs = 0;
  unsigned Retries = 1;
  bool Breaker = true;
  bool Chaos = false;
  long ListenPort = -1; ///< -1 = off, 0 = ephemeral
  std::string BindAddr = "127.0.0.1";
  unsigned MaxConns = 0;
  uint64_t IdleTimeoutMs = 0;
  unsigned Shards = 0; ///< 0 = auto (net::autoShards())
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto next = [&]() -> const char * {
      if (I + 1 >= argc)
        usage(("missing value for " + A).c_str());
      return argv[++I];
    };
    if (A == "--workers")
      Workers = static_cast<unsigned>(parseNum(next()));
    else if (A == "--requests")
      NumRequests = parseNum(next());
    else if (A == "--rows")
      NumRows = parseNum(next());
    else if (A == "--len")
      Len = static_cast<uint32_t>(parseNum(next()));
    else if (A == "--seed")
      Seed = parseNum(next());
    else if (A == "--cache-capacity")
      CacheCapacity = parseNum(next());
    else if (A == "--no-cache")
      Cache = false;
    else if (A == "--no-admission")
      Admission = false;
    else if (A == "--no-compaction")
      Compaction = false;
    else if (A == "--profile-gate")
      ProfileGate = true;
    else if (A == "--cache-load")
      CacheLoad = next();
    else if (A == "--cache-save")
      CacheSave = next();
    else if (A == "--report-interval")
      ReportIntervalMs = static_cast<unsigned>(parseNum(next()));
    else if (A == "--trace")
      TraceFile = next();
    else if (A == "--queue-depth") {
      QueueDepth = parseNum(next());
      QueueDepthSet = true;
    } else if (A == "--deadline-ms")
      DeadlineMs = parseNum(next());
    else if (A == "--retries")
      Retries = static_cast<unsigned>(parseNum(next()));
    else if (A == "--no-breaker")
      Breaker = false;
    else if (A == "--chaos")
      Chaos = true;
    else if (A == "--listen")
      ListenPort = static_cast<long>(parseNum(next()));
    else if (A == "--bind")
      BindAddr = next();
    else if (A == "--max-conns")
      MaxConns = static_cast<unsigned>(parseNum(next()));
    else if (A == "--idle-timeout-ms")
      IdleTimeoutMs = parseNum(next());
    else if (A == "--shards")
      Shards = static_cast<unsigned>(parseNum(next()));
    else
      usage(("unknown option " + A).c_str());
  }
  if (!Workers || !NumRequests || !NumRows || !Len)
    usage("counts must be nonzero");

  // The mixed program: matmul's dotloop plus the staged BPF interpreter.
  // Chaos mode and the profile gate both need the Plain fall-back image:
  // chaos so circuit-broken entry points keep producing correct answers
  // while cooling down, the gate so cold keys have somewhere to run.
  FabiusOptions Opts = (Chaos || ProfileGate)
                           ? FabiusOptions::deferredWithFallback()
                           : FabiusOptions::deferred();
  Opts.Backend.MemoizedSelfCalls.insert("eval");
  std::string Src =
      std::string(workloads::MatmulSrc) + "\n" + workloads::EvalSrc;
  Compilation C = compileOrDie(Src, Opts);

  // Build the request stream, computing each expected result on the host.
  Rng R(Seed);
  std::vector<std::vector<int32_t>> Rows;
  for (size_t I = 0; I < NumRows; ++I) {
    std::vector<int32_t> Row(Len);
    for (uint32_t J = 0; J < Len; ++J)
      Row[J] = static_cast<int32_t>(R.next() % 200) - 50;
    Rows.push_back(Row);
  }
  bpf::Program Filter = bpf::telnetFilter();
  auto Trace = bpf::makeTrace(32, Seed ^ 0xBADCAB);

  std::vector<MixedRequest> Reqs;
  for (size_t I = 0; I < NumRequests; ++I) {
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
      std::vector<int32_t> Col(Len);
      int32_t Dot = 0;
      for (uint32_t J = 0; J < Len; ++J) {
        Col[J] = static_cast<int32_t>(R.next() % 100) - 25;
        Dot += Row[J] * Col[J];
      }
      Reqs.push_back({"dotloop",
                      {Value::ofVec(Row), Value::ofInt(0),
                       Value::ofInt(static_cast<int32_t>(Len))},
                      {Value::ofVec(Col), Value::ofInt(0)},
                      Dot});
    }
  }

  ServerOptions SO;
  SO.Pool.Workers = Workers;
  SO.Pool.EnableCache = Cache;
  SO.Pool.InternEarlyArgs = Cache;
  SO.Pool.Cache.Capacity = CacheCapacity;
  SO.Pool.Cache.Admission = Admission;
  SO.Pool.Cache.Compaction = Compaction;
  SO.Pool.Cache.ProfileGate = ProfileGate;
  SO.Pool.Cache.LoadFile = CacheLoad;
  SO.Pool.Cache.SaveFile = CacheSave;
  // Chaos defaults to a deliberately small queue so overload bursts
  // actually shed; an explicit --queue-depth always wins. The pool
  // applies the FAB_QUEUE_DEPTH veto itself; mirror it here so the
  // banner prints the depth actually in effect.
  SO.Pool.MaxQueueDepth = (Chaos && !QueueDepthSet) ? 16 : QueueDepth;
  if (const char *Env = std::getenv("FAB_QUEUE_DEPTH"))
    SO.Pool.MaxQueueDepth = std::strtoull(Env, nullptr, 0);
  SO.Pool.Breaker.Enabled = Breaker;
  SO.ReportIntervalMs = ReportIntervalMs;
  if (!TraceFile.empty())
    SO.Pool.Vm.EnableTrace = true;

  // Chaos fault injection: each worker carries its own seeded stream
  // (from --seed and the worker index) and perturbs only
  // its own machine, from its own thread, right before serving a
  // request: one-shot injected faults of every recoverable flavour, and
  // occasional mid-flight code-space resets.
  std::vector<Rng> ChaosRng;
  for (unsigned W = 0; W < Workers; ++W)
    ChaosRng.emplace_back(Seed * 0x9E3779B97F4A7C15ull + W + 1);
  if (Chaos)
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

  if (ListenPort >= 0) {
    // Wire mode: serve remote clients instead of replaying the built-in
    // workload. SIGINT/SIGTERM stop intake, flush in-flight replies, and
    // print the unified snapshot (net block included).
    if (ListenPort > 65535)
      usage("--listen port out of range");
    net::WireOptions WO;
    WO.BindAddr = BindAddr;
    WO.Port = static_cast<uint16_t>(ListenPort);
    WO.MaxConns = MaxConns;
    WO.IdleTimeoutMs = IdleTimeoutMs;
    WO.Shards = Shards;
    net::WireServer WS(S, WO);
    std::string Err;
    if (!WS.start(&Err)) {
      std::fprintf(stderr, "fabserve: %s\n", Err.c_str());
      return 1;
    }
    std::printf("fabserve: listening on %s:%u (%u workers, %u shard%s via "
                "%s, wire version %u)\n",
                BindAddr.c_str(), WS.port(), Workers, WS.shards(),
                WS.shards() == 1 ? "" : "s",
                WS.usingReusePort() ? "reuseport" : "handoff",
                net::WireVersion);
    std::fflush(stdout);
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    while (!StopServing.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::printf("fabserve: shutting down\n");
    WS.stop(); // quiesce the wire first so the snapshot counts every frame
    TelemetrySnapshot T = WS.telemetry();
    S.shutdown();
    T.writeText(std::cout);
    return 0;
  }

  if (Chaos)
    std::printf("fabserve: chaos seed=%llu\n",
                static_cast<unsigned long long>(Seed));
  std::printf("fabserve: %zu requests (%zu dot-product keys of length %u + "
              "telnet filter) on %u worker(s), cache %s, queue depth %zu\n",
              NumRequests, NumRows, Len, Workers, Cache ? "on" : "off",
              SO.Pool.MaxQueueDepth);

  SubmitOptions Submit;
  Submit.MaxRetries = Retries;
  std::vector<std::future<FabResult<int32_t>>> Futures(Reqs.size());
  if (Chaos) {
    // Overload burst: several submitter threads race the queues; every
    // third request carries a tight deadline.
    const uint64_t ChaosDeadlineNs =
        (DeadlineMs ? DeadlineMs : 50) * 1'000'000ull;
    std::vector<std::thread> Submitters;
    std::atomic<size_t> NextIdx{0};
    for (int T = 0; T < 3; ++T)
      Submitters.emplace_back([&] {
        for (;;) {
          size_t I = NextIdx.fetch_add(1);
          if (I >= Reqs.size())
            return;
          SubmitOptions O = Submit;
          if (I % 3 == 1)
            O.DeadlineNs = ChaosDeadlineNs;
          Futures[I] = S.submit(Reqs[I].Fn, Reqs[I].Early, Reqs[I].Late, O);
        }
      });
    for (std::thread &T : Submitters)
      T.join();
  } else {
    Submit.DeadlineNs = DeadlineMs * 1'000'000ull;
    for (size_t I = 0; I < Reqs.size(); ++I)
      Futures[I] =
          S.submit(Reqs[I].Fn, Reqs[I].Early, Reqs[I].Late, Submit);
  }

  // Collect: every future must resolve. Shedding outcomes (Rejected,
  // DeadlineExceeded, CircuitOpen) are part of the overload contract and
  // are counted, not fatal; in chaos mode injected faults surface as
  // other structured errors and are counted too. A resolved value that
  // disagrees with the host oracle is always fatal.
  size_t Mismatches = 0, Ok = 0, ShedCount = 0, Missed = 0, Broken = 0,
         Faulted = 0;
  for (size_t I = 0; I < Reqs.size(); ++I) {
    FabResult<int32_t> Res = Futures[I].get();
    if (!Res.ok()) {
      switch (Res.error().Code) {
      case FabErrc::Rejected:
        ++ShedCount;
        continue;
      case FabErrc::DeadlineExceeded:
        ++Missed;
        continue;
      case FabErrc::CircuitOpen:
        ++Broken;
        continue;
      default:
        if (Chaos) {
          ++Faulted;
          continue;
        }
        std::fprintf(stderr, "request %zu failed: %s\n", I,
                     Res.error().message().c_str());
        return 1;
      }
    }
    ++Ok;
    if (*Res != Reqs[I].Oracle) {
      std::fprintf(stderr, "request %zu: got %d, oracle says %d\n", I, *Res,
                   Reqs[I].Oracle);
      ++Mismatches;
    }
  }
  S.shutdown();

  TelemetrySnapshot T = S.telemetry();
  std::printf("\nall %llu results validated against host oracles (%zu "
              "mismatches)\n",
              static_cast<unsigned long long>(T.Served), Mismatches);
  std::printf("\nserver statistics:\n");
  std::printf("  served / errors       : %llu / %llu\n",
              static_cast<unsigned long long>(T.Served),
              static_cast<unsigned long long>(T.Errors));
  std::printf("  pool makespan         : %llu cycles (%.3f ms at 25 MHz, "
              "%.0f req/sim-second)\n",
              static_cast<unsigned long long>(T.BusyCyclesMax),
              static_cast<double>(T.BusyCyclesMax) / 25000.0,
              T.BusyCyclesMax ? static_cast<double>(T.Served) * 25e6 /
                                    static_cast<double>(T.BusyCyclesMax)
                              : 0.0);
  std::printf("  busy cycles (total)   : %llu across %u workers\n",
              static_cast<unsigned long long>(T.BusyCyclesTotal), T.Workers);
  std::printf("  queue high water      : %llu\n",
              static_cast<unsigned long long>(T.QueueHighWater));
  std::printf("  cache                 : %llu hits, %llu misses, %llu "
              "evictions, %llu rehydrations (%.1f%% hit rate), %llu "
              "coalesced\n",
              static_cast<unsigned long long>(T.Cache.Hits),
              static_cast<unsigned long long>(T.Cache.Misses),
              static_cast<unsigned long long>(T.Cache.Evictions),
              static_cast<unsigned long long>(T.Cache.Rehydrations),
              100.0 * T.Cache.hitRate(),
              static_cast<unsigned long long>(T.Coalesced));
  if (T.Cache.AdmissionRejects || T.Cache.AdmissionAdmits ||
      T.Cache.Compactions || T.Cache.ProfileGated || T.Cache.WarmRestored)
    std::printf("  cache policy          : %llu admission rejects, %llu "
                "second-sighting admits, %llu compactions (%llu kept / %llu "
                "dropped), %llu profile-gated, %llu warm-restored\n",
                static_cast<unsigned long long>(T.Cache.AdmissionRejects),
                static_cast<unsigned long long>(T.Cache.AdmissionAdmits),
                static_cast<unsigned long long>(T.Cache.Compactions),
                static_cast<unsigned long long>(T.Cache.CompactKept),
                static_cast<unsigned long long>(T.Cache.CompactDropped),
                static_cast<unsigned long long>(T.Cache.ProfileGated),
                static_cast<unsigned long long>(T.Cache.WarmRestored));
  std::printf("  generator             : %llu runs (in-VM memo %llu hits, "
              "%llu misses), %llu instr words\n",
              static_cast<unsigned long long>(T.Memo.GeneratorRuns),
              static_cast<unsigned long long>(T.Memo.MemoHits),
              static_cast<unsigned long long>(T.Memo.MemoMisses),
              static_cast<unsigned long long>(T.Vm.DynWordsWritten));
  if (T.Memo.GenDynWords)
    std::printf("  generator efficiency  : %.2f instructions per generated "
                "instruction (%llu / %llu)\n",
                T.generatorEfficiency(),
                static_cast<unsigned long long>(T.Memo.GenExecuted),
                static_cast<unsigned long long>(T.Memo.GenDynWords));
  std::printf("  heap recycles         : %llu\n",
              static_cast<unsigned long long>(T.HeapRecycles));
  std::printf("  overload              : %llu shed, %llu deadline misses, "
              "%llu retried (%llu recovered)\n",
              static_cast<unsigned long long>(T.Overload.Shed),
              static_cast<unsigned long long>(T.Overload.DeadlineMisses),
              static_cast<unsigned long long>(T.Overload.Retried),
              static_cast<unsigned long long>(T.Overload.RetrySuccesses));
  std::printf("  breaker               : %llu opens, %llu fallback calls, "
              "%llu probes, %llu fast fails (%u open now)\n",
              static_cast<unsigned long long>(T.Overload.BreakerOpens),
              static_cast<unsigned long long>(T.Overload.BreakerFallbacks),
              static_cast<unsigned long long>(T.Overload.BreakerProbes),
              static_cast<unsigned long long>(T.Overload.BreakerFastFails),
              T.BreakersOpen);
  if (T.Latency.Count)
    std::printf("  latency               : p50 %.3f ms, p99 %.3f ms, max "
                "%.3f ms (%llu samples)\n",
                static_cast<double>(T.Latency.quantileNs(0.50)) / 1e6,
                static_cast<double>(T.Latency.quantileNs(0.99)) / 1e6,
                static_cast<double>(T.Latency.MaxNs) / 1e6,
                static_cast<unsigned long long>(T.Latency.Count));
  for (const WorkerLoadRow &W : T.WorkerLoads)
    std::printf("  worker %-2u             : q_hw %llu, shed %llu, dl_miss "
                "%llu, retried %llu, brk_opens %llu, served %llu, errors "
                "%llu\n",
                W.Worker, static_cast<unsigned long long>(W.QueueHighWater),
                static_cast<unsigned long long>(W.Shed),
                static_cast<unsigned long long>(W.DeadlineMisses),
                static_cast<unsigned long long>(W.Retried),
                static_cast<unsigned long long>(W.BreakerOpens),
                static_cast<unsigned long long>(W.Served),
                static_cast<unsigned long long>(W.Errors));
  for (const EntryPointProfile &P : T.Entries)
    std::printf("  entry %-15s: %llu calls, %llu specializations "
                "(%llu memo hits)\n",
                P.Fn.c_str(), static_cast<unsigned long long>(P.Calls),
                static_cast<unsigned long long>(P.Specializations),
                static_cast<unsigned long long>(P.MemoHits));

  if (!TraceFile.empty()) {
    std::ofstream Out(TraceFile);
    if (!Out) {
      std::fprintf(stderr, "fabserve: cannot write %s\n", TraceFile.c_str());
      return 1;
    }
    // One Chrome trace track per worker; the shared process clock keeps
    // concurrent tracks aligned.
    std::vector<fab::telemetry::TraceTrack> Tracks;
    size_t Total = 0;
    for (unsigned W = 0; W < S.workers(); ++W) {
      fab::telemetry::TraceTrack Tk;
      Tk.Tid = static_cast<int>(W);
      Tk.Label = "worker " + std::to_string(W);
      Tk.Events = S.drainWorkerTrace(W);
      Total += Tk.Events.size();
      Tracks.push_back(std::move(Tk));
    }
    fab::telemetry::writeChromeTrace(Out, Tracks);
    std::printf("wrote %zu trace events (%u tracks) to %s\n", Total,
                S.workers(), TraceFile.c_str());
  }
  if (Chaos) {
    bool AllResolved =
        Ok + ShedCount + Missed + Broken + Faulted == Reqs.size();
    bool Pass = AllResolved && !Mismatches;
    std::printf("fabserve: CHAOS %s seed=%llu (ok=%zu shed=%zu dl_miss=%zu "
                "circuit=%zu faulted=%zu mismatches=%zu)\n",
                Pass ? "OK" : "FAIL", static_cast<unsigned long long>(Seed),
                Ok, ShedCount, Missed, Broken, Faulted, Mismatches);
    return Pass ? 0 : 1;
  }
  return Mismatches ? 1 : 0;
}
