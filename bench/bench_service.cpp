//===- bench_service.cpp - Specialization service throughput --------------===//
//
// Measures the src/service/ serving stack on a synthetic mixed workload
// (Figure 2 dot-product rows interleaved with Figure 4 packet-filter
// runs):
//   * throughput scaling at 1/2/4 workers, in requests per simulated
//     second at the paper's 25 MHz clock (each worker is an independent
//     FAB-32 machine, so the pool makespan is the busiest worker's
//     serving cycles — see docs/SERVICE.md);
//   * warm-cache speedup versus an always-respecialize configuration
//     (host cache off, which also turns off early-argument interning,
//     so every request pays a full generator run);
//   * a zero-generator-instructions check on the warm path and a
//     byte-identical comparison against a single-threaded Machine.
// Always writes BENCH_service.json so the perf trajectory is tracked
// across PRs.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "bpf/Bpf.h"
#include "service/SpecServer.h"
#include "support/Rng.h"
#include "workloads/MlPrograms.h"

using namespace fab;
using namespace fab::bench;
using namespace fab::service;

namespace {

struct MixedRequest {
  std::string Fn;
  std::vector<Value> Early, Late;
};

/// The mixed stream: dot products over RowCount distinct rows of length
/// N (two thirds of requests) and telnet-filter runs over a packet trace
/// (one third). Early values repeat heavily, as a serving workload's do.
std::vector<MixedRequest> makeWorkload(size_t Count, uint32_t N,
                                       size_t RowCount, uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::vector<int32_t>> Rows;
  for (size_t I = 0; I < RowCount; ++I) {
    std::vector<int32_t> Row(N);
    for (uint32_t J = 0; J < N; ++J)
      Row[J] = static_cast<int32_t>(R.next() % 200) - 50;
    Rows.push_back(Row);
  }
  bpf::Program Filter = bpf::telnetFilter();
  auto Trace = bpf::makeTrace(32, Seed ^ 0xC0FFEE);

  std::vector<MixedRequest> Reqs;
  for (size_t I = 0; I < Count; ++I) {
    if (I % 3 == 2) {
      Reqs.push_back({"eval",
                      {Value::ofVec(Filter.Words), Value::ofInt(0)},
                      {Value::ofInt(0), Value::ofInt(0),
                       Value::ofVec(std::vector<int32_t>(16, 0)),
                       Value::ofVec(Trace[I % Trace.size()])}});
    } else {
      std::vector<int32_t> Col(N);
      for (uint32_t J = 0; J < N; ++J)
        Col[J] = static_cast<int32_t>(R.next() % 100) - 25;
      Reqs.push_back({"dotloop",
                      {Value::ofVec(Rows[I % Rows.size()]), Value::ofInt(0),
                       Value::ofInt(static_cast<int32_t>(N))},
                      {Value::ofVec(Col), Value::ofInt(0)}});
    }
  }
  return Reqs;
}

struct RunResult {
  std::vector<int32_t> Values;
  TelemetrySnapshot Stats;
};

/// Plays the whole stream through a server and collects every result.
/// \p Tune lets a phase adjust the cache policy (capacity, admission,
/// persistence files) before the server boots.
RunResult runServer(const Compilation &C, const std::vector<MixedRequest> &Reqs,
                    unsigned Workers, bool Cache,
                    const std::function<void(ServerOptions &)> &Tune = {}) {
  ServerOptions SO;
  SO.Pool.Workers = Workers;
  SO.Pool.EnableCache = Cache;
  if (Tune)
    Tune(SO);
  SpecServer S(C, SO);
  std::vector<std::future<FabResult<int32_t>>> Futures;
  Futures.reserve(Reqs.size());
  for (const MixedRequest &Q : Reqs)
    Futures.push_back(S.submit(Q.Fn, Q.Early, Q.Late));
  RunResult R;
  for (auto &F : Futures) {
    FabResult<int32_t> V = F.get();
    if (!V.ok()) {
      std::fprintf(stderr, "request failed: %s\n", V.error().message().c_str());
      std::exit(1);
    }
    R.Values.push_back(*V);
  }
  R.Stats = S.telemetry();
  return R;
}

double reqPerSimSecond(const TelemetrySnapshot &St) {
  return St.BusyCyclesMax
             ? static_cast<double>(St.Served) /
                   (static_cast<double>(St.BusyCyclesMax) / (CyclesPerMs * 1e3))
             : 0.0;
}

} // namespace

int main() {
  std::printf("Specialization service: throughput and cache economics\n");

  FabiusOptions Opts = FabiusOptions::deferred();
  Opts.Backend.MemoizedSelfCalls.insert("eval");
  std::string Src = std::string(workloads::MatmulSrc) + "\n" + workloads::EvalSrc;
  Compilation C = compileOrDie(Src, Opts);

  const size_t NumRequests = 600;
  std::vector<MixedRequest> Reqs = makeWorkload(NumRequests, 64, 48, 4242);

  // Baseline: the whole stream on one single-threaded Machine, for the
  // byte-identical check.
  std::vector<int32_t> Expected;
  {
    Machine M(C.Unit);
    for (const MixedRequest &Q : Reqs) {
      std::vector<uint32_t> Early, Late;
      for (const Value &V : Q.Early)
        Early.push_back(V.K == Value::Kind::Int ? static_cast<uint32_t>(V.I)
                                                : M.heap().vector(V.Vec));
      for (const Value &V : Q.Late)
        Late.push_back(V.K == Value::Kind::Int ? static_cast<uint32_t>(V.I)
                                               : M.heap().vector(V.Vec));
      uint32_t A = M.specializeOrDie(Q.Fn, Early);
      Expected.push_back(M.invokeOrDie<int32_t>(A, Late));
    }
  }

  // Throughput scaling: pool makespan (busiest worker's simulated
  // cycles) at 1, 2, and 4 workers.
  std::printf("\n%zu requests (48 dot-product keys + telnet filter)\n\n",
              NumRequests);
  std::printf("%8s  %18s  %16s  %16s\n", "workers", "makespan (cycles)",
              "req/sim-second", "hits+memo");
  Series Makespan{"pool makespan", {}};
  double Tput1 = 0, Tput4 = 0;
  for (unsigned W : {1u, 2u, 4u}) {
    RunResult R = runServer(C, Reqs, W, true);
    if (R.Values != Expected) {
      std::fprintf(stderr, "MISMATCH vs single-threaded Machine at %u workers\n",
                   W);
      return 1;
    }
    double Tput = reqPerSimSecond(R.Stats);
    if (W == 1)
      Tput1 = Tput;
    if (W == 4)
      Tput4 = Tput;
    Makespan.add(W, R.Stats.BusyCyclesMax);
    std::printf("%8u  %18llu  %16.0f  %16llu\n", W,
                static_cast<unsigned long long>(R.Stats.BusyCyclesMax), Tput,
                static_cast<unsigned long long>(R.Stats.Cache.Hits +
                                                R.Stats.Coalesced));
    reportMetric("req_per_sim_second_" + std::to_string(W) + "w", Tput,
                 "req/s");
  }
  printFigure("Service throughput: pool makespan vs workers", "workers",
              {Makespan});
  double Scaling = Tput1 ? Tput4 / Tput1 : 0.0;
  std::printf("\nThroughput scaling 1 -> 4 workers: %.2fx (target >= 2.5x)\n",
              Scaling);
  reportMetric("throughput_scaling_1_to_4", Scaling);
  if (Scaling < 2.5) {
    std::fprintf(stderr, "FAIL: scaling below 2.5x\n");
    return 1;
  }

  // Cache economics on one worker: a warm cache versus respecializing on
  // every request (no host cache, no interning, so even the in-VM memo
  // misses — fresh early addresses every time).
  {
    RunResult Warm = runServer(C, Reqs, 1, true);
    RunResult Respec = runServer(C, Reqs, 1, false);
    if (Warm.Values != Expected || Respec.Values != Expected) {
      std::fprintf(stderr, "MISMATCH in cache-economics runs\n");
      return 1;
    }
    std::printf("\nCached:          %12llu cycles, %llu generator runs, "
                "%llu instr words generated\n",
                static_cast<unsigned long long>(Warm.Stats.BusyCyclesMax),
                static_cast<unsigned long long>(Warm.Stats.Memo.GeneratorRuns),
                static_cast<unsigned long long>(Warm.Stats.Vm.DynWordsWritten));
    std::printf("Always-respec:   %12llu cycles, %llu generator runs, "
                "%llu instr words generated\n",
                static_cast<unsigned long long>(Respec.Stats.BusyCyclesMax),
                static_cast<unsigned long long>(Respec.Stats.Memo.GeneratorRuns),
                static_cast<unsigned long long>(
                    Respec.Stats.Vm.DynWordsWritten));
    double Speedup = ratio(Respec.Stats.BusyCyclesMax,
                           Warm.Stats.BusyCyclesMax);
    std::printf("Cache-hit speedup: %.2fx\n", Speedup);
    reportMetric("cache_hit_speedup", Speedup);

    // Warm path executes zero generator instructions: replay the stream
    // against the already-warm server and require no new emission.
    ServerOptions SO;
    SO.Pool.Workers = 1;
    SpecServer S(C, SO);
    for (const MixedRequest &Q : Reqs)
      if (!S.call(Q.Fn, Q.Early, Q.Late).ok()) {
        std::fprintf(stderr, "warm-up request failed\n");
        return 1;
      }
    uint64_t GenAfterWarmup = S.telemetry().Vm.DynWordsWritten;
    for (const MixedRequest &Q : Reqs)
      if (!S.call(Q.Fn, Q.Early, Q.Late).ok()) {
        std::fprintf(stderr, "warm request failed\n");
        return 1;
      }
    uint64_t Delta = S.telemetry().Vm.DynWordsWritten - GenAfterWarmup;
    std::printf("Warm-phase generator instruction words: %llu (must be 0); "
                "warm-server cache hit rate %.1f%%\n",
                static_cast<unsigned long long>(Delta),
                100.0 * S.telemetry().Cache.hitRate());
    reportMetric("warm_phase_gen_instr_words", static_cast<double>(Delta));
    reportMetric("warm_cache_hit_rate", S.telemetry().Cache.hitRate());
    if (Delta != 0) {
      std::fprintf(stderr, "FAIL: warm path entered the generator\n");
      return 1;
    }
  }

  // Scan resistance: eight hot dot-product rows cycled against a stream
  // of never-repeating scan rows, through a cache sized to exactly the
  // hot set. The ghost-LRU doorkeeper refuses one-shot keys, so the hot
  // set stays resident; plain LRU churns it on every scan.
  {
    const uint32_t N = 64;
    Rng R(99);
    auto randomRow = [&] {
      std::vector<int32_t> Row(N);
      for (uint32_t J = 0; J < N; ++J)
        Row[J] = static_cast<int32_t>(R.next() % 200) - 50;
      return Row;
    };
    std::vector<std::vector<int32_t>> Hot;
    for (int I = 0; I < 8; ++I)
      Hot.push_back(randomRow());
    std::vector<MixedRequest> Churn;
    for (int Round = 0; Round < 25; ++Round) {
      for (int I = 0; I < 8; ++I)
        Churn.push_back({"dotloop",
                         {Value::ofVec(Hot[I]), Value::ofInt(0),
                          Value::ofInt(static_cast<int32_t>(N))},
                         {Value::ofVec(randomRow()), Value::ofInt(0)}});
      for (int I = 0; I < 4; ++I)
        Churn.push_back({"dotloop",
                         {Value::ofVec(randomRow()), Value::ofInt(0),
                          Value::ofInt(static_cast<int32_t>(N))},
                         {Value::ofVec(randomRow()), Value::ofInt(0)}});
    }
    // One worker serves the stream in submission order, so every
    // lookup, refusal and eviction below is exact.
    auto playChurn = [&](bool Admission) {
      ServerOptions SO;
      SO.Pool.Workers = 1;
      SO.Pool.Cache.Capacity = 8;
      SO.Pool.Cache.Admission = Admission;
      SpecServer S(C, SO);
      RunResult R;
      for (const MixedRequest &Q : Churn) {
        FabResult<int32_t> V = S.call(Q.Fn, Q.Early, Q.Late);
        if (!V.ok()) {
          std::fprintf(stderr, "churn request failed\n");
          std::exit(1);
        }
        R.Values.push_back(*V);
      }
      R.Stats = S.telemetry();
      return R;
    };
    RunResult Adm = playChurn(true);
    RunResult Lru = playChurn(false);
    if (Adm.Values != Lru.Values) {
      std::fprintf(stderr, "MISMATCH between admission and LRU runs\n");
      return 1;
    }
    double AdmRate = Adm.Stats.Cache.hitRate();
    double LruRate = Lru.Stats.Cache.hitRate();
    double Margin = AdmRate - LruRate;
    std::printf("\nScan churn (capacity 8, 8 hot keys + one-shot scans):\n"
                "  admission hit rate %.1f%% (%llu rejects), plain LRU "
                "%.1f%% (%llu evictions), margin %.1f pts\n",
                100.0 * AdmRate,
                static_cast<unsigned long long>(
                    Adm.Stats.Cache.AdmissionRejects),
                100.0 * LruRate,
                static_cast<unsigned long long>(Lru.Stats.Cache.Evictions),
                100.0 * Margin);
    reportMetric("hot_hit_rate_admission", AdmRate);
    reportMetric("hot_hit_rate_lru", LruRate);
    reportMetric("admission_hit_rate_margin", Margin);
    if (Margin <= 0.0) {
      std::fprintf(stderr, "FAIL: doorkeeper gave no hit-rate margin\n");
      return 1;
    }
  }

  // Warm-start persistence: a cold server saves its warm state at
  // shutdown; a second server restores it and must serve the whole
  // stream byte-identically without a single generated word.
  {
    const std::string Path = "BENCH_service_warm.fabc";
    std::remove(Path.c_str());
    RunResult Cold = runServer(C, Reqs, 1, true, [&](ServerOptions &SO) {
      SO.Pool.Cache.SaveFile = Path;
    });
    RunResult Warm = runServer(C, Reqs, 1, true, [&](ServerOptions &SO) {
      SO.Pool.Cache.LoadFile = Path;
    });
    std::remove(Path.c_str());
    if (Cold.Values != Expected || Warm.Values != Expected) {
      std::fprintf(stderr, "MISMATCH in warm-start runs\n");
      return 1;
    }
    double Speedup = ratio(Cold.Stats.BusyCyclesMax, Warm.Stats.BusyCyclesMax);
    std::printf("\nWarm start: %llu entries restored, %llu generator words "
                "(must be 0), %.2fx over cold boot\n",
                static_cast<unsigned long long>(Warm.Stats.Cache.WarmRestored),
                static_cast<unsigned long long>(Warm.Stats.Vm.DynWordsWritten),
                Speedup);
    reportMetric("warm_start_restored_entries",
                 static_cast<double>(Warm.Stats.Cache.WarmRestored));
    reportMetric("warm_start_gen_words",
                 static_cast<double>(Warm.Stats.Vm.DynWordsWritten));
    reportMetric("warm_start_speedup", Speedup);
    if (Warm.Stats.Vm.DynWordsWritten != 0) {
      std::fprintf(stderr, "FAIL: warm start entered the generator\n");
      return 1;
    }
  }

  writeBenchJson("service");
  return 0;
}
