//===- main.cpp - fabbench: one workload, one seed, one result line -------===//
//
// Part of the FABIUS benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage:
///   fabbench --workload NAME --seed N --seconds S --trace 0|1
///            [--tiny] [--spans DIR]
///
/// Runs one workload with inputs drawn from the seed, checks every output
/// against its oracle, prints one line per metric (name, value, unit, and
/// the sample count behind each percentile), and ends with one JSON
/// object: {"correct", "attempted", "failed", "metrics"}. --trace 0
/// reports the end-to-end metrics, --trace 1 the per-layer metrics and
/// writes the run's spans to DIR. perfbench/README.md defines every
/// metric.
///
//===----------------------------------------------------------------------===//

#include "Drive.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sys/prctl.h>
#include <sys/resource.h>

using namespace pb;

namespace {

struct Cli {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Tiny = false;
  std::string SpansDir = ".bench_build/spans";
};

bool parseCli(int Argc, char **Argv, Cli &C) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Val = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--tiny") {
      C.Tiny = true;
      continue;
    }
    if (!(V = Val()))
      return false;
    char *End = nullptr;
    if (A == "--workload")
      C.Workload = V;
    else if (A == "--seed")
      C.Seed = std::strtoull(V, &End, 10);
    else if (A == "--seconds")
      C.Seconds = std::strtod(V, &End);
    else if (A == "--trace")
      C.Trace = std::strtol(V, &End, 10) != 0;
    else if (A == "--spans")
      C.SpansDir = V;
    else
      return false;
    if (End && *End)
      return false;
  }
  return !C.Workload.empty() && C.Seconds > 0;
}

double ratio(double A, double B) { return B != 0 ? A / B : 0; }

/// CPU time the hypervisor may steal from the machine during a wire phase
/// (one 10 ms clock tick) before the phase is taken to have measured the
/// host, not the program.
constexpr double StolenLimitMs = 10;

/// Length of one fixed-rate wire segment: short, so that most segments
/// fall between the host's bursts of stolen time.
constexpr double SegmentS = 0.25;

/// Share of --seconds a run may spend repeating wire phases.
constexpr double RetryShare = 0.3;

/// Requests of one modeled-time phase (paper-suite), and how many
/// distinct service times they cycle through.
constexpr size_t ModeledRequests = 20000;
constexpr size_t ModeledServices = 2000;

/// The host-time figure of repeated identical work: its 10th percentile.
/// The reference host alternates between two speeds about 1.5x apart
/// every few seconds; a median flips between them, this does not.
double fastest(const std::vector<double> &V) {
  return percentile(V, 0.10).Value;
}

/// Keeps the calibration loop's result alive.
volatile uint64_t CalibrationSink;

/// A fixed CPU-bound loop of benchmark code (no FABIUS code); its time
/// tracks the host's current speed.
double calibrationMs() {
  uint64_t T0 = nowNs();
  static uint32_t Tab[4096];
  for (uint32_t I = 0; I < 4096; ++I)
    Tab[I] = I * 2654435761u;
  uint64_t X = 1, Acc = 0;
  for (uint32_t I = 0; I < 200000; ++I) {
    X += 0x9E3779B97F4A7C15ull;
    uint64_t Z = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
    Acc += Tab[Z & 4095] ^ (Z >> 33);
    Acc = (Acc & 1) ? Acc + I : Acc ^ I;
  }
  CalibrationSink = Acc;
  return static_cast<double>(nowNs() - T0) / 1e6;
}

/// fastest(calibrationMs()) on the reference host. Host timings of
/// repeated work are reported in reference-host time: scaled by this over
/// the run's own fastest calibration, taken alongside them, so a host
/// that is slower for minutes at a time does not read as a slower program.
constexpr double RefCalibrationMs = 0.38;

/// The metric lines and the final JSON object.
class Report {
public:
  explicit Report(bool Tiny) : Tiny(Tiny) {}

  void add(const std::string &Name, const std::string &Unit, double V,
           size_t N = 0) {
    Rows.push_back({Name, Unit, std::isfinite(V) ? V : 0, N});
  }
  /// A percentile of exact samples; too few samples beyond it makes the
  /// run invalid (except at tiny scale).
  void pct(const std::string &Name, const std::vector<double> &Samples,
           double Q) {
    check(Name, percentile(Samples, Q));
  }
  /// The first percentile reported with too few samples beyond it.
  const std::string &shortOf() const { return Short; }

  void print(bool Correct, uint64_t Attempted, uint64_t Failed) const {
    for (const Row &R : Rows) {
      std::printf("%-28s %18.6f %-8s", R.Name.c_str(), R.V, R.Unit.c_str());
      if (R.N)
        std::printf(" n=%zu", R.N);
      std::printf("\n");
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                Correct ? "true" : "false",
                static_cast<unsigned long long>(Attempted ? Attempted : 1),
                static_cast<unsigned long long>(Failed));
    for (size_t I = 0; I < Rows.size(); ++I)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", Rows[I].Name.c_str(), Rows[I].V,
                  Rows[I].Unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
  }

private:
  void check(const std::string &Name, const Percentile &P) {
    if (!P.Enough && !Tiny && Short.empty())
      Short = Name;
    add(Name, "us", P.Value, P.N ? P.N : 1);
  }

  struct Row {
    std::string Name, Unit;
    double V;
    size_t N;
  };
  bool Tiny;
  std::vector<Row> Rows;
  std::string Short;
};

/// The cumulative server counters the per-layer metrics read, by name.
using Counters = std::map<std::string, double>;

Counters counters(const fab::TelemetrySnapshot &S) {
  auto D = [](uint64_t V) { return static_cast<double>(V); };
  return {
      {"gen_runs", D(S.Memo.GeneratorRuns)},
      {"memo_hits", D(S.Memo.MemoHits)},
      {"gen_instrs", D(S.Memo.GenExecuted)},
      {"gen_words", D(S.Memo.GenDynWords)},
      {"dyn_words", D(S.Vm.DynWordsWritten)},
      {"flushed_bytes", D(S.Vm.FlushedBytes)},
      {"blocks_built", D(S.DecodeCache.BlocksBuilt)},
      {"block_invalidations", D(S.DecodeCache.Invalidations)},
      {"heap_recycles", D(S.HeapRecycles)},
      {"served", D(S.Served)},
      {"coalesced", D(S.Coalesced)},
      {"busy_cycles_max", D(S.BusyCyclesMax)},
      {"cache_hits", D(S.Cache.Hits)},
      {"cache_misses", D(S.Cache.Misses)},
      {"admission_rejects", D(S.Cache.AdmissionRejects)},
      {"evictions", D(S.Cache.Evictions)},
      {"invalidated", D(S.Cache.Invalidated)},
      {"compactions", D(S.Cache.Compactions)},
      {"compact_kept", D(S.Cache.CompactKept)},
      {"compact_dropped", D(S.Cache.CompactDropped)},
      {"shed", D(S.Overload.Shed)},
      {"deadline_misses", D(S.Overload.DeadlineMisses)},
      {"retried", D(S.Overload.Retried)},
      {"frames_in", D(S.Net.FramesIn)},
      {"read_batches", D(S.Net.ReadBatches)},
      {"errors_out", D(S.Net.ErrorsOut)},
      {"cap_rejects", D(S.Net.CapRejects)},
      {"wakeups", D(S.Reactor.Wakeups)},
      {"events", D(S.Reactor.EventsDispatched)},
      {"write_stalls", D(S.Reactor.WriteStalls)},
  };
}

Counters operator-(Counters A, const Counters &B) {
  for (auto &[K, V] : A)
    V -= B.at(K);
  return A;
}

/// One run: the workload, its compiled programs, the oracle and the path
/// its open loop drives, plus failure accounting.
class Run {
public:
  explicit Run(const Cli &Opt) : Opt(Opt) {}

  bool setup();
  void teardown() {
    R.reset();
    L.reset();
    V.reset();
    O.reset();
    C.reset();
  }
  /// One open-loop phase at a fixed rate.
  LoopResult phase(double Rps, double Seconds, uint64_t Salt,
                   double AbortUs = 0);
  /// \p Seconds at a fixed rate, as wire segments of about SegmentS (one
  /// modeled phase on paper-suite); the samples of every kept segment. A
  /// segment during which the hypervisor stole more than StolenLimitMs is
  /// measured again while the retry budget lasts, keeping the attempt it
  /// stole least from.
  LoopResult fixedRate(double Rps, double Seconds, uint64_t &Salt);
  /// Whether the ladder rate \p Rps meets the latency limit. A failed
  /// probe is repeated, while the retry budget lasts and at most twice,
  /// only when the hypervisor stole more than StolenLimitMs during it.
  bool rungMeets(double Rps, double ProbeS, uint64_t &Salt);
  /// Replays \p Sample through a lone machine, SpecServer::submitAsync
  /// and the wire, each on fresh state after \p Warm.
  struct Replay {
    double SampleS = 0; ///< wall time of the three sample parts
    std::vector<double> SvcUs, RttUs;
    std::unique_ptr<Rig> Wire; ///< kept for its counters and pings
  };
  Replay replay(const std::vector<Op> &Warm, const std::vector<Op> &Sample,
                Tracer &T);
  void fail(const std::string &Why) {
    if (Correct)
      std::fprintf(stderr, "perfbench: %s\n", Why.c_str());
    Correct = false;
  }
  Tally check(const Op &Q, const fab::FabResult<uint32_t> &Got);

  const Cli &Opt;
  Workload W;
  std::unique_ptr<Compiled> C;
  std::unique_ptr<Oracle> O;
  std::unique_ptr<WireValues> V;
  std::unique_ptr<Lone> L; ///< in-process machine (paper-suite)
  std::unique_ptr<Rig> R;  ///< wire loop (serve-*)
  std::vector<double> ServiceUs; ///< modeled service times (paper-suite)
  Tally Total;
  bool Correct = true;
  size_t Cursor = 0;
  double RetryLeftS = 0; ///< host seconds left for repeating wire phases
  Tracer Off{false};
};

Tally Run::check(const Op &Q, const fab::FabResult<uint32_t> &Got) {
  Tally T;
  T.Attempted = 1;
  uint32_t Want = 0;
  if (!Got) {
    T.Failed = 1;
  } else if (!O->expected(Q, Want) || *Got != Want) {
    T.Failed = T.Mismatches = 1;
  }
  return T;
}

bool Run::setup() {
  teardown();
  if (!makeWorkload(Opt.Workload, Opt.Seed, Opt.Tiny, W))
    return false;
  C = compileWorkload(W, Off);
  if (!C)
    return false;
  O = std::make_unique<Oracle>(W, *C);
  V = std::make_unique<WireValues>(W);
  if (W.OverWire) {
    R = std::make_unique<Rig>(W, C->Def, *O, *V, Opt.Trace);
    std::string Err;
    if (!R->start(Err)) {
      std::fprintf(stderr, "perfbench: cannot start the server: %s\n",
                   Err.c_str());
      return false;
    }
    Total += R->serial(W.Warmup, nullptr, Off);
  } else {
    L = std::make_unique<Lone>(W, *C, false, false);
    for (const Op &Q : W.Warmup)
      Total += check(Q, L->deferred(Q, Off, 0));
    ServiceUs = modeledService(W, *L, *O, Opt.Tiny ? 200 : ModeledServices,
                               Total);
  }
  Cursor = 0;
  return true;
}

LoopResult Run::phase(double Rps, double Seconds, uint64_t Salt,
                      double AbortUs) {
  LoopSpec S;
  S.Rps = Rps;
  S.Seconds = Opt.Tiny ? std::min(Seconds, 0.05) : Seconds;
  S.Seed = Opt.Seed * 1000003 + Salt;
  S.AbortLimitUs = AbortUs;
  LoopResult Res;
  if (W.OverWire) {
    double Stolen0 = stolenMs();
    Res = R->openLoop(Cursor, S);
    Res.StolenMs = stolenMs() - Stolen0;
  } else {
    Res = modeledLoop(ServiceUs, S, Opt.Tiny ? 2000 : ModeledRequests);
  }
  Total += Res.Ops;
  std::fprintf(stderr,
               "# phase rps=%.0f n=%zu p50=%.1fus p99=%.1fus late.p99=%.1fus "
               "stolen=%.0fms q1/q4.p50=%.1f/%.1fus failed=%llu%s\n",
               Rps, Res.LatUs.size(), percentile(Res.LatUs, 0.5).Value,
               percentile(Res.LatUs, 0.99).Value,
               percentile(Res.LateUs, 0.99).Value, Res.StolenMs,
               Res.FirstQuarterP50, Res.LastQuarterP50,
               static_cast<unsigned long long>(Res.Ops.Failed),
               Res.Aborted ? " aborted" : "");
  return Res;
}

LoopResult Run::fixedRate(double Rps, double Seconds, uint64_t &Salt) {
  // Stolen time is the hypervisor running other guests on this machine's
  // CPUs: a segment it fell in measured the host, not the program.
  const int K = W.OverWire && !Opt.Tiny
                    ? std::max(1, static_cast<int>(std::lround(Seconds /
                                                               SegmentS)))
                    : 1;
  LoopResult All;
  for (int I = 0; I < K; ++I) {
    LoopResult Best = phase(Rps, Seconds / K, Salt++);
    while (Best.StolenMs > StolenLimitMs && RetryLeftS > 0) {
      uint64_t T0 = nowNs();
      LoopResult Res = phase(Rps, Seconds / K, Salt++);
      RetryLeftS -= static_cast<double>(nowNs() - T0) / 1e9;
      if (Res.StolenMs < Best.StolenMs)
        Best = std::move(Res);
    }
    All.LatUs.insert(All.LatUs.end(), Best.LatUs.begin(), Best.LatUs.end());
    All.LateUs.insert(All.LateUs.end(), Best.LateUs.begin(),
                      Best.LateUs.end());
  }
  return All;
}

bool Run::rungMeets(double Rps, double ProbeS, uint64_t &Salt) {
  // Long enough for a p99 with a few thousand samples.
  const double Seconds =
      std::max(std::min(ProbeS, W.R.ProbeCalls / Rps), 3300 / Rps);
  for (int Try = 0;; ++Try) {
    uint64_t T0 = nowNs();
    LoopResult Res = phase(Rps, Seconds, Salt++, W.R.LimitUs);
    if (Try)
      RetryLeftS -= static_cast<double>(nowNs() - T0) / 1e9;
    if (Res.meets(W.R.LimitUs))
      return true;
    if (Try == 2 || Res.StolenMs <= StolenLimitMs || RetryLeftS <= 0)
      return false;
  }
}

Run::Replay Run::replay(const std::vector<Op> &Warm,
                        const std::vector<Op> &Sample, Tracer &T) {
  Replay Out;
  auto Since = [](uint64_t T0) {
    return static_cast<double>(nowNs() - T0) / 1e9;
  };
  {
    Lone Lm(W, *C, false, false);
    for (const Op &Q : Warm)
      Total += check(Q, Lm.deferred(Q, Off, 0));
    uint64_t Req = 1, T0 = nowNs();
    for (const Op &Q : Sample)
      Total += check(Q, Lm.deferred(Q, T, Req++));
    Out.SampleS += Since(T0);
  }
  double SvcS = 0;
  Total += replayService(W, C->Def, *O, *V, Warm, Sample, Out.SvcUs, T, SvcS);
  Out.SampleS += SvcS;
  Out.Wire = std::make_unique<Rig>(W, C->Def, *O, *V);
  std::string Err;
  if (!Out.Wire->start(Err)) {
    fail("cannot start the replay server: " + Err);
    return Out;
  }
  Total += Out.Wire->serial(Warm, nullptr, Off);
  uint64_t T0 = nowNs();
  Total += Out.Wire->serial(Sample, &Out.RttUs, T, 1);
  Out.SampleS += Since(T0);
  return Out;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // KiB on Linux
}

/// Mean host ns per frame to encode and to decode the workload's own
/// request frames (median of five rounds).
std::pair<double, double> codecNs(Run &Rn, const std::vector<Op> &Ops,
                                  size_t Frames) {
  std::vector<fab::net::SubmitBody> Bodies;
  for (const Op &Q : Ops) {
    fab::net::SubmitBody B;
    B.Fn = Rn.W.Progs[Q.Prog].Fn;
    B.Early = Rn.V->early(Q);
    B.Late = Rn.V->late(Q);
    Bodies.push_back(std::move(B));
  }
  std::vector<double> Enc, Dec;
  for (int Round = 0; Round < 5 && !Bodies.empty(); ++Round) {
    std::vector<std::vector<uint8_t>> Wire;
    Wire.reserve(Frames);
    uint64_t T0 = nowNs();
    for (size_t I = 0; I < Frames; ++I)
      Wire.push_back(fab::net::encodeSubmit(I + 1, Bodies[I % Bodies.size()]));
    Enc.push_back(static_cast<double>(nowNs() - T0) / Frames);
    fab::net::FrameReader FR;
    fab::net::Frame F;
    fab::net::SubmitBody B;
    size_t Bad = 0;
    T0 = nowNs();
    for (const auto &Bytes : Wire) {
      FR.feed(Bytes.data(), Bytes.size());
      if (FR.next(F) != fab::net::FrameReader::Status::Ready ||
          !fab::net::decodeSubmit(F, B))
        ++Bad;
    }
    Dec.push_back(static_cast<double>(nowNs() - T0) / Frames);
    if (Bad)
      Rn.fail("the wire codec rejected the workload's own frames");
  }
  return {median(Enc), median(Dec)};
}

/// Ops of \p From whose arguments all have a wire form, up to \p Max.
std::vector<Op> wireOps(const Workload &W, const std::vector<Op> &From,
                        size_t Max) {
  std::vector<Op> Out;
  for (const Op &Q : From) {
    if (Out.size() >= Max)
      break;
    const Program &P = W.Progs[Q.Prog];
    if (wireForm(P.Early[Q.Early]) && wireForm(P.Late[Q.Late]))
      Out.push_back(Q);
  }
  return Out;
}

void printSpans(const Tracer &T) {
  std::printf("# span self times (all spans of the traced replay)\n");
  for (const SelfTime &S : selfTimes(T.spans()))
    std::printf("#   %-20s n=%-7llu total_us=%-12.1f self_us=%.1f\n",
                S.Name.c_str(), static_cast<unsigned long long>(S.Count),
                S.TotalUs, S.SelfUs);
  std::printf("# layer peeling, mean us per request (innermost first)\n");
  for (const PeelRow &P :
       peel(T.spans(), {{"machine.specialize", "machine.invoke"},
                        {"service.submit"},
                        {"wire.rtt"}}))
    std::printf("#   %-20s n=%-7llu total_us=%-10.2f self_us=%.2f\n",
                P.Layer.c_str(), static_cast<unsigned long long>(P.Requests),
                P.MeanTotalUs, P.MeanSelfUs);
}

//===----------------------------------------------------------------------===//
// The two kinds of run
//===----------------------------------------------------------------------===//

/// Setup, compile, suite passes and the open loop: the end-to-end metrics.
/// After set-up the run is cut into rounds, each doing its share of every
/// measurement, so a slow spell of the host touches all metrics alike.
void endToEnd(Run &Rn, uint64_t ProcStartNs, Report &Rep) {
  const Cli &Opt = Rn.Opt;
  std::vector<double> SetupS;
  for (int I = 0; I < (Opt.Tiny ? 1 : 3); ++I) {
    uint64_t T0 = I ? nowNs() : ProcStartNs;
    if (!Rn.setup()) {
      Rn.fail("set-up failed");
      return;
    }
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }
  Workload &W = Rn.W;
  const bool Serve = W.OverWire;
  const int Rounds = Opt.Tiny ? 1 : 4;
  // Seconds per round for each measurement.
  const double Round = Opt.Seconds / Rounds;
  // paper-suite's open loop runs in modeled time and costs no host time.
  const double CompileS = (Serve ? 0.05 : 0.1) * Round;
  const double SuiteS = (Serve ? 0.2 : 0.9) * Round;
  const double NomS = 0.25 * Round;
  const double HighS = 0.15 * Round;
  // Each round bisects the whole ladder: about seven probes.
  const double ProbeS = 0.35 * Round / 7;
  auto Until = [](double Seconds) {
    return nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  };

  std::vector<double> CompileMs, PassS, CalMs, NomLat, HighLat, SloRps;
  std::vector<uint64_t> Print;
  double Speedup = 0, GenPerWord = 0;
  const std::vector<double> &Ladder = W.R.Ladder;
  uint64_t Salt = 1;
  Rn.RetryLeftS = Opt.Tiny ? 0 : RetryShare * Opt.Seconds;
  Counters Before = Serve ? counters(Rn.R->telemetry()) : Counters();
  for (int R = 0; R < Rounds; ++R) {
    for (uint64_t End = Until(CompileS), I = 0; I < 10 || nowNs() < End; ++I) {
      if (auto C = compileWorkload(W, Rn.Off))
        CompileMs.push_back(C->T.totalMs());
      CalMs.push_back(calibrationMs());
    }

    // Every suite pass must reproduce the first one's deterministic
    // figures exactly.
    for (uint64_t End = Until(SuiteS), I = 0; I < 1 || nowNs() < End; ++I) {
      PassResult P = suitePass(W, Rn.Off);
      Rn.Total += P.Ops;
      PassS.push_back(P.WallS);
      for (int K = 0; K < 10; ++K)
        CalMs.push_back(calibrationMs());
      if (Print.empty()) {
        Print = P.fingerprint();
        Speedup = P.simSpeedupGeomean();
        GenPerWord = P.genInstrsPerWord();
      } else if (P.fingerprint() != Print) {
        Rn.fail("a same-seed suite pass changed its deterministic figures");
      }
    }

    LoopResult Nom = Rn.fixedRate(W.R.Nominal, NomS, Salt);
    NomLat.insert(NomLat.end(), Nom.LatUs.begin(), Nom.LatUs.end());
    LoopResult High = Rn.fixedRate(W.R.High, HighS, Salt);
    HighLat.insert(HighLat.end(), High.LatUs.begin(), High.LatUs.end());

    // A whole bisection per round; the run reports the rounds' median.
    int Lo = -1, Hi = static_cast<int>(Ladder.size());
    while (Hi - Lo > 1) {
      int Mid = (Lo + Hi) / 2;
      (Rn.rungMeets(Ladder[Mid], ProbeS, Salt) ? Lo : Hi) = Mid;
      if (Opt.Tiny)
        break;
    }
    SloRps.push_back(Lo >= 0 ? Ladder[Lo] : 0);
    std::fprintf(stderr, "# round %d: slo rate %.0f/s\n", R, SloRps.back());
  }
  if (Serve) {
    Counters Srv = counters(Rn.R->telemetry()) - Before;
    std::fprintf(stderr, "# server: %.0f heap recycles, %.0f compactions\n",
                 Srv["heap_recycles"], Srv["compactions"]);
    if (W.ExpectNoGeneration && Srv["dyn_words"] != 0)
      Rn.fail("serve-hot emitted code in its measured phase");
  }

  Rep.add("setup_s", "s", median(SetupS), SetupS.size());
  Rep.add("peak_rss_mb", "MB", peakRssMb());
  const double HostScale = RefCalibrationMs / fastest(CalMs);
  std::fprintf(stderr, "# host speed: calibration %.4f ms (reference %.2f)\n",
               fastest(CalMs), RefCalibrationMs);
  Rep.add("suite_s", "s", fastest(PassS) * HostScale, PassS.size());
  Rep.add("compile_ms", "ms", fastest(CompileMs) * HostScale,
          CompileMs.size());
  Rep.add("sim_speedup_geomean", "x", Speedup);
  Rep.add("gen_instrs_per_word", "instr/word", GenPerWord);
  Rep.pct("p50_us.nominal", NomLat, 0.50);
  Rep.pct("p99_us.nominal", NomLat, 0.99);
  Rep.pct("p99_us.high", HighLat, 0.99);
  Rep.add("slo_rate_rps", "1/s", median(SloRps), SloRps.size());
}

/// Stage timings, counters, and the traced three-entry-point replay: the
/// per-layer metrics.
void perLayer(Run &Rn, Report &Rep) {
  const Cli &Opt = Rn.Opt;
  if (!Rn.setup()) {
    Rn.fail("set-up failed");
    return;
  }
  Workload &W = Rn.W;
  const bool Serve = W.OverWire;
  const double S = Opt.Seconds;
  Tracer T(true);

  std::vector<double> Parse, Check, Stage, Gen;
  for (int I = 0; I < 5; ++I)
    if (auto C = compileWorkload(W, I ? Rn.Off : T)) {
      Parse.push_back(C->T.ParseUs);
      Check.push_back(C->T.TypecheckUs);
      Stage.push_back(C->T.StageUs);
      Gen.push_back(C->T.CodegenUs);
    }

  PassResult P = suitePass(W, Rn.Off);
  PassResult P2 = suitePass(W, Rn.Off);
  Rn.Total += P.Ops;
  Rn.Total += P2.Ops;
  if (P.fingerprint() != P2.fingerprint())
    Rn.fail("a same-seed suite pass changed its deterministic figures");
  std::vector<double> SpecUs = P.SpecUs, InvUs = P.InvUs;
  SpecUs.insert(SpecUs.end(), P2.SpecUs.begin(), P2.SpecUs.end());
  InvUs.insert(InvUs.end(), P2.InvUs.begin(), P2.InvUs.end());

  Counters Before = Serve ? counters(Rn.R->telemetry()) : Counters();
  uint64_t Salt = 1;
  Rn.RetryLeftS = Opt.Tiny ? 0 : RetryShare * S;
  LoopResult Nom = Rn.fixedRate(W.R.Nominal, 0.25 * S, Salt);
  Rn.fixedRate(W.R.High, 0.15 * S, Salt);
  Counters Srv;
  fab::TelemetrySnapshot After;
  if (Serve) {
    After = Rn.R->telemetry();
    Srv = counters(After) - Before;
    if (W.ExpectNoGeneration && Srv["dyn_words"] != 0)
      Rn.fail("serve-hot emitted code in its measured phase");
  }

  // The same seeded stream through three entry points, untraced and then
  // traced; self times come from subtracting the nested layers.
  const size_t SampleN = Opt.Tiny ? 200 : 2000;
  std::vector<Op> Warm = wireOps(W, W.Warmup, W.Warmup.size());
  std::vector<Op> Sample = wireOps(W, W.Stream, SampleN);
  // Untraced and traced replays alternate; the overhead compares their
  // median sample times. The metrics come from the first untraced one and
  // the spans from the last traced one.
  Run::Replay Plain = Rn.replay(Warm, Sample, Rn.Off);
  std::vector<double> PlainS = {Plain.SampleS}, TracedS;
  Run::Replay Traced;
  for (int Round = 0; Round < 3; ++Round) {
    if (Round)
      PlainS.push_back(Rn.replay(Warm, Sample, Rn.Off).SampleS);
    Tracer Scratch(true);
    Traced = Rn.replay(Warm, Sample, Round == 2 ? T : Scratch);
    TracedS.push_back(Traced.SampleS);
  }
  Rig *PingRig = Serve ? Rn.R.get() : Traced.Wire.get();
  std::vector<double> PingUs;
  if (!PingRig || !PingRig->pings(Opt.Tiny ? 50 : 2000, PingUs))
    Rn.fail("pings failed");
  if (!Serve && Traced.Wire) {
    After = Traced.Wire->telemetry();
    Srv = counters(After);
  }
  auto [EncNs, DecNs] = codecNs(Rn, Sample, Opt.Tiny ? 2000 : 20000);

  std::filesystem::create_directories(Opt.SpansDir);
  std::string SpanFile = Opt.SpansDir + "/" + W.Name + "-seed" +
                         std::to_string(Opt.Seed) + ".jsonl";
  if (!T.write(SpanFile))
    Rn.fail("cannot write " + SpanFile);
  std::printf("# spans: %s (%zu)\n", SpanFile.c_str(), T.spans().size());
  printSpans(T);

  // Layer counters: a lone Deferred machine for paper-suite, the serving
  // pool for the serve workloads.
  double GenWords = Serve ? Srv["gen_words"]
                          : static_cast<double>(P.Memo.GenDynWords);
  double GenInstrs = Serve ? Srv["gen_instrs"]
                           : static_cast<double>(P.Memo.GenExecuted);
  double MemoHit =
      Serve ? ratio(Srv["memo_hits"], Srv["gen_runs"])
            : ratio(static_cast<double>(P.Memo.MemoHits),
                    static_cast<double>(P.Memo.GeneratorRuns));
  uint64_t PlainCyc = 0, DefCyc = 0;
  for (const ProgCost &PC : P.Costs) {
    PlainCyc += PC.PlainCycles;
    DefCyc += PC.DeferredCycles;
  }
  auto D = [](uint64_t X) { return static_cast<double>(X); };

  Rep.add("ml.parse_us", "us", median(Parse), Parse.size());
  Rep.add("ml.typecheck_us", "us", median(Check), Check.size());
  Rep.add("staging.analyze_us", "us", median(Stage), Stage.size());
  Rep.add("backend.codegen_us", "us", median(Gen), Gen.size());
  Rep.add("backend.static_words", "words", D(P.StaticWords));
  Rep.pct("core.specialize_us.p50", SpecUs, 0.50);
  Rep.pct("core.specialize_us.p99", SpecUs, 0.99);
  Rep.add("core.gen_words", "words", GenWords);
  Rep.add("core.gen_instrs", "instrs", GenInstrs);
  Rep.add("core.memo_hit_ratio", "ratio", MemoHit);
  Rep.pct("core.invoke_us.p50", InvUs, 0.50);
  Rep.add("core.sim_cycles.plain", "cycles", D(PlainCyc));
  Rep.add("core.sim_cycles.deferred", "cycles", D(DefCyc));
  Rep.add("vm.instr_per_s", "instr/s", ratio(D(P.Vm.Executed), P.MachineS));
  Rep.add("vm.decode_fast_ratio", "ratio",
          ratio(D(P.Decode.FastInsts),
                D(P.Decode.FastInsts + P.Decode.SlowInsts)));
  Rep.add("vm.blocks_built", "count",
          Serve ? Srv["blocks_built"] : D(P.Decode.BlocksBuilt));
  Rep.add("vm.block_invalidations", "count",
          Serve ? Srv["block_invalidations"] : D(P.Decode.Invalidations));
  Rep.add("vm.flushed_bytes", "bytes",
          Serve ? Srv["flushed_bytes"] : D(P.Vm.FlushedBytes));
  Rep.add("runtime.heap_recycles", "count", Srv["heap_recycles"]);
  Rep.add("runtime.rebuild_ms", "ms", machineBuildMs(Rn.C->Def, 5), 5);
  Rep.pct("service.latency_us.p50", Plain.SvcUs, 0.50);
  Rep.pct("service.latency_us.p99", Plain.SvcUs, 0.99);
  Rep.add("service.cache_hit_ratio", "ratio",
          ratio(Srv["cache_hits"], Srv["cache_hits"] + Srv["cache_misses"]));
  Rep.add("service.gen_runs_per_req", "ratio",
          ratio(Srv["gen_runs"], Srv["served"]));
  Rep.add("service.admission_rejects", "count", Srv["admission_rejects"]);
  Rep.add("service.evictions", "count", Srv["evictions"]);
  Rep.add("service.invalidated", "count", Srv["invalidated"]);
  Rep.add("service.compactions", "count", Srv["compactions"]);
  Rep.add("service.compact_kept_ratio", "ratio",
          ratio(Srv["compact_kept"],
                Srv["compact_kept"] + Srv["compact_dropped"]));
  Rep.add("service.coalesced_ratio", "ratio",
          ratio(Srv["coalesced"], Srv["served"]));
  Rep.add("service.queue_high_water", "count", D(After.QueueHighWater));
  Rep.add("service.busy_cycles_max", "cycles", Srv["busy_cycles_max"]);
  Rep.add("service.shed", "count", Srv["shed"]);
  Rep.add("service.deadline_misses", "count", Srv["deadline_misses"]);
  Rep.add("service.retried", "count", Srv["retried"]);
  Rep.add("net.encode_ns", "ns", EncNs);
  Rep.add("net.decode_ns", "ns", DecNs);
  Rep.pct("net.ping_rtt_us.p50", PingUs, 0.50);
  Rep.add("net.wire_overhead_us", "us",
          percentile(Plain.RttUs, 0.5).Value -
              percentile(Plain.SvcUs, 0.5).Value,
          Plain.RttUs.size());
  Rep.add("net.frames_per_read", "ratio",
          ratio(Srv["frames_in"], Srv["read_batches"]));
  Rep.add("net.events_per_wakeup", "ratio",
          ratio(Srv["events"], Srv["wakeups"]));
  Rep.add("net.write_stalls", "count", Srv["write_stalls"]);
  Rep.add("net.cap_rejects", "count", Srv["cap_rejects"]);
  Rep.add("net.errors_out", "count", Srv["errors_out"]);
  Rep.pct("gen.lateness_us.p99", Nom.LateUs, 0.99);
  Rep.add("gen.samples", "count", D(Nom.LatUs.size()));
  Rep.add("bench.trace_overhead_pct", "%",
          100 * ratio(median(TracedS) - median(PlainS), median(PlainS)));
  Rep.add("error_ratio", "ratio",
          ratio(D(Rn.Total.Failed), D(Rn.Total.Attempted)));
}

} // namespace

int main(int Argc, char **Argv) {
  const uint64_t ProcStartNs = nowNs();
  Cli Opt;
  if (!parseCli(Argc, Argv, Opt)) {
    std::fprintf(stderr,
                 "usage: fabbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--spans DIR]\n");
    return 2;
  }
  const auto &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), Opt.Workload) == Names.end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 Opt.Workload.c_str());
    return 2;
  }
  // The open-loop sender sleeps in ppoll(); default timer slack (50us)
  // would show as sender lateness.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  Run Rn(Opt);
  Report Rep(Opt.Tiny);
  if (Opt.Trace)
    perLayer(Rn, Rep);
  else
    endToEnd(Rn, ProcStartNs, Rep);
  Rn.teardown();

  if (Rn.Total.Failed)
    Rn.fail(std::to_string(Rn.Total.Failed) + " of " +
            std::to_string(Rn.Total.Attempted) + " operations failed (" +
            std::to_string(Rn.Total.Mismatches) + " oracle mismatches)");
  if (!Rep.shortOf().empty())
    Rn.fail("fewer than 10 samples beyond " + Rep.shortOf());
  Rep.print(Rn.Correct, Rn.Total.Attempted, Rn.Total.Failed);
  return 0;
}
