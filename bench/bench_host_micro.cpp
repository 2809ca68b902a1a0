//===- bench_host_micro.cpp - Host-side microbenchmarks -------------------===//
//
// Google-benchmark measurements of the *host* cost of this reproduction:
// simulator dispatch rate, compilation pipeline throughput, and
// specialization throughput. These are infrastructure numbers (how fast
// the reproduction itself runs), not paper results.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/Fabius.h"
#include "workloads/Inputs.h"
#include "workloads/MlPrograms.h"

#include <benchmark/benchmark.h>

#include <memory>

using namespace fab;
using namespace fab::workloads;

namespace {

void dispatchLoop(benchmark::State &State, const VmOptions &VmOpts) {
  Compilation C = compileOrDie(
      "fun loop (i, n, acc) = if i = n then acc else loop (i + 1, n, acc + i)",
      FabiusOptions::plain());
  Machine M(C.Unit, VmOpts);
  uint64_t Instrs = 0;
  for (auto _ : State) {
    VmStats Before = M.vm().stats();
    benchmark::DoNotOptimize(M.invokeOrDie<int32_t>("loop", {0, 100000, 0}));
    Instrs += (M.vm().stats() - Before).Executed;
  }
  State.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(Instrs), benchmark::Counter::kIsRate);
}

void BM_VmDispatch(benchmark::State &State) { dispatchLoop(State, {}); }
BENCHMARK(BM_VmDispatch);

/// The reference interpreter (predecoded-block engine off): the ratio to
/// BM_VmDispatch is the engine's host-side speedup on hot loops.
void BM_VmDispatchNoCache(benchmark::State &State) {
  VmOptions VmOpts;
  VmOpts.EnableDecodeCache = false;
  dispatchLoop(State, VmOpts);
}
BENCHMARK(BM_VmDispatchNoCache);

/// Dispatch with lifecycle tracing armed: the delta to BM_VmDispatch is
/// the whole-run cost of the telemetry hooks when events actually fire,
/// while BM_VmDispatch itself measures the disabled path (one predicted
/// branch per hook site). CI gates on the disabled path only.
void BM_VmDispatchTraced(benchmark::State &State) {
  VmOptions VmOpts;
  VmOpts.EnableTrace = true;
  dispatchLoop(State, VmOpts);
}
BENCHMARK(BM_VmDispatchTraced);

void BM_CompilePipelinePlain(benchmark::State &State) {
  for (auto _ : State) {
    Compilation C = compileOrDie(MatmulSrc, FabiusOptions::plain());
    benchmark::DoNotOptimize(C.Unit.Code.data());
  }
}
BENCHMARK(BM_CompilePipelinePlain);

void BM_CompilePipelineDeferred(benchmark::State &State) {
  FabiusOptions Opts;
  Opts.Backend = deferredOptionsFor(MatmulSrc);
  for (auto _ : State) {
    Compilation C = compileOrDie(MatmulSrc, Opts);
    benchmark::DoNotOptimize(C.Unit.Code.data());
  }
}
BENCHMARK(BM_CompilePipelineDeferred);

void BM_SpecializeDotprod(benchmark::State &State) {
  FabiusOptions Opts;
  Opts.Backend = deferredOptionsFor(MatmulSrc);
  Compilation C = compileOrDie(MatmulSrc, Opts);
  auto M = std::make_unique<Machine>(C.Unit);
  Rng R(1);
  std::vector<int32_t> Row(64);
  for (auto &V : Row)
    V = static_cast<int32_t>(R.below(1000));
  uint64_t Specs = 0;
  for (auto _ : State) {
    // Fresh vector per iteration: a new early key, so a new specialization.
    uint32_t V = M->heap().vector(Row);
    benchmark::DoNotOptimize(M->specialize("dotloop", {V, 0, 64}));
    if (++Specs > 1800) { // stay below the memo capacity
      State.PauseTiming();
      M = std::make_unique<Machine>(C.Unit);
      Specs = 0;
      State.ResumeTiming();
    }
  }
}
BENCHMARK(BM_SpecializeDotprod);

/// Console output as usual, plus every finished run's rate counters and
/// wall time folded into the shared BenchReport so host numbers land in
/// BENCH_host_micro.json alongside the figure benches' simulated cycles.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
public:
  void ReportRuns(const std::vector<Run> &Reports) override {
    for (const Run &R : Reports) {
      const std::string Name = R.benchmark_name();
      bench::reportMetric(Name + ".real_time_ns", R.GetAdjustedRealTime(),
                          "ns");
      for (const auto &[CounterName, C] : R.counters)
        bench::reportMetric(Name + "." + CounterName, C.value);
    }
    ConsoleReporter::ReportRuns(Reports);
  }
};

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  JsonCapturingReporter Reporter;
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  bench::writeBenchJson("host_micro");
  return 0;
}
