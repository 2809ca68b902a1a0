//===- telemetry_test.cpp - Telemetry subsystem tests ---------------------===//
//
// The telemetry subsystem's contract: lifecycle events appear in order
// with correct epoch stamps, the ring drops oldest-first at capacity,
// the disabled path records nothing, TelemetrySnapshot agrees with the
// VM's and the machine's own accessors on every benchmark workload, the
// typed invoke<T> surface decodes each return type, the exporters emit
// well-formed output, and a multi-worker pool aggregates into one
// snapshot. See docs/TELEMETRY.md.
//
//===----------------------------------------------------------------------===//

#include "WorkloadDrivers.h"

#include "bpf/Bpf.h"
#include "service/SpecServer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>

using namespace fab;
using namespace fab::workloads;
using fab::telemetry::EventKind;
using fab::telemetry::TraceEvent;

namespace {

const char *SimpleSrc = "fun f (k : int) (x : int) = x * k + k";

/// Self calls in both arms of a late conditional: exponential emission,
/// guaranteed to trip the code-space guard (as in fault_injection_test).
const char *ScanSrc =
    "fun scan (v : int vector, i, n) (best : int) ="
    " if i = n then best"
    " else if (v sub i) < best then scan (v, i + 1, n) (v sub i)"
    " else scan (v, i + 1, n) (best)";

VmOptions tracing(uint32_t Capacity = 4096) {
  VmOptions VO;
  VO.EnableTrace = true;
  VO.TraceCapacity = Capacity;
  return VO;
}

/// The events of \p Evs whose kind is in \p Kinds, in order.
std::vector<TraceEvent> ofKinds(const std::vector<TraceEvent> &Evs,
                                std::initializer_list<EventKind> Kinds) {
  std::vector<TraceEvent> Out;
  for (const TraceEvent &E : Evs)
    if (std::find(Kinds.begin(), Kinds.end(), E.Kind) != Kinds.end())
      Out.push_back(E);
  return Out;
}

size_t countKind(const std::vector<TraceEvent> &Evs, EventKind K) {
  return static_cast<size_t>(
      std::count_if(Evs.begin(), Evs.end(),
                    [K](const TraceEvent &E) { return E.Kind == K; }));
}

} // namespace

//===----------------------------------------------------------------------===//
// Event ordering and epoch stamps
//===----------------------------------------------------------------------===//

TEST(TelemetryTrace, SpecializeLifecycleOrderingAcrossEpochs) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  Machine M(C.Unit, tracing());
  uint32_t S1 = M.specializeOrDie("f", {7});
  EXPECT_EQ(M.specializeOrDie("f", {7}), S1); // memo hit
  M.resetCodeSpace();
  M.specializeOrDie("f", {7}); // epoch 1: fresh emission

  std::vector<TraceEvent> Evs = ofKinds(
      M.trace().snapshot(),
      {EventKind::SpecializeBegin, EventKind::SpecializeEnd,
       EventKind::MemoHit, EventKind::MemoMiss, EventKind::CodeSpaceReset});
  const EventKind Expected[] = {
      EventKind::SpecializeBegin, EventKind::MemoMiss,
      EventKind::SpecializeEnd,   EventKind::SpecializeBegin,
      EventKind::MemoHit,         EventKind::SpecializeEnd,
      EventKind::CodeSpaceReset,  EventKind::SpecializeBegin,
      EventKind::MemoMiss,        EventKind::SpecializeEnd,
  };
  ASSERT_EQ(Evs.size(), std::size(Expected));
  for (size_t I = 0; I < Evs.size(); ++I)
    EXPECT_EQ(Evs[I].Kind, Expected[I]) << "event " << I;

  // Epochs: everything before the reset is epoch 0; the reset event
  // carries the epoch it opens, as does everything after it.
  for (size_t I = 0; I < 6; ++I)
    EXPECT_EQ(Evs[I].Epoch, 0u) << "event " << I;
  for (size_t I = 6; I < Evs.size(); ++I)
    EXPECT_EQ(Evs[I].Epoch, 1u) << "event " << I;

  // Names resolve through the process-wide interner.
  EXPECT_EQ(telemetry::internedName(Evs[0].Name), "f");
  EXPECT_EQ(telemetry::internedName(Evs[4].Name), "f");

  // Addresses and payloads: the first emission reports its code address
  // and a nonzero word count; the memo hit reports the same address with
  // no emission; the reset reports the bytes it reclaimed.
  EXPECT_EQ(Evs[2].Arg0, S1);
  EXPECT_GT(Evs[2].Arg1, 0u);
  EXPECT_EQ(Evs[4].Arg0, S1);
  EXPECT_EQ(Evs[5].Arg1, 0u);
  EXPECT_GT(Evs[6].Arg0, 0u);

  // Both stamps are monotone over the whole ring, not just this subset.
  std::vector<TraceEvent> All = M.trace().snapshot();
  for (size_t I = 1; I < All.size(); ++I) {
    EXPECT_GE(All[I].SimInstr, All[I - 1].SimInstr) << "event " << I;
    EXPECT_GE(All[I].TimeNs, All[I - 1].TimeNs) << "event " << I;
  }
}

TEST(TelemetryTrace, RingDropsOldestAtCapacity) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  Machine M(C.Unit, tracing(/*Capacity=*/4));
  for (uint32_t K = 1; K <= 4; ++K)
    M.specializeOrDie("f", {K}); // >= 3 events each

  const auto &Ring = M.trace();
  EXPECT_EQ(Ring.capacity(), 4u);
  EXPECT_EQ(Ring.size(), 4u);
  EXPECT_GT(Ring.recorded(), 4u);
  EXPECT_EQ(Ring.dropped(), Ring.recorded() - 4);

  // What survives is the newest tail, still in order.
  std::vector<TraceEvent> Evs = M.trace().snapshot();
  ASSERT_EQ(Evs.size(), 4u);
  for (size_t I = 1; I < Evs.size(); ++I)
    EXPECT_GE(Evs[I].SimInstr, Evs[I - 1].SimInstr);
  EXPECT_EQ(Evs.back().Kind, EventKind::SpecializeEnd);

  // The counters surface through the snapshot too.
  TelemetrySnapshot T = M.telemetry();
  EXPECT_EQ(T.TraceRecorded, Ring.recorded());
  EXPECT_EQ(T.TraceDropped, Ring.dropped());
}

TEST(TelemetryTrace, DisabledPathRecordsNothing) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  Machine M(C.Unit); // default VmOptions: tracing off
  uint32_t Spec = M.specializeOrDie("f", {7});
  EXPECT_EQ(M.invokeOrDie<int32_t>(Spec, {100}), 707);
  M.resetCodeSpace();
  M.specializeOrDie("f", {8});

  EXPECT_FALSE(M.trace().enabled());
  EXPECT_EQ(M.trace().size(), 0u);
  EXPECT_EQ(M.trace().recorded(), 0u);
  EXPECT_EQ(M.telemetry().TraceRecorded, 0u);
}

TEST(TelemetryTrace, FabTraceEnvVetoesEnableTrace) {
  ::setenv("FAB_TRACE", "0", 1);
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  Machine M(C.Unit, tracing());
  ::unsetenv("FAB_TRACE");
  M.specializeOrDie("f", {7});
  EXPECT_FALSE(M.trace().enabled());
  EXPECT_EQ(M.trace().recorded(), 0u);
}

TEST(TelemetryTrace, SetTraceEnabledFlipsALiveMachine) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  Machine M(C.Unit); // off at construction
  M.specializeOrDie("f", {1});
  EXPECT_EQ(M.trace().recorded(), 0u);
  M.setTraceEnabled(true);
  M.specializeOrDie("f", {2});
  EXPECT_GT(M.trace().recorded(), 0u);
  uint64_t Mark = M.trace().recorded();
  M.setTraceEnabled(false);
  M.specializeOrDie("f", {3});
  EXPECT_EQ(M.trace().recorded(), Mark);
}

//===----------------------------------------------------------------------===//
// Engine and recovery events
//===----------------------------------------------------------------------===//

TEST(TelemetryTrace, BlockBuildEventsFollowDecodeCache) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  Machine M(C.Unit, tracing());
  uint32_t Spec = M.specializeOrDie("f", {7});
  M.invokeOrDie<int32_t>(Spec, {100});
  std::vector<TraceEvent> Evs = M.trace().snapshot();
  size_t Builds = countKind(Evs, EventKind::BlockBuild);
  if (M.vm().decodeCacheEnabled()) {
    EXPECT_GT(Builds, 0u);
    EXPECT_EQ(Builds, M.vm().decodeCacheStats().BlocksBuilt);
  } else {
    // Reference-interpreter run (FAB_DECODE_CACHE=0): no block events.
    EXPECT_EQ(Builds, 0u);
    EXPECT_EQ(countKind(Evs, EventKind::BlockInvalidate), 0u);
  }
}

TEST(TelemetryTrace, TemplateFlushRecordedOnTemplateWorkload) {
  // The member workload is the canonical template-burst beneficiary
  // (emit_template_test asserts its pool is non-empty).
  FabiusOptions Opts;
  Opts.Backend = deferredOptionsFor(MemberSrc);
  Compilation C = compileOrDie(MemberSrc, Opts);
  ASSERT_GT(C.Unit.TemplateData.size(), 0u);
  Machine M(C.Unit, tracing());
  std::vector<int32_t> Elems;
  for (int32_t I = 0; I < 64; ++I)
    Elems.push_back(I * 7);
  uint32_t S = buildISet(M, Elems);
  EXPECT_EQ(M.invokeOrDie<int32_t>("member", {S, 7 * 13}), 1);

  std::vector<TraceEvent> Evs = M.trace().snapshot();
  uint64_t WordsCopied = 0;
  for (const TraceEvent &E : Evs)
    if (E.Kind == EventKind::TemplateFlush)
      WordsCopied += E.Arg1;
  EXPECT_GT(countKind(Evs, EventKind::TemplateFlush), 0u);
  // Coalescing must not lose words: far fewer events than words copied,
  // but the per-event counts still add up to a real copy volume.
  EXPECT_GT(WordsCopied, countKind(Evs, EventKind::TemplateFlush));
}

TEST(TelemetryTrace, GuardTripAndResetRecordedOnInjectedPressure) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  Machine M(C.Unit, tracing());
  FaultInjector FI;
  FI.Armed = true;
  FI.AfterInstructions = 3;
  FI.Kind = Fault::CodeSpaceExhausted;
  M.vm().injectFault(FI);

  uint32_t Spec = M.specializeOrDie("f", {9}); // recovered transparently
  EXPECT_EQ(M.invokeOrDie<int32_t>(Spec, {10}), 99);
  EXPECT_EQ(M.telemetry().Recovery.FaultResets, 1u);

  std::vector<TraceEvent> Evs = M.trace().snapshot();
  EXPECT_EQ(countKind(Evs, EventKind::CodeGuardTrip), 1u);
  EXPECT_EQ(countKind(Evs, EventKind::CodeSpaceReset), 1u);
  // The trip precedes the reset that cures it.
  auto Trip = std::find_if(Evs.begin(), Evs.end(), [](const TraceEvent &E) {
    return E.Kind == EventKind::CodeGuardTrip;
  });
  auto Reset = std::find_if(Evs.begin(), Evs.end(), [](const TraceEvent &E) {
    return E.Kind == EventKind::CodeSpaceReset;
  });
  EXPECT_LT(Trip - Evs.begin(), Reset - Evs.begin());
}

TEST(TelemetryTrace, GuardTripsRecordedOnUnrecoveredPressure) {
  FabiusOptions Opts = FabiusOptions::deferred();
  Opts.Backend.CodeSpaceGuardMargin = layout::DynCodeBytes - 0x8000;
  Compilation C = compileOrDie(ScanSrc, Opts);
  Machine M(C.Unit, tracing(/*Capacity=*/1u << 16));

  std::vector<int32_t> V(64, 5);
  V[40] = 2;
  uint32_t Vv = M.heap().vector(V);
  FabResult<int32_t> R = M.invoke<int32_t>("scan", {Vv, 0, 64, 1000});
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().Code, FabErrc::CodeSpaceExhausted);

  // The first trip, its reset, the retry's trip and the final reset,
  // which leaves the segment empty for the next operation.
  std::vector<TraceEvent> Evs = M.trace().snapshot();
  EXPECT_EQ(countKind(Evs, EventKind::CodeGuardTrip), 2u);
  EXPECT_EQ(countKind(Evs, EventKind::CodeSpaceReset), 2u);
  EXPECT_EQ(M.telemetry().Recovery.FaultResets, 2u);
  EXPECT_EQ(M.codeSpaceUsed(), 0u);
}

//===----------------------------------------------------------------------===//
// TelemetrySnapshot vs the machine's own accessors, on every workload
//===----------------------------------------------------------------------===//

TEST(TelemetrySnapshotTest, MatchesMachineAccessorsOnEveryWorkload) {
  for (const test_drivers::WorkloadDriver &W :
       test_drivers::allWorkloadDrivers()) {
    SCOPED_TRACE(W.Name);
    FabiusOptions Opts;
    Opts.Backend = deferredOptionsFor(W.Src);
    Compilation C = compileOrDie(W.Src, Opts);
    Machine M(C.Unit);
    // Host-side specializations on top of the driver so the memo block
    // and entry profiles are non-trivial for at least some workloads.
    W.Drive(M);
    TelemetrySnapshot T = M.telemetry();

    const VmStats &V = M.vm().stats();
    EXPECT_EQ(T.Vm.Executed, V.Executed);
    EXPECT_EQ(T.Vm.ExecutedStatic, V.ExecutedStatic);
    EXPECT_EQ(T.Vm.ExecutedDynamic, V.ExecutedDynamic);
    EXPECT_EQ(T.Vm.Loads, V.Loads);
    EXPECT_EQ(T.Vm.Stores, V.Stores);
    EXPECT_EQ(T.Vm.DynWordsWritten, V.DynWordsWritten);
    EXPECT_EQ(T.Vm.Cycles, V.Cycles);

    const DecodeCacheStats &D = M.vm().decodeCacheStats();
    EXPECT_EQ(T.DecodeCache.BlocksBuilt, D.BlocksBuilt);
    EXPECT_EQ(T.DecodeCache.BlockRuns, D.BlockRuns);
    EXPECT_EQ(T.DecodeCache.FastInsts, D.FastInsts);
    EXPECT_EQ(T.DecodeCache.SlowInsts, D.SlowInsts);
    EXPECT_EQ(T.DecodeCache.Invalidations, D.Invalidations);

    EXPECT_EQ(T.CodeEpoch, M.codeEpoch());
    EXPECT_EQ(T.SpecializationsLive, M.specializationsLive());
    EXPECT_EQ(T.CodeSpaceUsed, M.codeSpaceUsed());

    // Entry profiles are sorted and their specialization columns sum
    // back to the machine-wide memo counters exactly.
    EXPECT_TRUE(std::is_sorted(
        T.Entries.begin(), T.Entries.end(),
        [](const EntryPointProfile &A, const EntryPointProfile &B) {
          return A.Fn < B.Fn;
        }));
    uint64_t Specs = 0, Hits = 0, Dyn = 0, Gen = 0;
    for (const EntryPointProfile &P : T.Entries) {
      Specs += P.Specializations;
      Hits += P.MemoHits;
      Dyn += P.DynWords;
      Gen += P.GenInstrs;
    }
    EXPECT_EQ(Specs, T.Memo.GeneratorRuns);
    EXPECT_EQ(Hits, T.Memo.MemoHits);
    EXPECT_EQ(Dyn, T.Memo.GenDynWords);
    EXPECT_EQ(Gen, T.Memo.GenExecuted);
  }
}

TEST(TelemetrySnapshotTest, EntryProfilesAttributeSpecializeAndCalls) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t S1 = M.specializeOrDie("f", {7});
  M.specializeOrDie("f", {7}); // memo hit
  M.invokeOrDie<int32_t>(S1, {1});
  M.invokeOrDie<int32_t>(S1, {2});
  M.invokeOrDie<int32_t>("f", {3, 4});

  TelemetrySnapshot T = M.telemetry();
  ASSERT_EQ(T.Entries.size(), 1u);
  const EntryPointProfile &P = T.Entries[0];
  EXPECT_EQ(P.Fn, "f");
  EXPECT_EQ(P.Specializations, 2u);
  EXPECT_EQ(P.MemoHits, 1u);
  EXPECT_GT(P.DynWords, 0u);
  EXPECT_GT(P.GenInstrs, 0u);
  // Two calls through the specialized address plus one by name.
  EXPECT_EQ(P.Calls, 3u);
}

//===----------------------------------------------------------------------===//
// The typed invoke<T> surface
//===----------------------------------------------------------------------===//

TEST(InvokeSurface, TypedInvokeByNameAndAddress) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  Machine M(C.Unit);
  EXPECT_EQ(M.invokeOrDie<int32_t>("f", {7, 100}), 707);
  EXPECT_EQ(M.invokeOrDie<int32_t>("f", {7, static_cast<uint32_t>(-100)}),
            -693);
  EXPECT_EQ(M.invokeOrDie<uint32_t>("f", {7, 100}), 707u);

  uint32_t Spec = M.specializeOrDie("f", {7});
  EXPECT_EQ(M.invokeOrDie<int32_t>(Spec, {100}), 707);
  EXPECT_EQ(M.invokeOrDie<uint32_t>(Spec, {100}), 707u);
}

TEST(InvokeSurface, FloatDecoding) {
  Compilation C = compileOrDie("fun g (x : real) = x * 2.5 + 1.0",
                               FabiusOptions::plain());
  Machine M(C.Unit);
  const uint32_t Four = std::bit_cast<uint32_t>(4.0f);
  EXPECT_FLOAT_EQ(M.invokeOrDie<float>("g", {Four}), 11.0f);
  EXPECT_EQ(M.invokeOrDie<uint32_t>("g", {Four}),
            std::bit_cast<uint32_t>(11.0f));
}

TEST(InvokeSurface, UnknownNameReportsStructuredError) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  Machine M(C.Unit);
  FabResult<int32_t> R = M.invoke<int32_t>("nope", {1});
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().Code, FabErrc::UnknownFunction);
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

TEST(TelemetryExport, TextDumpCoversEveryBlock) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  Machine M(C.Unit);
  M.specializeOrDie("f", {7});
  std::string Text = M.telemetry().text();
  for (const char *Needle :
       {"fab.vm.executed ", "fab.vm.dyn_words_written ",
        "fab.memo.generator_runs 1", "fab.recovery.fault_resets ",
        "fab.decode_cache.blocks_built ", "fab.machine.code_epoch 0",
        "fab.entry.f.specializations 1"})
    EXPECT_NE(Text.find(Needle), std::string::npos) << Needle;
  // No pool: the server block is omitted entirely.
  EXPECT_EQ(Text.find("fab.server."), std::string::npos);
}

TEST(TelemetryExport, ChromeTraceIsWellFormed) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  Machine M(C.Unit, tracing());
  uint32_t Spec = M.specializeOrDie("f", {7});
  M.invokeOrDie<int32_t>(Spec, {100});

  std::ostringstream OS;
  telemetry::TraceTrack Tk;
  Tk.Tid = 0;
  Tk.Label = "machine";
  Tk.Events = M.trace().snapshot();
  telemetry::writeChromeTrace(OS, {Tk});
  std::string Json = OS.str();

  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("thread_name"), std::string::npos);
  EXPECT_NE(Json.find("specialize:f"), std::string::npos);
  // Duration events come in matched begin/end pairs.
  auto count = [&](const char *S) {
    size_t N = 0;
    for (size_t P = Json.find(S); P != std::string::npos;
         P = Json.find(S, P + 1))
      ++N;
    return N;
  };
  EXPECT_EQ(count("\"ph\":\"B\""), count("\"ph\":\"E\""));
  EXPECT_GT(count("\"ph\":\"B\""), 0u);
}

//===----------------------------------------------------------------------===//
// Service-level aggregation
//===----------------------------------------------------------------------===//

TEST(ServiceTelemetry, MultiWorkerAggregateAndWorkerEvents) {
  using namespace fab::service;
  Compilation C =
      compileOrDie(workloads::MatmulSrc, FabiusOptions::deferred());

  ServerOptions SO;
  SO.Pool.Workers = 4;
  // No host-side cache: every request is served individually, so the
  // served count below is exact.
  SO.Pool.EnableCache = false;
  SO.Pool.Vm.EnableTrace = true;

  const size_t N = 40;
  const uint32_t Len = 16;
  {
    SpecServer S(C, SO);
    Rng R(5);
    std::vector<std::future<FabResult<int32_t>>> Futures;
    std::vector<int32_t> Oracles;
    for (size_t I = 0; I < N; ++I) {
      std::vector<int32_t> Row(Len), Col(Len);
      int32_t Dot = 0;
      for (uint32_t J = 0; J < Len; ++J) {
        Row[J] = static_cast<int32_t>(R.next() % 50) - 10;
        Col[J] = static_cast<int32_t>(R.next() % 50) - 10;
        Dot += Row[J] * Col[J];
      }
      Oracles.push_back(Dot);
      Futures.push_back(S.submit(
          "dotloop",
          {Value::ofVec(Row), Value::ofInt(0),
           Value::ofInt(static_cast<int32_t>(Len))},
          {Value::ofVec(Col), Value::ofInt(0)}));
    }
    for (size_t I = 0; I < N; ++I) {
      FabResult<int32_t> Res = Futures[I].get();
      ASSERT_TRUE(Res.ok()) << "request " << I;
      EXPECT_EQ(*Res, Oracles[I]) << "request " << I;
    }
    S.shutdown();

    TelemetrySnapshot T = S.telemetry();
    EXPECT_EQ(T.Workers, 4u);
    EXPECT_EQ(T.Submitted, N);
    EXPECT_EQ(T.Served, N);
    EXPECT_EQ(T.Errors, 0u);
    EXPECT_GT(T.Vm.Executed, 0u);
    EXPECT_GT(T.Memo.GeneratorRuns, 0u);
    // Entry profiles merged across workers: every request was a dotloop
    // call.
    uint64_t Calls = 0;
    for (const EntryPointProfile &P : T.Entries) {
      EXPECT_EQ(P.Fn, "dotloop");
      Calls += P.Calls;
    }
    EXPECT_EQ(Calls, N);

    // Worker lifecycle events: one begin and one successful complete per
    // request, spread across the per-worker rings.
    size_t Begins = 0, Completes = 0;
    for (unsigned W = 0; W < S.workers(); ++W) {
      std::vector<TraceEvent> Evs = S.drainWorkerTrace(W);
      for (const TraceEvent &E : Evs) {
        if (E.Kind == EventKind::WorkerBegin) {
          ++Begins;
          EXPECT_EQ(telemetry::internedName(E.Name), "dotloop");
        } else if (E.Kind == EventKind::WorkerComplete) {
          ++Completes;
          EXPECT_EQ(E.Arg0, 1u);
        }
      }
    }
    EXPECT_EQ(Begins, N);
    EXPECT_EQ(Completes, N);
  }
}

TEST(ServiceTelemetry, ReporterEmitsFinalSnapshotOnShutdown) {
  using namespace fab::service;
  Compilation C =
      compileOrDie(workloads::MatmulSrc, FabiusOptions::deferred());
  ServerOptions SO;
  SO.Pool.Workers = 2;
  SO.ReportIntervalMs = 3600 * 1000; // never fires on its own
  std::vector<TelemetrySnapshot> Reports;
  std::mutex ReportsMutex;
  SO.ReportSink = [&](const TelemetrySnapshot &T) {
    std::lock_guard<std::mutex> L(ReportsMutex);
    Reports.push_back(T);
  };
  {
    SpecServer S(C, SO);
    std::vector<int32_t> Row(8, 2), Col(8, 3);
    FabResult<int32_t> R =
        S.call("dotloop",
               {Value::ofVec(Row), Value::ofInt(0), Value::ofInt(8)},
               {Value::ofVec(Col), Value::ofInt(0)});
    ASSERT_TRUE(R.ok());
    EXPECT_EQ(*R, 8 * 2 * 3);
    S.shutdown();
  }
  // Shutdown guarantees one final complete report even though the
  // interval never elapsed.
  ASSERT_GE(Reports.size(), 1u);
  const TelemetrySnapshot &Last = Reports.back();
  EXPECT_EQ(Last.Served, 1u);
  EXPECT_EQ(Last.Workers, 2u);
  EXPECT_FALSE(Last.summaryLine().empty());
}
