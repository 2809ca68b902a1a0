//===- fault_injection_test.cpp - Fault-tolerant runtime tests ------------===//
//
// Exercises the structured-error surface of the Machine facade using the
// VM's deterministic fault injector, plus the organic failure paths: fuel
// exhaustion mid-generation, code-space pressure with automatic reset and
// retry, degradation to the Plain fall-back image, and the VM's hard bound
// on dynamic-code emission at the segment boundary.
//
//===----------------------------------------------------------------------===//

#include "core/Fabius.h"

#include "asmkit/Assembler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

using namespace fab;

namespace {

const char *SimpleSrc = "fun f (k : int) (x : int) = x * k + k";

const char *DotSrc =
    "fun loop (v1 : int vector, i, n) (v2 : int vector, sum) ="
    " if i = n then sum"
    " else loop (v1, i + 1, n) (v2, sum + (v1 sub i) * (v2 sub i))";

/// Self calls in both arms of a late conditional: exponential emission,
/// guaranteed to hit the code-space guard (the paper's over-specialization
/// hazard). Staged groups (v, i, n)(best); plain/wrapper arity is 4.
const char *ScanSrc =
    "fun scan (v : int vector, i, n) (best : int) ="
    " if i = n then best"
    " else if (v sub i) < best then scan (v, i + 1, n) (v sub i)"
    " else scan (v, i + 1, n) (best)";

CodeSpacePolicy noRecovery() {
  CodeSpacePolicy P;
  P.AutoReset = false;
  P.FallBackToPlain = false;
  return P;
}

} // namespace

//===----------------------------------------------------------------------===//
// Injection sweep: every Fault kind surfaces as a structured error
//===----------------------------------------------------------------------===//

TEST(FaultInjection, EveryFaultKindSurfacesThroughSpecialize) {
  const Fault Kinds[] = {
      Fault::BadFetch,         Fault::BadAccess,
      Fault::BadInstruction,   Fault::DivideByZero,
      Fault::IcacheIncoherent, Fault::ProgramTrap,
      Fault::CodeSpaceExhausted,
  };
  for (Fault Kind : Kinds) {
    Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
    Machine M(C.Unit);
    M.setPolicy(noRecovery()); // observe the raw fault, no auto-retry

    FaultInjector FI;
    FI.Armed = true;
    FI.AfterInstructions = 3;
    FI.Kind = Kind;
    if (Kind == Fault::ProgramTrap)
      FI.TrapValue = static_cast<uint32_t>(TrapCode::Bounds);
    M.vm().injectFault(FI);

    FabResult<uint32_t> S = M.specialize("f", {7});
    ASSERT_FALSE(S.ok()) << "injected " << static_cast<int>(Kind);
    const FabError &E = S.error();
    EXPECT_EQ(E.Exec.Reason, StopReason::Trapped);
    EXPECT_EQ(E.Exec.FaultKind, Kind);
    EXPECT_EQ(E.Code, Kind == Fault::CodeSpaceExhausted
                          ? FabErrc::CodeSpaceExhausted
                          : FabErrc::Trapped);
    EXPECT_EQ(E.Fn, "f");
    EXPECT_FALSE(E.message().empty());

    // One-shot: the injector disarmed itself; after an explicit reset
    // (no auto-recovery in this test) the machine works again.
    M.resetCodeSpace();
    uint32_t Spec = M.specializeOrDie("f", {7});
    EXPECT_EQ(M.invokeOrDie<int32_t>(Spec, {100}), 707);
  }
}

TEST(FaultInjection, InjectedFuelExhaustionReportsOutOfFuel) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  Machine M(C.Unit);
  FaultInjector FI;
  FI.Armed = true;
  FI.AfterInstructions = 10;
  FI.Reason = StopReason::OutOfFuel;
  M.vm().injectFault(FI);

  FabResult<uint32_t> S = M.specialize("f", {3});
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.error().Code, FabErrc::OutOfFuel);
  EXPECT_EQ(S.error().Exec.Reason, StopReason::OutOfFuel);
}

TEST(FaultInjection, AtPcTriggersAtGeneratorEntry) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  Machine M(C.Unit);
  M.setPolicy(noRecovery());
  uint32_t Gen = C.Unit.genAddr("f");
  FaultInjector FI;
  FI.Armed = true;
  FI.AtPc = Gen;
  FI.Kind = Fault::BadAccess;
  M.vm().injectFault(FI);

  FabResult<uint32_t> S = M.specialize("f", {3});
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.error().Exec.FaultPc, Gen);
  EXPECT_EQ(S.error().Exec.FaultKind, Fault::BadAccess);
}

TEST(FaultInjection, InjectedPressureIsTransparentlyRecovered) {
  // A one-shot injected code-space fault with the default policy: the
  // machine resets, retries, and the caller sees only success.
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  Machine M(C.Unit);
  FaultInjector FI;
  FI.Armed = true;
  FI.AfterInstructions = 3;
  FI.Kind = Fault::CodeSpaceExhausted;
  M.vm().injectFault(FI);

  uint32_t Spec = M.specializeOrDie("f", {9});
  EXPECT_EQ(M.invokeOrDie<int32_t>(Spec, {10}), 99);
  EXPECT_EQ(M.telemetry().Recovery.FaultResets, 1u);
  EXPECT_EQ(M.telemetry().Recovery.RecoveredRetries, 1u);
  EXPECT_EQ(M.telemetry().Recovery.GeneratorFaults, 0u);
}

//===----------------------------------------------------------------------===//
// Structured errors without injection
//===----------------------------------------------------------------------===//

TEST(StructuredErrors, UnknownFunction) {
  Compilation C = compileOrDie(SimpleSrc, FabiusOptions::deferred());
  Machine M(C.Unit);
  FabResult<int32_t> R = M.invoke<int32_t>("nope", {1, 2});
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().Code, FabErrc::UnknownFunction);
  FabResult<uint32_t> S = M.specialize("nope", {1});
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.error().Code, FabErrc::UnknownFunction);
}

TEST(StructuredErrors, GeneratedCodeTrapReportsWithoutManualRepair) {
  // A bounds trap in *specialized* code: reported as Trapped, stack
  // re-seated, no degradation accounting (the fault is the program's).
  Compilation C = compileOrDie("fun f (v : int vector) (i : int) = v sub i",
                               FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t V = M.heap().vector({1, 2, 3});
  uint32_t Spec = M.specializeOrDie("f", {V});
  FabResult<int32_t> R = M.invoke<int32_t>(Spec, {99});
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().Code, FabErrc::Trapped);
  EXPECT_EQ(R.error().Exec.TrapValue, static_cast<uint32_t>(TrapCode::Bounds));
  EXPECT_EQ(M.vm().reg(Sp), layout::StackTop);
  EXPECT_EQ(M.telemetry().Recovery.GeneratorFaults, 0u);
  EXPECT_EQ(M.invokeOrDie<int32_t>(Spec, {1}), 2);
}

//===----------------------------------------------------------------------===//
// Fuel exhaustion during generation (satellite)
//===----------------------------------------------------------------------===//

TEST(FuelExhaustion, MidGenerationIsRecoverableAfterReset) {
  Compilation C = compileOrDie(DotSrc, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t V1 = M.heap().vector({1, 2, 3, 4, 5, 6, 7, 8});

  uint64_t FullFuel = M.vm().fuel();
  M.vm().setFuel(100); // dies mid-emission: the generator needs far more
  FabResult<uint32_t> S = M.specialize("loop", {V1, 0, 8});
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.error().Code, FabErrc::OutOfFuel);

  // Recovery: restore the budget, discard the half-emitted specialization
  // and its in-progress memo entry, regenerate.
  M.vm().setFuel(FullFuel);
  M.resetCodeSpace();
  uint32_t Spec = M.specializeOrDie("loop", {V1, 0, 8});
  uint32_t V2 = M.heap().vector({1, 1, 1, 1, 1, 1, 1, 1});
  EXPECT_EQ(M.invokeOrDie<int32_t>(Spec, {V2, 0}),
            1 + 2 + 3 + 4 + 5 + 6 + 7 + 8);
}

//===----------------------------------------------------------------------===//
// Code-space pressure: automatic reset + re-specialization (tentpole)
//===----------------------------------------------------------------------===//

TEST(CodeSpaceRecovery, GuardPressureAutoResetsAndRetries) {
  // Shrink the guarded segment to ~32 KB via the margin so pressure
  // arrives after a handful of specializations instead of 8 MB.
  FabiusOptions Opts = FabiusOptions::deferred();
  Opts.Backend.CodeSpaceGuardMargin = layout::DynCodeBytes - 0x8000;
  Compilation C = compileOrDie(DotSrc, Opts);
  Machine M(C.Unit);

  std::vector<int32_t> Vals(200);
  for (int I = 0; I < 200; ++I)
    Vals[I] = I % 9;
  int32_t Expected = 0;
  for (int I = 0; I < 200; ++I)
    Expected += Vals[I];

  std::vector<int32_t> Ones(200, 1);
  for (int Round = 0; Round < 20; ++Round) {
    // Distinct vector per round -> distinct memo key -> fresh emission.
    uint32_t V1 = M.heap().vector(Vals);
    uint32_t Spec = M.specializeOrDie("loop", {V1, 0, 200});
    uint32_t V2 = M.heap().vector(Ones);
    ASSERT_EQ(M.invokeOrDie<int32_t>(Spec, {V2, 0}), Expected) << Round;
  }
  // ~4 KB per specialization against a 32 KB segment: several resets
  // happened, every one recovered transparently.
  EXPECT_GT(M.telemetry().Recovery.FaultResets, 0u);
  EXPECT_GT(M.telemetry().Recovery.RecoveredRetries, 0u);
  EXPECT_EQ(M.telemetry().Recovery.GeneratorFaults, 0u);
  EXPECT_FALSE(M.degraded());
}

TEST(CodeSpaceRecovery, HighWatermarkResetsPreemptively) {
  FabiusOptions Opts = FabiusOptions::deferred();
  Compilation C = compileOrDie(SimpleSrc, Opts);
  Machine M(C.Unit);
  CodeSpacePolicy P;
  P.HighWatermark = 1e-6; // any nonzero usage is "high" for the test
  M.setPolicy(P);
  uint32_t S1 = M.specializeOrDie("f", {2});
  EXPECT_EQ(S1, layout::DynCodeBase);
  uint32_t S2 = M.specializeOrDie("f", {3});
  // The watermark reset reclaimed the segment, so the second
  // specialization starts back at the base.
  EXPECT_EQ(S2, layout::DynCodeBase);
  EXPECT_GT(M.telemetry().Recovery.WatermarkResets, 0u);
  EXPECT_EQ(M.invokeOrDie<int32_t>(S2, {10}), 33);
}

//===----------------------------------------------------------------------===//
// Degradation to the Plain fall-back image (tentpole)
//===----------------------------------------------------------------------===//

TEST(Degradation, RepeatedGeneratorFaultsFallBackToPlain) {
  FabiusOptions Opts = FabiusOptions::deferredWithFallback();
  Opts.Backend.CodeSpaceGuardMargin = layout::DynCodeBytes - 0x8000;
  Compilation C = compileOrDie(ScanSrc, Opts);
  ASSERT_TRUE(C.PlainUnit.has_value());
  Machine M(C);
  ASSERT_TRUE(M.hasPlainFallback());

  CodeSpacePolicy P;
  P.MaxRetries = 1;
  P.MaxGeneratorFaults = 2;
  M.setPolicy(P);

  std::vector<int32_t> V(64, 5);
  V[40] = 2;
  uint32_t Vv = M.heap().vector(V);
  const std::vector<uint32_t> Args = {Vv, 0, 64, 1000};

  // Exponential over-specialization: the generator traps even after a
  // reset-and-retry, so each call is an unrecovered generator fault.
  FabResult<int32_t> R1 = M.invoke<int32_t>("scan", Args);
  ASSERT_FALSE(R1.ok());
  EXPECT_EQ(R1.error().Code, FabErrc::CodeSpaceExhausted);
  EXPECT_FALSE(M.degraded());

  FabResult<int32_t> R2 = M.invoke<int32_t>("scan", Args);
  ASSERT_FALSE(R2.ok());
  EXPECT_TRUE(M.degraded());
  EXPECT_EQ(M.telemetry().Recovery.GeneratorFaults, 2u);

  // Degraded: the same name now runs the Plain (non-RTCG) image and
  // produces the correct result.
  FabResult<int32_t> R3 = M.invoke<int32_t>("scan", Args);
  ASSERT_TRUE(R3.ok());
  EXPECT_EQ(*R3, 2);
  EXPECT_GT(M.telemetry().Recovery.PlainFallbackCalls, 0u);

  // Explicit staging is refused with a structured Degraded error.
  FabResult<uint32_t> S = M.specialize("scan", {Vv, 0, 64});
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.error().Code, FabErrc::Degraded);
}

TEST(Degradation, FallbackImageMatchesStagedResultsBeforeDegrading) {
  // Sanity: with no faults at all, a fallback-equipped machine serves the
  // staged path and the Plain image is simply dormant.
  Compilation C = compileOrDie(DotSrc, FabiusOptions::deferredWithFallback());
  Machine M(C);
  uint32_t V1 = M.heap().vector({3, 1, 4});
  uint32_t V2 = M.heap().vector({2, 7, 1});
  FabResult<int32_t> R = M.invoke<int32_t>("loop", {V1, 0, 3, V2, 0});
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(*R, 3 * 2 + 1 * 7 + 4 * 1);
  EXPECT_FALSE(M.degraded());
  EXPECT_EQ(M.telemetry().Recovery.PlainFallbackCalls, 0u);
}

//===----------------------------------------------------------------------===//
// The VM hard bound at the dynamic-code boundary (acceptance)
//===----------------------------------------------------------------------===//

TEST(CodeSpaceHardBound, EmissionAtBoundaryFaultsWithoutCorruption) {
  Vm M;
  M.setCodeRegions(layout::StaticCodeBase, layout::StaticCodeEnd,
                   layout::DynCodeBase, layout::DynCodeEnd);
  M.setReg(Sp, layout::StackTop);

  // Sentinels in the regions bordering the dynamic code segment.
  M.store32(layout::HeapEnd - 4, 0x5EED5EEDu);      // heap, directly below
  M.store32(layout::DynCodeEnd, 0x5EED5EEDu);       // stack region, above
  M.store32(layout::DynCodeEnd + 4, 0x0DDC0FFEu);

  // An emitter that runs off the end of the segment: starts two words
  // short of DynCodeEnd and stores through $cp forever.
  Assembler A{layout::StaticCodeBase};
  A.li(T0, 0x2BADC0DE);
  A.li(Cp, static_cast<int32_t>(layout::DynCodeEnd - 8));
  Label Loop = A.here();
  A.sw(T0, 0, Cp);
  A.addiu(Cp, Cp, 4);
  A.j(Loop);
  A.finalize();
  M.writeBlock(A.baseAddr(), A.code().data(), A.code().size());

  const std::span<const uint8_t> Mem = M.memory();
  const std::vector<uint8_t> Before(Mem.begin(), Mem.end());
  ExecResult R = M.run(A.baseAddr());

  ASSERT_EQ(R.Reason, StopReason::Trapped);
  EXPECT_EQ(R.FaultKind, Fault::CodeSpaceExhausted);
  // The faulting store was the one aimed exactly at DynCodeEnd.
  EXPECT_EQ(M.reg(Cp), layout::DynCodeEnd);

  // The two in-bounds stores landed ...
  EXPECT_EQ(M.load32(layout::DynCodeEnd - 8), 0x2BADC0DEu);
  EXPECT_EQ(M.load32(layout::DynCodeEnd - 4), 0x2BADC0DEu);
  // ... and every byte outside [DynCodeBase, DynCodeEnd) is untouched:
  // the fault fires before the write.
  const std::span<const uint8_t> After = M.memory();
  ASSERT_EQ(After.size(), Before.size());
  EXPECT_TRUE(std::equal(Before.begin(), Before.begin() + layout::DynCodeBase,
                         After.begin()));
  EXPECT_TRUE(std::equal(Before.begin() + layout::DynCodeEnd, Before.end(),
                         After.begin() + layout::DynCodeEnd));
}

TEST(CodeSpaceHardBound, MisSeatedCodePointerCannotWriteTheHeap) {
  Vm M;
  M.setCodeRegions(layout::StaticCodeBase, layout::StaticCodeEnd,
                   layout::DynCodeBase, layout::DynCodeEnd);
  M.store32(layout::HeapBase, 0x5EED5EEDu);

  Assembler A{layout::StaticCodeBase};
  A.li(T0, 0x2BADC0DE);
  A.li(Cp, static_cast<int32_t>(layout::HeapBase)); // bug: $cp in the heap
  A.sw(T0, 0, Cp);
  A.halt();
  A.finalize();
  M.writeBlock(A.baseAddr(), A.code().data(), A.code().size());

  const std::span<const uint8_t> Mem = M.memory();
  const std::vector<uint8_t> Before(Mem.begin(), Mem.end());
  ExecResult R = M.run(A.baseAddr());
  ASSERT_EQ(R.Reason, StopReason::Trapped);
  EXPECT_EQ(R.FaultKind, Fault::CodeSpaceExhausted);
  EXPECT_EQ(M.load32(layout::HeapBase), 0x5EED5EEDu);
  EXPECT_TRUE(std::ranges::equal(Before, M.memory()));
}

TEST(CodeSpaceHardBound, OrdinaryStoresOutsideDynRegionStillWork) {
  // The bound keys on the *base register* being $cp: stores through other
  // registers (and $cp stored as a value through $fp, as the generator
  // prologue does) are unaffected.
  Vm M;
  M.setCodeRegions(layout::StaticCodeBase, layout::StaticCodeEnd,
                   layout::DynCodeBase, layout::DynCodeEnd);
  Assembler A{layout::StaticCodeBase};
  A.li(T1, static_cast<int32_t>(layout::HeapBase));
  A.li(T0, 1234);
  A.sw(T0, 0, T1); // heap store through an ordinary register
  A.li(Fp, static_cast<int32_t>(layout::HeapBase + 16));
  A.li(Cp, static_cast<int32_t>(layout::DynCodeBase));
  A.sw(Cp, 0, Fp); // $cp as the stored *value*, base $fp
  A.lw(V0, 0, T1);
  A.halt();
  A.finalize();
  M.writeBlock(A.baseAddr(), A.code().data(), A.code().size());
  ExecResult R = M.run(A.baseAddr());
  ASSERT_EQ(R.Reason, StopReason::Halted);
  EXPECT_EQ(R.V0, 1234u);
  EXPECT_EQ(M.load32(layout::HeapBase + 16), layout::DynCodeBase);
}
