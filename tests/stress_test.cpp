//===- stress_test.cpp - Memoization, capacity, and robustness tests ------===//

#include "core/Fabius.h"

#include <gtest/gtest.h>

#include <set>

using namespace fab;

//===----------------------------------------------------------------------===//
// Memo table behaviour under load
//===----------------------------------------------------------------------===//

TEST(MemoStress, ManyDistinctSpecializations) {
  // 1500 distinct early keys: all must get distinct, correct, line-aligned
  // specializations via the hashed table.
  const char *Src = "fun f (k : int) (x : int) = x * k + k";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  std::set<uint32_t> Addrs;
  for (uint32_t K = 1; K <= 1500; ++K) {
    uint32_t Spec = M.specializeOrDie("f", {K});
    EXPECT_TRUE(Addrs.insert(Spec).second) << "duplicate address for " << K;
    EXPECT_EQ(Spec % 16, 0u);
  }
  // Spot-check results and reuse.
  EXPECT_EQ(M.invokeOrDie<int32_t>(M.specializeOrDie("f", {7}), {100}), 707);
  uint64_t Gen = M.instructionsGenerated();
  for (uint32_t K = 1; K <= 1500; ++K)
    M.specializeOrDie("f", {K});
  EXPECT_EQ(M.instructionsGenerated(), Gen) << "re-specialization emitted";
}

TEST(MemoStress, CollidingKeysProbeCorrectly) {
  // Keys engineered to collide in the hash (same low bits after >>4).
  const char *Src = "fun f (k : int) (x : int) = x + k";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  std::vector<uint32_t> Keys;
  for (uint32_t I = 0; I < 40; ++I)
    Keys.push_back(1 + (I << 16)); // identical hash after >>4 and mask
  std::set<uint32_t> Addrs;
  for (uint32_t K : Keys)
    Addrs.insert(M.specializeOrDie("f", {K}));
  EXPECT_EQ(Addrs.size(), Keys.size());
  for (uint32_t K : Keys)
    EXPECT_EQ(M.invokeOrDie<int32_t>(M.specializeOrDie("f", {K}), {1}),
              static_cast<int32_t>(1 + K));
}

TEST(MemoStress, CapacityOverflowTrapsCleanly) {
  const char *Src = "fun f (k : int) (x : int) = x + k";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  // The table traps at half capacity to bound probe chains.
  uint32_t Limit = layout::MemoCapacity / 2;
  ExecResult Last;
  uint32_t K = 1;
  for (; K <= Limit + 1; ++K) {
    Last = M.vm().call(C.Unit.genAddr("f"), {K});
    if (!Last.ok())
      break;
  }
  EXPECT_EQ(Last.Reason, StopReason::Trapped);
  EXPECT_EQ(Last.TrapValue, static_cast<uint32_t>(TrapCode::MemoFull));
  EXPECT_EQ(K, Limit + 1);
}

TEST(MemoStress, MemoizedFsmStatesScaleWithProgram) {
  // A cyclic program with S states creates exactly S specializations no
  // matter how long execution runs.
  const char *Src =
      "fun step (prog : int vector, pc) (acc : int) =\n"
      "  if acc >= 1000000 then acc\n"
      "  else step (prog, (pc + 1) mod 8) (acc + 1 + prog sub pc)";
  FabiusOptions Opts = FabiusOptions::deferred();
  Opts.Backend.MemoizedSelfCalls.insert("step");
  Compilation C = compileOrDie(Src, Opts);
  Machine M(C.Unit);
  uint32_t P = M.heap().vector({1, 2, 3, 4, 5, 6, 7, 8});
  uint32_t Spec = M.specializeOrDie("step", {P, 0});
  uint64_t Gen = M.instructionsGenerated();
  int32_t R = M.invokeOrDie<int32_t>(Spec, {0});
  EXPECT_GE(R, 1000000);
  EXPECT_EQ(M.instructionsGenerated(), Gen); // no generation at run time
}

//===----------------------------------------------------------------------===//
// Generated code volume and space reuse
//===----------------------------------------------------------------------===//

TEST(CodeSpace, LargeUnrollingsStayInBounds) {
  // A 4000-element unrolled dot product: several KB of generated code,
  // still coherent and correct.
  const char *Src =
      "fun loop (v1 : int vector, i, n) (v2 : int vector, sum) ="
      " if i = n then sum"
      " else loop (v1, i + 1, n) (v2, sum + (v1 sub i) * (v2 sub i))";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  std::vector<int32_t> Big(4000);
  for (int I = 0; I < 4000; ++I)
    Big[I] = I % 7;
  uint32_t V1 = M.heap().vector(Big);
  uint32_t Spec = M.specializeOrDie("loop", {V1, 0, 4000});
  std::vector<int32_t> Ones(4000, 1);
  uint32_t V2 = M.heap().vector(Ones);
  int64_t Expected = 0;
  for (int I = 0; I < 4000; ++I)
    Expected += Big[I];
  EXPECT_EQ(M.invokeOrDie<int32_t>(Spec, {V2, 0}),
            static_cast<int32_t>(Expected));
  EXPECT_EQ(M.vm().coherenceViolations(), 0u);
}

TEST(CodeSpace, DeepGeneratorRecursionSurvives) {
  // Forces the recursion strategy (self tail call in the then-arm of a
  // late conditional, i.e. under a live backpatch hole) at depth 3000:
  // one generator frame per unrolled element, linear code.
  const char *Src =
      "fun find (v : int vector, i, n) (x : int) ="
      " if i = n then ~1"
      " else if x <> (v sub i) then find (v, i + 1, n) (x)"
      " else i";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  std::vector<int32_t> V(3000);
  for (int I = 0; I < 3000; ++I)
    V[I] = I * 3;
  uint32_t Vv = M.heap().vector(V);
  uint32_t Spec = M.specializeOrDie("find", {Vv, 0, 3000});
  EXPECT_EQ(M.invokeOrDie<int32_t>(Spec, {2500 * 3}), 2500);
  EXPECT_EQ(M.invokeOrDie<int32_t>(Spec, {1}), -1);
}

TEST(CodeSpace, ExponentialOverSpecializationTrapsCleanly) {
  // Self calls in BOTH arms of a late conditional duplicate the
  // continuation per path — the paper's over-specialization hazard. The
  // generator must hit the code-space guard and trap, not corrupt memory.
  const char *Src =
      "fun scan (v : int vector, i, n) (best : int) ="
      " if i = n then best"
      " else if (v sub i) < best then scan (v, i + 1, n) (v sub i)"
      " else scan (v, i + 1, n) (best)";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  VmOptions VOpts;
  VOpts.Fuel = 6'000'000'000ULL;
  Machine M(C.Unit, VOpts);
  std::vector<int32_t> V(64, 5);
  uint32_t Vv = M.heap().vector(V);
  ExecResult R = M.vm().call(C.Unit.genAddr("scan"), {Vv, 0, 64});
  EXPECT_EQ(R.Reason, StopReason::Trapped);
  EXPECT_EQ(R.TrapValue, static_cast<uint32_t>(TrapCode::CodeSpace));
}

//===----------------------------------------------------------------------===//
// End-to-end robustness
//===----------------------------------------------------------------------===//

TEST(Robustness, ManySequentialMachines) {
  // Machines are independent: interleaved use of several instances.
  const char *Src = "fun f (k : int) (x : int) = x - k";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  std::vector<std::unique_ptr<Machine>> Ms;
  for (int I = 0; I < 8; ++I)
    Ms.push_back(std::make_unique<Machine>(C.Unit));
  for (int Round = 0; Round < 4; ++Round)
    for (int I = 0; I < 8; ++I)
      EXPECT_EQ(
          Ms[I]->invokeOrDie<int32_t>("f", {static_cast<uint32_t>(I), 100}),
          100 - I);
}

TEST(Robustness, TrapsDoNotCorruptLaterCalls) {
  const char *Src = "fun f (v : int vector) (i : int) = v sub i";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t V = M.heap().vector({1, 2, 3});
  uint32_t Spec = M.specializeOrDie("f", {V});
  EXPECT_FALSE(M.invoke<int32_t>(Spec, {9}).ok()); // bounds trap
  // The machine stays usable without manual repair: a failed run has its
  // $sp/$fp re-seated by the machine layer.
  EXPECT_EQ(M.vm().reg(Sp), layout::StackTop);
  EXPECT_EQ(M.invokeOrDie<int32_t>(Spec, {1}), 2);
}

TEST(Robustness, GeneratedCodeRegionAccounting) {
  const char *Src = "fun f (k : int) (x : int) = x * k";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t Spec = M.specializeOrDie("f", {3});
  VmStats B = M.vm().stats();
  M.invokeOrDie<int32_t>(Spec, {5});
  VmStats D = M.vm().stats() - B;
  // Everything executed during the direct call runs from the dynamic
  // region (plus nothing static).
  EXPECT_EQ(D.ExecutedStatic, 0u);
  EXPECT_GT(D.ExecutedDynamic, 0u);
  EXPECT_EQ(D.DynWordsWritten, 0u);
}

TEST(CodeSpace, ResetReclaimsAndRegenerates) {
  const char *Src = "fun f (k : int) (x : int) = x * k + 1";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t S1 = M.specializeOrDie("f", {3});
  uint32_t S2 = M.specializeOrDie("f", {4});
  EXPECT_GT(M.codeSpaceUsed(), 0u);
  EXPECT_NE(S1, S2);

  M.resetCodeSpace();
  EXPECT_EQ(M.codeSpaceUsed(), 0u);
  // Fresh specializations reuse the reclaimed space from the base.
  uint32_t S3 = M.specializeOrDie("f", {5});
  EXPECT_EQ(S3, layout::DynCodeBase);
  EXPECT_EQ(M.invokeOrDie<int32_t>(S3, {10}), 51);
  // The memo works again after the wipe, including for old keys.
  uint32_t S4 = M.specializeOrDie("f", {3});
  EXPECT_EQ(M.invokeOrDie<int32_t>(S4, {10}), 31);
  uint64_t Gen = M.instructionsGenerated();
  EXPECT_EQ(M.specializeOrDie("f", {3}), S4);
  EXPECT_EQ(M.instructionsGenerated(), Gen);
  EXPECT_EQ(M.vm().coherenceViolations(), 0u);
}

TEST(CodeSpace, RepeatedResetCyclesStayCoherent) {
  // Generate / run / reclaim in a loop: overwritten code lines must be
  // re-flushed by the generators (the I-cache model traps otherwise).
  const char *Src = "fun f (k : int) (x : int) = x + k * k";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  for (int Cycle = 0; Cycle < 20; ++Cycle) {
    for (uint32_t K = 1; K <= 30; ++K) {
      uint32_t Spec = M.specializeOrDie("f", {K + 100u * Cycle});
      ASSERT_EQ(M.invokeOrDie<int32_t>(Spec, {7}),
                static_cast<int32_t>(7 + (K + 100u * Cycle) *
                                             (K + 100u * Cycle)));
    }
    M.resetCodeSpace();
  }
  EXPECT_EQ(M.vm().coherenceViolations(), 0u);
}
