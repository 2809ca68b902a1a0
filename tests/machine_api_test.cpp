//===- machine_api_test.cpp - Public facade coverage ----------------------===//

#include "core/Fabius.h"

#include <gtest/gtest.h>

#include <bit>

using namespace fab;

TEST(MachineApi, CallWithStackArguments) {
  Compilation C = compileOrDie(
      "fun f (a, b, c, d, e, g, h) = a + 2*b + 3*c + 4*d + 5*e + 6*g + 7*h",
      FabiusOptions::plain());
  Machine M(C.Unit);
  EXPECT_EQ(M.invokeOrDie<int32_t>("f", {1, 1, 1, 1, 1, 1, 1}),
            1 + 2 + 3 + 4 + 5 + 6 + 7);
  // Repeated calls re-seat the stack pointer correctly.
  EXPECT_EQ(M.invokeOrDie<int32_t>("f", {7, 6, 5, 4, 3, 2, 1}),
            7 + 12 + 15 + 16 + 15 + 12 + 7);
}

TEST(MachineApi, CallFloat) {
  Compilation C = compileOrDie("fun f (x : real) = x * 2.5 + 1.0",
                               FabiusOptions::plain());
  Machine M(C.Unit);
  EXPECT_FLOAT_EQ(M.invokeOrDie<float>("f", {std::bit_cast<uint32_t>(4.0f)}),
                  11.0f);
}

TEST(MachineApi, CompileReportsDiagnosticsNotCrash) {
  DiagnosticEngine D;
  auto C = compile("fun f x = y + ", FabiusOptions::deferred(), D);
  EXPECT_FALSE(C.has_value());
  EXPECT_TRUE(D.hasErrors());
}

TEST(MachineApi, SeparateCompilationsAreIndependent) {
  Compilation C1 = compileOrDie("fun f (x : int) = x + 1",
                                FabiusOptions::plain());
  Compilation C2 = compileOrDie("fun f (x : int) = x * 2",
                                FabiusOptions::plain());
  Machine M1(C1.Unit), M2(C2.Unit);
  EXPECT_EQ(M1.invokeOrDie<int32_t>("f", {10}), 11);
  EXPECT_EQ(M2.invokeOrDie<int32_t>("f", {10}), 20);
}

TEST(MachineApi, HeapAndCallInterleave) {
  Compilation C = compileOrDie(
      "fun sum (v : int vector, i, n, acc) = if i = n then acc "
      "else sum (v, i + 1, n, acc + v sub i)\n"
      "fun total v = sum (v, 0, length v, 0)",
      FabiusOptions::deferred());
  Machine M(C.Unit);
  for (int Round = 1; Round <= 5; ++Round) {
    std::vector<int32_t> Vals(static_cast<size_t>(Round * 3), Round);
    uint32_t V = M.heap().vector(Vals);
    EXPECT_EQ(M.invokeOrDie<int32_t>("total", {V}), Round * Round * 3);
  }
}

TEST(MachineApi, StatsAccumulateMonotonically) {
  Compilation C = compileOrDie("fun f (k : int) (x : int) = x + k",
                               FabiusOptions::deferred());
  Machine M(C.Unit);
  uint64_t Last = 0;
  for (uint32_t K = 0; K < 10; ++K) {
    M.invokeOrDie<int32_t>("f", {K, 1});
    EXPECT_GT(M.vm().stats().Cycles, Last);
    Last = M.vm().stats().Cycles;
  }
  EXPECT_GT(M.instructionsGenerated(), 0u);
  EXPECT_GT(M.codeSpaceUsed(), 0u);
}

TEST(MachineApi, DebugOutputBuiltinsReachHost) {
  // The VM's PutInt/PutCh services are reachable from hand assembly; the
  // ML language has no I/O, so this exercises the plumbing directly.
  Compilation C = compileOrDie("fun f (x : int) = x", FabiusOptions::plain());
  Machine M(C.Unit);
  EXPECT_EQ(M.vm().output(), "");
  M.vm().clearOutput();
}
