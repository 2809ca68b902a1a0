//===- backend_plain_test.cpp - Plain-mode end-to-end execution tests -----===//
//
// Compiles ML programs in Plain mode (the "without RTCG" configuration)
// and executes them on the simulator, checking results against expected
// values computed in the host.
//
//===----------------------------------------------------------------------===//

#include "core/Fabius.h"

#include <gtest/gtest.h>

#include <bit>

using namespace fab;

namespace {

int32_t runInt(const std::string &Src, const std::string &Fn,
               const std::vector<uint32_t> &Args) {
  Compilation C = compileOrDie(Src, FabiusOptions::plain());
  Machine M(C.Unit);
  return M.invokeOrDie<int32_t>(Fn, Args);
}

} // namespace

TEST(PlainExec, ConstantFunction) {
  EXPECT_EQ(runInt("fun f () = 42", "f", {}), 42);
}

TEST(PlainExec, Identity) {
  EXPECT_EQ(runInt("fun f (x : int) = x", "f", {7}), 7);
}

TEST(PlainExec, Arithmetic) {
  EXPECT_EQ(runInt("fun f (x, y) = (x + y) * (x - y) + x div y - x mod y",
                   "f", {17, 5}),
            (17 + 5) * (17 - 5) + 17 / 5 - 17 % 5);
}

TEST(PlainExec, NegativeNumbers) {
  EXPECT_EQ(runInt("fun f x = ~x + ~3", "f", {10}), -13);
}

TEST(PlainExec, Comparisons) {
  const char *Src = "fun f (x, y) = "
                    "(if x < y then 1 else 0) + (if x <= y then 2 else 0) + "
                    "(if x > y then 4 else 0) + (if x >= y then 8 else 0) + "
                    "(if x = y then 16 else 0) + (if x <> y then 32 else 0)";
  EXPECT_EQ(runInt(Src, "f", {3, 5}), 1 + 2 + 32);
  EXPECT_EQ(runInt(Src, "f", {5, 5}), 2 + 8 + 16);
  EXPECT_EQ(runInt(Src, "f", {7, 5}), 4 + 8 + 32);
}

TEST(PlainExec, SignedComparison) {
  EXPECT_EQ(runInt("fun f (x, y) = if x < y then 1 else 0", "f",
                   {static_cast<uint32_t>(-5), 3}),
            1);
}

TEST(PlainExec, BooleanOperators) {
  const char *Src =
      "fun f (x, y) = if x > 0 andalso y > 0 orelse x < ~10 then 1 else 0";
  EXPECT_EQ(runInt(Src, "f", {1, 1}), 1);
  EXPECT_EQ(runInt(Src, "f", {1, 0}), 0);
  EXPECT_EQ(runInt(Src, "f", {static_cast<uint32_t>(-20), 0}), 1);
}

TEST(PlainExec, LetBindings) {
  EXPECT_EQ(runInt("fun f x = let val a = x + 1 val b = a * a in b - a end",
                   "f", {4}),
            25 - 5);
}

TEST(PlainExec, RecursionFactorial) {
  EXPECT_EQ(runInt("fun fact n = if n = 0 then 1 else n * fact (n - 1)",
                   "fact", {10}),
            3628800);
}

TEST(PlainExec, MutualRecursion) {
  const char *Src =
      "fun iseven n = if n = 0 then 1 else isodd (n - 1)\n"
      "and isodd n = if n = 0 then 0 else iseven (n - 1)";
  EXPECT_EQ(runInt(Src, "iseven", {10}), 1);
  EXPECT_EQ(runInt(Src, "iseven", {11}), 0);
}

TEST(PlainExec, ManyParameters) {
  // 6 parameters exercise stack argument passing.
  const char *Src = "fun f (a, b, c, d, e, g) = a + 2*b + 3*c + 4*d + 5*e + "
                    "6*g";
  EXPECT_EQ(runInt(Src, "f", {1, 2, 3, 4, 5, 6}),
            1 + 4 + 9 + 16 + 25 + 36);
}

TEST(PlainExec, NestedCallsWithManyArgs) {
  const char *Src =
      "fun g (a, b, c, d, e, h) = a + b + c + d + e + h\n"
      "fun f x = g (x, g (x, 1, 1, 1, 1, 1), 2, 3, 4, 5)";
  EXPECT_EQ(runInt(Src, "f", {10}), 10 + 15 + 2 + 3 + 4 + 5);
}

TEST(PlainExec, VectorSubscriptAndLength) {
  Compilation C = compileOrDie(
      "fun f (v : int vector, i) = v sub i + length v",
      FabiusOptions::plain());
  Machine M(C.Unit);
  uint32_t V = M.heap().vector({10, 20, 30});
  EXPECT_EQ(M.invokeOrDie<int32_t>("f", {V, 1}), 20 + 3);
}

TEST(PlainExec, BoundsCheckTraps) {
  Compilation C = compileOrDie("fun f (v : int vector, i) = v sub i",
                               FabiusOptions::plain());
  Machine M(C.Unit);
  uint32_t V = M.heap().vector({1, 2});
  FabResult<int32_t> R = M.invoke<int32_t>("f", {V, 2});
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().Exec.Reason, StopReason::Trapped);
  EXPECT_EQ(R.error().Exec.TrapValue, static_cast<uint32_t>(TrapCode::Bounds));
  FabResult<int32_t> R2 =
      M.invoke<int32_t>("f", {V, static_cast<uint32_t>(-1)});
  ASSERT_FALSE(R2.ok());
  EXPECT_EQ(R2.error().Exec.Reason, StopReason::Trapped);
}

TEST(PlainExec, DivideByZeroTraps) {
  Compilation C = compileOrDie("fun f (x, y) = x div y",
                               FabiusOptions::plain());
  Machine M(C.Unit);
  FabResult<int32_t> R = M.invoke<int32_t>("f", {1, 0});
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().Exec.Reason, StopReason::Trapped);
}

TEST(PlainExec, MkVecAndVSet) {
  const char *Src =
      "fun fill (v : int vector, i, n) = \n"
      "  if i = n then v sub 0 + v sub (n-1)\n"
      "  else let val u = vset (v, i, i * i) in fill (v, i + 1, n) end\n"
      "fun f n = fill (mkvec (n, 0), 0, n)";
  EXPECT_EQ(runInt(Src, "f", {10}), 0 + 81);
}

TEST(PlainExec, DatatypesAndCase) {
  const char *Src =
      "datatype ilist = Nil | Cons of int * ilist\n"
      "fun sum l = case l of Nil => 0 | Cons (x, rest) => x + sum rest\n"
      "fun build n = if n = 0 then Nil else Cons (n, build (n - 1))\n"
      "fun f n = sum (build n)";
  EXPECT_EQ(runInt(Src, "f", {10}), 55);
}

TEST(PlainExec, CaseIntDispatch) {
  const char *Src = "fun f x = case x of 0 => 100 | 1 => 200 | 5 => 300 "
                    "| _ => 400";
  EXPECT_EQ(runInt(Src, "f", {0}), 100);
  EXPECT_EQ(runInt(Src, "f", {1}), 200);
  EXPECT_EQ(runInt(Src, "f", {5}), 300);
  EXPECT_EQ(runInt(Src, "f", {7}), 400);
}

TEST(PlainExec, CaseVarBindsScrutinee) {
  const char *Src = "datatype t = A | B of int\n"
                    "fun g x = case x of B (v) => v | other => tag other\n"
                    "and tag (x : t) = 77";
  Compilation C = compileOrDie(Src, FabiusOptions::plain());
  Machine M(C.Unit);
  uint32_t BCell = M.heap().cell(1, {42});
  uint32_t ACell = M.heap().cell(0, {});
  EXPECT_EQ(M.invokeOrDie<int32_t>("g", {BCell}), 42);
  EXPECT_EQ(M.invokeOrDie<int32_t>("g", {ACell}), 77);
}

TEST(PlainExec, MatchFailureTraps) {
  const char *Src = "datatype t = A | B\n"
                    "fun f x = case x of A => 1 | B => 2";
  Compilation C = compileOrDie(Src, FabiusOptions::plain());
  Machine M(C.Unit);
  uint32_t Bogus = M.heap().cell(9, {});
  FabResult<int32_t> R = M.invoke<int32_t>("f", {Bogus});
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.error().Exec.Reason, StopReason::Trapped);
  EXPECT_EQ(R.error().Exec.TrapValue,
            static_cast<uint32_t>(TrapCode::MatchFail));
}

TEST(PlainExec, RealArithmetic) {
  Compilation C = compileOrDie("fun f (x : real, y : real) = (x + y) * x / y",
                               FabiusOptions::plain());
  Machine M(C.Unit);
  uint32_t X = std::bit_cast<uint32_t>(3.0f);
  uint32_t Y = std::bit_cast<uint32_t>(2.0f);
  EXPECT_FLOAT_EQ(M.invokeOrDie<float>("f", {X, Y}),
                  (3.0f + 2.0f) * 3.0f / 2.0f);
}

TEST(PlainExec, RealComparisonsAndConversion) {
  const char *Src = "fun f n = if real n * 1.5 > 4.0 then trunc (real n * "
                    "1.5) else 0";
  EXPECT_EQ(runInt(Src, "f", {3}), 4); // 4.5 > 4.0, trunc 4.5 = 4
  EXPECT_EQ(runInt(Src, "f", {2}), 0); // 3.0 < 4.0
}

TEST(PlainExec, RealNegation) {
  Compilation C = compileOrDie("fun f (x : real) = ~x", FabiusOptions::plain());
  Machine M(C.Unit);
  EXPECT_FLOAT_EQ(M.invokeOrDie<float>("f", {std::bit_cast<uint32_t>(2.5f)}),
                  -2.5f);
}

TEST(PlainExec, CurriedFunctionCollapsesInPlainMode) {
  const char *Src =
      "fun dotprod v1 v2 = loop (v1, 0, length v1) (v2, 0)\n"
      "and loop (v1 : int vector, i, n) (v2 : int vector, sum) =\n"
      "  if i = n then sum\n"
      "  else loop (v1, i + 1, n) (v2, sum + (v1 sub i) * (v2 sub i))";
  Compilation C = compileOrDie(Src, FabiusOptions::plain());
  Machine M(C.Unit);
  uint32_t V1 = M.heap().vector({1, 2, 3});
  uint32_t V2 = M.heap().vector({4, 5, 6});
  EXPECT_EQ(M.invokeOrDie<int32_t>("dotprod", {V1, V2}), 4 + 10 + 18);
}

TEST(PlainExec, VectorOfVectors) {
  Compilation C = compileOrDie(
      "fun f (m : int vector vector, i, j) = m sub i sub j",
      FabiusOptions::plain());
  Machine M(C.Unit);
  uint32_t Row0 = M.heap().vector({1, 2});
  uint32_t Row1 = M.heap().vector({3, 4});
  uint32_t Mx = M.heap().vector({static_cast<int32_t>(Row0),
                                 static_cast<int32_t>(Row1)});
  EXPECT_EQ(M.invokeOrDie<int32_t>("f", {Mx, 1, 0}), 3);
}

TEST(PlainExec, DeepExpressionSpilling) {
  // Enough operand nesting to exercise several live temporaries at once.
  const char *Src = "fun g x = x + 1\n"
                    "fun f x = (g x + (g (x+1) + (g (x+2) + (g (x+3) + "
                    "(g (x+4) + g (x+5))))))";
  EXPECT_EQ(runInt(Src, "f", {0}), 1 + 2 + 3 + 4 + 5 + 6);
}

TEST(PlainExec, HeapAllocationAcrossCalls) {
  const char *Src =
      "datatype pair = P of int * int\n"
      "fun mk (a, b) = P (a + b, a * b)\n"
      "fun f (a, b) = case mk (a, b) of P (s, p) => s * 1000 + p";
  EXPECT_EQ(runInt(Src, "f", {3, 4}), 7 * 1000 + 12);
}

TEST(PlainExec, BitwisePrimitives) {
  const char *Src = "fun f (a, b) = andb (a, b) + orb (a, b) + xorb (a, b)";
  EXPECT_EQ(runInt(Src, "f", {0xF0F0, 0x0FF0}),
            (0xF0F0 & 0x0FF0) + (0xF0F0 | 0x0FF0) + (0xF0F0 ^ 0x0FF0));
}

TEST(PlainExec, ShiftPrimitives) {
  const char *Src = "fun f (a, s) = lsh (a, s) + rsh (a, s)";
  EXPECT_EQ(runInt(Src, "f", {0x00F0, 4}), (0xF0 << 4) + (0xF0 >> 4));
  // rsh is a logical shift: high bit does not smear.
  EXPECT_EQ(runInt("fun f (a, s) = rsh (a, s)", "f",
                   {0x80000000u, 28}),
            8);
}

TEST(PlainExec, TailCallOptimizationDeepLoop) {
  // 500k iterations would overflow the simulated stack without TCO.
  const char *Src = "fun loop (i, n, acc) = if i = n then acc "
                    "else loop (i + 1, n, acc + i)";
  EXPECT_EQ(runInt(Src, "loop", {0, 500000, 0}),
            static_cast<int32_t>(499999LL * 500000 / 2));
}

TEST(PlainExec, TailCallInCaseArm) {
  const char *Src =
      "datatype ilist = Nil | Cons of int * ilist\n"
      "fun sum (l, acc) = case l of Nil => acc "
      "| Cons (x, rest) => sum (rest, acc + x)\n"
      "fun build (n, acc) = if n = 0 then acc "
      "else build (n - 1, Cons (n, acc))\n"
      "fun f n = sum (build (n, Nil), 0)";
  EXPECT_EQ(runInt(Src, "f", {2000}), 2000 * 2001 / 2);
}
