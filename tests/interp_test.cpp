//===- interp_test.cpp - Reference AST interpreter unit tests -------------===//

#include "ml/Interp.h"

#include "ml/Parser.h"
#include "ml/TypeCheck.h"
#include "staging/Staging.h"

#include <gtest/gtest.h>

using namespace fab;
using namespace fab::ml;

namespace {

struct Checked {
  std::unique_ptr<Program> P;
  TypeContext Types;
};

std::unique_ptr<Program> check(const std::string &Src, TypeContext &T) {
  DiagnosticEngine D;
  auto P = parse(Src, D);
  EXPECT_FALSE(D.hasErrors()) << D.str();
  EXPECT_TRUE(typecheck(*P, T, D)) << D.str();
  EXPECT_TRUE(analyzeStaging(*P, D)) << D.str();
  return P;
}

} // namespace

TEST(InterpTest, Arithmetic) {
  TypeContext T;
  auto P = check("fun f (x, y) = x * y + x div y - x mod y", T);
  Interp I(*P);
  EXPECT_EQ(I.call("f", {17, 5}), 17u * 5 + 17 / 5 - 17 % 5);
}

TEST(InterpTest, WrapsOnOverflow) {
  TypeContext T;
  auto P = check("fun f (x : int) = x * x", T);
  Interp I(*P);
  auto R = I.call("f", {0x10000});
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(*R, 0u); // 2^32 wraps
}

TEST(InterpTest, DivZeroTraps) {
  TypeContext T;
  auto P = check("fun f (x, y) = x div y", T);
  Interp I(*P);
  EXPECT_FALSE(I.call("f", {1, 0}).has_value());
  EXPECT_EQ(I.trap(), InterpTrap::DivZero);
}

TEST(InterpTest, IntMinDivMinusOneWraps) {
  TypeContext T;
  auto P = check("fun f (x, y) = x div y", T);
  Interp I(*P);
  EXPECT_EQ(I.call("f", {0x80000000u, 0xFFFFFFFFu}), 0x80000000u);
}

TEST(InterpTest, VectorsAndBounds) {
  TypeContext T;
  auto P = check("fun f (v : int vector, i) = v sub i + length v", T);
  Interp I(*P);
  uint32_t V = I.vector({10, 20, 30});
  EXPECT_EQ(I.call("f", {V, 1}), 23u);
  EXPECT_FALSE(I.call("f", {V, 3}).has_value());
  EXPECT_EQ(I.trap(), InterpTrap::Bounds);
}

TEST(InterpTest, MkVecAndVSet) {
  TypeContext T;
  auto P = check(
      "fun f n = let val v = mkvec (n, 7) val u = vset (v, 2, 99) in "
      "v sub 0 + v sub 2 end", T);
  Interp I(*P);
  EXPECT_EQ(I.call("f", {4}), 7u + 99u);
}

TEST(InterpTest, DatatypesAndRecursion) {
  TypeContext T;
  auto P = check(
      "datatype ilist = Nil | Cons of int * ilist\n"
      "fun sum l = case l of Nil => 0 | Cons (x, r) => x + sum r", T);
  Interp I(*P);
  uint32_t L = I.cell(0, {});
  L = I.cell(1, {5, L});
  L = I.cell(1, {6, L});
  EXPECT_EQ(I.call("sum", {L}), 11u);
}

TEST(InterpTest, MatchFailureTraps) {
  TypeContext T;
  auto P = check("datatype t = A | B\nfun f x = case x of A => 1 | B => 2",
                 T);
  Interp I(*P);
  uint32_t Bogus = I.cell(7, {});
  EXPECT_FALSE(I.call("f", {Bogus}).has_value());
  EXPECT_EQ(I.trap(), InterpTrap::MatchFail);
}

TEST(InterpTest, FuelBoundsRunaway) {
  TypeContext T;
  auto P = check("fun f (x : int) = 1 + f x", T);
  Interp I(*P, /*Fuel=*/1000);
  EXPECT_FALSE(I.call("f", {1}).has_value());
  EXPECT_EQ(I.trap(), InterpTrap::OutOfFuel);
}

TEST(InterpTest, RealArithmeticBitExact) {
  TypeContext T;
  auto P = check("fun f (x : real, y : real) = x / y + 0.5", T);
  Interp I(*P);
  uint32_t X = std::bit_cast<uint32_t>(1.0f);
  uint32_t Y = std::bit_cast<uint32_t>(3.0f);
  auto R = I.call("f", {X, Y});
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(std::bit_cast<float>(*R), 1.0f / 3.0f + 0.5f);
}

TEST(InterpTest, BitwisePrims) {
  TypeContext T;
  auto P = check("fun f (a, b) = orb (andb (a, b), lsh (xorb (a, b), 1))",
                 T);
  Interp I(*P);
  uint32_t A = 0xF0F0, B = 0x0FF0;
  EXPECT_EQ(I.call("f", {A, B}), ((A & B) | ((A ^ B) << 1)));
}

TEST(InterpTest, TailRecursionRunsInConstantStack) {
  // A tail call reuses its caller's frame, so a million iterations need
  // no more C stack than one (the Plain image returns the same value).
  TypeContext T;
  auto P = check("fun count (n, acc) = if n = 0 then acc "
                 "else count (n - 1, acc + 1)",
                 T);
  Interp I(*P);
  EXPECT_EQ(I.call("count", {1000000, 0}), 1000000u);
}

TEST(InterpTest, DeepNonTailRecursionTraps) {
  TypeContext T;
  auto P = check("fun sum n = if n = 0 then 0 else n + sum (n - 1)", T);
  Interp I(*P);
  EXPECT_FALSE(I.call("sum", {1000000}).has_value());
  EXPECT_EQ(I.trap(), InterpTrap::StackOverflow);
  // The trap unwinds cleanly: the next call starts from an empty stack.
  EXPECT_EQ(I.call("sum", {100}), 5050u);
}

TEST(InterpTest, FuelIsOneUnitPerNodeEvaluated) {
  // The budgets are the smallest at which each call completed before the
  // interpreter got its flat heap and slot stack: a tail-recursive loop
  // over two 64-element vectors, and a list of 64 built and summed by
  // non-tail recursion (constructors, case binds).
  TypeContext T;
  auto P = check(
      "datatype ilist = Nil | Cons of int * ilist\n"
      "fun dotloop (v1 : int vector, i, n) (v2 : int vector, sum) =\n"
      "  if i = n then sum\n"
      "  else dotloop (v1, i + 1, n) (v2, sum + (v1 sub i) * (v2 sub i))\n"
      "fun build n = if n = 0 then Nil else Cons (n, build (n - 1))\n"
      "fun sum l = case l of Nil => 0 | Cons (x, r) => x + sum r\n"
      "fun go n = sum (build n)",
      T);
  std::vector<uint32_t> A(64), B(64);
  for (uint32_t K = 0; K < 64; ++K) {
    A[K] = K + 1;
    B[K] = 3 * K + 2;
  }
  auto Dot = [&](uint64_t Fuel, InterpTrap &Trap) {
    Interp I(*P, Fuel);
    uint32_t VA = I.vector(A), VB = I.vector(B);
    auto R = I.call("dotloop", {VA, 0, 64, VB, 0});
    Trap = I.trap();
    return R;
  };
  auto Go = [&](uint64_t Fuel, InterpTrap &Trap) {
    Interp I(*P, Fuel);
    auto R = I.call("go", {64});
    Trap = I.trap();
    return R;
  };
  InterpTrap Trap;
  EXPECT_EQ(Dot(1285, Trap), 266240u);
  EXPECT_FALSE(Dot(1284, Trap).has_value());
  EXPECT_EQ(Trap, InterpTrap::OutOfFuel);
  EXPECT_EQ(Go(1035, Trap), 64u * 65 / 2);
  EXPECT_FALSE(Go(1034, Trap).has_value());
  EXPECT_EQ(Trap, InterpTrap::OutOfFuel);
}

TEST(InterpTest, HandlesSurviveHeapGrowth) {
  TypeContext T;
  auto P = check(
      "datatype pair = P of int * int\n"
      "fun mk n = mkvec (n, 7)\n"
      "fun churn (k, acc) = if k = 0 then acc\n"
      "  else churn (k - 1, acc + length (mkvec (3, k)))\n"
      "fun setget (v : int vector, i, x) =\n"
      "  let val u = vset (v, i, x) in v sub i end\n"
      "fun fst p = case p of P (a, _) => a\n"
      "fun snd p = case p of P (_, b) => b",
      T);
  Interp I(*P);
  uint32_t V = I.vector({1, 2, 3});
  uint32_t C = I.cell(0, {11, 22});
  auto M = I.call("mk", {5});
  ASSERT_TRUE(M.has_value());
  // 10^5 more allocations move the heap's storage several times.
  EXPECT_EQ(I.call("churn", {100000, 0}), 300000u);
  EXPECT_EQ(I.readVector(V), (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(I.readVector(*M), (std::vector<uint32_t>{7, 7, 7, 7, 7}));
  EXPECT_EQ(I.call("setget", {V, 1, 42}), 42u);
  EXPECT_EQ(I.call("setget", {*M, 4, 99}), 99u);
  EXPECT_EQ(I.readVector(V), (std::vector<uint32_t>{1, 42, 3}));
  EXPECT_EQ(I.readVector(*M), (std::vector<uint32_t>{7, 7, 7, 7, 99}));
  EXPECT_EQ(I.call("fst", {C}), 11u);
  EXPECT_EQ(I.call("snd", {C}), 22u);
}
