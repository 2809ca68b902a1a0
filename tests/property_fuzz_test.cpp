//===- property_fuzz_test.cpp - Random-program differential testing -------===//
//
// Generates random ML programs and inputs and checks that three
// independent evaluators agree bit-for-bit (including traps):
//   1. the reference AST interpreter,
//   2. the plain backend running on the simulator,
//   3. the deferred backend (generating extensions) on the simulator.
// This is the strongest correctness evidence for the staging pipeline:
// any divergence between early/late splitting, residualization, run-time
// instruction selection, or emitted control flow shows up as a mismatch.
//
//===----------------------------------------------------------------------===//

#include "core/Fabius.h"
#include "ml/Interp.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <functional>

using namespace fab;

namespace {

/// Random integer-expression source generator over the variables in
/// scope. Shapes are weighted toward interesting staging interactions
/// (mixed early/late operands, conditionals, lets).
class ExprGen {
public:
  ExprGen(Rng &R) : R(R) {}

  std::string gen(int Depth, const std::vector<std::string> &Vars) {
    if (Depth <= 0 || R.chance(1, 5))
      return leaf(Vars);
    switch (R.below(10)) {
    case 0:
    case 1:
      return "(" + gen(Depth - 1, Vars) + " + " + gen(Depth - 1, Vars) + ")";
    case 2:
      return "(" + gen(Depth - 1, Vars) + " - " + gen(Depth - 1, Vars) + ")";
    case 3:
      return "(" + gen(Depth - 1, Vars) + " * " + gen(Depth - 1, Vars) + ")";
    case 4:
      return "andb (" + gen(Depth - 1, Vars) + ", " + gen(Depth - 1, Vars) +
             ")";
    case 5:
      return "xorb (" + gen(Depth - 1, Vars) + ", " + gen(Depth - 1, Vars) +
             ")";
    case 6:
      return "rsh (" + gen(Depth - 1, Vars) + ", " +
             std::to_string(R.below(8)) + ")";
    case 7: {
      std::string C = "(" + gen(Depth - 1, Vars) + cmpOp() +
                      gen(Depth - 1, Vars) + ")";
      return "(if " + C + " then " + gen(Depth - 1, Vars) + " else " +
             gen(Depth - 1, Vars) + ")";
    }
    case 8: {
      std::string Name = "t" + std::to_string(NextLet++);
      std::vector<std::string> Inner = Vars;
      std::string Rhs = gen(Depth - 1, Vars);
      Inner.push_back(Name);
      return "(let val " + Name + " = " + Rhs + " in " +
             gen(Depth - 1, Inner) + " end)";
    }
    default:
      // Division with a guarded divisor so traps stay rare but possible.
      return "(" + gen(Depth - 1, Vars) + " div (" + leaf(Vars) +
             " + 17))";
    }
  }

private:
  std::string leaf(const std::vector<std::string> &Vars) {
    if (!Vars.empty() && R.chance(3, 5))
      return Vars[R.below(Vars.size())];
    switch (R.below(5)) {
    case 0:
      return std::to_string(R.below(10));
    case 1:
      return std::to_string(R.below(100000));
    case 2:
      return "~" + std::to_string(R.below(100000));
    case 3:
      return "32767";
    default:
      return std::to_string(0x123456);
    }
  }

  std::string cmpOp() {
    static const char *Ops[] = {" < ", " <= ", " = ", " <> ", " > ", " >= "};
    return Ops[R.below(6)];
  }

  Rng &R;
  unsigned NextLet = 0;
};

struct Outcome {
  bool Trapped = false;
  uint32_t Value = 0;

  bool operator==(const Outcome &O) const {
    return Trapped == O.Trapped && (Trapped || Value == O.Value);
  }
};

Outcome runInterp(const Compilation &C, const std::vector<uint32_t> &Args) {
  ml::Interp I(*C.Ast);
  auto V = I.call("f", Args);
  if (!V)
    return {true, 0};
  return {false, *V};
}

Outcome runMachine(const Compilation &C, const std::vector<uint32_t> &Args) {
  Machine M(C.Unit);
  FabResult<uint32_t> R = M.invoke<uint32_t>("f", Args);
  if (!R)
    return {true, 0};
  return {false, *R};
}

} // namespace

/// Staged scalar programs: two early and two late int parameters.
class FuzzStagedScalar : public ::testing::TestWithParam<int> {};

TEST_P(FuzzStagedScalar, ThreeWayAgreement) {
  Rng R(0xF00D + static_cast<uint64_t>(GetParam()) * 7919);
  ExprGen G(R);
  std::string Body =
      G.gen(4, {"a", "b", "c", "d"});
  std::string Src = "fun f (a : int, b : int) (c : int, d : int) = " + Body;

  DiagnosticEngine D1, D2;
  auto Plain = compile(Src, FabiusOptions::plain(), D1);
  auto Def = compile(Src, FabiusOptions::deferred(), D2);
  ASSERT_TRUE(Plain && Def) << Src << "\n" << D1.str() << D2.str();

  const uint32_t Interesting[] = {0,       1,          0xFFFFFFFFu,
                                  32767,   0xFFFF8000u, 0x7FFFFFFFu,
                                  1000000, 0x80000000u};
  for (int Trial = 0; Trial < 6; ++Trial) {
    std::vector<uint32_t> Args;
    for (int I = 0; I < 4; ++I)
      Args.push_back(R.chance(1, 3)
                         ? Interesting[R.below(8)]
                         : static_cast<uint32_t>(R.next()));
    Outcome OI = runInterp(*Plain, Args);
    Outcome OP = runMachine(*Plain, Args);
    Outcome OD = runMachine(*Def, Args);
    EXPECT_EQ(OI, OP) << Src << "\nargs: " << Args[0] << " " << Args[1]
                      << " " << Args[2] << " " << Args[3]
                      << "\ninterp vs plain";
    EXPECT_EQ(OI, OD) << Src << "\nargs: " << Args[0] << " " << Args[1]
                      << " " << Args[2] << " " << Args[3]
                      << "\ninterp vs deferred";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzStagedScalar, ::testing::Range(0, 40));

/// Staged vector programs: an early vector and index arithmetic exercise
/// the subscript specialization paths (bounds checks, offset selection).
class FuzzStagedVector : public ::testing::TestWithParam<int> {};

TEST_P(FuzzStagedVector, ThreeWayAgreement) {
  Rng R(0xBEEF + static_cast<uint64_t>(GetParam()) * 104729);
  ExprGen G(R);
  // v and i early; w and x late. Subscripts of both vectors appear with
  // early and late indices; indices are masked to hit in/out of bounds.
  std::string Body = "(v sub andb (" + G.gen(2, {"i", "x"}) +
                     ", 7)) + (w sub andb (" + G.gen(2, {"i", "x"}) +
                     ", 7)) + " + G.gen(3, {"i", "x"});
  std::string Src =
      "fun f (v : int vector, i : int) (w : int vector, x : int) = " + Body;

  DiagnosticEngine D1, D2;
  auto Plain = compile(Src, FabiusOptions::plain(), D1);
  auto Def = compile(Src, FabiusOptions::deferred(), D2);
  ASSERT_TRUE(Plain && Def) << Src << "\n" << D1.str() << D2.str();

  for (int Trial = 0; Trial < 5; ++Trial) {
    // Vector lengths 5..8: AND-masked indices (0..7) go out of bounds
    // sometimes, so trap agreement is exercised too.
    size_t LenV = 5 + R.below(4), LenW = 5 + R.below(4);
    std::vector<uint32_t> VV, WW;
    for (size_t I = 0; I < LenV; ++I)
      VV.push_back(static_cast<uint32_t>(R.below(1000)));
    for (size_t I = 0; I < LenW; ++I)
      WW.push_back(static_cast<uint32_t>(R.below(1000)));
    uint32_t IArg = static_cast<uint32_t>(R.below(8));
    uint32_t XArg = static_cast<uint32_t>(R.below(8));

    ml::Interp Interp(*Plain->Ast);
    auto IV = Interp.vector(VV);
    auto IW = Interp.vector(WW);
    auto VRes = Interp.call("f", {IV, IArg, IW, XArg});
    Outcome OI = VRes ? Outcome{false, *VRes} : Outcome{true, 0};

    auto RunVm = [&](const Compilation &C) {
      Machine M(C.Unit);
      std::vector<int32_t> SV(VV.begin(), VV.end()), SW(WW.begin(), WW.end());
      uint32_t MV = M.heap().vector(SV);
      uint32_t MW = M.heap().vector(SW);
      FabResult<uint32_t> RR = M.invoke<uint32_t>("f", {MV, IArg, MW, XArg});
      return RR ? Outcome{false, *RR} : Outcome{true, 0};
    };
    Outcome OP = RunVm(*Plain);
    Outcome OD = RunVm(*Def);
    EXPECT_EQ(OI, OP) << Src << "\ninterp vs plain (trial " << Trial << ")";
    EXPECT_EQ(OI, OD) << Src << "\ninterp vs deferred (trial " << Trial
                      << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzStagedVector, ::testing::Range(0, 30));

/// Recursive staged list programs: datatype construction + case dispatch
/// with mixed stages.
class FuzzRecursive : public ::testing::TestWithParam<int> {};

TEST_P(FuzzRecursive, ThreeWayAgreement) {
  Rng R(0xCAFE + static_cast<uint64_t>(GetParam()) * 31337);
  ExprGen G(R);
  // A fold over an early list with a random late combining expression.
  std::string Combine = G.gen(3, {"x", "acc", "z"});
  std::string Src =
      "datatype ilist = Nil | Cons of int * ilist\n"
      "fun fold (l : ilist) (acc : int, z : int) =\n"
      "  case l of Nil => acc\n"
      "  | Cons (x, rest) => fold rest (" + Combine + ", z)";

  DiagnosticEngine D1, D2;
  auto Plain = compile(Src, FabiusOptions::plain(), D1);
  auto Def = compile(Src, FabiusOptions::deferred(), D2);
  ASSERT_TRUE(Plain && Def) << Src << "\n" << D1.str() << D2.str();

  for (int Trial = 0; Trial < 4; ++Trial) {
    size_t Len = R.below(12);
    std::vector<uint32_t> Elems;
    for (size_t I = 0; I < Len; ++I)
      Elems.push_back(static_cast<uint32_t>(R.below(100)));
    uint32_t Acc = static_cast<uint32_t>(R.below(50));
    uint32_t Z = static_cast<uint32_t>(R.below(50));

    ml::Interp Interp(*Plain->Ast);
    uint32_t IL = Interp.cell(0, {});
    for (size_t I = Elems.size(); I-- > 0;)
      IL = Interp.cell(1, {Elems[I], IL});
    auto VRes = Interp.call("fold", {IL, Acc, Z});
    Outcome OI = VRes ? Outcome{false, *VRes} : Outcome{true, 0};

    auto RunVm = [&](const Compilation &C) {
      Machine M(C.Unit);
      uint32_t L = M.heap().cell(0, {});
      for (size_t I = Elems.size(); I-- > 0;)
        L = M.heap().cell(1, {Elems[I], L});
      FabResult<uint32_t> RR = M.invoke<uint32_t>("fold", {L, Acc, Z});
      return RR ? Outcome{false, *RR} : Outcome{true, 0};
    };
    EXPECT_EQ(OI, RunVm(*Plain)) << Src << "\ninterp vs plain";
    EXPECT_EQ(OI, RunVm(*Def)) << Src << "\ninterp vs deferred";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzRecursive, ::testing::Range(0, 25));

/// Real-arithmetic staged programs: bit-exact IEEE agreement between the
/// interpreter and both backends, across residualized float constants
/// and late float operations.
class FuzzStagedReal : public ::testing::TestWithParam<int> {};

TEST_P(FuzzStagedReal, ThreeWayAgreement) {
  Rng R(0x5EA1 + static_cast<uint64_t>(GetParam()) * 65537);
  // Random arithmetic over two early and two late real parameters.
  std::function<std::string(int)> Gen = [&](int Depth) -> std::string {
    if (Depth <= 0 || R.chance(1, 4)) {
      switch (R.below(6)) {
      case 0:
        return "a";
      case 1:
        return "b";
      case 2:
        return "x";
      case 3:
        return "y";
      case 4:
        return std::to_string(R.below(100)) + "." +
               std::to_string(R.below(100));
      default:
        return "0.5";
      }
    }
    static const char *Ops[] = {" + ", " - ", " * "};
    if (R.chance(1, 8))
      return "(if (" + Gen(Depth - 1) + " < " + Gen(Depth - 1) + ") then " +
             Gen(Depth - 1) + " else " + Gen(Depth - 1) + ")";
    return "(" + Gen(Depth - 1) + Ops[R.below(3)] + Gen(Depth - 1) + ")";
  };
  std::string Src = "fun f (a : real, b : real) (x : real, y : real) = " +
                    Gen(4);

  DiagnosticEngine D1, D2;
  auto Plain = compile(Src, FabiusOptions::plain(), D1);
  auto Def = compile(Src, FabiusOptions::deferred(), D2);
  ASSERT_TRUE(Plain && Def) << Src << "\n" << D1.str() << D2.str();

  for (int Trial = 0; Trial < 5; ++Trial) {
    std::vector<uint32_t> Args;
    for (int I = 0; I < 4; ++I) {
      float V = (R.unitFloat() - 0.5f) * 1000.0f;
      if (R.chance(1, 6))
        V = 0.0f;
      Args.push_back(std::bit_cast<uint32_t>(V));
    }
    Outcome OI = runInterp(*Plain, Args);
    Outcome OP = runMachine(*Plain, Args);
    Outcome OD = runMachine(*Def, Args);
    EXPECT_EQ(OI, OP) << Src << "\ninterp vs plain";
    EXPECT_EQ(OI, OD) << Src << "\ninterp vs deferred";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzStagedReal, ::testing::Range(0, 25));
