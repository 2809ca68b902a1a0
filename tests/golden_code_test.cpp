//===- golden_code_test.cpp - Generated-code golden tests -----------------===//
//
// Locks the exact instruction sequences of key specializations against
// regression: the paper's section 3.1 dot product and the Figure 6
// executable association list. Any codegen change that alters these
// sequences must be reviewed against the paper's listings.
//
//===----------------------------------------------------------------------===//

#include "core/Fabius.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace fab;

namespace {

std::vector<std::string> disasmSpec(Machine &M, uint32_t Spec,
                                    uint64_t Words) {
  std::vector<std::string> Out;
  for (uint64_t I = 0; I < Words; ++I) {
    uint32_t Addr = Spec + static_cast<uint32_t>(4 * I);
    Out.push_back(disassemble(M.vm().load32(Addr), Addr));
  }
  return Out;
}

std::vector<std::string> disasmUnit(const CompiledUnit &U) {
  std::vector<std::string> Out;
  for (size_t I = 0; I < U.Code.size(); ++I)
    Out.push_back(
        disassemble(U.Code[I], U.CodeBase + static_cast<uint32_t>(4 * I)));
  return Out;
}

bool containsSeq(const std::vector<std::string> &Haystack,
                 const std::vector<std::string> &Needle) {
  return std::search(Haystack.begin(), Haystack.end(), Needle.begin(),
                     Needle.end()) != Haystack.end();
}

} // namespace

TEST(GoldenCode, DotProductElementShape) {
  const char *Src =
      "fun loop (v1 : int vector, i, n) (v2 : int vector, sum) ="
      " if i = n then sum"
      " else loop (v1, i + 1, n) (v2, sum + (v1 sub i) * (v2 sub i))";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t V1 = M.heap().vector({2});
  VmStats Before = M.vm().stats();
  uint32_t Spec = M.specializeOrDie("loop", {V1, 0, 1});
  uint64_t Words = (M.vm().stats() - Before).DynWordsWritten;

  // One element: residualized constant, bounds check, load, multiply,
  // accumulate in place, return — the paper's listing plus the subscript
  // check its figure elides.
  std::vector<std::string> Expected = {
      "addiu $t0, $zero, 2",          // v1[0] as an immediate
      "lw $at, 0($a0)",               // v2 length
      "sltiu $at, $at, 1",            // bounds: len < i+1 ?
      "beq $at, $zero, 0x03000014",   // in bounds: skip trap
      "trap 1",                       //
      "lw $t1, 4($a0)",               // v2[0], immediate offset
      "mul $t0, $t0, $t1",            // prod
      "addu $a1, $a1, $t0",           // sum += prod (in place)
      "or $v0, $a1, $zero",           // return sum
      "jr $ra",
  };
  ASSERT_EQ(Words, Expected.size());
  EXPECT_EQ(disasmSpec(M, Spec, Words), Expected);
}

TEST(GoldenCode, ExecutableAssocListShape) {
  const char *Src =
      "datatype alist = ANil | ACons of int * int * alist\n"
      "fun lookup (l : alist) (key : int) =\n"
      "  case l of ANil => ~1\n"
      "  | ACons (k, v, rest) => if key = k then v else lookup rest key";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  uint32_t L = M.heap().cell(0, {});
  L = M.heap().cell(1, {7, 700, L});
  VmStats Before = M.vm().stats();
  uint32_t Spec = M.specializeOrDie("lookup", {L});
  uint64_t Words = (M.vm().stats() - Before).DynWordsWritten;

  // Figure 6: compare with the embedded key; hit returns the embedded
  // value; miss falls through to the embedded default. Zero loads.
  std::vector<std::string> Expected = {
      "addiu $t0, $zero, 7",        // key constant
      "xor $t0, $a0, $t0",          // equality
      "sltiu $t0, $t0, 1",
      "beq $t0, $zero, 0x03000018", // not equal: next entry
      "addiu $v0, $zero, 700",      // value constant
      "jr $ra",
      "addiu $v0, $zero, -1",       // ANil arm
      "jr $ra",
  };
  ASSERT_EQ(Words, Expected.size());
  EXPECT_EQ(disasmSpec(M, Spec, Words), Expected);
}

TEST(GoldenCode, ResidualizationSelectsImmediateForms) {
  const char *Src = "fun f (k : int) (x : int) = x + k";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);

  // Small constant: single addiu.
  VmStats B0 = M.vm().stats();
  uint32_t SpecSmall = M.specializeOrDie("f", {5});
  uint64_t SmallWords = (M.vm().stats() - B0).DynWordsWritten;
  std::vector<std::string> ExpectSmall = {
      "addiu $t0, $zero, 5",
      "addu $t0, $a0, $t0",
      "or $v0, $t0, $zero",
      "jr $ra",
  };
  ASSERT_EQ(SmallWords, ExpectSmall.size());
  EXPECT_EQ(disasmSpec(M, SpecSmall, SmallWords), ExpectSmall);

  // Large constant: lui + ori.
  VmStats B1 = M.vm().stats();
  uint32_t SpecBig = M.specializeOrDie("f", {0x123456});
  uint64_t BigWords = (M.vm().stats() - B1).DynWordsWritten;
  std::vector<std::string> ExpectBig = {
      "lui $t0, 18",        // 0x12
      "ori $t0, $t0, 13398", // 0x3456
      "addu $t0, $a0, $t0",
      "or $v0, $t0, $zero",
      "jr $ra",
  };
  ASSERT_EQ(BigWords, ExpectBig.size());
  EXPECT_EQ(disasmSpec(M, SpecBig, BigWords), ExpectBig);
}

TEST(GoldenCode, GeneratorUsesTemplateCopyForConstantRun) {
  // The late chain below is emission-constant end to end: with templates
  // on, the generator's static code must copy it from the interned
  // template with an unrolled lw/sw burst and one coalesced $cp bump,
  // not materialize it word by word with li/sw.
  const char *Src =
      "fun f (k : int) (x : int) ="
      " (x + 1) * (x + 2) * (x + 3) * (x + 4) * (x + 5) + k";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  ASSERT_EQ(C.Unit.TemplateData.size(), 14u);
  std::vector<std::string> Gen = disasmUnit(C.Unit);

  // li of the template pool base (0x00880000 = lui 136), then the copy:
  // 14 words — 5 addiu/mul pairs plus the bounds-free subscript chain —
  // land via lw/sw pairs, and the $cp update coalesces into one addiu.
  std::vector<std::string> Expected = {"lui $t9, 136"};
  for (int I = 0; I < 14; ++I) {
    Expected.push_back("lw $t8, " + std::to_string(4 * I) + "($t9)");
    Expected.push_back("sw $t8, " + std::to_string(4 * I) + "($cp)");
  }
  Expected.push_back("addiu $cp, $cp, 56");
  EXPECT_TRUE(containsSeq(Gen, Expected));

  // Templates off: same program, no template pool, no copy bursts — the
  // run goes back to per-word materialization.
  FabiusOptions Off = FabiusOptions::deferred();
  Off.Backend.EmitTemplates = false;
  Compilation COff = compileOrDie(Src, Off);
  EXPECT_TRUE(COff.Unit.TemplateData.empty());
  std::vector<std::string> GenOff = disasmUnit(COff.Unit);
  EXPECT_FALSE(containsSeq(GenOff, Expected));

  // The specialized code itself is byte-identical either way — lock its
  // shape here so the static-code golden cannot drift from the dynamic
  // contract.
  Machine MOn(C.Unit), MOff(COff.Unit);
  VmStats B0 = MOn.vm().stats();
  uint32_t SpecOn = MOn.specializeOrDie("f", {5});
  uint64_t Words = (MOn.vm().stats() - B0).DynWordsWritten;
  uint32_t SpecOff = MOff.specializeOrDie("f", {5});
  ASSERT_GE(Words, 15u);
  EXPECT_EQ(disasmSpec(MOn, SpecOn, Words), disasmSpec(MOff, SpecOff, Words));
}

TEST(GoldenCode, UnfoldedConditionalLeavesNoBranch) {
  const char *Src =
      "fun f (k : int) (x : int) = if k > 0 then x + k else x - k";
  Compilation C = compileOrDie(Src, FabiusOptions::deferred());
  Machine M(C.Unit);
  VmStats B = M.vm().stats();
  uint32_t Spec = M.specializeOrDie("f", {3});
  uint64_t Words = (M.vm().stats() - B).DynWordsWritten;
  // Only the taken arm exists; no compare, no branch.
  for (const std::string &Line : disasmSpec(M, Spec, Words)) {
    EXPECT_EQ(Line.find("beq"), std::string::npos) << Line;
    EXPECT_EQ(Line.find("bne"), std::string::npos) << Line;
    EXPECT_EQ(Line.find("slt"), std::string::npos) << Line;
  }
}
