//===- emit_template_test.cpp - Template-burst emission invariants --------===//
//
// Template-burst emission is purely a generator-speed optimization: the
// dynamic code segment must be byte-identical with EmitTemplates on or
// off. These tests drive every benchmark workload both ways and compare
// the full dynamic segment, plus two targeted shapes: a constant run
// emitted while a late-conditional branch hole is still open, and runs
// emitted across generator loop-head code-space guards.
//
//===----------------------------------------------------------------------===//

#include "WorkloadDrivers.h"

#include <gtest/gtest.h>

#include <functional>

using namespace fab;
using namespace fab::workloads;
using namespace fab::test_drivers;

namespace {

struct EmissionResult {
  std::vector<uint32_t> DynWords; ///< the dynamic code segment, as written
  size_t TemplateWords = 0;       ///< size of the unit's template pool
  uint64_t Executed = 0;          ///< total guest instructions executed
};

/// Compiles \p Src with template-burst emission forced on or off, runs
/// \p Drive, and captures the resulting dynamic code segment.
EmissionResult runWorkload(const char *Src, bool Templates,
                           const std::function<void(Machine &)> &Drive) {
  FabiusOptions Opts;
  Opts.Backend = deferredOptionsFor(Src);
  Opts.Backend.EmitTemplates = Templates;
  Compilation C = compileOrDie(Src, Opts);
  Machine M(C.Unit);
  Drive(M);
  EmissionResult Out;
  uint32_t Used = M.codeSpaceUsed();
  for (uint32_t Off = 0; Off < Used; Off += 4)
    Out.DynWords.push_back(M.vm().load32(layout::DynCodeBase + Off));
  Out.TemplateWords = C.Unit.TemplateData.size();
  Out.Executed = M.vm().stats().Executed;
  return Out;
}

/// The core invariant: same driver, templates on vs off, byte-identical
/// dynamic segments. Returns the pair for extra per-test assertions.
std::pair<EmissionResult, EmissionResult>
expectDynIdentical(const char *Src,
                   const std::function<void(Machine &)> &Drive) {
  EmissionResult On = runWorkload(Src, /*Templates=*/true, Drive);
  EmissionResult Off = runWorkload(Src, /*Templates=*/false, Drive);
  EXPECT_GT(On.DynWords.size(), 0u) << "driver emitted no dynamic code";
  EXPECT_EQ(On.DynWords, Off.DynWords);
  // With templates off the unit must not carry a template pool at all.
  EXPECT_EQ(Off.TemplateWords, 0u);
  return {On, Off};
}

} // namespace

//===----------------------------------------------------------------------===//
// Every benchmark workload, templates on vs off
//===----------------------------------------------------------------------===//

TEST(EmitTemplates, MatmulDynIdentical) {
  expectDynIdentical(MatmulSrc, driveMatmul);
}

TEST(EmitTemplates, FMatmulDynIdentical) {
  expectDynIdentical(FMatmulSrc, driveFMatmul);
}

TEST(EmitTemplates, PacketFilterDynIdentical) {
  expectDynIdentical(EvalSrc, drivePacketFilter);
}

TEST(EmitTemplates, RegexpDynIdentical) {
  expectDynIdentical(RegexpSrc, driveRegexp);
}

TEST(EmitTemplates, AssocDynIdentical) {
  auto [On, Off] = expectDynIdentical(AssocSrc, driveAssoc);
  // Each entry's compare/return sequence is interleaved with dynamic key
  // and value words, so no run reaches template length here — the engine
  // must stand aside without costing extra executed instructions.
  EXPECT_EQ(On.TemplateWords, 0u);
  EXPECT_LE(On.Executed, Off.Executed);
}

TEST(EmitTemplates, MemberDynIdentical) {
  auto [On, Off] = expectDynIdentical(MemberSrc, driveMember);
  EXPECT_GT(On.TemplateWords, 0u);
  EXPECT_LT(On.Executed, Off.Executed);
}

TEST(EmitTemplates, LifeDynIdentical) {
  expectDynIdentical(LifeSrc, driveLife);
}

TEST(EmitTemplates, IsortDynIdentical) {
  expectDynIdentical(IsortSrc, driveIsort);
}

TEST(EmitTemplates, CgDynIdentical) {
  expectDynIdentical(CgSrc, driveCg);
}

TEST(EmitTemplates, PseudoknotDynIdentical) {
  expectDynIdentical(PseudoknotSrc, drivePseudoknot);
}

//===----------------------------------------------------------------------===//
// Targeted emission shapes
//===----------------------------------------------------------------------===//

// A late conditional reserves a branch hole that stays open while the
// then arm emits; the arm below is a straight line of emission-constant
// words long enough to form a template. The copy must land under the
// open hole without disturbing the eventual backpatch.
TEST(EmitTemplates, TemplateRunUnderOpenBranchHole) {
  const char *Src =
      "fun f (k : int) (x : int) ="
      " if x < 0 then (x + 1) * (x + 2) * (x + 3) * (x + 4) * (x + 5)"
      " else x - k";
  auto [On, Off] = expectDynIdentical(Src, [](Machine &M) {
    uint32_t Spec = M.specializeOrDie("f", {5});
    EXPECT_EQ(M.invokeOrDie<int32_t>(Spec, {static_cast<uint32_t>(-3)}), 0);
    EXPECT_EQ(M.invokeOrDie<int32_t>(Spec, {7}), 2);
  });
  // The run under the hole must actually have become a template.
  EXPECT_GT(On.TemplateWords, 0u);
}

// Self-tail-call unrolling runs the generator's loop (and its loop-head
// code-space guard) once per list element, so buffered constant runs are
// repeatedly carried across guard checks. Guards are on by default in
// deferredOptionsFor; this locks the interaction explicitly.
TEST(EmitTemplates, TemplateRunsAcrossLoopHeadGuards) {
  const char *Src =
      "datatype iset = SNil | SCons of int * iset\n"
      "fun member (s : iset) (x : int) =\n"
      "  case s of SNil => 0\n"
      "  | SCons (e, rest) => if x = e then 1 else member rest x";
  FabiusOptions On = FabiusOptions::deferred(), Off = On;
  On.Backend.EmitCodeSpaceGuards = true;
  Off.Backend.EmitCodeSpaceGuards = true;
  On.Backend.EmitTemplates = true;
  Off.Backend.EmitTemplates = false;

  std::vector<uint32_t> Dyn[2];
  size_t TemplateWords[2];
  FabiusOptions *Opt[2] = {&On, &Off};
  for (int I = 0; I < 2; ++I) {
    Compilation C = compileOrDie(Src, *Opt[I]);
    Machine M(C.Unit);
    uint32_t S = M.heap().cell(0, {});
    for (int32_t E = 63; E >= 0; --E)
      S = M.heap().cell(1, {static_cast<uint32_t>(E * 7), S});
    EXPECT_EQ(M.invokeOrDie<int32_t>("member", {S, 7 * 13}), 1);
    EXPECT_EQ(M.invokeOrDie<int32_t>("member", {S, 5}), 0);
    uint32_t Used = M.codeSpaceUsed();
    for (uint32_t O = 0; O < Used; O += 4)
      Dyn[I].push_back(M.vm().load32(layout::DynCodeBase + O));
    TemplateWords[I] = C.Unit.TemplateData.size();
  }
  ASSERT_GT(Dyn[0].size(), 0u);
  EXPECT_EQ(Dyn[0], Dyn[1]);
  EXPECT_GT(TemplateWords[0], 0u);
  EXPECT_EQ(TemplateWords[1], 0u);
}
