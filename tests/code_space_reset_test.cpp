//===- code_space_reset_test.cpp - resetCodeSpace over every workload -----===//
//
// Machine::resetCodeSpace drops every predecoded block in the dynamic
// segment in one sweep. The sweep must be invisible to the simulated
// world: for each benchmark workload, specialize -> reset -> specialize
// again -> run must give the same results, VmStats and heap with the
// decode cache on and off, and the same DecodeCacheStats::Invalidations
// as retiring the dynamic blocks one at a time. The reset must record a
// single coalesced BlockInvalidate trace event carrying the count.
//
//===----------------------------------------------------------------------===//

#include "WorkloadDrivers.h"

#include <gtest/gtest.h>

#include <span>
#include <string>

using namespace fab;
using namespace fab::test_drivers;

namespace {

/// Everything observable about drive -> reset -> drive on one machine.
struct ResetOutcome {
  DriverResults Before, After; ///< driver results on each side of the reset
  VmStats Stats;
  uint64_t Invalidations = 0;
  uint64_t ResetInvalidations = 0; ///< dropped by resetCodeSpace itself
  std::vector<uint8_t> Heap;       ///< [HeapBase, heap top) at the end
  std::string Output;
  /// BlockInvalidate events the reset recorded (empty when untraced).
  std::vector<telemetry::TraceEvent> ResetEvents;
  /// Whether the cache and the trace were live: FAB_DECODE_CACHE=0 and
  /// FAB_TRACE=0 force them off process-wide.
  bool CacheLive = false, Traced = false;
};

/// Runs \p W's driver, resets the code space and runs it again. With
/// \p OneByOne the dynamic blocks are first retired line by line (the
/// narrow-range path), so the reset's sweep finds nothing left: the
/// reference for the sweep's Invalidations count.
ResetOutcome driveAcrossReset(const WorkloadDriver &W, bool Cache,
                              bool OneByOne) {
  FabiusOptions Opts;
  Opts.Backend = workloads::deferredOptionsFor(W.Src);
  Compilation C = compileOrDie(W.Src, Opts);
  VmOptions VO;
  VO.EnableDecodeCache = Cache;
  VO.EnableTrace = true;
  Machine M(C, VO);
  Vm &V = M.vm();

  ResetOutcome O;
  O.CacheLive = V.decodeCacheEnabled();
  O.Traced = M.trace().enabled();
  O.Before = W.Drive(M);
  if (OneByOne) {
    const uint32_t Line = VmOptions().IcacheLineBytes;
    for (uint32_t A = layout::DynCodeBase; A < layout::DynCodeEnd; A += Line)
      V.invalidateDecodeCache(A, A + Line);
  }
  M.trace().drain();
  const uint64_t InvalBefore = V.decodeCacheStats().Invalidations;
  M.resetCodeSpace();
  O.ResetInvalidations = V.decodeCacheStats().Invalidations - InvalBefore;
  for (const telemetry::TraceEvent &E : M.trace().snapshot())
    if (E.Kind == telemetry::EventKind::BlockInvalidate)
      O.ResetEvents.push_back(E);
  O.After = W.Drive(M);

  O.Stats = V.stats();
  O.Invalidations = V.decodeCacheStats().Invalidations;
  std::span<const uint8_t> Mem = V.memory();
  O.Heap.assign(Mem.begin() + layout::HeapBase,
                Mem.begin() + M.heap().heapTop());
  O.Output = V.output();
  return O;
}

class ResetEveryWorkload : public ::testing::TestWithParam<WorkloadDriver> {};

} // namespace

TEST_P(ResetEveryWorkload, SweepIsInvisibleToTheSimulation) {
  const WorkloadDriver &W = GetParam();
  ResetOutcome On = driveAcrossReset(W, /*Cache=*/true, /*OneByOne=*/false);
  ResetOutcome Off = driveAcrossReset(W, /*Cache=*/false, /*OneByOne=*/false);
  ResetOutcome Ref = driveAcrossReset(W, /*Cache=*/true, /*OneByOne=*/true);

  // Respecializing after the reset reproduces the first pass.
  EXPECT_EQ(On.Before, On.After);
  // Decode cache on and off: the same simulated world.
  EXPECT_EQ(On.Before, Off.Before);
  EXPECT_EQ(On.After, Off.After);
  EXPECT_TRUE(On.Stats == Off.Stats);
  EXPECT_EQ(On.Heap, Off.Heap);
  EXPECT_EQ(On.Output, Off.Output);
  // The sweep drops exactly the blocks one-by-one retirement drops.
  EXPECT_TRUE(On.Stats == Ref.Stats);
  EXPECT_EQ(On.After, Ref.After);
  EXPECT_EQ(On.Invalidations, Ref.Invalidations);
  EXPECT_EQ(Ref.ResetInvalidations, 0u);
  EXPECT_EQ(Off.Invalidations, 0u);

  if (!On.CacheLive)
    return; // both machines ran the reference interpreter
  // Specialized code ran from the dynamic segment, so the reset dropped
  // blocks there, and traced them as one coalesced event with the count.
  EXPECT_GT(On.ResetInvalidations, 0u);
  if (!On.Traced)
    return;
  ASSERT_EQ(On.ResetEvents.size(), 1u);
  EXPECT_EQ(On.ResetEvents[0].Arg1, On.ResetInvalidations);
  EXPECT_GE(On.ResetEvents[0].Arg0, layout::DynCodeBase);
  EXPECT_LT(On.ResetEvents[0].Arg0, layout::DynCodeEnd);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ResetEveryWorkload, ::testing::ValuesIn(allWorkloadDrivers()),
    [](const ::testing::TestParamInfo<WorkloadDriver> &I) {
      return std::string(I.param.Name);
    });
