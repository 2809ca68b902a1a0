//===- vm_smc_test.cpp - Decode-cache coherence and parity tests ----------===//
//
// The predecoded basic-block engine (docs/VM.md) must be bit-identical to
// the reference interpreter in every observable: results, registers,
// VmStats, fault PCs, trap values, coherence violations, debug output.
// These tests run the same program on both engines and compare everything,
// with emphasis on the hard cases: self-modifying code, fused-pair entry
// points, fuel boundaries, and host-initiated code writes.
//
// Note: under FAB_DECODE_CACHE=0 (the CI slow-path run) both machines use
// the reference interpreter and the parity checks are trivially true; the
// cache-sensitive assertions are gated on decodeCacheEnabled().
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "asmkit/Assembler.h"
#include "core/Fabius.h"
#include "runtime/HeapImage.h"
#include "runtime/Layout.h"
#include "support/StringUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>

using namespace fab;

namespace {

/// Everything observable about one run.
struct RunOutcome {
  ExecResult R;
  VmStats S;
  uint64_t Violations = 0;
  std::string Output;
  uint32_t Regs[32] = {0};
};

RunOutcome runEngine(bool Cache, const std::vector<uint32_t> &Code,
                     uint64_t Fuel) {
  VmOptions VO;
  VO.EnableDecodeCache = Cache;
  VO.Fuel = Fuel;
  Vm M(VO);
  M.setCodeRegions(layout::StaticCodeBase, layout::StaticCodeEnd,
                   layout::DynCodeBase, layout::DynCodeEnd);
  M.setReg(Sp, layout::StackTop);
  M.setReg(Hp, layout::HeapBase);
  M.setReg(Cp, layout::DynCodeBase);
  M.writeBlock(layout::StaticCodeBase, Code.data(), Code.size());
  RunOutcome O;
  O.R = M.run(layout::StaticCodeBase);
  O.S = M.stats();
  O.Violations = M.coherenceViolations();
  O.Output = M.output();
  for (unsigned I = 0; I < 32; ++I)
    O.Regs[I] = M.reg(I);
  return O;
}

/// Runs \p Code on both engines and asserts every observable matches.
/// Returns the cache-on outcome for additional assertions.
RunOutcome expectParity(const std::vector<uint32_t> &Code,
                        uint64_t Fuel = 1'000'000) {
  RunOutcome On = runEngine(true, Code, Fuel);
  RunOutcome Off = runEngine(false, Code, Fuel);
  EXPECT_EQ(On.R.Reason, Off.R.Reason);
  EXPECT_EQ(On.R.FaultKind, Off.R.FaultKind);
  EXPECT_EQ(On.R.FaultPc, Off.R.FaultPc);
  EXPECT_EQ(On.R.TrapValue, Off.R.TrapValue);
  EXPECT_EQ(On.R.V0, Off.R.V0);
  EXPECT_EQ(On.S.Executed, Off.S.Executed);
  EXPECT_EQ(On.S.ExecutedStatic, Off.S.ExecutedStatic);
  EXPECT_EQ(On.S.ExecutedDynamic, Off.S.ExecutedDynamic);
  EXPECT_EQ(On.S.Loads, Off.S.Loads);
  EXPECT_EQ(On.S.Stores, Off.S.Stores);
  EXPECT_EQ(On.S.DynWordsWritten, Off.S.DynWordsWritten);
  EXPECT_EQ(On.S.Flushes, Off.S.Flushes);
  EXPECT_EQ(On.S.FlushedBytes, Off.S.FlushedBytes);
  EXPECT_EQ(On.S.Cycles, Off.S.Cycles);
  EXPECT_EQ(On.Violations, Off.Violations);
  EXPECT_EQ(On.Output, Off.Output);
  for (unsigned I = 0; I < 32; ++I)
    EXPECT_EQ(On.Regs[I], Off.Regs[I]) << "register $" << I;
  return On;
}

std::vector<uint32_t> assembled(void (*Emit)(Assembler &)) {
  Assembler A(layout::StaticCodeBase);
  Emit(A);
  A.finalize();
  return A.code();
}

} // namespace

//===----------------------------------------------------------------------===//
// Engine parity on ordinary programs
//===----------------------------------------------------------------------===//

TEST(EngineParity, LoopWithFusedComparesAndCalls) {
  auto Code = assembled(+[](Assembler &A) {
    // sum = 0; for (i = 0; i < 10000; ++i) sum += i — the loop condition
    // compiles to slt+bne (a fused pair), li to lui+ori.
    Label Loop = A.newLabel(), Done = A.newLabel(), Fn = A.newLabel();
    A.li(T0, 0);        // i
    A.li(T1, 10000);    // n
    A.li(V0, 0);        // sum
    A.bind(Loop);
    A.slt(T2, T0, T1);
    A.beqz(T2, Done);
    A.addu(V0, V0, T0);
    A.addiu(T0, T0, 1);
    A.j(Loop);
    A.bind(Done);
    A.jal(Fn); // exercise call/return across blocks
    A.halt();
    A.bind(Fn);
    A.li(T3, 0x12340000); // lui-only li
    A.addu(V0, V0, Zero);
    A.jr(Ra);
  });
  RunOutcome On = expectParity(Code);
  EXPECT_EQ(On.R.Reason, StopReason::Halted);
  EXPECT_EQ(static_cast<int32_t>(On.R.V0), 49995000);
}

TEST(EngineParity, BranchIntoMiddleOfFusedLuiOri) {
  auto Code = assembled(+[](Assembler &A) {
    // The lui+ori pair fuses on first execution; the second pass enters
    // at the ori directly, which must execute as a standalone block.
    Label Mid = A.newLabel(), Done = A.newLabel();
    A.li(T0, 0);
    A.lui(V0, 0x1234);
    A.bind(Mid);
    A.ori(V0, V0, 0x5678);
    A.bnez(T0, Done);
    A.li(T0, 1);
    A.lui(V0, 0x4321);
    A.j(Mid);
    A.bind(Done);
    A.halt();
  });
  RunOutcome On = expectParity(Code);
  EXPECT_EQ(On.R.V0, 0x43215678u);
}

TEST(EngineParity, BranchIntoMiddleOfFusedCompareBranch) {
  auto Code = assembled(+[](Assembler &A) {
    Label Br = A.newLabel(), Took = A.newLabel();
    A.li(T0, 0);
    A.li(A0, 1);
    A.li(A1, 2);
    A.slt(T2, A0, A1); // fuses with the bne below on first execution
    A.bind(Br);
    A.bnez(T2, Took);
    A.li(V0, 77); // reached on the second, unfused visit
    A.halt();
    A.bind(Took);
    A.li(T0, 1);
    A.li(T2, 0);
    A.j(Br); // enter at the branch half of the pair
  });
  RunOutcome On = expectParity(Code);
  EXPECT_EQ(static_cast<int32_t>(On.R.V0), 77);
}

TEST(EngineParity, OutOfFuelAtEveryBoundary) {
  auto Code = assembled(+[](Assembler &A) {
    Label Loop = A.newLabel();
    A.li(T0, 0);
    A.bind(Loop);
    A.addiu(T0, T0, 1);
    A.xori(T1, T0, 3);
    A.j(Loop);
  });
  // Sweep the budget across several loop iterations so exhaustion lands on
  // every instruction of the block in turn; FaultPc and stats must match
  // the interpreter exactly (the fast path may never over- or under-run).
  for (uint64_t Fuel = 0; Fuel < 12; ++Fuel) {
    SCOPED_TRACE("fuel=" + std::to_string(Fuel));
    RunOutcome On = expectParity(Code, Fuel);
    EXPECT_EQ(On.R.Reason, StopReason::OutOfFuel);
  }
}

TEST(EngineParity, FaultKindsAndPcs) {
  // Undecodable word (fuel consumed, not counted as executed).
  expectParity(assembled(+[](Assembler &A) {
    A.li(T0, 1);
    A.data(0xFFFFFFFFu);
    A.halt();
  }));
  // Unaligned fetch target.
  expectParity(assembled(+[](Assembler &A) {
    A.li(T0, static_cast<int32_t>(layout::StaticCodeBase + 2));
    A.jr(T0);
  }));
  // Divide by zero mid-block.
  expectParity(assembled(+[](Assembler &A) {
    A.li(T0, 42);
    A.divq(V0, T0, Zero);
    A.halt();
  }));
  // Program trap with a payload.
  expectParity(assembled(+[](Assembler &A) {
    A.li(V0, 9);
    A.trap(TrapCode::MemoFull);
  }));
  // Load/store beyond memory.
  expectParity(assembled(+[](Assembler &A) {
    A.li(T0, 0x7FFFFFF0);
    A.lw(V0, 0, T0);
  }));
}

//===----------------------------------------------------------------------===//
// Self-modifying code
//===----------------------------------------------------------------------===//

namespace {

/// Generator torture: emit a 2-instruction function at $cp, flush, call;
/// overwrite the same I-cache line with a new body, re-flush, re-call.
void emitSmcTorture(Assembler &A) {
  // First body: v0 = 111.
  A.li(T0, static_cast<int32_t>(encodeI(Opcode::Addiu, V0, Zero, 111)));
  A.sw(T0, 0, Cp);
  A.li(T0, static_cast<int32_t>(encodeR(Funct::Jr, Zero, Ra, Zero)));
  A.sw(T0, 4, Cp);
  A.li(T1, 8);
  A.flush(Cp, T1);
  A.jalr(Cp, Ra);
  A.move(S0, V0);
  // Rewrite the same line: v0 = 222.
  A.li(T0, static_cast<int32_t>(encodeI(Opcode::Addiu, V0, Zero, 222)));
  A.sw(T0, 0, Cp);
  A.li(T1, 8);
  A.flush(Cp, T1);
  A.jalr(Cp, Ra);
  A.addu(V0, V0, S0);
  A.halt();
}

} // namespace

TEST(SelfModifyingCode, RewriteSameLineWithFlushMatchesInterpreter) {
  RunOutcome On = expectParity(assembled(&emitSmcTorture));
  ASSERT_TRUE(On.R.ok()) << On.R.describe();
  EXPECT_EQ(static_cast<int32_t>(On.R.V0), 333);
  EXPECT_EQ(On.S.DynWordsWritten, 3u);
  EXPECT_EQ(On.S.Flushes, 2u);
  EXPECT_EQ(On.Violations, 0u);
}

TEST(SelfModifyingCode, UnflushedRewriteStillTrapsIncoherent) {
  auto Code = assembled(+[](Assembler &A) {
    // Emit + flush + call (clean), then rewrite WITHOUT flushing and call
    // again: the stale-line fetch must still trap, at the same PC, with
    // exactly one recorded violation — cached blocks must not let the
    // rewritten line execute (or the old body run) silently.
    A.li(T0, static_cast<int32_t>(encodeI(Opcode::Addiu, V0, Zero, 1)));
    A.sw(T0, 0, Cp);
    A.li(T0, static_cast<int32_t>(encodeR(Funct::Jr, Zero, Ra, Zero)));
    A.sw(T0, 4, Cp);
    A.li(T1, 8);
    A.flush(Cp, T1);
    A.jalr(Cp, Ra);
    A.li(T0, static_cast<int32_t>(encodeI(Opcode::Addiu, V0, Zero, 2)));
    A.sw(T0, 0, Cp); // dirty again; no flush this time
    A.jalr(Cp, Ra);
    A.halt();
  });
  RunOutcome On = expectParity(Code);
  EXPECT_EQ(On.R.Reason, StopReason::Trapped);
  EXPECT_EQ(On.R.FaultKind, Fault::IcacheIncoherent);
  EXPECT_EQ(On.R.FaultPc, layout::DynCodeBase);
  EXPECT_EQ(On.Violations, 1u);
}

TEST(SelfModifyingCode, StaticCodeOverwritingItsOwnBlock) {
  auto Code = assembled(+[](Assembler &A) {
    // Static-region store that overwrites the NEXT instruction. The static
    // region has no dirty-line model (only the dynamic segment does), so
    // the new word must execute immediately — the cached block containing
    // both the store and its target must notice mid-block.
    Label Target = A.newLabel();
    A.la(T0, Target);
    A.li(T1, static_cast<int32_t>(encodeI(Opcode::Addiu, V0, Zero, 99)));
    A.sw(T1, 0, T0);
    A.bind(Target);
    A.addiu(V0, Zero, 1); // replaced by "addiu $v0, $zero, 99" just in time
    A.halt();
  });
  RunOutcome On = expectParity(Code);
  EXPECT_EQ(static_cast<int32_t>(On.R.V0), 99);
}

TEST(SelfModifyingCode, RepeatedRespecializationLoop) {
  auto Code = assembled(+[](Assembler &A) {
    // Re-emit a different constant-returning function at the same address
    // ten times, calling it after each flush: exercises repeated cached
    // block invalidation + rebuild over one line.
    Label Loop = A.newLabel(), Done = A.newLabel();
    A.li(S0, 0);  // iteration
    A.li(S1, 10); // count
    A.li(V0, 0);  // accumulated results
    A.bind(Loop);
    A.slt(T2, S0, S1);
    A.beqz(T2, Done);
    // body word: addiu $v1, $zero, <iteration>
    A.li(T0, static_cast<int32_t>(encodeI(Opcode::Addiu, V1, Zero, 0)));
    A.addu(T0, T0, S0); // bake the iteration into the immediate
    A.sw(T0, 0, Cp);
    A.li(T0, static_cast<int32_t>(encodeR(Funct::Jr, Zero, Ra, Zero)));
    A.sw(T0, 4, Cp);
    A.li(T1, 8);
    A.flush(Cp, T1);
    A.jalr(Cp, Ra);
    A.addu(V0, V0, V1);
    A.addiu(S0, S0, 1);
    A.j(Loop);
    A.bind(Done);
    A.halt();
  });
  RunOutcome On = expectParity(Code);
  ASSERT_TRUE(On.R.ok()) << On.R.describe();
  EXPECT_EQ(static_cast<int32_t>(On.R.V0), 45); // 0+1+...+9
  EXPECT_EQ(On.Violations, 0u);
}

//===----------------------------------------------------------------------===//
// Host-write coherence (store32 / writeBlock / flushIcache)
//===----------------------------------------------------------------------===//

namespace {

Vm makeHostWriteVm() {
  Vm M;
  M.setCodeRegions(layout::StaticCodeBase, layout::StaticCodeEnd,
                   layout::DynCodeBase, layout::DynCodeEnd);
  M.setReg(Sp, layout::StackTop);
  Assembler A(layout::StaticCodeBase);
  A.li(T0, static_cast<int32_t>(layout::DynCodeBase));
  A.jalr(T0, Ra);
  A.halt();
  A.finalize();
  M.writeBlock(A.baseAddr(), A.code().data(), A.code().size());
  return M;
}

} // namespace

TEST(HostWriteCoherence, WriteBlockIntoDynRegionRequiresFlush) {
  Vm M = makeHostWriteVm();
  const uint32_t Body[2] = {encodeI(Opcode::Addiu, V0, Zero, 7),
                            encodeR(Funct::Jr, Zero, Ra, Zero)};
  M.writeBlock(layout::DynCodeBase, Body, 2);

  // Host writes obey the same discipline as guest sw: unflushed -> trap.
  ExecResult R = M.run(layout::StaticCodeBase);
  EXPECT_EQ(R.Reason, StopReason::Trapped);
  EXPECT_EQ(R.FaultKind, Fault::IcacheIncoherent);
  EXPECT_EQ(R.FaultPc, layout::DynCodeBase);
  EXPECT_EQ(M.coherenceViolations(), 1u);

  // flushIcache is the host-side flush: clean lines, no simulated cycles.
  uint64_t CyclesBefore = M.stats().Cycles;
  M.flushIcache(layout::DynCodeBase, 8);
  EXPECT_EQ(M.stats().Cycles, CyclesBefore);
  R = M.run(layout::StaticCodeBase);
  ASSERT_TRUE(R.ok()) << R.describe();
  EXPECT_EQ(static_cast<int32_t>(R.V0), 7);
}

TEST(HostWriteCoherence, Store32RewriteInvalidatesCachedBlock) {
  Vm M = makeHostWriteVm();
  const uint32_t Body[2] = {encodeI(Opcode::Addiu, V0, Zero, 7),
                            encodeR(Funct::Jr, Zero, Ra, Zero)};
  M.writeBlock(layout::DynCodeBase, Body, 2);
  M.flushIcache(layout::DynCodeBase, 8);
  ASSERT_EQ(static_cast<int32_t>(M.run(layout::StaticCodeBase).V0), 7);

  // A single host store32 rewrite: dirty again, so execute-before-flush
  // traps; after flushing, the NEW body must run (a stale cached block
  // returning 7 would be a coherence bug in the engine itself).
  M.store32(layout::DynCodeBase, encodeI(Opcode::Addiu, V0, Zero, 8));
  ExecResult R = M.run(layout::StaticCodeBase);
  EXPECT_EQ(R.FaultKind, Fault::IcacheIncoherent);
  M.flushIcache(layout::DynCodeBase, 8);
  R = M.run(layout::StaticCodeBase);
  ASSERT_TRUE(R.ok()) << R.describe();
  EXPECT_EQ(static_cast<int32_t>(R.V0), 8);
}

TEST(HostWriteCoherence, StaticCodeLoadBeforeRegionsIsClean) {
  // The Machine facade loads static code via writeBlock BEFORE declaring
  // code regions; that load must not mark anything dirty.
  Vm M;
  Assembler A(layout::StaticCodeBase);
  A.li(V0, 5);
  A.halt();
  A.finalize();
  M.writeBlock(A.baseAddr(), A.code().data(), A.code().size());
  M.setCodeRegions(layout::StaticCodeBase, layout::StaticCodeEnd,
                   layout::DynCodeBase, layout::DynCodeEnd);
  ExecResult R = M.run(layout::StaticCodeBase);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(static_cast<int32_t>(R.V0), 5);
  EXPECT_EQ(M.coherenceViolations(), 0u);
}

// Host writes that miss both code regions skip decode-cache invalidation
// only while no block is cached outside them; code run from the heap
// makes the Region-0 count nonzero, so a heap store must still retire it.
TEST(HostWriteCoherence, Store32IntoHeapRetiresBlockCachedAtHeapPc) {
  Vm M;
  M.setCodeRegions(layout::StaticCodeBase, layout::StaticCodeEnd,
                   layout::DynCodeBase, layout::DynCodeEnd);
  const uint32_t Body[2] = {encodeI(Opcode::Addiu, V0, Zero, 7),
                            encodeExt(ExtFn::Halt)};
  ASSERT_TRUE(M.writeBlock(layout::HeapBase, Body, 2));
  ASSERT_EQ(static_cast<int32_t>(M.run(layout::HeapBase).V0), 7);

  const uint64_t InvalBefore = M.decodeCacheStats().Invalidations;
  ASSERT_TRUE(
      M.store32(layout::HeapBase, encodeI(Opcode::Addiu, V0, Zero, 8)));
  if (M.decodeCacheEnabled()) {
    EXPECT_EQ(M.decodeCacheStats().Invalidations, InvalBefore + 1);
  }
  ExecResult R = M.run(layout::HeapBase);
  ASSERT_TRUE(R.ok()) << R.describe();
  EXPECT_EQ(static_cast<int32_t>(R.V0), 8);
}

// A wide invalidation takes the one-pass sweep. A block that shares an
// I-cache line with a victim but lies outside the range must survive it
// and stay indexed, so a later store to it still retires it.
TEST(HostWriteCoherence, WideInvalidationKeepsLineNeighbourIndexed) {
  Vm M;
  M.setCodeRegions(layout::StaticCodeBase, layout::StaticCodeEnd,
                   layout::DynCodeBase, layout::DynCodeEnd);
  const uint32_t Base = layout::StaticCodeBase;
  // Two blocks in one 16-byte line: [Base, Base+8) jumps to [Base+8, ...).
  const uint32_t Code[4] = {
      encodeI(Opcode::Addiu, T0, Zero, 1),
      encodeJ(Opcode::J, Base + 8),
      encodeI(Opcode::Addiu, V0, T0, 10),
      encodeExt(ExtFn::Halt),
  };
  ASSERT_TRUE(M.writeBlock(Base, Code, 4));
  ASSERT_EQ(static_cast<int32_t>(M.run(Base).V0), 11);

  const uint64_t InvalBefore = M.decodeCacheStats().Invalidations;
  M.invalidateDecodeCache(0, Base + 8); // first block only, hundreds of lines
  if (M.decodeCacheEnabled()) {
    EXPECT_EQ(M.decodeCacheStats().Invalidations, InvalBefore + 1);
  }

  ASSERT_TRUE(M.store32(Base + 8, encodeI(Opcode::Addiu, V0, T0, 20)));
  if (M.decodeCacheEnabled()) {
    EXPECT_EQ(M.decodeCacheStats().Invalidations, InvalBefore + 2);
  }
  ExecResult R = M.run(Base);
  ASSERT_TRUE(R.ok()) << R.describe();
  EXPECT_EQ(static_cast<int32_t>(R.V0), 21);
}

//===----------------------------------------------------------------------===//
// Coherence bookkeeping edges: the line-count index, the dirty-line
// bitmap's ends, re-declared regions
//===----------------------------------------------------------------------===//

// The line-count index finds a line's blocks by probing entry PCs up to
// MaxBlockInsts words before the line. Here the line's only block starts
// MaxBlockInsts - 1 words before it (its last word is the line's first),
// the farthest any overlapping block can start: a guest store and then a
// host store into the line must each retire exactly that block.
TEST(LineIndex, StoreRetiresBlockStartingMaxBlockInstsMinusOneWordsEarlier) {
  const uint32_t Max = VmOptions().MaxBlockInsts;
  const uint32_t Line = VmOptions().IcacheLineBytes;
  // The line the block ends in, past the caller's code.
  const uint32_t LineLo = layout::StaticCodeBase + 64 * Line;
  const uint32_t BlkBase = LineLo - 4 * (Max - 1);
  const uint32_t Target = LineLo + 8; // a data word in the same line

  Assembler A(layout::StaticCodeBase);
  Label Blk = A.newLabel();
  A.jal(Blk);
  A.move(S0, V0);
  A.li(T0, static_cast<int32_t>(Target));
  A.sw(Zero, 0, T0); // guest store into the block's last line
  A.jal(Blk);
  A.addu(V0, V0, S0);
  A.halt();
  while (A.currentAddr() < BlkBase)
    A.nop();
  ASSERT_EQ(A.currentAddr(), BlkBase);
  // Max instructions, no fusable pair: Max - 1 addius and the return.
  A.bind(Blk);
  A.addiu(V0, Zero, 0);
  for (uint32_t I = 2; I < Max; ++I)
    A.addiu(V0, V0, 1);
  A.jr(Ra);
  ASSERT_EQ(A.currentAddr(), LineLo + 4);
  A.data(0);
  A.data(0); // Target
  A.finalize();

  Vm M;
  M.setCodeRegions(layout::StaticCodeBase, layout::StaticCodeEnd,
                   layout::DynCodeBase, layout::DynCodeEnd);
  M.setReg(Sp, layout::StackTop);
  ASSERT_TRUE(M.writeBlock(A.baseAddr(), A.code().data(), A.code().size()));
  const int32_t Body = static_cast<int32_t>(Max) - 2;

  const uint64_t Inval0 = M.decodeCacheStats().Invalidations;
  ExecResult R = M.run(layout::StaticCodeBase);
  ASSERT_TRUE(R.ok()) << R.describe();
  EXPECT_EQ(static_cast<int32_t>(R.V0), 2 * Body);
  const bool Cache = M.decodeCacheEnabled();
  EXPECT_EQ(M.decodeCacheStats().Invalidations - Inval0, Cache ? 1u : 0u);

  // The second call rebuilt the block; a host store retires it again.
  const uint64_t Inval1 = M.decodeCacheStats().Invalidations;
  ASSERT_TRUE(M.store32(Target, 0));
  EXPECT_EQ(M.decodeCacheStats().Invalidations - Inval1, Cache ? 1u : 0u);
  R = M.run(layout::StaticCodeBase);
  ASSERT_TRUE(R.ok()) << R.describe();
  EXPECT_EQ(static_cast<int32_t>(R.V0), 2 * Body);
}

namespace {

/// One host call's result and the instructions it retired on each tier.
struct CallOutcome {
  ExecResult R;
  DecodeCacheStats Delta; ///< only FastInsts and SlowInsts are filled in
};

/// Calls the function at \p Entry with no arguments.
CallOutcome callAt(Vm &M, uint32_t Entry) {
  const DecodeCacheStats Before = M.decodeCacheStats();
  CallOutcome O;
  O.R = M.call(Entry, {});
  const DecodeCacheStats &After = M.decodeCacheStats();
  O.Delta.SlowInsts = After.SlowInsts - Before.SlowInsts;
  O.Delta.FastInsts = After.FastInsts - Before.FastInsts;
  return O;
}

/// `v0 = Value; return` as two words.
std::array<uint32_t, 2> constFn(int16_t Value) {
  return {encodeI(Opcode::Addiu, V0, Zero, static_cast<uint16_t>(Value)),
          encodeR(Funct::Jr, Zero, Ra, Zero)};
}

} // namespace

// Host writes and flushes that straddle either end of the dynamic
// segment touch only the segment's lines. Executing a line still dirty
// traps; once every line is flushed, dynamic code runs on the fast path
// with no per-instruction coherence checks.
TEST(DirtyLines, StraddlingRangesMarkAndFlushOnlySegmentLines) {
  const uint32_t Lo = layout::DynCodeBase, Hi = layout::DynCodeEnd;
  Vm M;
  M.setCodeRegions(layout::StaticCodeBase, layout::StaticCodeEnd, Lo, Hi);
  M.setReg(Sp, layout::StackTop);
  const bool Cache = M.decodeCacheEnabled();

  // [Lo - 8, Lo + 8): two heap words, then v0 = 7 at Lo.
  const std::array<uint32_t, 2> F7 = constFn(7);
  const uint32_t Low[4] = {0, 0, F7[0], F7[1]};
  ASSERT_TRUE(M.writeBlock(Lo - 8, Low, 4));
  // [Hi - 8, Hi + 8): v0 = 9 in the segment's last line, then two words
  // of the stack region above it.
  const std::array<uint32_t, 2> F9 = constFn(9);
  const uint32_t High[4] = {F9[0], F9[1], 0, 0};
  ASSERT_TRUE(M.writeBlock(Hi - 8, High, 4));
  // A run of lines crossing several bitmap words, v0 = 3 at its start and
  // v0 = 5 at its last line.
  const uint32_t Mid = Lo + 0x1000, MidWords = 600;
  std::vector<uint32_t> Run(MidWords, 0);
  const std::array<uint32_t, 2> F3 = constFn(3), F5 = constFn(5);
  std::copy(F3.begin(), F3.end(), Run.begin());
  std::copy(F5.begin(), F5.end(), Run.end() - 4);
  ASSERT_TRUE(M.writeBlock(Mid, Run.data(), Run.size()));
  const uint32_t MidLast = Mid + 4 * (MidWords - 4);

  for (uint32_t Entry : {Lo, Hi - 8, Mid, MidLast}) {
    CallOutcome O = callAt(M, Entry);
    EXPECT_EQ(O.R.FaultKind, Fault::IcacheIncoherent) << hex32(Entry);
    EXPECT_EQ(O.R.FaultPc, Entry);
  }

  // Flush across the top end, then all but the last line of the run.
  M.flushIcache(Hi - 16, 64);
  M.flushIcache(Mid, 4 * (MidWords - 4));
  EXPECT_EQ(static_cast<int32_t>(callAt(M, Hi - 8).R.V0), 9);
  EXPECT_EQ(static_cast<int32_t>(callAt(M, Mid).R.V0), 3);
  EXPECT_EQ(callAt(M, MidLast).R.FaultKind, Fault::IcacheIncoherent);
  EXPECT_EQ(callAt(M, Lo).R.FaultKind, Fault::IcacheIncoherent);

  // Flush across the bottom end and the run's last line: nothing is dirty.
  M.flushIcache(Lo - 32, 48);
  M.flushIcache(MidLast, 4);
  for (auto [Entry, Want] : {std::pair{Lo, 7}, {Hi - 8, 9}, {Mid, 3},
                             {MidLast, 5}}) {
    CallOutcome O = callAt(M, Entry);
    ASSERT_TRUE(O.R.ok()) << hex32(Entry) << ": " << O.R.describe();
    EXPECT_EQ(static_cast<int32_t>(O.R.V0), Want);
    if (Cache) {
      EXPECT_EQ(O.Delta.SlowInsts, 0u) << hex32(Entry);
      EXPECT_EQ(O.Delta.FastInsts, 2u) << hex32(Entry);
    }
  }
  EXPECT_EQ(M.coherenceViolations(), 6u);
}

// A flush whose range ends in the last line of the 32-bit address space
// clears the lines it covers and returns; stepping a line address past
// 2^32 used to wrap to 0 and loop forever.
TEST(DirtyLines, FlushEndingAtTheTopOfTheAddressSpaceTerminates) {
  RunOutcome On = expectParity(assembled(+[](Assembler &A) {
    A.li(T2, static_cast<int32_t>(layout::DynCodeBase));
    A.sw(Zero, 0, T2); // one dirty line, so the flush has work to do
    A.li(T0, static_cast<int32_t>(0xFFFFFF00u));
    A.li(T1, 0xFF);
    A.flush(T0, T1);
    A.li(V0, 1);
    A.halt();
  }));
  EXPECT_EQ(On.R.Reason, StopReason::Halted);
  EXPECT_EQ(On.S.Flushes, 1u);

  Vm M;
  M.setCodeRegions(layout::StaticCodeBase, layout::StaticCodeEnd,
                   layout::DynCodeBase, layout::DynCodeEnd);
  ASSERT_TRUE(M.store32(layout::DynCodeBase, 0)); // one dirty line
  M.flushIcache(0xFFFFFF00u, 0xFF);
}

// Re-declaring the code regions while blocks are cached drops them (the
// region classes that split them changed) and keeps every line that was
// dirty and is still in the dynamic segment dirty, although the
// segment's first line moved.
TEST(DirtyLines, RedeclaredRegionsWithLiveBlocksStillRunCorrectly) {
  auto Drive = [](bool Cache) {
    VmOptions VO;
    VO.EnableDecodeCache = Cache;
    Vm M(VO);
    M.setCodeRegions(layout::StaticCodeBase, layout::StaticCodeEnd,
                     layout::DynCodeBase, layout::DynCodeEnd);
    M.setReg(Sp, layout::StackTop);
    const uint32_t Clean = layout::DynCodeBase + 0x100;
    const uint32_t Dirty = layout::DynCodeBase + 0x200;
    const std::array<uint32_t, 2> F4 = constFn(4), F6 = constFn(6);
    EXPECT_TRUE(M.writeBlock(Clean, F4.data(), 2));
    EXPECT_TRUE(M.writeBlock(Dirty, F6.data(), 2));
    M.flushIcache(Clean, 8);
    std::vector<ExecResult> Rs;
    Rs.push_back(M.call(Clean, {})); // caches Clean's block
    // Grow the segment downwards: its first line moves 64 lines down.
    M.setCodeRegions(layout::StaticCodeBase, layout::StaticCodeEnd,
                     layout::DynCodeBase - 0x400, layout::DynCodeEnd);
    Rs.push_back(M.call(Clean, {}));
    Rs.push_back(M.call(Dirty, {})); // still dirty
    M.flushIcache(Dirty, 8);
    Rs.push_back(M.call(Dirty, {}));
    // Shrink it from above past Dirty: Dirty is no longer dynamic code.
    EXPECT_TRUE(M.store32(Dirty, F6[0]));
    M.setCodeRegions(layout::StaticCodeBase, layout::StaticCodeEnd,
                     layout::DynCodeBase - 0x400, Dirty);
    Rs.push_back(M.call(Dirty, {}));
    return std::pair{Rs, M.stats()};
  };
  auto [On, OnStats] = Drive(true);
  auto [Off, OffStats] = Drive(false);
  ASSERT_EQ(On.size(), 5u);
  const std::array<int32_t, 5> Want = {4, 4, -1, 6, 6};
  for (size_t I = 0; I < On.size(); ++I) {
    SCOPED_TRACE("call " + std::to_string(I));
    EXPECT_EQ(On[I].Reason, Off[I].Reason);
    EXPECT_EQ(On[I].FaultKind, Off[I].FaultKind);
    EXPECT_EQ(On[I].FaultPc, Off[I].FaultPc);
    EXPECT_EQ(On[I].V0, Off[I].V0);
    if (Want[I] < 0) {
      EXPECT_EQ(On[I].FaultKind, Fault::IcacheIncoherent);
    } else {
      ASSERT_TRUE(On[I].ok()) << On[I].describe();
      EXPECT_EQ(static_cast<int32_t>(On[I].V0), Want[I]);
    }
  }
  EXPECT_TRUE(OnStats == OffStats);
}

//===----------------------------------------------------------------------===//
// Decode-cache statistics and Machine integration
//===----------------------------------------------------------------------===//

TEST(DecodeCacheStats, CountersTrackEngineActivity) {
  auto Code = assembled(+[](Assembler &A) {
    Label Loop = A.newLabel(), Done = A.newLabel();
    A.li(T0, 0);
    A.li(T1, 100);
    A.bind(Loop);
    A.slt(T2, T0, T1);
    A.beqz(T2, Done);
    A.addiu(T0, T0, 1);
    A.j(Loop);
    A.bind(Done);
    A.move(V0, T0);
    A.halt();
  });
  VmOptions VO;
  Vm M(VO);
  M.setCodeRegions(layout::StaticCodeBase, layout::StaticCodeEnd,
                   layout::DynCodeBase, layout::DynCodeEnd);
  M.writeBlock(layout::StaticCodeBase, Code.data(), Code.size());
  ASSERT_EQ(static_cast<int32_t>(M.run(layout::StaticCodeBase).V0), 100);

  const DecodeCacheStats &DC = M.decodeCacheStats();
  const VmStats &S = M.stats();
  if (M.decodeCacheEnabled()) {
    EXPECT_GT(DC.BlocksBuilt, 0u);
    EXPECT_GT(DC.BlockRuns, DC.BlocksBuilt); // loop re-dispatches blocks
    EXPECT_GT(DC.FusedOps, 0u);              // li and slt+beqz fuse
    EXPECT_EQ(DC.FastInsts + DC.SlowInsts, S.Executed);
  } else {
    EXPECT_EQ(DC.BlocksBuilt, 0u);
    EXPECT_EQ(DC.FastInsts, 0u);
    EXPECT_EQ(DC.SlowInsts, S.Executed);
  }
}

namespace {

const char *DotSrc =
    "fun dotprod v1 v2 = loop (v1, 0, length v1) (v2, 0)\n"
    "and loop (v1 : int vector, i, n) (v2 : int vector, sum) =\n"
    "  if i = n then sum\n"
    "  else loop (v1, i + 1, n) (v2, sum + (v1 sub i) * (v2 sub i))\n";

int32_t runDotprod(Machine &M) {
  uint32_t V1 = M.heap().vector({1, 2, 3, 4, 5});
  uint32_t V2 = M.heap().vector({6, 7, 8, 9, 10});
  FabResult<int32_t> R = M.invoke<int32_t>("dotprod", {V1, V2});
  EXPECT_TRUE(R.ok()) << R.error().message();
  return R.ok() ? *R : 0;
}

} // namespace

TEST(MachineIntegration, FullPipelineStatsAreBitIdentical) {
  DiagnosticEngine Diags;
  auto C = compile(DotSrc, FabiusOptions::deferred(), Diags);
  ASSERT_TRUE(C) << Diags.str();

  VmOptions On, Off;
  Off.EnableDecodeCache = false;
  Machine MOn(C->Unit, On), MOff(C->Unit, Off);
  EXPECT_EQ(runDotprod(MOn), 130);
  EXPECT_EQ(runDotprod(MOff), 130);

  // The whole generate -> flush -> execute pipeline, same simulated world.
  const VmStats &A = MOn.vm().stats(), &B = MOff.vm().stats();
  EXPECT_EQ(A.Executed, B.Executed);
  EXPECT_EQ(A.ExecutedStatic, B.ExecutedStatic);
  EXPECT_EQ(A.ExecutedDynamic, B.ExecutedDynamic);
  EXPECT_EQ(A.Loads, B.Loads);
  EXPECT_EQ(A.Stores, B.Stores);
  EXPECT_EQ(A.DynWordsWritten, B.DynWordsWritten);
  EXPECT_EQ(A.Flushes, B.Flushes);
  EXPECT_EQ(A.FlushedBytes, B.FlushedBytes);
  EXPECT_EQ(A.Cycles, B.Cycles);
}

TEST(MachineIntegration, ResetCodeSpaceInvalidatesCachedBlocks) {
  DiagnosticEngine Diags;
  auto C = compile(DotSrc, FabiusOptions::deferred(), Diags);
  ASSERT_TRUE(C) << Diags.str();

  Machine M(C->Unit);
  EXPECT_EQ(runDotprod(M), 130);
  uint64_t InvalBefore = M.vm().decodeCacheStats().Invalidations;
  M.resetCodeSpace();
  if (M.vm().decodeCacheEnabled()) {
    // Specialized code executed from the dynamic segment, so reset must
    // have dropped cached blocks there.
    EXPECT_GT(M.vm().decodeCacheStats().Invalidations, InvalBefore);
  }
  // Respecialization after reset still computes the right answer.
  EXPECT_EQ(runDotprod(M), 130);
}

// Blocks retired by a code-space reset are recycled for the rebuilds.
// Every epoch after the first does the same work, so on the decode cache
// it must count the same builds, runs, fused ops and invalidations, and
// fast plus slow instructions must add up to what the reference
// interpreter executed.
TEST(MachineIntegration, ResetThenRebuildKeepsDecodeCacheCounts) {
  DiagnosticEngine Diags;
  auto C = compile(DotSrc, FabiusOptions::deferred(), Diags);
  ASSERT_TRUE(C) << Diags.str();
  VmOptions Off;
  Off.EnableDecodeCache = false;
  Machine M(C->Unit), Ref(C->Unit, Off);

  auto Epochs = [](Machine &X) {
    const uint32_t V1 = X.heap().vector({1, 2, 3, 4, 5});
    const uint32_t V2 = X.heap().vector({6, 7, 8, 9, 10});
    std::vector<DecodeCacheStats> After;
    for (int E = 0; E < 3; ++E) {
      const uint32_t Spec = X.specializeOrDie("loop", {V1, 0, 5});
      EXPECT_EQ(X.invokeOrDie<int32_t>(Spec, {V2, 0}), 130);
      X.resetCodeSpace();
      After.push_back(X.vm().decodeCacheStats());
    }
    return After;
  };
  const std::vector<DecodeCacheStats> On = Epochs(M), RefStats = Epochs(Ref);
  EXPECT_TRUE(M.vm().stats() == Ref.vm().stats());
  EXPECT_EQ(RefStats.back().SlowInsts, Ref.vm().stats().Executed);
  if (!M.vm().decodeCacheEnabled())
    return;
  EXPECT_EQ(On.back().FastInsts + On.back().SlowInsts,
            RefStats.back().SlowInsts);

  auto Delta = [&](size_t E, uint64_t DecodeCacheStats::*F) {
    return On[E].*F - On[E - 1].*F;
  };
  for (auto F : {&DecodeCacheStats::BlocksBuilt, &DecodeCacheStats::BlockRuns,
                 &DecodeCacheStats::FastInsts, &DecodeCacheStats::SlowInsts,
                 &DecodeCacheStats::FusedOps,
                 &DecodeCacheStats::Invalidations})
    EXPECT_EQ(Delta(1, F), Delta(2, F));
  EXPECT_GT(Delta(1, &DecodeCacheStats::BlocksBuilt), 0u);
  EXPECT_GT(Delta(1, &DecodeCacheStats::Invalidations), 0u);
}

TEST(MachineIntegration, FreshMachineIsZeroOutsideCodeAndTemplates) {
  const char *Src =
      "datatype iset = SNil | SCons of int * iset\n"
      "fun member (s : iset) (x : int) =\n"
      "  case s of SNil => 0\n"
      "  | SCons (e, rest) => if x = e then 1 else member rest x";
  FabiusOptions Opts = FabiusOptions::deferred();
  Opts.Backend.EmitTemplates = true;
  Compilation C = compileOrDie(Src, Opts);
  ASSERT_FALSE(C.Unit.TemplateData.empty());
  Machine M(C);

  // The words the constructor loads, as [Base, Base + 4 * size) ranges.
  std::vector<std::pair<uint32_t, const std::vector<uint32_t> *>> Loaded = {
      {C.Unit.CodeBase, &C.Unit.Code},
      {C.Unit.TemplateBase, &C.Unit.TemplateData}};
  if (C.PlainUnit)
    Loaded.push_back({C.PlainUnit->CodeBase, &C.PlainUnit->Code});
  std::sort(Loaded.begin(), Loaded.end());

  const std::span<const uint8_t> Mem = M.vm().memory();
  ASSERT_EQ(Mem.size(), M.vm().memBytes());
  auto Zero = [](uint8_t B) { return B == 0; };
  size_t Next = 0;
  for (const auto &[Base, Words] : Loaded) {
    ASSERT_LE(Next, Base) << "loaded ranges overlap";
    EXPECT_TRUE(std::all_of(Mem.begin() + Next, Mem.begin() + Base, Zero))
        << "nonzero byte below " << Base;
    for (size_t I = 0; I < Words->size(); ++I)
      ASSERT_EQ(M.vm().load32(Base + 4 * static_cast<uint32_t>(I)),
                (*Words)[I]);
    Next = Base + 4 * Words->size();
  }
  EXPECT_TRUE(std::all_of(Mem.begin() + Next, Mem.end(), Zero));
}
