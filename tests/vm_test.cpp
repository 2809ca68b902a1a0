//===- vm_test.cpp - FAB-32 simulator semantics tests ---------------------===//

#include "vm/Vm.h"

#include "asmkit/Assembler.h"
#include "runtime/HeapImage.h"
#include "runtime/Layout.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>

using namespace fab;

namespace {

/// Assembles a snippet at the static code base, loads it, and returns a
/// ready machine. The snippet must end in halt or jr $ra.
struct TestMachine {
  Vm M;
  Assembler A{layout::StaticCodeBase};

  TestMachine() {
    M.setCodeRegions(layout::StaticCodeBase, layout::StaticCodeEnd,
                     layout::DynCodeBase, layout::DynCodeEnd);
    M.setReg(Sp, layout::StackTop);
    M.setReg(Hp, layout::HeapBase);
    M.setReg(Cp, layout::DynCodeBase);
  }

  void load() {
    A.finalize();
    M.writeBlock(A.baseAddr(), A.code().data(), A.code().size());
  }

  ExecResult run() { return M.run(A.baseAddr()); }
};

} // namespace

TEST(VmExec, HaltReturnsV0) {
  TestMachine T;
  T.A.li(V0, 42);
  T.A.halt();
  T.load();
  ExecResult R = T.run();
  EXPECT_EQ(R.Reason, StopReason::Halted);
  EXPECT_EQ(static_cast<int32_t>(R.V0), 42);
}

TEST(VmExec, ArithmeticBasics) {
  TestMachine T;
  T.A.li(T0, 20);
  T.A.li(T1, 22);
  T.A.addu(V0, T0, T1);
  T.A.halt();
  T.load();
  EXPECT_EQ(static_cast<int32_t>(T.run().V0), 42);
}

TEST(VmExec, SubNegativeResult) {
  TestMachine T;
  T.A.li(T0, 5);
  T.A.li(T1, 9);
  T.A.subu(V0, T0, T1);
  T.A.halt();
  T.load();
  EXPECT_EQ(static_cast<int32_t>(T.run().V0), -4);
}

TEST(VmExec, MulSigned) {
  TestMachine T;
  T.A.li(T0, -7);
  T.A.li(T1, 6);
  T.A.mul(V0, T0, T1);
  T.A.halt();
  T.load();
  EXPECT_EQ(static_cast<int32_t>(T.run().V0), -42);
}

TEST(VmExec, DivAndRemSigned) {
  TestMachine T;
  T.A.li(T0, -17);
  T.A.li(T1, 5);
  T.A.divq(T2, T0, T1);
  T.A.rem(T3, T0, T1);
  // Pack: v0 = quotient * 100 + remainder (remainder is -2).
  T.A.li(T4, 100);
  T.A.mul(V0, T2, T4);
  T.A.addu(V0, V0, T3);
  T.A.halt();
  T.load();
  EXPECT_EQ(static_cast<int32_t>(T.run().V0), -3 * 100 + -2);
}

TEST(VmExec, DivByZeroFaults) {
  TestMachine T;
  T.A.li(T0, 1);
  T.A.divq(V0, T0, Zero);
  T.A.halt();
  T.load();
  ExecResult R = T.run();
  EXPECT_EQ(R.Reason, StopReason::Trapped);
  EXPECT_EQ(R.FaultKind, Fault::DivideByZero);
}

TEST(VmExec, ShiftsImmediateAndVariable) {
  TestMachine T;
  T.A.li(T0, -16);
  T.A.sra(T1, T0, 2); // -4
  T.A.li(T2, 3);
  T.A.sllv(T3, T1, T2); // -32
  T.A.srl(V0, T3, 28);  // logical: 0xFFFFFFE0 >> 28 = 0xF
  T.A.halt();
  T.load();
  EXPECT_EQ(T.run().V0, 0xFu);
}

TEST(VmExec, SltSignedVsUnsigned) {
  TestMachine T;
  T.A.li(T0, -1);
  T.A.li(T1, 1);
  T.A.slt(T2, T0, T1);  // 1 (signed)
  T.A.sltu(T3, T0, T1); // 0 (0xFFFFFFFF not < 1)
  T.A.sll(T2, T2, 1);
  T.A.or_(V0, T2, T3);
  T.A.halt();
  T.load();
  EXPECT_EQ(T.run().V0, 2u);
}

TEST(VmExec, LuiOriBuilds32BitConstant) {
  TestMachine T;
  T.A.li(V0, static_cast<int32_t>(0xDEADBEEF));
  T.A.halt();
  T.load();
  EXPECT_EQ(T.run().V0, 0xDEADBEEFu);
}

TEST(VmExec, ZeroRegisterIgnoresWrites) {
  TestMachine T;
  T.A.li(T0, 7);
  T.A.addu(Zero, T0, T0);
  T.A.move(V0, Zero);
  T.A.halt();
  T.load();
  EXPECT_EQ(T.run().V0, 0u);
}

TEST(VmExec, LoadStoreRoundTrip) {
  TestMachine T;
  T.A.li(T0, layout::HeapBase);
  T.A.li(T1, 1234);
  T.A.sw(T1, 8, T0);
  T.A.lw(V0, 8, T0);
  T.A.halt();
  T.load();
  EXPECT_EQ(static_cast<int32_t>(T.run().V0), 1234);
  EXPECT_EQ(T.M.stats().Loads, 1u);
  EXPECT_EQ(T.M.stats().Stores, 1u);
}

TEST(VmExec, MisalignedLoadFaults) {
  TestMachine T;
  T.A.li(T0, layout::HeapBase + 2);
  T.A.lw(V0, 0, T0);
  T.A.halt();
  T.load();
  ExecResult R = T.run();
  EXPECT_EQ(R.FaultKind, Fault::BadAccess);
}

TEST(VmExec, BranchesAndLoop) {
  // Sum 1..10 with a bne loop.
  TestMachine T;
  Label Loop = T.A.newLabel();
  T.A.li(T0, 0);  // i
  T.A.li(V0, 0);  // sum
  T.A.li(T1, 10); // n
  T.A.bind(Loop);
  T.A.addiu(T0, T0, 1);
  T.A.addu(V0, V0, T0);
  T.A.bne(T0, T1, Loop);
  T.A.halt();
  T.load();
  EXPECT_EQ(static_cast<int32_t>(T.run().V0), 55);
}

TEST(VmExec, JalAndJrImplementCalls) {
  TestMachine T;
  Label Fn = T.A.newLabel(), Main = T.A.newLabel();
  T.A.j(Main);
  T.A.bind(Fn); // fn: v0 = a0 + 1
  T.A.addiu(V0, A0, 1);
  T.A.jr(Ra);
  T.A.bind(Main);
  T.A.li(A0, 41);
  T.A.jal(Fn);
  T.A.halt();
  T.load();
  EXPECT_EQ(static_cast<int32_t>(T.run().V0), 42);
}

TEST(VmExec, JalrLinksAndJumps) {
  TestMachine T;
  Label Fn = T.A.newLabel(), Main = T.A.newLabel();
  T.A.j(Main);
  T.A.bind(Fn);
  T.A.li(V0, 99);
  T.A.jr(Ra);
  T.A.bind(Main);
  T.A.la(T0, Fn);
  T.A.jalr(T0);
  T.A.halt();
  T.load();
  EXPECT_EQ(static_cast<int32_t>(T.run().V0), 99);
}

TEST(VmExec, HostCallConvention) {
  TestMachine T;
  // v0 = a0*2 + a1; return to host.
  T.A.sll(V0, A0, 1);
  T.A.addu(V0, V0, A1);
  T.A.jr(Ra);
  T.load();
  ExecResult R = T.M.call(T.A.baseAddr(), {20, 2});
  EXPECT_EQ(R.Reason, StopReason::ReturnedToHost);
  EXPECT_EQ(static_cast<int32_t>(R.V0), 42);
}

TEST(VmExec, FloatArithmetic) {
  TestMachine T;
  T.A.li(T0, static_cast<int32_t>(std::bit_cast<uint32_t>(1.5f)));
  T.A.li(T1, static_cast<int32_t>(std::bit_cast<uint32_t>(2.25f)));
  T.A.fadd(T2, T0, T1);
  T.A.fmul(V0, T2, T1);
  T.A.halt();
  T.load();
  EXPECT_FLOAT_EQ(std::bit_cast<float>(T.run().V0), 3.75f * 2.25f);
}

TEST(VmExec, FloatCompareAndConvert) {
  TestMachine T;
  T.A.li(T0, 7);
  T.A.cvtsw(T1, T0); // 7.0f
  T.A.li(T2, static_cast<int32_t>(std::bit_cast<uint32_t>(7.5f)));
  T.A.flt(T3, T1, T2); // 1
  T.A.cvtws(T4, T2);   // 7 (truncate)
  T.A.addu(V0, T3, T4);
  T.A.halt();
  T.load();
  EXPECT_EQ(static_cast<int32_t>(T.run().V0), 8);
}

TEST(VmExec, ProgramTrapReportsCode) {
  TestMachine T;
  T.A.trap(TrapCode::Bounds);
  T.load();
  ExecResult R = T.run();
  EXPECT_EQ(R.Reason, StopReason::Trapped);
  EXPECT_EQ(R.FaultKind, Fault::ProgramTrap);
  EXPECT_EQ(R.TrapValue, static_cast<uint32_t>(TrapCode::Bounds));
}

TEST(VmExec, OutOfFuelStops) {
  VmOptions Opts;
  Opts.Fuel = 100;
  Vm M(Opts);
  Assembler A(layout::StaticCodeBase);
  Label L = A.newLabel();
  A.bind(L);
  A.j(L);
  A.finalize();
  M.writeBlock(A.baseAddr(), A.code().data(), A.code().size());
  EXPECT_EQ(M.run(A.baseAddr()).Reason, StopReason::OutOfFuel);
}

TEST(VmExec, DebugOutput) {
  TestMachine T;
  T.A.li(T0, -5);
  T.A.putint(T0);
  T.A.li(T0, '\n');
  T.A.putch(T0);
  T.A.halt();
  T.load();
  T.run();
  EXPECT_EQ(T.M.output(), "-5\n");
}

// --- Dynamic code generation and I-cache coherence -----------------------

TEST(VmCodegen, SelfGeneratedCodeRunsAfterFlush) {
  TestMachine T;
  // Generator: write "li $v0, 123; jr $ra" into the dynamic segment,
  // flush, call it, halt.
  uint32_t GenAddr = layout::DynCodeBase;
  T.A.li(T0, static_cast<int32_t>(encodeI(Opcode::Addiu, V0, Zero, 123)));
  T.A.sw(T0, 0, Cp);
  T.A.li(T0, static_cast<int32_t>(encodeR(Funct::Jr, Zero, Ra, Zero)));
  T.A.sw(T0, 4, Cp);
  T.A.li(T1, 8);
  T.A.flush(Cp, T1);
  T.A.move(T2, Cp);
  T.A.addiu(Cp, Cp, 8);
  T.A.jalr(T2);
  T.A.halt();
  T.load();
  ExecResult R = T.run();
  ASSERT_TRUE(R.ok()) << R.describe();
  EXPECT_EQ(static_cast<int32_t>(R.V0), 123);
  EXPECT_EQ(T.M.stats().DynWordsWritten, 2u);
  EXPECT_EQ(T.M.stats().Flushes, 1u);
  EXPECT_EQ(T.M.stats().FlushedBytes, 8u);
  EXPECT_EQ(T.M.coherenceViolations(), 0u);
  (void)GenAddr;
}

TEST(VmCodegen, UnflushedCodeFaultsAsIncoherent) {
  TestMachine T;
  T.A.li(T0, static_cast<int32_t>(encodeI(Opcode::Addiu, V0, Zero, 5)));
  T.A.sw(T0, 0, Cp);
  T.A.li(T0, static_cast<int32_t>(encodeR(Funct::Jr, Zero, Ra, Zero)));
  T.A.sw(T0, 4, Cp);
  // No flush here.
  T.A.jalr(Cp);
  T.A.halt();
  T.load();
  ExecResult R = T.run();
  EXPECT_EQ(R.Reason, StopReason::Trapped);
  EXPECT_EQ(R.FaultKind, Fault::IcacheIncoherent);
  EXPECT_EQ(T.M.coherenceViolations(), 1u);
}

TEST(VmCodegen, FlushCostsAreModeled) {
  TestMachine T;
  T.A.li(T0, layout::DynCodeBase);
  T.A.li(T1, 5000);
  T.A.flush(T0, T1);
  T.A.halt();
  T.load();
  VmStats Before = T.M.stats();
  T.run();
  VmStats D = T.M.stats() - Before;
  // 4 instructions (li is 2 here: lui+ori for DynCodeBase) + trap cost +
  // 5000/50 per-byte cycles.
  EXPECT_EQ(D.Cycles, D.Executed + 100 + 100);
}

TEST(VmCodegen, RegionCountersSplitStaticAndDynamic) {
  TestMachine T;
  // Static: emit 2-instruction function, flush, call it.
  T.A.li(T0, static_cast<int32_t>(encodeI(Opcode::Addiu, V0, Zero, 1)));
  T.A.sw(T0, 0, Cp);
  T.A.li(T0, static_cast<int32_t>(encodeR(Funct::Jr, Zero, Ra, Zero)));
  T.A.sw(T0, 4, Cp);
  T.A.li(T1, 8);
  T.A.flush(Cp, T1);
  T.A.jalr(Cp);
  T.A.halt();
  T.load();
  T.run();
  EXPECT_EQ(T.M.stats().ExecutedDynamic, 2u);
  EXPECT_GT(T.M.stats().ExecutedStatic, 5u);
}

// --- Heap image -----------------------------------------------------------

TEST(HeapImageTest, VectorRoundTrip) {
  Vm M;
  HeapImage H(M);
  uint32_t V = H.vector({10, 20, 30});
  EXPECT_EQ(M.load32(V), 3u);
  EXPECT_EQ(H.readVector(V), (std::vector<int32_t>{10, 20, 30}));
}

TEST(HeapImageTest, FloatVectorRoundTrip) {
  Vm M;
  HeapImage H(M);
  uint32_t V = H.vectorF({1.5f, -2.0f});
  std::vector<float> Back = H.readVectorF(V);
  ASSERT_EQ(Back.size(), 2u);
  EXPECT_FLOAT_EQ(Back[0], 1.5f);
  EXPECT_FLOAT_EQ(Back[1], -2.0f);
}

TEST(HeapImageTest, ConsListLayout) {
  Vm M;
  HeapImage H(M);
  uint32_t L = H.consList({7, 8});
  // Cons(7, Cons(8, Nil)); Cons tag 1, Nil tag 0.
  EXPECT_EQ(M.load32(L), 1u);
  EXPECT_EQ(M.load32(L + 4), 7u);
  uint32_t L2 = M.load32(L + 8);
  EXPECT_EQ(M.load32(L2), 1u);
  EXPECT_EQ(M.load32(L2 + 4), 8u);
  uint32_t Nil = M.load32(L2 + 8);
  EXPECT_EQ(M.load32(Nil), 0u);
}

TEST(HeapImageTest, StringIsCharCodeVector) {
  Vm M;
  HeapImage H(M);
  uint32_t S = H.string("ab");
  EXPECT_EQ(H.readVector(S), (std::vector<int32_t>{'a', 'b'}));
}

//===----------------------------------------------------------------------===//
// Host memory access
//===----------------------------------------------------------------------===//

TEST(VmHostAccess, MemoryIsZeroAndSizedAtConstruction) {
  VmOptions VO;
  VO.MemBytes = 1u << 16;
  Vm M(VO);
  EXPECT_EQ(M.memBytes(), VO.MemBytes);
  const std::span<const uint8_t> Mem = M.memory();
  ASSERT_EQ(Mem.size(), VO.MemBytes);
  EXPECT_TRUE(std::all_of(Mem.begin(), Mem.end(),
                          [](uint8_t B) { return B == 0; }));
  ASSERT_TRUE(M.store32(8, 0x01020304u));
  EXPECT_EQ(M.memory()[8], 0x04); // little-endian, a live view
  EXPECT_EQ(M.load32(8), 0x01020304u);
}

// Host writers bound-check in every build type (this test runs in
// Release too): an extent past the end, or one whose 32-bit arithmetic
// would wrap, writes nothing and reports false.
TEST(VmHostAccess, OutOfRangeWritesReturnFalseAndWriteNothing) {
  VmOptions VO;
  VO.MemBytes = 1u << 16;
  Vm M(VO);
  const uint32_t End = M.memBytes();
  const uint32_t Words[4] = {0xAAAAAAAAu, 0xBBBBBBBBu, 0xCCCCCCCCu,
                             0xDDDDDDDDu};

  // Extents that end exactly at the end of memory are fine.
  EXPECT_TRUE(M.store32(End - 4, 0x11111111u));
  EXPECT_TRUE(M.writeBlock(End - 8, Words, 2));
  EXPECT_TRUE(M.writeBlock(End, Words, 0));
  EXPECT_EQ(M.load32(End - 4), 0xBBBBBBBBu);

  const std::span<const uint8_t> Mem = M.memory();
  const std::vector<uint8_t> Before(Mem.begin(), Mem.end());
  // One word past the end.
  EXPECT_FALSE(M.store32(End, 1));
  EXPECT_FALSE(M.writeBlock(End - 4, Words, 2));
  EXPECT_FALSE(M.writeBlock(End + 4, Words, 0));
  // Address arithmetic that wraps in 32 bits.
  EXPECT_FALSE(M.store32(0xFFFFFFFCu, 1));
  EXPECT_FALSE(M.writeBlock(0xFFFFFFF8u, Words, 4));
  // Byte counts that wrap: Count * 4 == 2^32 (0 in 32 bits), and a count
  // whose byte size wraps even in 64 bits. Neither may read Words.
  EXPECT_FALSE(M.writeBlock(4, Words, size_t{1} << 30));
  EXPECT_FALSE(M.writeBlock(4, Words, SIZE_MAX / 4 + 2));
  EXPECT_TRUE(std::ranges::equal(Before, M.memory()));
}
