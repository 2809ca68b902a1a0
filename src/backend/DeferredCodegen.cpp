//===- DeferredCodegen.cpp - Generating-extension compilation -------------===//
//
// Compiles a staged function into its generating extension (paper sections
// 3.1-3.5): static FAB-32 code that, when run with the early arguments,
// executes the early computations directly and emits encodings of the late
// computations into the dynamic code segment — one pass, no run-time IR.
//
//===----------------------------------------------------------------------===//

#include "backend/CodegenInternal.h"

#include <bit>
#include <cassert>

using namespace fab;
using namespace fab::backend_detail;
using namespace fab::ml;

//===----------------------------------------------------------------------===//
// Body pre-scan: leafness and late local assignment
//===----------------------------------------------------------------------===//

bool FnCompiler::isStagedCallee(const Expr &E) const {
  return E.K == Expr::Kind::Call && E.Callee && E.Callee->isStaged();
}

bool FnCompiler::isInlinableSelfTail(const Expr &E, bool IsTail) const {
  return IsTail && isStagedCallee(E) && E.Callee == &F &&
         !M.Opts.MemoizedSelfCalls.count(F.Name);
}

void FnCompiler::scanBody(const Expr &E, bool IsTail, bool UnderLateCond) {
  switch (E.K) {
  case Expr::Kind::Call:
    for (const auto &K : E.Kids)
      scanBody(*K, false, UnderLateCond);
    if (E.S == Stage::Late) {
      if (!E.Callee->isStaged()) {
        GenNonLeaf = true; // emitted jal to static code
      } else if (isInlinableSelfTail(E, IsTail)) {
        HasInlinedSelfTail = true;
        // A self tail call under a live late-conditional hole cannot loop
        // the generator (the hole would be clobbered); recurse instead.
        if (UnderLateCond)
          NeedsBodyRecursion = true;
      } else if (!IsTail) {
        GenNonLeaf = true; // lazy two-step call sequence uses jal
      }
    }
    return;
  case Expr::Kind::Prim:
    for (const auto &K : E.Kids)
      scanBody(*K, false, UnderLateCond);
    if (E.Prim == PrimKind::MkVec && E.S == Stage::Late)
      GenNonLeaf = true; // emitted call to __mkvec
    return;
  case Expr::Kind::Let:
    scanBody(*E.Kids[0], false, UnderLateCond);
    if (E.Kids[0]->S == Stage::Late && !LateSlotReg.count(E.VarSlot))
      LateSlotReg[E.VarSlot] =
          static_cast<uint8_t>(200 + LateSlotReg.size()); // placeholder
    scanBody(*E.Kids[1], IsTail, UnderLateCond);
    return;
  case Expr::Kind::Case: {
    scanBody(*E.Kids[0], false, UnderLateCond);
    bool ScrutLate = E.Kids[0]->S == Stage::Late;
    for (const auto &Arm : E.Arms) {
      if (ScrutLate) {
        for (uint32_t Slot : Arm->FieldSlots)
          if (Slot != ~0u && !LateSlotReg.count(Slot))
            LateSlotReg[Slot] = static_cast<uint8_t>(200 + LateSlotReg.size());
        if (Arm->PK == CaseArm::PatKind::Var && !LateSlotReg.count(Arm->VarSlot))
          LateSlotReg[Arm->VarSlot] =
              static_cast<uint8_t>(200 + LateSlotReg.size());
      }
      // Compare arms generate while their dispatch hole is still open;
      // catch-all arms generate after every hole is patched.
      bool ArmHasHole = ScrutLate && (Arm->PK == CaseArm::PatKind::Con ||
                                      Arm->PK == CaseArm::PatKind::IntLit);
      scanBody(*Arm->Body, IsTail, UnderLateCond || ArmHasHole);
    }
    return;
  }
  case Expr::Kind::If: {
    // The then arm generates while the branch hole is open; the else arm
    // generates after it is patched.
    bool CondLate = E.Kids[0]->S == Stage::Late;
    scanBody(*E.Kids[0], false, UnderLateCond);
    scanBody(*E.Kids[1], IsTail, UnderLateCond || CondLate);
    scanBody(*E.Kids[2], IsTail, UnderLateCond);
    return;
  }
  default:
    for (const auto &K : E.Kids)
      scanBody(*K, false, UnderLateCond);
    return;
  }
}

//===----------------------------------------------------------------------===//
// Emission primitives
//===----------------------------------------------------------------------===//

// The engine below buffers emission-constant words (RunWords) so maximal
// runs can be flushed as one unit: either a greedy li/sw sequence reusing
// whatever the peephole knows about T8/T9, or — for runs worth it — an
// lw/sw copy from a read-only template interned in the static data
// segment. The dynamic segment is byte-identical either way: both forms
// store the same words at the same $cp offsets; only the number of
// *generator* instructions executed changes. See docs/INTERNALS.md,
// "Emission strategy".

void FnCompiler::syncPeephole() {
  if (GenWatermark != A.sizeWords()) {
    KnownT8 = -1;
    KnownT9Hi = -1;
  }
}

void FnCompiler::notePeephole() { GenWatermark = A.sizeWords(); }

void FnCompiler::materializeT8(uint32_t Word) {
  if (KnownT8 == static_cast<int64_t>(Word))
    return;
  int32_t SV = static_cast<int32_t>(Word);
  if (fitsImm16(SV)) {
    A.addiu(T8, Zero, SV);
  } else if ((Word & 0xFFFF0000u) == 0) {
    A.ori(T8, Zero, static_cast<int32_t>(Word));
  } else if ((Word & 0xFFFFu) == 0) {
    A.lui(T8, static_cast<int32_t>(Word >> 16));
  } else if (KnownT9Hi == static_cast<int64_t>(Word >> 16)) {
    A.ori(T8, T9, static_cast<int32_t>(Word & 0xFFFF));
  } else {
    // Route the high half through T9 so a following word with the same
    // high half costs one ori instead of two instructions.
    A.lui(T9, static_cast<int32_t>(Word >> 16));
    A.ori(T8, T9, static_cast<int32_t>(Word & 0xFFFF));
    KnownT9Hi = static_cast<int64_t>(Word >> 16);
  }
  KnownT8 = static_cast<int64_t>(Word);
}

namespace {
/// Generator instructions a greedy li/sw flush of \p Words executes,
/// starting from peephole state (T8Val, T9Hi). Mirrors materializeT8.
unsigned liSwRunCost(const std::vector<uint32_t> &Words, int64_t T8Val,
                     int64_t T9Hi) {
  unsigned Cost = 0;
  for (uint32_t W : Words) {
    if (static_cast<int64_t>(W) == T8Val) {
      Cost += 1; // sw only
      continue;
    }
    if (fitsImm16(static_cast<int32_t>(W)) || (W & 0xFFFF0000u) == 0 ||
        (W & 0xFFFFu) == 0 || T9Hi == static_cast<int64_t>(W >> 16)) {
      Cost += 2; // 1-instruction materialization + sw
    } else {
      Cost += 3; // lui + ori + sw
      T9Hi = static_cast<int64_t>(W >> 16);
    }
    T8Val = static_cast<int64_t>(W);
  }
  return Cost;
}
} // namespace

void FnCompiler::flushConstRun(bool AllowCpAdvance) {
  if (RunWords.empty())
    return;
  std::vector<uint32_t> Words = std::move(RunWords);
  RunWords.clear();
  const uint32_t N = static_cast<uint32_t>(Words.size());
  const uint32_t StartOff = PendingCp - 4 * N;

  syncPeephole();
  bool UseTemplate = false, UseLoop = false;
  if (M.Opts.EmitTemplates && N >= M.Opts.MinTemplateRun) {
    unsigned LiSwCost = liSwRunCost(Words, KnownT8, KnownT9Hi);
    UseLoop = AllowCpAdvance && N >= M.Opts.TemplateLoopRun &&
              M.Opts.CoalesceCpUpdates;
    // Unrolled copy: li T9,addr (≤2) + lw/sw per word. The loop form
    // trades generator speed (~11 instructions per 4 words) for static
    // code size on very long runs.
    unsigned R = UseLoop ? N % 4 : 0;
    unsigned TmplCost = UseLoop ? 6 + 2 * R + (R ? 1 : 0) + 11 * ((N - R) / 4)
                                : 2 + 2 * N;
    if (TmplCost < LiSwCost)
      UseTemplate = M.internTemplate(Words) != 0;
  }

  if (!UseTemplate) {
    for (uint32_t I = 0; I < N; ++I) {
      materializeT8(Words[I]);
      A.sw(T8, static_cast<int32_t>(StartOff + 4 * I), Cp);
    }
    notePeephole();
    return;
  }

  uint32_t TmplAddr = M.internTemplate(Words);
  if (!UseLoop) {
    A.li(T9, static_cast<int32_t>(TmplAddr));
    for (uint32_t I = 0; I < N; ++I) {
      A.lw(T8, static_cast<int32_t>(4 * I), T9);
      A.sw(T8, static_cast<int32_t>(StartOff + 4 * I), Cp);
    }
  } else {
    // Copy loop, unrolled 4 words per trip; a short unrolled head brings
    // the remaining count to a multiple of 4. Advances $cp through the
    // whole pending range (head start offset included), so this form is
    // only reached from flushCp().
    uint32_t Head = N % 4;
    A.li(T9, static_cast<int32_t>(TmplAddr));
    for (uint32_t I = 0; I < Head; ++I) {
      A.lw(T8, static_cast<int32_t>(4 * I), T9);
      A.sw(T8, static_cast<int32_t>(StartOff + 4 * I), Cp);
    }
    if (Head)
      A.addiu(T9, T9, static_cast<int32_t>(4 * Head));
    A.addiu(Cp, Cp, static_cast<int32_t>(StartOff + 4 * Head));
    A.li(At, static_cast<int32_t>(TmplAddr + 4 * N));
    Label LoopL = A.newLabel();
    A.bind(LoopL);
    for (uint32_t K = 0; K < 4; ++K) {
      A.lw(T8, static_cast<int32_t>(4 * K), T9);
      A.sw(T8, static_cast<int32_t>(4 * K), Cp);
    }
    A.addiu(T9, T9, 16);
    A.addiu(Cp, Cp, 16);
    A.bne(T9, At, LoopL);
    PendingCp = 0;
  }
  // After either copy form T8 holds the last template word and T9 no
  // longer holds a lui half.
  KnownT8 = static_cast<int64_t>(Words[N - 1]);
  KnownT9Hi = -1;
  notePeephole();
}

void FnCompiler::flushCp() {
  flushConstRun(/*AllowCpAdvance=*/true);
  if (PendingCp == 0)
    return;
  bool Fresh = GenWatermark == A.sizeWords();
  A.addiu(Cp, Cp, static_cast<int32_t>(PendingCp));
  // The $cp bump does not touch T8/T9: keep peephole knowledge if it was
  // current.
  if (Fresh)
    notePeephole();
  PendingCp = 0;
}

void FnCompiler::emitWordConst(uint32_t Word) {
  if (PendingCp >= layout::CpCoalesceLimit)
    flushCp();
  RunWords.push_back(Word);
  PendingCp += 4;
  if (!M.Opts.CoalesceCpUpdates)
    flushCp();
}

void FnCompiler::emitWordDynamic(uint32_t ConstPart, Reg FieldReg,
                                 unsigned MaskBits, unsigned Shr) {
  if (PendingCp >= layout::CpCoalesceLimit)
    flushCp();
  flushConstRun(/*AllowCpAdvance=*/false);
  syncPeephole();
  materializeT8(ConstPart);
  // Assemble the completed word in T9 so T8 keeps holding ConstPart: runs
  // of dynamic words sharing a constant part (sw/lw chains with a
  // run-time register field) each skip the re-materialization.
  Reg Src = FieldReg;
  if (Shr) {
    A.srl(T9, FieldReg, Shr);
    Src = T9;
  }
  if (MaskBits <= 16 && Shr + MaskBits < 32) {
    A.andi(T9, Src, (1u << MaskBits) - 1);
    Src = T9;
  }
  A.or_(T9, T8, Src);
  A.sw(T9, static_cast<int32_t>(PendingCp), Cp);
  KnownT9Hi = -1;
  PendingCp += 4;
  notePeephole();
  if (!M.Opts.CoalesceCpUpdates)
    flushCp();
}

//===----------------------------------------------------------------------===//
// Late register plumbing
//===----------------------------------------------------------------------===//

LateReg FnCompiler::allocLate(SourceLoc Loc) {
  for (unsigned I = 0; I < LateTempLimit; ++I)
    if (!LateUsed[I]) {
      LateUsed[I] = true;
      return {LatePool[I], true};
    }
  M.error(Loc, "late expression too deep: generated-code register pool "
               "exhausted");
  return {LatePool[0], false};
}

void FnCompiler::releaseLate(LateReg R) {
  if (!R.FromPool)
    return;
  for (unsigned I = 0; I < LateTempLimit; ++I)
    if (LatePool[I] == R.R) {
      assert(LateUsed[I] && "double release of late temporary");
      LateUsed[I] = false;
      return;
    }
  assert(false && "released register is not a late pool temporary");
}

LateReg FnCompiler::lateSlotReg(uint32_t Slot, SourceLoc Loc) {
  auto It = LateSlotReg.find(Slot);
  if (It == LateSlotReg.end()) {
    M.error(Loc, "internal: late use of unassigned slot");
    return {LatePool[0], false};
  }
  return {It->second, false};
}

void FnCompiler::bindLateSlot(uint32_t Slot, LateReg Value) {
  emitMoveLate(LateSlotReg.at(Slot), Value.R);
  releaseLate(Value);
}

void FnCompiler::emitMoveLate(uint8_t Dst, uint8_t Src) {
  if (Dst == Src)
    return;
  emitWordConst(encodeR(Funct::Or, static_cast<Reg>(Dst),
                        static_cast<Reg>(Src), Zero));
}

LateReg FnCompiler::lateUnopDest(LateReg R) {
  if (R.FromPool)
    return R;
  return allocLate(SourceLoc());
}

LateReg FnCompiler::lateBinopDest(LateReg &L, LateReg &R) {
  if (L.FromPool) {
    releaseLate(R);
    R.FromPool = false; // neutralized; caller keeps only the result
    return L;
  }
  if (R.FromPool)
    return R;
  return allocLate(SourceLoc());
}

//===----------------------------------------------------------------------===//
// Run-time instruction selection and residualization
//===----------------------------------------------------------------------===//

std::optional<int32_t> FnCompiler::constEval(const Expr &E) {
  switch (E.K) {
  case Expr::Kind::IntLit:
    return E.IntValue;
  case Expr::Kind::BoolLit:
    return E.BoolValue ? 1 : 0;
  case Expr::Kind::UnitLit:
    return 0;
  case Expr::Kind::RealLit:
    return std::bit_cast<int32_t>(E.RealValue);
  default:
    return std::nullopt;
  }
}

void FnCompiler::genIfFits16(Reg Val, const std::function<void()> &Small,
                             const std::function<void()> &Big,
                             std::optional<int32_t> Known) {
  if (!M.Opts.RuntimeInstructionSelection) {
    Big();
    return;
  }
  if (Known) {
    // The selection is decided at generator-compile time: only the
    // matching path is compiled, with no run-time test. The emitted words
    // are exactly what the run-time test would have produced.
    if (fitsImm16(*Known))
      Small();
    else
      Big();
    return;
  }
  flushCp();
  Label SmallL = A.newLabel(), EndL = A.newLabel();
  // T9 = sign-extend(low 16 bits of Val); differs from Val iff the value
  // does not fit a 16-bit signed immediate. The small form is the common
  // case, so it sits last and falls through to the join — the rare big
  // form pays the extra jump.
  A.sll(T9, Val, 16);
  A.sra(T9, T9, 16);
  A.beq(T9, Val, SmallL);
  Big();
  flushCp();
  A.j(EndL);
  A.bind(SmallL);
  Small();
  flushCp();
  A.bind(EndL);
}

void FnCompiler::emitResidualize(uint8_t TargetReg, Reg EarlyVal,
                                 std::optional<int32_t> Known) {
  Reg Target = static_cast<Reg>(TargetReg);
  if (Known) {
    // Literal early value: the residualized words are fully constant at
    // generator-compile time (and join buffered template runs) — same
    // bytes the run-time selection below would store.
    uint32_t U = static_cast<uint32_t>(*Known);
    if (M.Opts.RuntimeInstructionSelection && fitsImm16(*Known)) {
      emitWordConst(encodeI(Opcode::Addiu, Target, Zero,
                            static_cast<int32_t>(U & 0xFFFF)));
    } else {
      emitWordConst(
          encodeI(Opcode::Lui, Target, Zero, static_cast<int32_t>(U >> 16)));
      emitWordConst(
          encodeI(Opcode::Ori, Target, Target, static_cast<int32_t>(U & 0xFFFF)));
    }
    return;
  }
  genIfFits16(
      EarlyVal,
      [&] {
        // addiu target, $zero, value
        emitWordDynamic(encodeI(Opcode::Addiu, Target, Zero, 0), EarlyVal, 16);
      },
      [&] {
        // lui target, hi16; ori target, target, lo16
        emitWordDynamic(encodeI(Opcode::Lui, Target, Zero, 0), EarlyVal, 16,
                        16);
        emitWordDynamic(encodeI(Opcode::Ori, Target, Target, 0), EarlyVal, 16);
      },
      Known);
}

//===----------------------------------------------------------------------===//
// Generator-side holes (one-pass backpatching)
//===----------------------------------------------------------------------===//

uint32_t FnCompiler::allocGenSlot() {
  for (unsigned I = 0; I < MaxGenSlots; ++I)
    if (!GenSlotUsed[I]) {
      GenSlotUsed[I] = true;
      return GenTmpOff + 4 * I;
    }
  M.error(F.Loc, "too many nested late control-flow holes");
  return GenTmpOff;
}

void FnCompiler::freeGenSlot(uint32_t Off) {
  unsigned I = (Off - GenTmpOff) / 4;
  assert(I < MaxGenSlots && GenSlotUsed[I] && "bad gen slot free");
  GenSlotUsed[I] = false;
}

uint32_t FnCompiler::reserveHole() {
  flushCp();
  uint32_t Slot = allocGenSlot();
  A.sw(Cp, static_cast<int32_t>(Slot), Fp);
  A.addiu(Cp, Cp, 4);
  return Slot;
}

void FnCompiler::patchBranchHole(uint32_t HoleSlot, uint32_t ConstPart) {
  flushCp();
  A.lw(T9, static_cast<int32_t>(HoleSlot), Fp);
  A.subu(T8, Cp, T9);
  A.addiu(T8, T8, -4);
  A.srl(T8, T8, 2);
  // No mask: holes are always patched forward, so the word distance is
  // non-negative, and an encodable branch offset must fit the 16-bit
  // field anyway — when it does, the high bits are already zero.
  A.li(At, static_cast<int32_t>(ConstPart));
  A.or_(T8, T8, At);
  A.sw(T8, 0, T9);
  freeGenSlot(HoleSlot);
}

void FnCompiler::patchJumpHoleToCp(uint32_t HoleSlot) {
  flushCp();
  A.lw(T9, static_cast<int32_t>(HoleSlot), Fp);
  A.li(T8, static_cast<int32_t>(static_cast<uint32_t>(Opcode::J) << 26));
  A.srl(At, Cp, 2);
  A.or_(T8, T8, At);
  A.sw(T8, 0, T9);
  freeGenSlot(HoleSlot);
}

void FnCompiler::patchJumpHoleToReg(uint32_t HoleSlot, Reg AddrReg) {
  A.lw(T9, static_cast<int32_t>(HoleSlot), Fp);
  A.li(T8, static_cast<int32_t>(static_cast<uint32_t>(Opcode::J) << 26));
  A.srl(At, AddrReg, 2);
  A.or_(T8, T8, At);
  A.sw(T8, 0, T9);
  freeGenSlot(HoleSlot);
}

//===----------------------------------------------------------------------===//
// Late expression evaluation
//===----------------------------------------------------------------------===//

/// Matches `acc + f * x` (either operand order, either factor early) for
/// run-time strength reduction. Returns the accumulator expression, the
/// early factor, and the multiply node.
static bool matchMulAccumulate(const Expr &E, const Expr *&Acc,
                               const Expr *&EarlyFactor, const Expr *&MulE) {
  if (E.BinOp != BinOpKind::Add)
    return false;
  for (int Side = 0; Side < 2; ++Side) {
    const Expr *M = E.Kids[Side].get();
    const Expr *A = E.Kids[1 - Side].get();
    if (M->K != Expr::Kind::Binary || M->BinOp != BinOpKind::Mul ||
        M->S != Stage::Late)
      continue;
    for (int F = 0; F < 2; ++F)
      if (M->Kids[F]->S == Stage::Early &&
          M->Kids[1 - F]->S == Stage::Late) {
        Acc = A;
        EarlyFactor = M->Kids[F].get();
        MulE = M;
        return true;
      }
  }
  return false;
}

LateReg FnCompiler::emitLateMulWithFactor(const Expr &MulE, Reg Fe,
                                          const Expr *FactorE) {
  // Mirrors the generic evalLateBinary path for MulE exactly (same late
  // register allocation order, same emitted words) but residualizes the
  // factor from Fe instead of re-running its early evaluation.
  const Expr &K0 = *MulE.Kids[0];
  const Expr &K1 = *MulE.Kids[1];
  LateReg L, R;
  if (&K0 == FactorE) {
    L = allocLate(K0.Loc);
    emitResidualize(L.R, Fe, constEval(K0));
    R = evalLate(K1);
  } else {
    L = evalLate(K0);
    R = allocLate(K1.Loc);
    emitResidualize(R.R, Fe, constEval(K1));
  }
  uint8_t Ls = L.R, Rs = R.R;
  LateReg D = lateBinopDest(L, R);
  emitWordConst(encodeR(MulE.OperandsAreReal ? Funct::FMul : Funct::Mul,
                        static_cast<Reg>(D.R), static_cast<Reg>(Ls),
                        static_cast<Reg>(Rs)));
  return D;
}

LateReg FnCompiler::evalLateBinary(const Expr &E) {
  // Run-time strength reduction (paper section 3.3): in `acc + f * x`
  // with f early, a zero factor at specialization time eliminates the
  // whole multiply-add (and any subscripts feeding it) from the
  // generated code.
  // (For reals this assumes the finite arithmetic of the benchmarks:
  // 0 * x + acc is simplified to acc, which differs from IEEE semantics
  // when x is an infinity or NaN — the same caveat the paper's
  // optimization carries.)
  const Expr *AccE = nullptr, *FactorE = nullptr, *MulE = nullptr;
  if (M.Opts.RuntimeStrengthReduction &&
      matchMulAccumulate(E, AccE, FactorE, MulE)) {
    Reg Fe = evalPlain(*FactorE);
    LateReg Acc = evalLate(*AccE);
    LateReg D = allocLate(E.Loc);
    flushCp();
    Label ZeroL = A.newLabel(), EndL = A.newLabel();
    A.beqz(Fe, ZeroL);
    // The factor value is reused from Fe on the nonzero path: the early
    // expression (often a subscript) is evaluated once, not twice.
    LateReg Rm = emitLateMulWithFactor(*MulE, Fe, FactorE);
    releaseTemp(Fe);
    emitWordConst(encodeR(E.OperandsAreReal ? Funct::FAdd : Funct::Addu,
                          static_cast<Reg>(D.R), static_cast<Reg>(Acc.R),
                          static_cast<Reg>(Rm.R)));
    releaseLate(Rm);
    flushCp();
    A.j(EndL);
    A.bind(ZeroL);
    emitMoveLate(D.R, Acc.R);
    flushCp();
    A.bind(EndL);
    releaseLate(Acc);
    return D;
  }

  LateReg L = evalLate(*E.Kids[0]);
  LateReg R = evalLate(*E.Kids[1]);
  uint8_t Ls = L.R, Rs = R.R;
  LateReg D = lateBinopDest(L, R);
  Reg Dd = static_cast<Reg>(D.R), Lr = static_cast<Reg>(Ls),
      Rr = static_cast<Reg>(Rs);
  bool RealOps = E.OperandsAreReal;
  switch (E.BinOp) {
  case BinOpKind::Add:
    emitWordConst(encodeR(RealOps ? Funct::FAdd : Funct::Addu, Dd, Lr, Rr));
    break;
  case BinOpKind::Sub:
    emitWordConst(encodeR(RealOps ? Funct::FSub : Funct::Subu, Dd, Lr, Rr));
    break;
  case BinOpKind::Mul:
    emitWordConst(encodeR(RealOps ? Funct::FMul : Funct::Mul, Dd, Lr, Rr));
    break;
  case BinOpKind::Div:
    emitWordConst(encodeR(RealOps ? Funct::FDiv : Funct::Divq, Dd, Lr, Rr));
    break;
  case BinOpKind::Mod:
    emitWordConst(encodeR(Funct::Rem, Dd, Lr, Rr));
    break;
  case BinOpKind::Eq:
    if (RealOps) {
      emitWordConst(encodeR(Funct::FEq, Dd, Lr, Rr));
    } else {
      emitWordConst(encodeR(Funct::Xor, Dd, Lr, Rr));
      emitWordConst(encodeI(Opcode::Sltiu, Dd, Dd, 1));
    }
    break;
  case BinOpKind::Ne:
    if (RealOps) {
      emitWordConst(encodeR(Funct::FEq, Dd, Lr, Rr));
      emitWordConst(encodeI(Opcode::Xori, Dd, Dd, 1));
    } else {
      emitWordConst(encodeR(Funct::Xor, Dd, Lr, Rr));
      emitWordConst(encodeR(Funct::Sltu, Dd, Zero, Dd));
    }
    break;
  case BinOpKind::Lt:
    emitWordConst(encodeR(RealOps ? Funct::FLt : Funct::Slt, Dd, Lr, Rr));
    break;
  case BinOpKind::Le:
    if (RealOps) {
      emitWordConst(encodeR(Funct::FLe, Dd, Lr, Rr));
    } else {
      emitWordConst(encodeR(Funct::Slt, Dd, Rr, Lr));
      emitWordConst(encodeI(Opcode::Xori, Dd, Dd, 1));
    }
    break;
  case BinOpKind::Gt:
    emitWordConst(encodeR(RealOps ? Funct::FLt : Funct::Slt, Dd, Rr, Lr));
    break;
  case BinOpKind::Ge:
    if (RealOps) {
      emitWordConst(encodeR(Funct::FLe, Dd, Rr, Lr));
    } else {
      emitWordConst(encodeR(Funct::Slt, Dd, Lr, Rr));
      emitWordConst(encodeI(Opcode::Xori, Dd, Dd, 1));
    }
    break;
  }
  return D;
}

/// Emits an in-bounds check epilogue: At == 1 means in bounds; traps
/// otherwise. The branch skips exactly the trap instruction.
static uint32_t encBoundsOkBranch() {
  return encodeI(Opcode::Bne, Zero, At, 1);
}
static uint32_t encTrap(TrapCode Code) {
  return encodeExt(ExtFn::Trap, Zero, Zero, static_cast<unsigned>(Code));
}

LateReg FnCompiler::evalLateVSub(const Expr &E) {
  const Expr &VecE = *E.Kids[0];
  const Expr &IdxE = *E.Kids[1];
  bool VecEarly = VecE.S == Stage::Early;
  bool IdxEarly = IdxE.S == Stage::Early;
  assert(!(VecEarly && IdxEarly) && "fully early subscript must not reach "
                                    "late evaluation directly");

  if (!VecEarly && !IdxEarly) {
    // Both late: generic emitted sequence.
    LateReg Rv = evalLate(VecE);
    LateReg Ri = evalLate(IdxE);
    emitWordConst(encodeI(Opcode::Lw, At, static_cast<Reg>(Rv.R), 0));
    emitWordConst(
        encodeR(Funct::Sltu, At, static_cast<Reg>(Ri.R), At));
    emitWordConst(encBoundsOkBranch());
    emitWordConst(encTrap(TrapCode::Bounds));
    emitWordConst(encodeR(Funct::Sll, At, Zero, static_cast<Reg>(Ri.R), 2));
    emitWordConst(encodeR(Funct::Addu, At, static_cast<Reg>(Rv.R), At));
    uint8_t RvR = Rv.R, RiR = Ri.R;
    (void)RvR;
    (void)RiR;
    LateReg D = lateBinopDest(Rv, Ri);
    emitWordConst(encodeI(Opcode::Lw, static_cast<Reg>(D.R), At, 4));
    return D;
  }

  if (!VecEarly && IdxEarly) {
    // Late vector, early index: the paper's immediate-offset load with
    // run-time instruction selection (Figure 1).
    LateReg Rv = evalLate(VecE);
    Reg IE = evalPlain(IdxE);
    // A literal index decides both instruction selections at
    // generator-compile time (the emitted words are unchanged).
    std::optional<int32_t> KnownIdx = constEval(IdxE);
    std::optional<int32_t> KnownIp1, KnownOff;
    if (KnownIdx) {
      KnownIp1 = *KnownIdx + 1;
      KnownOff = *KnownIdx * 4 + 4;
    }
    // Bounds: emitted "len <= i -> trap" using the early i.
    emitWordConst(encodeI(Opcode::Lw, At, static_cast<Reg>(Rv.R), 0));

    if (!KnownIdx && M.Opts.RuntimeInstructionSelection) {
      // Combined range test: an unsigned index below 8191 guarantees both
      // i+1 and 4*i+4 fit a signed 16-bit immediate, so one generator
      // test replaces the two per-value instruction-selection tests of
      // the fallback. Out-of-range indices take the original nested
      // tests, which decide each value independently — required for
      // byte-identical output (a negative index, for instance, still
      // selects both small forms there).
      flushCp();
      Label SlowL = A.newLabel(), DoneL = A.newLabel();
      Reg Tst = allocTemp(E.Loc);
      A.sltiu(Tst, IE, 8191);
      A.beqz(Tst, SlowL);
      releaseTemp(Tst);
      // Allocated before the arms so both emit the same register; this is
      // the pool slot the fallback's Big bounds branch uses for the
      // residualized index (the original allocated and released it before
      // allocating the destination, landing on the same slot).
      LateReg D = Rv.FromPool ? Rv : allocLate(E.Loc);

      // Fast arm: both selections known small.
      Reg Ip1f = allocTemp(E.Loc);
      A.addiu(Ip1f, IE, 1);
      emitWordDynamic(encodeI(Opcode::Sltiu, At, At, 0), Ip1f, 16);
      emitWordConst(encodeI(Opcode::Beq, Zero, At, 1));
      emitWordConst(encTrap(TrapCode::Bounds));
      releaseTemp(Ip1f);
      Reg OffF = allocTemp(E.Loc);
      A.sll(OffF, IE, 2);
      A.addiu(OffF, OffF, 4);
      emitWordDynamic(encodeI(Opcode::Lw, static_cast<Reg>(D.R),
                              static_cast<Reg>(Rv.R), 0),
                      OffF, 16);
      releaseTemp(OffF);
      flushCp();
      A.j(DoneL);

      // Slow arm: the original per-value nested tests, byte for byte.
      A.bind(SlowL);
      Reg Ip1s = allocTemp(E.Loc);
      A.addiu(Ip1s, IE, 1);
      genIfFits16(
          Ip1s,
          [&] {
            emitWordDynamic(encodeI(Opcode::Sltiu, At, At, 0), Ip1s, 16);
            emitWordConst(encodeI(Opcode::Beq, Zero, At, 1));
            emitWordConst(encTrap(TrapCode::Bounds));
          },
          [&] {
            LateReg Li =
                Rv.FromPool ? allocLate(E.Loc) : LateReg{D.R, false};
            emitResidualize(Li.R, IE);
            emitWordConst(
                encodeR(Funct::Sltu, At, static_cast<Reg>(Li.R), At));
            emitWordConst(encBoundsOkBranch());
            emitWordConst(encTrap(TrapCode::Bounds));
            releaseLate(Li);
          },
          std::nullopt);
      releaseTemp(Ip1s);
      Reg OffS = allocTemp(E.Loc);
      A.sll(OffS, IE, 2);
      A.addiu(OffS, OffS, 4);
      genIfFits16(
          OffS,
          [&] {
            emitWordDynamic(encodeI(Opcode::Lw, static_cast<Reg>(D.R),
                                    static_cast<Reg>(Rv.R), 0),
                            OffS, 16);
          },
          [&] {
            emitResidualize(At, OffS);
            emitWordConst(
                encodeR(Funct::Addu, At, static_cast<Reg>(Rv.R), At));
            emitWordConst(encodeI(Opcode::Lw, static_cast<Reg>(D.R), At, 0));
          },
          std::nullopt);
      releaseTemp(OffS);
      flushCp();
      A.bind(DoneL);
      releaseTemp(IE);
      return D;
    }

    Reg Ip1 = allocTemp(E.Loc);
    if (!KnownIp1)
      A.addiu(Ip1, IE, 1);
    genIfFits16(
        Ip1,
        [&] {
          // sltiu At, At, i+1  (At = len < i+1 = out of bounds)
          if (KnownIp1)
            emitWordConst(encodeI(Opcode::Sltiu, At, At, *KnownIp1));
          else
            emitWordDynamic(encodeI(Opcode::Sltiu, At, At, 0), Ip1, 16);
          // beq At, zero, +1 skips the trap when in bounds.
          emitWordConst(encodeI(Opcode::Beq, Zero, At, 1));
          emitWordConst(encTrap(TrapCode::Bounds));
        },
        [&] {
          LateReg Li = allocLate(E.Loc);
          emitResidualize(Li.R, IE, KnownIdx);
          emitWordConst(
              encodeR(Funct::Sltu, At, static_cast<Reg>(Li.R), At));
          // At = i < len: 1 means in bounds.
          emitWordConst(encBoundsOkBranch());
          emitWordConst(encTrap(TrapCode::Bounds));
          releaseLate(Li);
        },
        KnownIp1);
    releaseTemp(Ip1);
    // Load with immediate or computed offset.
    Reg Off = allocTemp(E.Loc);
    if (!KnownOff) {
      A.sll(Off, IE, 2);
      A.addiu(Off, Off, 4);
    }
    LateReg D = Rv.FromPool ? Rv : allocLate(E.Loc);
    genIfFits16(
        Off,
        [&] {
          if (KnownOff)
            emitWordConst(encodeI(Opcode::Lw, static_cast<Reg>(D.R),
                                  static_cast<Reg>(Rv.R), *KnownOff));
          else
            emitWordDynamic(
                encodeI(Opcode::Lw, static_cast<Reg>(D.R),
                        static_cast<Reg>(Rv.R), 0),
                Off, 16);
        },
        [&] {
          emitResidualize(At, Off, KnownOff); // li At, offset
          emitWordConst(encodeR(Funct::Addu, At, static_cast<Reg>(Rv.R), At));
          emitWordConst(
              encodeI(Opcode::Lw, static_cast<Reg>(D.R), At, 0));
        },
        KnownOff);
    releaseTemp(Off);
    releaseTemp(IE);
    return D;
  }

  // Early vector, late index: base and length are run-time constants of
  // the generator; the index is computed by the generated code.
  Reg VE = evalPlain(VecE);
  LateReg Ri = evalLate(IdxE);
  Reg Len = allocTemp(E.Loc);
  A.lw(Len, 0, VE);
  genIfFits16(
      Len,
      [&] {
        // sltiu At, i, len  (1 = in bounds)
        emitWordDynamic(
            encodeI(Opcode::Sltiu, At, static_cast<Reg>(Ri.R), 0), Len, 16);
        emitWordConst(encBoundsOkBranch());
        emitWordConst(encTrap(TrapCode::Bounds));
      },
      [&] {
        LateReg Ll = allocLate(E.Loc);
        emitResidualize(Ll.R, Len);
        emitWordConst(encodeR(Funct::Sltu, At, static_cast<Reg>(Ri.R),
                              static_cast<Reg>(Ll.R)));
        emitWordConst(encBoundsOkBranch());
        emitWordConst(encTrap(TrapCode::Bounds));
        releaseLate(Ll);
      });
  releaseTemp(Len);
  emitWordConst(encodeR(Funct::Sll, At, Zero, static_cast<Reg>(Ri.R), 2));
  Reg Base = allocTemp(E.Loc);
  A.addiu(Base, VE, 4);
  LateReg Lb = allocLate(E.Loc);
  emitResidualize(Lb.R, Base);
  emitWordConst(
      encodeR(Funct::Addu, At, At, static_cast<Reg>(Lb.R)));
  releaseLate(Lb);
  releaseTemp(Base);
  LateReg D = Ri.FromPool ? Ri : allocLate(E.Loc);
  emitWordConst(encodeI(Opcode::Lw, static_cast<Reg>(D.R), At, 0));
  releaseTemp(VE);
  return D;
}

LateReg FnCompiler::evalLateCase(const Expr &E) {
  LateReg Res = allocLate(E.Loc);
  const Expr &ScrutE = *E.Kids[0];
  bool IsData = ScrutE.Ty->K == Type::Kind::Data;

  if (ScrutE.S == Stage::Early) {
    // Generator-level dispatch: only the matching arm produces code.
    flushCp();
    Reg Scrut = evalPlain(ScrutE);
    Reg Tag = Scrut;
    if (IsData) {
      Tag = allocTemp(E.Loc);
      A.lw(Tag, 0, Scrut);
    }
    Label EndGen = A.newLabel();
    bool HasCatchAll = false;
    for (const auto &Arm : E.Arms) {
      Label Next = A.newLabel();
      switch (Arm->PK) {
      case CaseArm::PatKind::Con:
        if (Arm->Con->Tag == 0) {
          A.bnez(Tag, Next); // tag 0 needs no materialized comparand
        } else {
          A.li(At, static_cast<int32_t>(Arm->Con->Tag));
          A.bne(Tag, At, Next);
        }
        for (size_t FI = 0; FI < Arm->FieldSlots.size(); ++FI) {
          if (Arm->FieldSlots[FI] == ~0u)
            continue;
          A.lw(At, static_cast<int32_t>(4 + 4 * FI), Scrut);
          A.sw(At, static_cast<int32_t>(slotOffset(Arm->FieldSlots[FI])), Fp);
        }
        break;
      case CaseArm::PatKind::IntLit:
        if (Arm->IntValue == 0) {
          A.bnez(Tag, Next);
        } else {
          A.li(At, Arm->IntValue);
          A.bne(Tag, At, Next);
        }
        break;
      case CaseArm::PatKind::Var:
        A.sw(Scrut, static_cast<int32_t>(slotOffset(Arm->VarSlot)), Fp);
        HasCatchAll = true;
        break;
      case CaseArm::PatKind::Wild:
        HasCatchAll = true;
        break;
      }
      LateReg R = evalLate(*Arm->Body);
      emitMoveLate(Res.R, R.R);
      releaseLate(R);
      flushCp();
      A.j(EndGen);
      A.bind(Next);
      if (HasCatchAll)
        break;
    }
    if (!HasCatchAll)
      A.trap(TrapCode::MatchFail); // specialization-time match failure
    A.bind(EndGen);
    if (IsData)
      releaseTemp(Tag);
    releaseTemp(Scrut);
    return Res;
  }

  // Late scrutinee: emitted tag-dispatch chain.
  LateReg Rsc = evalLate(ScrutE);
  LateReg Tg = Rsc;
  if (IsData) {
    Tg = allocLate(E.Loc);
    emitWordConst(
        encodeI(Opcode::Lw, static_cast<Reg>(Tg.R), static_cast<Reg>(Rsc.R), 0));
  }
  std::vector<uint32_t> EndHoles;
  bool HasCatchAll = false;
  for (const auto &Arm : E.Arms) {
    int32_t CmpVal = 0;
    bool IsCmp = false;
    switch (Arm->PK) {
    case CaseArm::PatKind::Con:
      CmpVal = static_cast<int32_t>(Arm->Con->Tag);
      IsCmp = true;
      break;
    case CaseArm::PatKind::IntLit:
      CmpVal = Arm->IntValue;
      IsCmp = true;
      break;
    case CaseArm::PatKind::Var:
      emitMoveLate(LateSlotReg.at(Arm->VarSlot), Rsc.R);
      HasCatchAll = true;
      break;
    case CaseArm::PatKind::Wild:
      HasCatchAll = true;
      break;
    }
    if (IsCmp) {
      // li At, value (1 or 2 words; compile-time constant).
      if (fitsImm16(CmpVal)) {
        emitWordConst(encodeI(Opcode::Addiu, At, Zero, CmpVal));
      } else {
        uint32_t U = static_cast<uint32_t>(CmpVal);
        emitWordConst(encodeI(Opcode::Lui, At, Zero,
                              static_cast<int32_t>(U >> 16)));
        emitWordConst(
            encodeI(Opcode::Ori, At, At, static_cast<int32_t>(U & 0xFFFF)));
      }
      uint32_t NextHole = reserveHole();
      if (Arm->PK == CaseArm::PatKind::Con) {
        for (size_t FI = 0; FI < Arm->FieldSlots.size(); ++FI) {
          if (Arm->FieldSlots[FI] == ~0u)
            continue;
          emitWordConst(encodeI(
              Opcode::Lw, static_cast<Reg>(LateSlotReg.at(Arm->FieldSlots[FI])),
              static_cast<Reg>(Rsc.R), static_cast<int32_t>(4 + 4 * FI)));
        }
      }
      LateReg R = evalLate(*Arm->Body);
      emitMoveLate(Res.R, R.R);
      releaseLate(R);
      EndHoles.push_back(reserveHole());
      patchBranchHole(NextHole,
                      encodeI(Opcode::Bne, At, static_cast<Reg>(Tg.R), 0));
    } else {
      LateReg R = evalLate(*Arm->Body);
      emitMoveLate(Res.R, R.R);
      releaseLate(R);
      break; // catch-all: later arms unreachable
    }
  }
  if (!HasCatchAll)
    emitWordConst(encTrap(TrapCode::MatchFail));
  for (uint32_t H : EndHoles)
    patchJumpHoleToCp(H);
  if (IsData)
    releaseLate(Tg);
  releaseLate(Rsc);
  return Res;
}

LateReg FnCompiler::emitLateCallCommon(const Expr &E,
                                       const FunDef *StagedCallee,
                                       Label Target, size_t FirstArg,
                                       size_t NumArgs) {
  assert(GenNonLeaf && "emitted call in a leaf specialization");
  if (NumArgs > 4) {
    M.error(E.Loc, "emitted call passes more than 4 arguments");
    NumArgs = 4;
  }

  // Evaluate late arguments; record pool temps so we can find them on the
  // emitted stack (they are clobbered across the emitted call).
  struct ArgInfo {
    bool IsEarly;
    Reg EarlyReg;    // generator register
    LateReg Src;     // late register (if !IsEarly)
    std::optional<int32_t> Known; // literal early value
  };
  std::vector<ArgInfo> Args;
  for (size_t I = 0; I < NumArgs; ++I) {
    const Expr &AE = *E.Kids[FirstArg + I];
    if (AE.S == Stage::Early) {
      // A literal residualizes from its known value alone: skip the early
      // evaluation that would only park it in a dead temporary.
      std::optional<int32_t> K = constEval(AE);
      Args.push_back({true, K ? Zero : evalPlain(AE), {}, K});
    } else {
      Args.push_back({false, Zero, evalLate(AE), std::nullopt});
    }
  }

  // Push every live pool temp (including argument sources).
  std::vector<uint8_t> Pushed;
  for (unsigned I = 0; I < LateTempLimit; ++I)
    if (LateUsed[I])
      Pushed.push_back(LatePool[I]);
  if (!Pushed.empty()) {
    emitWordConst(encodeI(Opcode::Addiu, Sp, Sp,
                          -static_cast<int32_t>(4 * Pushed.size())));
    for (size_t I = 0; I < Pushed.size(); ++I)
      emitWordConst(encodeI(Opcode::Sw, static_cast<Reg>(Pushed[I]), Sp,
                            static_cast<int32_t>(4 * I)));
  }
  auto pushedOffset = [&](uint8_t R) -> int32_t {
    for (size_t I = 0; I < Pushed.size(); ++I)
      if (Pushed[I] == R)
        return static_cast<int32_t>(4 * I);
    return -1;
  };

  // Loads an argument into an $a register, from the stack if its source
  // was a (clobbered) pool temp, directly if it is a preserved register.
  auto loadArg = [&](size_t I, Reg Dst) {
    ArgInfo &AI = Args[I];
    if (AI.IsEarly) {
      emitResidualize(Dst, AI.EarlyReg, AI.Known);
      return;
    }
    int32_t Off = pushedOffset(AI.Src.R);
    if (Off >= 0)
      emitWordConst(encodeI(Opcode::Lw, Dst, Sp, Off));
    else
      emitMoveLate(Dst, AI.Src.R);
  };

  if (StagedCallee) {
    // Lazy two-step: residualize the early group, call the generator,
    // then pass the late group to the returned address.
    size_t KE = StagedCallee->Groups[0].size();
    for (size_t I = 0; I < KE; ++I) {
      std::optional<int32_t> K = constEval(*E.Kids[I]);
      Reg V = K ? Zero : evalPlain(*E.Kids[I]);
      emitResidualize(static_cast<uint8_t>(A0 + I), V, K);
      if (!K)
        releaseTemp(V);
    }
    // The buffered-run flush may clobber T9; settle it before la uses T9.
    flushConstRun(/*AllowCpAdvance=*/false);
    A.la(T9, M.GenLabels.at(StagedCallee));
    emitWordDynamic(static_cast<uint32_t>(Opcode::Jal) << 26, T9, 26, 2);
    emitWordConst(encodeR(Funct::Or, At, V0, Zero)); // At = spec address
    for (size_t I = 0; I < NumArgs; ++I)
      loadArg(I, static_cast<Reg>(A0 + I));
    emitWordConst(encodeR(Funct::Jalr, Ra, At, Zero));
  } else {
    for (size_t I = 0; I < NumArgs; ++I)
      loadArg(I, static_cast<Reg>(A0 + I));
    // The buffered-run flush may clobber T9; settle it before la uses T9.
    flushConstRun(/*AllowCpAdvance=*/false);
    A.la(T9, Target);
    emitWordDynamic(static_cast<uint32_t>(Opcode::Jal) << 26, T9, 26, 2);
  }

  // Release argument sources, grab a result register (distinct from any
  // pushed register, which all stay allocated), restore, move the result.
  for (ArgInfo &AI : Args) {
    if (!AI.IsEarly)
      releaseLate(AI.Src);
    else if (!AI.Known)
      releaseTemp(AI.EarlyReg);
  }
  if (!Pushed.empty()) {
    for (size_t I = 0; I < Pushed.size(); ++I)
      emitWordConst(encodeI(Opcode::Lw, static_cast<Reg>(Pushed[I]), Sp,
                            static_cast<int32_t>(4 * I)));
    emitWordConst(encodeI(Opcode::Addiu, Sp, Sp,
                          static_cast<int32_t>(4 * Pushed.size())));
  }
  LateReg Res = allocLate(E.Loc);
  emitMoveLate(Res.R, V0);
  return Res;
}

LateReg FnCompiler::evalLateCall(const Expr &E) {
  const FunDef *Callee = E.Callee;
  if (Callee->isStaged()) {
    size_t KE = Callee->Groups[0].size();
    return emitLateCallCommon(E, Callee, Label(), KE, E.Kids.size() - KE);
  }
  return emitLateCallCommon(E, nullptr, M.FnLabels.at(Callee), 0,
                            E.Kids.size());
}

LateReg FnCompiler::evalLate(const Expr &E) {
  if (E.S == Stage::Early) {
    // Residualization: run-time constant propagation into generated code.
    // Literals skip the early evaluation entirely; their words are fully
    // known at generator-compile time.
    std::optional<int32_t> K = constEval(E);
    Reg V = K ? Zero : evalPlain(E);
    LateReg L = allocLate(E.Loc);
    emitResidualize(L.R, V, K);
    if (!K)
      releaseTemp(V);
    return L;
  }

  switch (E.K) {
  case Expr::Kind::Var:
    return lateSlotReg(E.VarSlot, E.Loc);

  case Expr::Kind::Unary: {
    LateReg R = evalLate(*E.Kids[0]);
    uint8_t Src = R.R;
    LateReg D = lateUnopDest(R);
    if (E.UnOp == UnOpKind::Not)
      emitWordConst(encodeI(Opcode::Xori, static_cast<Reg>(D.R),
                            static_cast<Reg>(Src), 1));
    else if (E.OperandsAreReal)
      emitWordConst(encodeR(Funct::FSub, static_cast<Reg>(D.R), Zero,
                            static_cast<Reg>(Src)));
    else
      emitWordConst(encodeR(Funct::Subu, static_cast<Reg>(D.R), Zero,
                            static_cast<Reg>(Src)));
    return D;
  }

  case Expr::Kind::Binary:
    return evalLateBinary(E);

  case Expr::Kind::If: {
    LateReg Res = allocLate(E.Loc);
    if (E.Kids[0]->S == Stage::Early) {
      // Unfolded conditional: the generator takes the branch; only the
      // taken arm emits code.
      flushCp();
      Label ElseL = A.newLabel(), EndL = A.newLabel();
      evalPlainCond(*E.Kids[0], ElseL, /*WhenTrue=*/false);
      LateReg T = evalLate(*E.Kids[1]);
      emitMoveLate(Res.R, T.R);
      releaseLate(T);
      flushCp();
      A.j(EndL);
      A.bind(ElseL);
      LateReg Fv = evalLate(*E.Kids[2]);
      emitMoveLate(Res.R, Fv.R);
      releaseLate(Fv);
      flushCp();
      A.bind(EndL);
      return Res;
    }
    // Late conditional: emitted branch with backpatched holes.
    LateReg C = evalLate(*E.Kids[0]);
    uint8_t CondReg = C.R;
    uint32_t Hole1 = reserveHole();
    releaseLate(C);
    LateReg T = evalLate(*E.Kids[1]);
    emitMoveLate(Res.R, T.R);
    releaseLate(T);
    uint32_t Hole2 = reserveHole();
    patchBranchHole(Hole1,
                    encodeI(Opcode::Beq, Zero, static_cast<Reg>(CondReg), 0));
    LateReg Fv = evalLate(*E.Kids[2]);
    emitMoveLate(Res.R, Fv.R);
    releaseLate(Fv);
    patchJumpHoleToCp(Hole2);
    return Res;
  }

  case Expr::Kind::Let: {
    const Expr &Rhs = *E.Kids[0];
    if (Rhs.S == Stage::Early) {
      Reg V = evalPlain(Rhs);
      A.sw(V, static_cast<int32_t>(slotOffset(E.VarSlot)), Fp);
      releaseTemp(V);
    } else {
      LateReg V = evalLate(Rhs);
      bindLateSlot(E.VarSlot, V);
    }
    return evalLate(*E.Kids[1]);
  }

  case Expr::Kind::Case:
    return evalLateCase(E);

  case Expr::Kind::Con: {
    // Late allocation: the generated code builds the cell.
    LateReg Cell = allocLate(E.Loc);
    uint32_t Words = 1 + static_cast<uint32_t>(E.Kids.size());
    emitWordConst(encodeR(Funct::Or, static_cast<Reg>(Cell.R), Hp, Zero));
    emitWordConst(
        encodeI(Opcode::Addiu, Hp, Hp, static_cast<int32_t>(4 * Words)));
    emitWordConst(
        encodeI(Opcode::Addiu, At, Zero, static_cast<int32_t>(E.Con->Tag)));
    emitWordConst(encodeI(Opcode::Sw, At, static_cast<Reg>(Cell.R), 0));
    for (size_t I = 0; I < E.Kids.size(); ++I) {
      LateReg Fv = evalLate(*E.Kids[I]);
      emitWordConst(encodeI(Opcode::Sw, static_cast<Reg>(Fv.R),
                            static_cast<Reg>(Cell.R),
                            static_cast<int32_t>(4 + 4 * I)));
      releaseLate(Fv);
    }
    return Cell;
  }

  case Expr::Kind::Prim:
    switch (E.Prim) {
    case PrimKind::Length: {
      LateReg V = evalLate(*E.Kids[0]);
      uint8_t Src = V.R;
      LateReg D = lateUnopDest(V);
      emitWordConst(encodeI(Opcode::Lw, static_cast<Reg>(D.R),
                            static_cast<Reg>(Src), 0));
      return D;
    }
    case PrimKind::VSub:
      return evalLateVSub(E);
    case PrimKind::RealOf: {
      LateReg V = evalLate(*E.Kids[0]);
      uint8_t Src = V.R;
      LateReg D = lateUnopDest(V);
      emitWordConst(encodeR(Funct::CvtSW, static_cast<Reg>(D.R),
                            static_cast<Reg>(Src), Zero));
      return D;
    }
    case PrimKind::Trunc: {
      LateReg V = evalLate(*E.Kids[0]);
      uint8_t Src = V.R;
      LateReg D = lateUnopDest(V);
      emitWordConst(encodeR(Funct::CvtWS, static_cast<Reg>(D.R),
                            static_cast<Reg>(Src), Zero));
      return D;
    }
    case PrimKind::Andb:
    case PrimKind::Orb:
    case PrimKind::Xorb:
    case PrimKind::Lsh:
    case PrimKind::Rsh: {
      LateReg L = evalLate(*E.Kids[0]);
      LateReg R = evalLate(*E.Kids[1]);
      uint8_t Ls = L.R, Rs = R.R;
      LateReg D = lateBinopDest(L, R);
      Funct Fn = Funct::And;
      // Shift-variable encodings take the shift amount in rs.
      bool Shift = false;
      switch (E.Prim) {
      case PrimKind::Andb:
        Fn = Funct::And;
        break;
      case PrimKind::Orb:
        Fn = Funct::Or;
        break;
      case PrimKind::Xorb:
        Fn = Funct::Xor;
        break;
      case PrimKind::Lsh:
        Fn = Funct::Sllv;
        Shift = true;
        break;
      case PrimKind::Rsh:
        Fn = Funct::Srlv;
        Shift = true;
        break;
      default:
        break;
      }
      if (Shift)
        emitWordConst(encodeR(Fn, static_cast<Reg>(D.R),
                              static_cast<Reg>(Rs), static_cast<Reg>(Ls)));
      else
        emitWordConst(encodeR(Fn, static_cast<Reg>(D.R),
                              static_cast<Reg>(Ls), static_cast<Reg>(Rs)));
      return D;
    }
    case PrimKind::MkVec:
      return emitLateCallCommon(E, nullptr, M.MkVecLabel, 0, 2);
    case PrimKind::VSet: {
      LateReg Rv = evalLate(*E.Kids[0]);
      LateReg Ri = evalLate(*E.Kids[1]);
      LateReg Rx = evalLate(*E.Kids[2]);
      emitWordConst(encodeI(Opcode::Lw, At, static_cast<Reg>(Rv.R), 0));
      emitWordConst(encodeR(Funct::Sltu, At, static_cast<Reg>(Ri.R), At));
      emitWordConst(encBoundsOkBranch());
      emitWordConst(encTrap(TrapCode::Bounds));
      emitWordConst(encodeR(Funct::Sll, At, Zero, static_cast<Reg>(Ri.R), 2));
      emitWordConst(encodeR(Funct::Addu, At, static_cast<Reg>(Rv.R), At));
      emitWordConst(
          encodeI(Opcode::Sw, static_cast<Reg>(Rx.R), At, 4));
      releaseLate(Rx);
      releaseLate(Ri);
      releaseLate(Rv);
      LateReg Res = allocLate(E.Loc);
      emitWordConst(encodeI(Opcode::Addiu, static_cast<Reg>(Res.R), Zero, 0));
      return Res;
    }
    }
    break;

  case Expr::Kind::Call:
    return evalLateCall(E);

  default:
    break;
  }
  M.error(E.Loc, "internal: unexpected late expression kind");
  return allocLate(E.Loc);
}

//===----------------------------------------------------------------------===//
// Tail-position generation
//===----------------------------------------------------------------------===//

void FnCompiler::emitGeneratedPrologue() {
  uint32_t Words = 1 + NumLateSRegs;
  emitWordConst(
      encodeI(Opcode::Addiu, Sp, Sp, -static_cast<int32_t>(4 * Words)));
  emitWordConst(encodeI(Opcode::Sw, Ra, Sp, 0));
  for (unsigned I = 0; I < NumLateSRegs; ++I)
    emitWordConst(encodeI(Opcode::Sw, static_cast<Reg>(S0 + I), Sp,
                          static_cast<int32_t>(4 * (1 + I))));
  for (unsigned P = 0; P < NumLateParams; ++P)
    emitWordConst(encodeR(Funct::Or, static_cast<Reg>(S0 + P),
                          static_cast<Reg>(A0 + P), Zero));
}

void FnCompiler::emitRestoreFrame() {
  uint32_t Words = 1 + NumLateSRegs;
  for (unsigned I = 0; I < NumLateSRegs; ++I)
    emitWordConst(encodeI(Opcode::Lw, static_cast<Reg>(S0 + I), Sp,
                          static_cast<int32_t>(4 * (1 + I))));
  emitWordConst(encodeI(Opcode::Lw, Ra, Sp, 0));
  emitWordConst(
      encodeI(Opcode::Addiu, Sp, Sp, static_cast<int32_t>(4 * Words)));
}

void FnCompiler::emitLateReturn(LateReg Value) {
  emitMoveLate(V0, Value.R);
  releaseLate(Value);
  if (GenNonLeaf)
    emitRestoreFrame();
  emitWordConst(encodeR(Funct::Jr, Zero, Ra, Zero));
}

std::optional<uint32_t> FnCompiler::tailEmitLength(const Expr &E) const {
  // Mirrors the default case of genTail word for word; a wrong count here
  // would mis-aim an emitted skip branch, so only shapes whose emission is
  // exactly predictable are recognized.
  uint32_t Ret = (GenNonLeaf ? 2 + NumLateSRegs : 0) + 1; // restore + jr
  switch (E.K) {
  case Expr::Kind::IntLit:
  case Expr::Kind::BoolLit:
  case Expr::Kind::UnitLit:
  case Expr::Kind::RealLit: {
    // emitResidualize with a known literal: addiu when run-time
    // instruction selection would pick the short form, else lui/ori.
    int32_t K = *constEval(E);
    return ((M.Opts.RuntimeInstructionSelection && fitsImm16(K)) ? 1u : 2u) +
           Ret;
  }
  case Expr::Kind::Var:
    // Register-resident late variable: emitLateReturn's move into $v0.
    if (E.S == Stage::Late && LateSlotReg.count(E.VarSlot))
      return (LateSlotReg.at(E.VarSlot) == V0 ? 0u : 1u) + Ret;
    return std::nullopt;
  default:
    return std::nullopt;
  }
}

void FnCompiler::emitParallelMove(std::vector<MoveItem> Moves) {
  // Register-to-register moves first (they read live registers), then
  // residualized immediates.
  std::vector<MoveItem> RegMoves, Immediates;
  for (MoveItem &Mv : Moves)
    (Mv.IsEarly ? Immediates : RegMoves).push_back(Mv);

  // Drop no-ops.
  std::erase_if(RegMoves, [](const MoveItem &Mv) { return Mv.Dst == Mv.SrcReg; });

  while (!RegMoves.empty()) {
    bool Progress = false;
    for (size_t I = 0; I < RegMoves.size(); ++I) {
      uint8_t Dst = RegMoves[I].Dst;
      bool Blocked = false;
      for (const MoveItem &Other : RegMoves)
        if (Other.SrcReg == Dst && &Other != &RegMoves[I])
          Blocked = true;
      if (Blocked)
        continue;
      emitMoveLate(Dst, RegMoves[I].SrcReg);
      RegMoves.erase(RegMoves.begin() + static_cast<long>(I));
      Progress = true;
      break;
    }
    if (!Progress) {
      // Cycle: save one source in $at and retarget it.
      emitMoveLate(At, RegMoves[0].SrcReg);
      for (MoveItem &Mv : RegMoves)
        if (Mv.SrcReg == RegMoves[0].SrcReg)
          Mv.SrcReg = At;
    }
  }
  for (MoveItem &Mv : Immediates)
    emitResidualize(Mv.Dst, Mv.EarlyReg, Mv.Known);
}

void FnCompiler::genTail(const Expr &E) {
  switch (E.K) {
  case Expr::Kind::If: {
    if (E.Kids[0]->S == Stage::Early) {
      flushCp();
      Label ElseL = A.newLabel(), JoinL = A.newLabel();
      evalPlainCond(*E.Kids[0], ElseL, /*WhenTrue=*/false);
      genTail(*E.Kids[1]);
      flushCp();
      A.j(JoinL);
      A.bind(ElseL);
      genTail(*E.Kids[2]);
      flushCp();
      A.bind(JoinL);
      return;
    }
    LateReg C = evalLate(*E.Kids[0]);
    uint8_t CondReg = C.R;
    if (std::optional<uint32_t> N = tailEmitLength(*E.Kids[1])) {
      // The then arm's emitted length is known at generator-compile time,
      // so the skip branch needs no hole: the exact word the backpatch
      // would have assembled is emitted directly, and it can join a
      // buffered template run instead of forcing a flush on both sides.
      emitWordConst(encodeI(Opcode::Beq, Zero, static_cast<Reg>(CondReg),
                            static_cast<int32_t>(*N)));
      releaseLate(C);
      genTail(*E.Kids[1]);
      genTail(*E.Kids[2]);
      return;
    }
    const Expr &Then = *E.Kids[1];
    if (Then.S == Stage::Early && M.Opts.RuntimeInstructionSelection &&
        Then.K != Expr::Kind::If && Then.K != Expr::Kind::Let &&
        Then.K != Expr::Kind::Case && Then.K != Expr::Kind::Call) {
      // The then arm residualizes an early value: the only unknown in its
      // emitted length is the 1-vs-2-word form picked by the fits-16 test,
      // which the generator can run once itself. Each test arm emits the
      // skip branch with the matching constant offset, so the hole and its
      // 10-instruction backpatch disappear entirely; the branch word is
      // bit-identical to what the patch would have assembled.
      Reg V = evalPlain(Then);
      const uint32_t Ret = (GenNonLeaf ? 2 + NumLateSRegs : 0) + 1;
      genIfFits16(
          V,
          [&] {
            emitWordConst(encodeI(Opcode::Beq, Zero, static_cast<Reg>(CondReg),
                                  static_cast<int32_t>(1 + Ret)));
            emitWordDynamic(encodeI(Opcode::Addiu, V0, Zero, 0), V, 16);
          },
          [&] {
            emitWordConst(encodeI(Opcode::Beq, Zero, static_cast<Reg>(CondReg),
                                  static_cast<int32_t>(2 + Ret)));
            emitWordDynamic(encodeI(Opcode::Lui, V0, Zero, 0), V, 16, 16);
            emitWordDynamic(encodeI(Opcode::Ori, V0, V0, 0), V, 16);
          },
          std::nullopt);
      releaseTemp(V);
      releaseLate(C);
      if (GenNonLeaf)
        emitRestoreFrame();
      emitWordConst(encodeR(Funct::Jr, Zero, Ra, Zero));
      genTail(*E.Kids[2]);
      return;
    }
    uint32_t Hole = reserveHole();
    releaseLate(C);
    genTail(*E.Kids[1]); // ends in emitted return/jump: no join needed
    patchBranchHole(Hole,
                    encodeI(Opcode::Beq, Zero, static_cast<Reg>(CondReg), 0));
    genTail(*E.Kids[2]);
    return;
  }

  case Expr::Kind::Let: {
    const Expr &Rhs = *E.Kids[0];
    if (Rhs.S == Stage::Early) {
      Reg V = evalPlain(Rhs);
      A.sw(V, static_cast<int32_t>(slotOffset(E.VarSlot)), Fp);
      releaseTemp(V);
    } else {
      LateReg V = evalLate(Rhs);
      bindLateSlot(E.VarSlot, V);
    }
    genTail(*E.Kids[1]);
    return;
  }

  case Expr::Kind::Case: {
    const Expr &ScrutE = *E.Kids[0];
    bool IsData = ScrutE.Ty->K == Type::Kind::Data;
    if (ScrutE.S == Stage::Early) {
      flushCp();
      Reg Scrut = evalPlain(ScrutE);
      Reg Tag = Scrut;
      if (IsData) {
        Tag = allocTemp(E.Loc);
        A.lw(Tag, 0, Scrut);
      }
      Label JoinL = A.newLabel();
      bool HasCatchAll = false;
      for (const auto &Arm : E.Arms) {
        Label Next = A.newLabel();
        switch (Arm->PK) {
        case CaseArm::PatKind::Con:
          if (Arm->Con->Tag == 0) {
            A.bnez(Tag, Next); // tag 0 needs no materialized comparand
          } else {
            A.li(At, static_cast<int32_t>(Arm->Con->Tag));
            A.bne(Tag, At, Next);
          }
          for (size_t FI = 0; FI < Arm->FieldSlots.size(); ++FI) {
            if (Arm->FieldSlots[FI] == ~0u)
              continue;
            A.lw(At, static_cast<int32_t>(4 + 4 * FI), Scrut);
            A.sw(At, static_cast<int32_t>(slotOffset(Arm->FieldSlots[FI])),
                 Fp);
          }
          break;
        case CaseArm::PatKind::IntLit:
          if (Arm->IntValue == 0) {
            A.bnez(Tag, Next);
          } else {
            A.li(At, Arm->IntValue);
            A.bne(Tag, At, Next);
          }
          break;
        case CaseArm::PatKind::Var:
          A.sw(Scrut, static_cast<int32_t>(slotOffset(Arm->VarSlot)), Fp);
          HasCatchAll = true;
          break;
        case CaseArm::PatKind::Wild:
          HasCatchAll = true;
          break;
        }
        // Free the scrutinee temps before the arm body so deeply recursive
        // generator arms (e.g. list unrolling) do not exhaust the pool.
        genTail(*Arm->Body);
        flushCp();
        A.j(JoinL);
        A.bind(Next);
        if (HasCatchAll)
          break;
      }
      if (!HasCatchAll)
        A.trap(TrapCode::MatchFail);
      A.bind(JoinL);
      if (IsData)
        releaseTemp(Tag);
      releaseTemp(Scrut);
      return;
    }
    // Late scrutinee: emitted dispatch; arms are tails.
    LateReg Rsc = evalLate(ScrutE);
    LateReg Tg = Rsc;
    if (IsData) {
      Tg = allocLate(E.Loc);
      emitWordConst(encodeI(Opcode::Lw, static_cast<Reg>(Tg.R),
                            static_cast<Reg>(Rsc.R), 0));
    }
    bool HasCatchAll = false;
    for (const auto &Arm : E.Arms) {
      if (Arm->PK == CaseArm::PatKind::Var ||
          Arm->PK == CaseArm::PatKind::Wild) {
        if (Arm->PK == CaseArm::PatKind::Var)
          emitMoveLate(LateSlotReg.at(Arm->VarSlot), Rsc.R);
        HasCatchAll = true;
        // The catch-all arm is a tail; scrutinee regs die here.
        LateReg RscCopy = Rsc, TgCopy = Tg;
        if (IsData)
          releaseLate(TgCopy);
        releaseLate(RscCopy);
        genTail(*Arm->Body);
        return;
      }
      int32_t CmpVal = Arm->PK == CaseArm::PatKind::Con
                           ? static_cast<int32_t>(Arm->Con->Tag)
                           : Arm->IntValue;
      if (fitsImm16(CmpVal)) {
        emitWordConst(encodeI(Opcode::Addiu, At, Zero, CmpVal));
      } else {
        uint32_t U = static_cast<uint32_t>(CmpVal);
        emitWordConst(
            encodeI(Opcode::Lui, At, Zero, static_cast<int32_t>(U >> 16)));
        emitWordConst(
            encodeI(Opcode::Ori, At, At, static_cast<int32_t>(U & 0xFFFF)));
      }
      uint32_t Fields = 0;
      if (Arm->PK == CaseArm::PatKind::Con)
        for (uint32_t S : Arm->FieldSlots)
          if (S != ~0u)
            ++Fields;
      std::optional<uint32_t> BodyLen = tailEmitLength(*Arm->Body);
      uint32_t NextHole = 0;
      if (BodyLen) {
        // Known arm length: the dispatch branch is a constant word (its
        // offset also skips the field loads below), no hole needed.
        emitWordConst(encodeI(Opcode::Bne, At, static_cast<Reg>(Tg.R),
                              static_cast<int32_t>(*BodyLen + Fields)));
      } else {
        NextHole = reserveHole();
      }
      if (Arm->PK == CaseArm::PatKind::Con)
        for (size_t FI = 0; FI < Arm->FieldSlots.size(); ++FI) {
          if (Arm->FieldSlots[FI] == ~0u)
            continue;
          emitWordConst(encodeI(
              Opcode::Lw,
              static_cast<Reg>(LateSlotReg.at(Arm->FieldSlots[FI])),
              static_cast<Reg>(Rsc.R), static_cast<int32_t>(4 + 4 * FI)));
        }
      genTail(*Arm->Body);
      if (!BodyLen)
        patchBranchHole(NextHole,
                        encodeI(Opcode::Bne, At, static_cast<Reg>(Tg.R), 0));
    }
    if (!HasCatchAll)
      emitWordConst(encTrap(TrapCode::MatchFail));
    if (IsData)
      releaseLate(Tg);
    releaseLate(Rsc);
    return;
  }

  case Expr::Kind::Call: {
    const FunDef *Callee = E.Callee;
    if (E.S == Stage::Late && Callee->isStaged()) {
      size_t KE = Callee->Groups[0].size();
      size_t KL = Callee->Groups[1].size();

      if (isInlinableSelfTail(E, /*IsTail=*/true)) {
        // Run-time inlining (paper sections 3.1/3.5): the generated code
        // for the callee continues contiguously — only a register shuffle
        // is emitted. The generator itself either loops (the paper's
        // "jump to the start of the code generator"; valid when no
        // backpatch hole is live across the call) or recurses into its
        // body procedure, which keeps holes of enclosing late
        // conditionals frame-local at one generator call per iteration.
        // Classify the late arguments: identity (x passed through in its
        // own register), in-place multiply-accumulate (the dot-product
        // pattern `sum + f*x` flowing back into sum's register), or
        // general. When every argument is identity or accumulate, the
        // accumulates are emitted in place and a zero factor generates
        // NOTHING — the paper's full strength reduction.
        bool AllSimple = M.Opts.RuntimeStrengthReduction;
        std::vector<int> Kind(KL, 2); // 0 identity, 1 accumulate, 2 general
        std::vector<const Expr *> Accs(KL), Factors(KL), Muls(KL);
        for (size_t I = 0; I < KL && AllSimple; ++I) {
          const Expr &AE = *E.Kids[KE + I];
          uint8_t Dst = LateSlotReg.at(F.Groups[1][I].Slot);
          if (AE.S == Stage::Late && AE.K == Expr::Kind::Var &&
              LateSlotReg.count(AE.VarSlot) &&
              LateSlotReg.at(AE.VarSlot) == Dst) {
            Kind[I] = 0;
          } else if (AE.S == Stage::Late && AE.K == Expr::Kind::Binary &&
                     matchMulAccumulate(AE, Accs[I], Factors[I], Muls[I]) &&
                     Accs[I]->K == Expr::Kind::Var &&
                     LateSlotReg.count(Accs[I]->VarSlot) &&
                     LateSlotReg.at(Accs[I]->VarSlot) == Dst) {
            Kind[I] = 1;
          } else {
            AllSimple = false;
          }
        }
        if (AllSimple) {
          for (size_t I = 0; I < KL; ++I) {
            if (Kind[I] != 1)
              continue;
            uint8_t Dst = LateSlotReg.at(F.Groups[1][I].Slot);
            Reg Fe = evalPlain(*Factors[I]);
            flushCp();
            Label SkipL = A.newLabel();
            A.beqz(Fe, SkipL);
            // Reuse the tested factor value; see evalLateBinary.
            LateReg Rm = emitLateMulWithFactor(*Muls[I], Fe, Factors[I]);
            releaseTemp(Fe);
            emitWordConst(encodeR(E.Kids[KE + I]->OperandsAreReal
                                      ? Funct::FAdd
                                      : Funct::Addu,
                                  static_cast<Reg>(Dst),
                                  static_cast<Reg>(Dst),
                                  static_cast<Reg>(Rm.R)));
            releaseLate(Rm);
            flushCp();
            A.bind(SkipL);
          }
        } else {
          std::vector<MoveItem> Moves;
          std::vector<LateReg> Srcs;
          std::vector<Reg> EarlyTmps;
          for (size_t I = 0; I < KL; ++I) {
            const Expr &AE = *E.Kids[KE + I];
            uint8_t Dst = LateSlotReg.at(F.Groups[1][I].Slot);
            if (AE.S == Stage::Early) {
              std::optional<int32_t> K = constEval(AE);
              Reg V = K ? Zero : evalPlain(AE);
              if (!K)
                EarlyTmps.push_back(V);
              Moves.push_back({Dst, true, 0, V, K});
            } else {
              LateReg Src = evalLate(AE);
              Srcs.push_back(Src);
              Moves.push_back({Dst, false, Src.R, Zero, std::nullopt});
            }
          }
          emitParallelMove(std::move(Moves));
          for (LateReg &S : Srcs)
            releaseLate(S);
          for (Reg R : EarlyTmps)
            releaseTemp(R);
        }
        if (!NeedsBodyRecursion) {
          // Loop strategy: store the new early arguments and jump back.
          // An argument passed through in its own parameter position is
          // skipped outright — its slot already holds the right value,
          // and every other argument is evaluated before any slot is
          // stored, so the skip cannot move a read past a write.
          std::vector<std::pair<size_t, Reg>> NewEarly;
          for (size_t I = 0; I < KE; ++I) {
            const Expr &AE = *E.Kids[I];
            if (AE.K == Expr::Kind::Var && AE.VarSlot == F.Groups[0][I].Slot)
              continue;
            NewEarly.push_back({I, evalPlain(AE)});
          }
          for (auto &[I, R] : NewEarly)
            A.sw(R, static_cast<int32_t>(slotOffset(F.Groups[0][I].Slot)),
                 Fp);
          for (auto &[I, R] : NewEarly)
            releaseTemp(R);
          flushCp();
          A.j(BodyStart);
          return;
        }
        // Generator-level recursion generating the continuation in place.
        evalArgsToStage(E, 0, KE);
        spillTempsForCall();
        loadStagedArgsIntoRegs(KE, 0);
        A.jal(BodyStart);
        A.addiu(Sp, Sp, static_cast<int32_t>(4 * KE));
        reloadTempsAfterCall();
        return;
      }

      // Memoized tail call: eager specialization of the callee, emitted
      // direct jump (the FSM edges of the regexp benchmark).
      std::vector<MoveItem> Moves;
      std::vector<LateReg> Srcs;
      std::vector<Reg> EarlyTmps;
      for (size_t I = 0; I < KL; ++I) {
        const Expr &AE = *E.Kids[KE + I];
        uint8_t Dst = static_cast<uint8_t>(A0 + I);
        if (AE.S == Stage::Early) {
          std::optional<int32_t> K = constEval(AE);
          Reg V = K ? Zero : evalPlain(AE);
          if (!K)
            EarlyTmps.push_back(V);
          Moves.push_back({Dst, true, 0, V, K});
        } else {
          LateReg Src = evalLate(AE);
          Srcs.push_back(Src);
          Moves.push_back({Dst, false, Src.R, Zero, std::nullopt});
        }
      }
      emitParallelMove(std::move(Moves));
      for (LateReg &S : Srcs)
        releaseLate(S);
      for (Reg R : EarlyTmps)
        releaseTemp(R);
      if (GenNonLeaf)
        emitRestoreFrame();
      uint32_t Hole = reserveHole();
      // Generator-level call to the callee's generator with the early args.
      evalArgsToStage(E, 0, KE);
      spillTempsForCall();
      loadStagedArgsIntoRegs(KE, 0);
      A.jal(M.GenLabels.at(Callee));
      A.addiu(Sp, Sp, static_cast<int32_t>(4 * KE));
      reloadTempsAfterCall();
      patchJumpHoleToReg(Hole, V0);
      return;
    }
    break; // late unstaged call or early call: fall through to default
  }

  default:
    break;
  }

  // Default: compute the value and return it from the generated code.
  if (E.S == Stage::Early) {
    std::optional<int32_t> K = constEval(E);
    Reg V = K ? Zero : evalPlain(E);
    emitResidualize(V0, V, K);
    if (!K)
      releaseTemp(V);
    if (GenNonLeaf)
      emitRestoreFrame();
    emitWordConst(encodeR(Funct::Jr, Zero, Ra, Zero));
    return;
  }
  LateReg R = evalLate(E);
  emitLateReturn(R);
}

//===----------------------------------------------------------------------===//
// Generator skeleton: memoization, alignment, flush
//===----------------------------------------------------------------------===//

void FnCompiler::emitMemoPrologue() {
  size_t K = F.Groups[0].size();
  uint32_t TableAddr = M.MemoAddrs.at(&F);
  const uint32_t EntryBytes = static_cast<uint32_t>(4 * (K + 1));
  const uint32_t Mask = layout::MemoCapacity - 1;
  static_assert((layout::MemoCapacity & (layout::MemoCapacity - 1)) == 0,
                "memo capacity must be a power of two");

  // Memo table layout: [count][last-hit entry ptr][slot 0 .. slot cap-1],
  // slot = K key words + specialization address (0 = empty). Lookup is
  // open-addressed hashing on the early keys with linear probing, fronted
  // by a one-entry last-hit cache (the matmul pattern calls the same
  // specialization n times in a row). The paper used a per-procedure
  // linear log (section 3.5) and reported memoization "can be expensive";
  // hashing keeps management cost out of the measured kernels.
  Reg TT = Zero, TC = Zero, TP = Zero;
  // The first four early keys are still live in $a0..$a3 here: the
  // prologue stored copies into the frame without clobbering them, and
  // nothing in the lookup below writes an $a register. Reading them
  // directly saves a load per key on every generator invocation.
  auto keyReg = [&](size_t J) -> Reg {
    if (J < 4)
      return static_cast<Reg>(A0 + J);
    A.lw(T8, static_cast<int32_t>(slotOffset(F.Groups[0][J].Slot)), Fp);
    return T8;
  };
  if (M.Opts.Memoization) {
    TT = allocTemp(F.Loc);
    TC = allocTemp(F.Loc);
    TP = allocTemp(F.Loc);
    Reg TH = allocTemp(F.Loc);
    A.li(TT, static_cast<int32_t>(TableAddr));
    Label HashProbe = A.newLabel();
    A.lw(TP, 4, TT); // last-hit entry
    A.beqz(TP, HashProbe);
    for (size_t J = 0; J < K; ++J) {
      A.lw(At, static_cast<int32_t>(4 * J), TP);
      A.bne(At, keyReg(J), HashProbe);
    }
    A.lw(V0, static_cast<int32_t>(4 * K), TP);
    A.j(GenRetLabel);

    // Hash on the first two keys (the distinguishing pointer and, when
    // present, the program-counter-style second key; the >>4 folds away
    // heap alignment). Probing compares all keys; rare collisions on the
    // remaining keys only lengthen a chain.
    A.bind(HashProbe);
    if (K == 0) {
      // No early parameters: a single specialization in slot 0.
      A.li(TH, 0);
    } else {
      A.srl(TH, keyReg(0), 4);
      if (K > 1)
        A.addu(TH, TH, keyReg(1));
      A.andi(TH, TH, Mask);
    }

    Label Probe = A.newLabel(), NextSlot = A.newLabel(), Miss = A.newLabel();
    A.bind(Probe);
    if ((EntryBytes & (EntryBytes - 1)) == 0) {
      // Power-of-two entry size (0, 1, or 3 keys): shift instead of li+mul.
      A.sll(TP, TH, static_cast<unsigned>(std::countr_zero(EntryBytes)));
    } else {
      A.li(At, static_cast<int32_t>(EntryBytes));
      A.mul(TP, TH, At);
    }
    A.addu(TP, TP, TT);
    A.addiu(TP, TP, 8);
    A.lw(At, static_cast<int32_t>(4 * K), TP); // cached address
    A.beqz(At, Miss);                          // empty slot: insert here
    for (size_t J = 0; J < K; ++J) {
      A.lw(At, static_cast<int32_t>(4 * J), TP);
      A.bne(At, keyReg(J), NextSlot);
    }
    A.sw(TP, 4, TT); // refresh the last-hit cache
    A.lw(V0, static_cast<int32_t>(4 * K), TP);
    A.j(GenRetLabel);
    A.bind(NextSlot);
    A.addiu(TH, TH, 1);
    A.andi(TH, TH, Mask);
    A.j(Probe);

    // Keep the table at most half full so probe chains stay short.
    A.bind(Miss);
    Label CapOk = A.newLabel();
    A.lw(TC, 0, TT);
    A.li(At, static_cast<int32_t>(layout::MemoCapacity / 2));
    A.bne(TC, At, CapOk);
    A.trap(TrapCode::MemoFull);
    A.bind(CapOk);
    releaseTemp(TH);
  }

  // Guard on the miss path only, after the lookup (memo hits must keep
  // succeeding under code-space pressure) and before the in-progress entry
  // is inserted (so a trap here leaves the memo table consistent and the
  // whole generator call cleanly retryable after a reset).
  emitCodeSpaceGuard();

  if (M.Opts.AlignSpecializations) {
    uint32_t L = M.Opts.IcacheLineBytes;
    A.addiu(Cp, Cp, static_cast<int32_t>(L - 1));
    A.li(At, -static_cast<int32_t>(L));
    A.and_(Cp, Cp, At);
  }

  if (M.Opts.Memoization) {
    // Insert the in-progress entry before generating the body so cyclic
    // specializations terminate (paper section 3.5).
    for (size_t J = 0; J < K; ++J)
      A.sw(keyReg(J), static_cast<int32_t>(4 * J), TP);
    A.sw(Cp, static_cast<int32_t>(4 * K), TP);
    A.sw(TP, 4, TT); // new entry becomes the last-hit cache
    A.addiu(TC, TC, 1);
    A.sw(TC, 0, TT);
    releaseTemp(TP);
    releaseTemp(TC);
    releaseTemp(TT);
  }

  A.sw(Cp, static_cast<int32_t>(Cp0Slot), Fp);
  if (GenNonLeaf)
    emitGeneratedPrologue();
  flushCp();
}

void FnCompiler::emitGeneratorFinish() {
  flushCp();
  A.lw(T8, static_cast<int32_t>(Cp0Slot), Fp);
  A.subu(T9, Cp, T8);
  A.flush(T8, T9);
  A.move(V0, T8);
  A.bind(GenRetLabel);
  emitEpilogue();
}

/// The generator prologue (on a memo miss, before the in-progress entry is
/// inserted) and every unrolled iteration check that the code segment has
/// room left; runaway specialization (e.g. exponential path duplication
/// from self calls in both arms of a late conditional — the paper's
/// "over-specialization" hazard) traps instead of silently overrunning
/// into the stack. The trap is recoverable: no memo entry has been
/// inserted yet at the prologue check, and the machine layer can
/// resetCodeSpace() and retry.
void FnCompiler::emitCodeSpaceGuard() {
  if (!M.Opts.EmitCodeSpaceGuards)
    return;
  Label OkL = A.newLabel();
  uint32_t Margin = M.Opts.CodeSpaceGuardMargin;
  if (Margin >= layout::DynCodeBytes)
    Margin = layout::DynCodeBytes - 4;
  A.li(At, static_cast<int32_t>(layout::DynCodeEnd - Margin));
  A.sltu(At, Cp, At);
  A.bnez(At, OkL);
  A.trap(TrapCode::CodeSpace);
  A.bind(OkL);
}

void FnCompiler::compileGenerator() {
  BodyStart = A.newLabel();
  GenRetLabel = A.newLabel();

  if (!NeedsBodyRecursion) {
    // Loop strategy (the paper's design): inlined self tail calls jump
    // back to the body start after updating the early parameter slots.
    // Safe because no backpatch hole is live across any such call.
    emitPrologue();
    emitMemoPrologue();
    A.bind(BodyStart);
    emitCodeSpaceGuard();
    genTail(*F.Body);
    emitGeneratorFinish();
    return;
  }

  // Recursion strategy: the generator entry performs memo lookup /
  // insertion, alignment, and the generated prologue, then calls a body
  // procedure; inlined self tail calls recurse into it, so holes for
  // enclosing late conditionals stay frame-local and survive unrolling.
  emitPrologue();
  emitMemoPrologue();
  // The early arguments are still live in $a0.. from entry (the memo
  // prologue reads but never writes them), so they pass straight through
  // to the body procedure.
  A.jal(BodyStart);
  emitGeneratorFinish();

  A.bind(BodyStart);
  emitPrologue();
  emitCodeSpaceGuard();
  genTail(*F.Body);
  flushCp();
  emitEpilogue();
}
