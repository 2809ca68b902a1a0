//===- Backend.cpp - Module driver and plain code generation --------------===//
//
// This file contains the module-level compilation driver, the in-VM
// runtime routines, frame management, and the *plain* expression code
// generator (ordinary compilation; also used for the early computations of
// the generating extensions). The deferred (late/emission) half lives in
// DeferredCodegen.cpp.
//
//===----------------------------------------------------------------------===//

#include "backend/CodegenInternal.h"

#include <bit>
#include <cassert>
#include <cstdlib>

using namespace fab;
using namespace fab::backend_detail;
using namespace fab::ml;

//===----------------------------------------------------------------------===//
// ModuleContext
//===----------------------------------------------------------------------===//

uint32_t ModuleContext::allocData(uint32_t Words) {
  uint32_t Addr = DataBump;
  DataBump += Words * 4;
  // Ordinary static data must stay below the emission-template region.
  if (DataBump > layout::TemplateDataBase) {
    Diags.error(SourceLoc(), "static data region overflow (memo tables)");
    DataBump = layout::TemplateDataBase;
  }
  return Addr;
}

uint32_t ModuleContext::internTemplate(const std::vector<uint32_t> &Run) {
  auto It = TemplateIndex.find(Run);
  if (It != TemplateIndex.end())
    return It->second;
  uint32_t Addr =
      layout::TemplateDataBase + 4 * static_cast<uint32_t>(TemplatePool.size());
  if (Addr + 4 * static_cast<uint32_t>(Run.size()) > layout::TemplateDataEnd)
    return 0; // region full: caller falls back to li/sw emission
  TemplatePool.insert(TemplatePool.end(), Run.begin(), Run.end());
  TemplateIndex.emplace(Run, Addr);
  return Addr;
}

void fab::backend_detail::emitRuntimeRoutines(ModuleContext &M) {
  Assembler &A = M.Asm;
  // __mkvec: a0 = length, a1 = initial element; returns the vector in v0.
  // Leaf routine; uses only t8/t9 plus the heap pointer.
  M.MkVecLabel = A.here();
  Label Ok = A.newLabel(), LoopL = A.newLabel(), Done = A.newLabel();
  A.slt(T8, A0, Zero);
  A.beqz(T8, Ok);
  A.trap(TrapCode::Bounds); // negative length
  A.bind(Ok);
  A.move(V0, Hp);
  A.sw(A0, 0, Hp);
  A.addiu(Hp, Hp, 4);
  A.sll(T8, A0, 2);
  A.addu(T8, Hp, T8); // end address
  A.bind(LoopL);
  A.beq(Hp, T8, Done);
  A.sw(A1, 0, Hp);
  A.addiu(Hp, Hp, 4);
  A.j(LoopL);
  A.bind(Done);
  A.jr(Ra);
}

//===----------------------------------------------------------------------===//
// FnCompiler: construction, frames, temporaries
//===----------------------------------------------------------------------===//

FnCompiler::FnCompiler(ModuleContext &Mc, const ml::FunDef &Fn, Mode Md)
    : M(Mc), A(Mc.Asm), F(Fn), FMode(Md) {
  GenSlotUsed.assign(MaxGenSlots, false);

  if (FMode == Mode::Generator) {
    NumLateParams = static_cast<unsigned>(F.Groups[1].size());
    scanBody(*F.Body, /*IsTail=*/true, /*UnderLateCond=*/false);
    // Assign late parameter registers.
    unsigned NamedLate = 0;
    for (auto &[Slot, R] : LateSlotReg)
      (void)Slot, (void)R, ++NamedLate;
    if (GenNonLeaf) {
      NumLateSRegs = NumLateParams + NamedLate;
      if (NumLateSRegs > 8)
        M.error(F.Loc, "staged function '" + F.Name +
                           "' needs more than 8 callee-saved late registers");
      unsigned Next = 0;
      for (const Param &P : F.Groups[1])
        LateSlotReg[P.Slot] = static_cast<uint8_t>(S0 + Next++);
      // Named locals were assigned placeholder indices by scanBody in
      // encounter order; rewrite them to s-registers after the params.
      for (auto &Entry : LateSlotReg)
        if (Entry.second >= 200) // placeholder marker
          Entry.second = static_cast<uint8_t>(S0 + Next++);
      LateTempLimit = 11;
    } else {
      for (unsigned I = 0; I < NumLateParams; ++I)
        LateSlotReg[F.Groups[1][I].Slot] = static_cast<uint8_t>(A0 + I);
      // Leaf: named locals live at the tail of the late temp pool.
      unsigned Used = 0;
      for (auto &Entry : LateSlotReg)
        if (Entry.second >= 200) {
          ++Used;
          Entry.second = LatePool[11 - Used];
        }
      if (Used + 2 > 11) // leave at least 2 pool temps
        M.error(F.Loc, "staged function '" + F.Name +
                           "' has too many late locals for a leaf "
                           "specialization");
      LateTempLimit = 11 - Used;
    }
  }

  // Frame layout (fp-relative): [fp save][ra][temp spill][gen slots][locals]
  uint32_t Off = 0;
  Off += 4; // saved fp at 0
  RaOff = Off;
  Off += 4;
  SpillOff = Off;
  Off += 4 * NumTemps;
  GenTmpOff = Off;
  NumGenSlots = (FMode == Mode::Generator) ? MaxGenSlots : 0;
  Off += 4 * NumGenSlots;
  LocalOff = Off;
  Off += 4 * F.NumSlots;
  Cp0Slot = GenTmpOff + 4 * (NumGenSlots ? NumGenSlots - 1 : 0);
  if (FMode == Mode::Generator) {
    GenSlotUsed[MaxGenSlots - 1] = true; // reserve last slot for cp0
  }
  FrameSize = (Off + 7) & ~7u;
}

uint32_t FnCompiler::slotOffset(uint32_t Slot) const {
  assert(Slot < F.NumSlots && "slot out of range");
  return LocalOff + 4 * Slot;
}

Reg FnCompiler::allocTemp(SourceLoc Loc) {
  for (unsigned I = 0; I < NumTemps; ++I)
    if (!TempUsed[I]) {
      TempUsed[I] = true;
      return TempOrder[I];
    }
  M.error(Loc, "expression too deep: temporary register pool exhausted");
  return TempOrder[NumTemps - 1];
}

void FnCompiler::releaseTemp(Reg R) {
  for (unsigned I = 0; I < NumTemps; ++I)
    if (TempOrder[I] == R) {
      assert(TempUsed[I] && "double release of temporary");
      TempUsed[I] = false;
      return;
    }
  assert(false && "released register is not a pool temporary");
}

void FnCompiler::spillTempsForCall() {
  // A generator-level call may itself emit code and advance $cp, so any
  // coalesced pending increment must be flushed first.
  if (FMode == Mode::Generator)
    flushCp();
  for (unsigned I = 0; I < NumTemps; ++I)
    if (TempUsed[I])
      A.sw(TempOrder[I], static_cast<int32_t>(SpillOff + 4 * I), Fp);
}

void FnCompiler::reloadTempsAfterCall() {
  for (unsigned I = 0; I < NumTemps; ++I)
    if (TempUsed[I])
      A.lw(TempOrder[I], static_cast<int32_t>(SpillOff + 4 * I), Fp);
}

void FnCompiler::emitPrologue() {
  A.addiu(Sp, Sp, -static_cast<int32_t>(FrameSize));
  A.sw(Fp, 0, Sp);
  A.sw(Ra, static_cast<int32_t>(RaOff), Sp);
  A.move(Fp, Sp);

  // Store incoming parameters into their frame slots. For the Generator
  // mode only the early group arrives (in registers).
  std::vector<const Param *> Params;
  if (FMode == Mode::Generator) {
    for (const Param &P : F.Groups[0])
      Params.push_back(&P);
  } else {
    for (const auto &G : F.Groups)
      for (const Param &P : G)
        Params.push_back(&P);
  }
  for (size_t I = 0; I < Params.size(); ++I) {
    if (I < 4) {
      A.sw(static_cast<Reg>(A0 + I),
           static_cast<int32_t>(slotOffset(Params[I]->Slot)), Fp);
    } else {
      A.lw(At, static_cast<int32_t>(FrameSize + 4 * (I - 4)), Fp);
      A.sw(At, static_cast<int32_t>(slotOffset(Params[I]->Slot)), Fp);
    }
  }
  if (Params.size() > 8)
    M.error(F.Loc, "function '" + F.Name + "' has more than 8 parameters");
}

void FnCompiler::emitEpilogue() {
  A.move(Sp, Fp);
  A.lw(Ra, static_cast<int32_t>(RaOff), Sp);
  A.lw(Fp, 0, Sp);
  A.addiu(Sp, Sp, static_cast<int32_t>(FrameSize));
  A.jr(Ra);
}

//===----------------------------------------------------------------------===//
// Plain expression evaluation
//===----------------------------------------------------------------------===//

Reg FnCompiler::emitPlainBinary(const Expr &E) {
  bool RealOps = E.OperandsAreReal;
  // Immediate folds: when one operand is a literal, the I-form instructions
  // cover the common integer operators without materializing the literal in
  // a register. Literals are pure, so the skipped evaluation has no effect.
  if (!RealOps) {
    auto KL = constEval(*E.Kids[0]);
    auto KR = constEval(*E.Kids[1]);
    auto InUImm16 = [](int32_t V) { return V >= 0 && V <= 0xFFFF; };
    switch (E.BinOp) {
    case BinOpKind::Add:
      if (KR && fitsImm16(*KR)) {
        Reg L = evalPlain(*E.Kids[0]);
        A.addiu(L, L, *KR);
        return L;
      }
      if (KL && fitsImm16(*KL)) {
        Reg R = evalPlain(*E.Kids[1]);
        A.addiu(R, R, *KL);
        return R;
      }
      break;
    case BinOpKind::Sub:
      if (KR && *KR != INT32_MIN && fitsImm16(-*KR)) {
        Reg L = evalPlain(*E.Kids[0]);
        A.addiu(L, L, -*KR);
        return L;
      }
      break;
    case BinOpKind::Eq:
    case BinOpKind::Ne: {
      const Expr *Var = KR && !KL ? E.Kids[0].get()
                        : KL && !KR ? E.Kids[1].get()
                                    : nullptr;
      std::optional<int32_t> K = KR && !KL ? KR : KL;
      if (Var && K && InUImm16(*K)) {
        Reg L = evalPlain(*Var);
        if (*K != 0)
          A.xori(L, L, static_cast<uint32_t>(*K));
        if (E.BinOp == BinOpKind::Eq)
          A.sltiu(L, L, 1);
        else
          A.sltu(L, Zero, L);
        return L;
      }
      break;
    }
    case BinOpKind::Lt:
      if (KR && fitsImm16(*KR)) {
        Reg L = evalPlain(*E.Kids[0]);
        A.slti(L, L, *KR);
        return L;
      }
      break;
    case BinOpKind::Ge:
      if (KR && fitsImm16(*KR)) {
        Reg L = evalPlain(*E.Kids[0]);
        A.slti(L, L, *KR);
        A.xori(L, L, 1);
        return L;
      }
      break;
    case BinOpKind::Gt: // K > r  <=>  r < K
      if (KL && fitsImm16(*KL)) {
        Reg R = evalPlain(*E.Kids[1]);
        A.slti(R, R, *KL);
        return R;
      }
      break;
    case BinOpKind::Le: // K <= r  <=>  !(r < K)
      if (KL && fitsImm16(*KL)) {
        Reg R = evalPlain(*E.Kids[1]);
        A.slti(R, R, *KL);
        A.xori(R, R, 1);
        return R;
      }
      break;
    default:
      break;
    }
  }
  Reg L = evalPlain(*E.Kids[0]);
  Reg R = evalPlain(*E.Kids[1]);
  switch (E.BinOp) {
  case BinOpKind::Add:
    RealOps ? A.fadd(L, L, R) : A.addu(L, L, R);
    break;
  case BinOpKind::Sub:
    RealOps ? A.fsub(L, L, R) : A.subu(L, L, R);
    break;
  case BinOpKind::Mul:
    RealOps ? A.fmul(L, L, R) : A.mul(L, L, R);
    break;
  case BinOpKind::Div:
    RealOps ? A.fdiv(L, L, R) : A.divq(L, L, R);
    break;
  case BinOpKind::Mod:
    A.rem(L, L, R);
    break;
  case BinOpKind::Eq:
    if (RealOps) {
      A.feq(L, L, R);
    } else {
      A.xor_(L, L, R);
      A.sltiu(L, L, 1);
    }
    break;
  case BinOpKind::Ne:
    if (RealOps) {
      A.feq(L, L, R);
      A.xori(L, L, 1);
    } else {
      A.xor_(L, L, R);
      A.sltu(L, Zero, L);
    }
    break;
  case BinOpKind::Lt:
    RealOps ? A.flt(L, L, R) : A.slt(L, L, R);
    break;
  case BinOpKind::Le:
    if (RealOps) {
      A.fle(L, L, R);
    } else {
      A.slt(L, R, L);
      A.xori(L, L, 1);
    }
    break;
  case BinOpKind::Gt:
    RealOps ? A.flt(L, R, L) : A.slt(L, R, L);
    break;
  case BinOpKind::Ge:
    if (RealOps) {
      A.fle(L, R, L);
    } else {
      A.slt(L, L, R);
      A.xori(L, L, 1);
    }
    break;
  }
  releaseTemp(R);
  return L;
}

void FnCompiler::evalPlainCond(const Expr &E, Label Target, bool WhenTrue) {
  // `not c`: flip the branch sense instead of materializing the negation.
  if (E.K == Expr::Kind::Unary && E.UnOp == UnOpKind::Not) {
    evalPlainCond(*E.Kids[0], Target, !WhenTrue);
    return;
  }
  // Literal condition: unconditional jump or plain fall-through.
  if (auto K = constEval(E)) {
    if ((*K != 0) == WhenTrue)
      A.j(Target);
    return;
  }
  if (E.K == Expr::Kind::Binary && !E.OperandsAreReal) {
    auto KL = constEval(*E.Kids[0]);
    auto KR = constEval(*E.Kids[1]);
    switch (E.BinOp) {
    case BinOpKind::Eq:
    case BinOpKind::Ne: {
      bool BranchOnEqual = (E.BinOp == BinOpKind::Eq) == WhenTrue;
      if (KL && KR) {
        if ((*KL == *KR) == BranchOnEqual)
          A.j(Target);
        return;
      }
      if (KL || KR) {
        int32_t K = KL ? *KL : *KR;
        Reg C = evalPlain(KL ? *E.Kids[1] : *E.Kids[0]);
        if (K == 0) {
          BranchOnEqual ? A.beqz(C, Target) : A.bnez(C, Target);
        } else {
          A.li(At, K);
          BranchOnEqual ? A.beq(C, At, Target) : A.bne(C, At, Target);
        }
        releaseTemp(C);
        return;
      }
      Reg L = evalPlain(*E.Kids[0]);
      Reg R = evalPlain(*E.Kids[1]);
      BranchOnEqual ? A.beq(L, R, Target) : A.bne(L, R, Target);
      releaseTemp(R);
      releaseTemp(L);
      return;
    }
    case BinOpKind::Lt:
    case BinOpKind::Le:
    case BinOpKind::Gt:
    case BinOpKind::Ge: {
      // Reduce to one slt/slti whose result feeds the branch directly.
      // Gt/Le test the swapped pair (r < l); Le/Ge negate the slt sense.
      bool Swap = E.BinOp == BinOpKind::Gt || E.BinOp == BinOpKind::Le;
      bool Negate = E.BinOp == BinOpKind::Le || E.BinOp == BinOpKind::Ge;
      if (KL && KR) {
        bool Lt = Swap ? *KR < *KL : *KL < *KR;
        if ((Negate ? !Lt : Lt) == WhenTrue)
          A.j(Target);
        return;
      }
      Reg C;
      if (!Swap && KR && fitsImm16(*KR)) {
        C = evalPlain(*E.Kids[0]);
        A.slti(C, C, *KR);
      } else if (Swap && KL && fitsImm16(*KL)) {
        C = evalPlain(*E.Kids[1]);
        A.slti(C, C, *KL);
      } else {
        Reg L = evalPlain(*E.Kids[0]);
        Reg R = evalPlain(*E.Kids[1]);
        Swap ? A.slt(L, R, L) : A.slt(L, L, R);
        releaseTemp(R);
        C = L;
      }
      (WhenTrue != Negate) ? A.bnez(C, Target) : A.beqz(C, Target);
      releaseTemp(C);
      return;
    }
    default:
      break;
    }
  }
  Reg C = evalPlain(E);
  WhenTrue ? A.bnez(C, Target) : A.beqz(C, Target);
  releaseTemp(C);
}

Reg FnCompiler::emitPlainVSub(const Expr &E) {
  Reg V = evalPlain(*E.Kids[0]);
  Reg I = evalPlain(*E.Kids[1]);
  Label Ok = A.newLabel();
  A.lw(At, 0, V); // length
  A.sltu(At, I, At);
  A.bnez(At, Ok);
  A.trap(TrapCode::Bounds);
  A.bind(Ok);
  A.sll(I, I, 2);
  A.addu(V, V, I);
  A.lw(V, 4, V);
  releaseTemp(I);
  return V;
}

void FnCompiler::emitPlainCase(const Expr &E, Reg Result) {
  Reg Scrut = evalPlain(*E.Kids[0]);
  bool IsData = E.Kids[0]->Ty->K == Type::Kind::Data;
  Reg Tag = Scrut;
  if (IsData) {
    Tag = allocTemp(E.Loc);
    A.lw(Tag, 0, Scrut);
  }
  Label End = A.newLabel();
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
    Reg R = evalPlain(*Arm->Body);
    A.move(Result, R);
    releaseTemp(R);
    A.j(End);
    A.bind(Next);
    if (HasCatchAll)
      break; // catch-all arm falls through; later arms are unreachable
  }
  if (!HasCatchAll)
    A.trap(TrapCode::MatchFail);
  A.bind(End);
  if (IsData)
    releaseTemp(Tag);
  releaseTemp(Scrut);
}

/// Evaluates each argument (left to right) into a pre-allocated stack
/// block, so nested calls cannot clobber staged arguments. The block is
/// reserved up front (one $sp adjustment); nested calls push below it.
void FnCompiler::evalArgsToStage(const Expr &E, size_t First, size_t Count) {
  if (Count == 0)
    return;
  A.addiu(Sp, Sp, -static_cast<int32_t>(4 * Count));
  for (size_t I = 0; I < Count; ++I) {
    Reg R = evalPlain(*E.Kids[First + I]);
    // Slot layout matches the old push order: argument I lives at
    // sp + 4*(Count-1-I).
    A.sw(R, static_cast<int32_t>(4 * (Count - 1 - I)), Sp);
    releaseTemp(R);
  }
}

/// Loads the first min(Count,4) staged arguments (pushed left to right, so
/// argument I is at sp + 4*(StackBase + Count-1-I)) into a0..a3, and
/// re-pushes arguments 4.. into callee order.
void FnCompiler::loadStagedArgsIntoRegs(size_t Count, uint32_t StackBase) {
  for (size_t I = 0; I < Count && I < 4; ++I)
    A.lw(static_cast<Reg>(A0 + I),
         static_cast<int32_t>(4 * (StackBase + Count - 1 - I)), Sp);
  if (Count > 4) {
    size_t K = Count - 4;
    A.addiu(Sp, Sp, -static_cast<int32_t>(4 * K));
    for (size_t I = 4; I < Count; ++I) {
      A.lw(At, static_cast<int32_t>(4 * (K + StackBase + Count - 1 - I)), Sp);
      A.sw(At, static_cast<int32_t>(4 * (I - 4)), Sp);
    }
  }
}

Reg FnCompiler::evalPlainCall(const Expr &E) {
  const FunDef *Callee = E.Callee;
  size_t N = E.Kids.size();
  bool TwoStep = M.Opts.Mode == CompileMode::Deferred && Callee->isStaged() &&
                 FMode != Mode::Generator;
  // Inside a generator, an early call to a staged function cannot occur
  // (staged calls are always late); assert the invariant.
  assert(!(FMode == Mode::Generator && Callee->isStaged()) &&
         "staged call reached plain evaluation inside a generator");

  evalArgsToStage(E, 0, N);
  spillTempsForCall();
  size_t PopWords = N;

  if (!TwoStep) {
    loadStagedArgsIntoRegs(N, 0);
    if (N > 4)
      PopWords += N - 4;
    A.jal(M.FnLabels.at(Callee));
  } else {
    // Two calls: the memoized generator, then the returned address.
    size_t KE = Callee->Groups[0].size();
    size_t KL = Callee->Groups[1].size();
    // Early args are the first KE pushed values.
    for (size_t I = 0; I < KE; ++I)
      A.lw(static_cast<Reg>(A0 + I), static_cast<int32_t>(4 * (N - 1 - I)),
           Sp);
    A.jal(M.GenLabels.at(Callee));
    A.move(T9, V0);
    for (size_t I = 0; I < KL; ++I)
      A.lw(static_cast<Reg>(A0 + I),
           static_cast<int32_t>(4 * (N - 1 - (KE + I))), Sp);
    A.jalr(T9);
  }

  A.addiu(Sp, Sp, static_cast<int32_t>(4 * PopWords));
  reloadTempsAfterCall();
  Reg R = allocTemp(E.Loc);
  A.move(R, V0);
  return R;
}

Reg FnCompiler::evalPlain(const Expr &E) {
  switch (E.K) {
  case Expr::Kind::IntLit: {
    Reg R = allocTemp(E.Loc);
    A.li(R, E.IntValue);
    return R;
  }
  case Expr::Kind::RealLit: {
    Reg R = allocTemp(E.Loc);
    A.li(R, static_cast<int32_t>(std::bit_cast<uint32_t>(E.RealValue)));
    return R;
  }
  case Expr::Kind::BoolLit: {
    Reg R = allocTemp(E.Loc);
    A.li(R, E.BoolValue ? 1 : 0);
    return R;
  }
  case Expr::Kind::UnitLit: {
    Reg R = allocTemp(E.Loc);
    A.li(R, 0);
    return R;
  }
  case Expr::Kind::Var: {
    Reg R = allocTemp(E.Loc);
    A.lw(R, static_cast<int32_t>(slotOffset(E.VarSlot)), Fp);
    return R;
  }
  case Expr::Kind::Unary: {
    Reg R = evalPlain(*E.Kids[0]);
    if (E.UnOp == UnOpKind::Not)
      A.xori(R, R, 1);
    else if (E.OperandsAreReal)
      A.fsub(R, Zero, R);
    else
      A.subu(R, Zero, R);
    return R;
  }
  case Expr::Kind::Binary:
    return emitPlainBinary(E);

  case Expr::Kind::If: {
    Reg Result = allocTemp(E.Loc);
    Label Else = A.newLabel(), End = A.newLabel();
    evalPlainCond(*E.Kids[0], Else, /*WhenTrue=*/false);
    Reg T = evalPlain(*E.Kids[1]);
    A.move(Result, T);
    releaseTemp(T);
    A.j(End);
    A.bind(Else);
    Reg Fv = evalPlain(*E.Kids[2]);
    A.move(Result, Fv);
    releaseTemp(Fv);
    A.bind(End);
    return Result;
  }

  case Expr::Kind::Let: {
    Reg R = evalPlain(*E.Kids[0]);
    A.sw(R, static_cast<int32_t>(slotOffset(E.VarSlot)), Fp);
    releaseTemp(R);
    return evalPlain(*E.Kids[1]);
  }

  case Expr::Kind::Case: {
    Reg Result = allocTemp(E.Loc);
    emitPlainCase(E, Result);
    return Result;
  }

  case Expr::Kind::Con: {
    Reg Cell = allocTemp(E.Loc);
    uint32_t Words = 1 + static_cast<uint32_t>(E.Kids.size());
    A.move(Cell, Hp);
    A.addiu(Hp, Hp, static_cast<int32_t>(4 * Words));
    A.li(At, static_cast<int32_t>(E.Con->Tag));
    A.sw(At, 0, Cell);
    for (size_t I = 0; I < E.Kids.size(); ++I) {
      Reg Fv = evalPlain(*E.Kids[I]);
      A.sw(Fv, static_cast<int32_t>(4 + 4 * I), Cell);
      releaseTemp(Fv);
    }
    return Cell;
  }

  case Expr::Kind::Prim:
    switch (E.Prim) {
    case PrimKind::Length: {
      Reg V = evalPlain(*E.Kids[0]);
      A.lw(V, 0, V);
      return V;
    }
    case PrimKind::VSub:
      return emitPlainVSub(E);
    case PrimKind::RealOf: {
      Reg R = evalPlain(*E.Kids[0]);
      A.cvtsw(R, R);
      return R;
    }
    case PrimKind::Trunc: {
      Reg R = evalPlain(*E.Kids[0]);
      A.cvtws(R, R);
      return R;
    }
    case PrimKind::MkVec: {
      evalArgsToStage(E, 0, 2);
      spillTempsForCall();
      loadStagedArgsIntoRegs(2, 0);
      A.jal(M.MkVecLabel);
      A.addiu(Sp, Sp, 8);
      reloadTempsAfterCall();
      Reg R = allocTemp(E.Loc);
      A.move(R, V0);
      return R;
    }
    case PrimKind::Andb:
    case PrimKind::Orb:
    case PrimKind::Xorb:
    case PrimKind::Lsh:
    case PrimKind::Rsh: {
      // Literal right operands fold to the immediate/shamt forms.
      if (auto K = constEval(*E.Kids[1])) {
        bool IsShift = E.Prim == PrimKind::Lsh || E.Prim == PrimKind::Rsh;
        if (IsShift ? (*K >= 0 && *K < 32) : (*K >= 0 && *K <= 0xFFFF)) {
          Reg L = evalPlain(*E.Kids[0]);
          switch (E.Prim) {
          case PrimKind::Andb:
            A.andi(L, L, static_cast<uint32_t>(*K));
            break;
          case PrimKind::Orb:
            A.ori(L, L, static_cast<uint32_t>(*K));
            break;
          case PrimKind::Xorb:
            A.xori(L, L, static_cast<uint32_t>(*K));
            break;
          case PrimKind::Lsh:
            A.sll(L, L, static_cast<unsigned>(*K));
            break;
          case PrimKind::Rsh:
            A.srl(L, L, static_cast<unsigned>(*K));
            break;
          default:
            break;
          }
          return L;
        }
      }
      Reg L = evalPlain(*E.Kids[0]);
      Reg R = evalPlain(*E.Kids[1]);
      switch (E.Prim) {
      case PrimKind::Andb:
        A.and_(L, L, R);
        break;
      case PrimKind::Orb:
        A.or_(L, L, R);
        break;
      case PrimKind::Xorb:
        A.xor_(L, L, R);
        break;
      case PrimKind::Lsh:
        A.sllv(L, L, R);
        break;
      case PrimKind::Rsh:
        A.srlv(L, L, R);
        break;
      default:
        break;
      }
      releaseTemp(R);
      return L;
    }
    case PrimKind::VSet: {
      Reg V = evalPlain(*E.Kids[0]);
      Reg I = evalPlain(*E.Kids[1]);
      Label Ok = A.newLabel();
      A.lw(At, 0, V);
      A.sltu(At, I, At);
      A.bnez(At, Ok);
      A.trap(TrapCode::Bounds);
      A.bind(Ok);
      A.sll(I, I, 2);
      A.addu(V, V, I);
      Reg X = evalPlain(*E.Kids[2]);
      A.sw(X, 4, V);
      releaseTemp(X);
      releaseTemp(I);
      A.li(V, 0); // unit
      return V;
    }
    }
    break;

  case Expr::Kind::Call:
    return evalPlainCall(E);
  }
  // Unreachable for well-formed input.
  Reg R = allocTemp(E.Loc);
  A.li(R, 0);
  return R;
}

//===----------------------------------------------------------------------===//
// Function bodies per mode
//===----------------------------------------------------------------------===//

/// Conservative upper bound on the pool temporaries an expression's plain
/// evaluation holds at once. Over-estimates are safe (the caller falls
/// back to stack staging).
unsigned FnCompiler::tempNeed(const Expr &E) const {
  auto Max = [](unsigned A, unsigned B) { return A > B ? A : B; };
  switch (E.K) {
  case Expr::Kind::IntLit:
  case Expr::Kind::RealLit:
  case Expr::Kind::BoolLit:
  case Expr::Kind::UnitLit:
  case Expr::Kind::Var:
    return 1;
  case Expr::Kind::Unary:
    return tempNeed(*E.Kids[0]);
  case Expr::Kind::Binary:
    return Max(tempNeed(*E.Kids[0]), 1 + tempNeed(*E.Kids[1]));
  case Expr::Kind::If:
    return 1 + Max(tempNeed(*E.Kids[0]),
                   Max(tempNeed(*E.Kids[1]), tempNeed(*E.Kids[2])));
  case Expr::Kind::Let:
    return Max(tempNeed(*E.Kids[0]), tempNeed(*E.Kids[1]));
  case Expr::Kind::Case: {
    unsigned N = 3; // result + scrutinee + tag
    for (const auto &Arm : E.Arms)
      N = Max(N, 3 + tempNeed(*Arm->Body));
    return Max(1 + tempNeed(*E.Kids[0]), N);
  }
  case Expr::Kind::Con: {
    unsigned N = 1;
    for (const auto &K : E.Kids)
      N = Max(N, 1 + tempNeed(*K));
    return N;
  }
  case Expr::Kind::Prim: {
    // Arguments are evaluated left to right; VSub/VSet hold earlier
    // operands while evaluating later ones.
    unsigned N = 1, Held = 0;
    for (const auto &K : E.Kids) {
      N = Max(N, Held + tempNeed(*K));
      ++Held;
    }
    return N;
  }
  case Expr::Kind::Call: {
    // Call arguments are staged through the stack one at a time.
    unsigned N = 1;
    for (const auto &K : E.Kids)
      N = Max(N, tempNeed(*K));
    return N;
  }
  }
  return NumTemps; // unknown: force the safe path
}

void FnCompiler::compilePlainBody() {
  emitPrologue();
  PlainBodyStart = A.here();
  PlainEpilogue = A.newLabel();
  evalPlainTail(*F.Body);
  A.bind(PlainEpilogue);
  emitEpilogue();
}

void FnCompiler::evalPlainTail(const Expr &E) {
  switch (E.K) {
  case Expr::Kind::If: {
    Label Else = A.newLabel();
    evalPlainCond(*E.Kids[0], Else, /*WhenTrue=*/false);
    evalPlainTail(*E.Kids[1]);
    A.bind(Else);
    evalPlainTail(*E.Kids[2]);
    return;
  }
  case Expr::Kind::Let: {
    Reg R = evalPlain(*E.Kids[0]);
    A.sw(R, static_cast<int32_t>(slotOffset(E.VarSlot)), Fp);
    releaseTemp(R);
    evalPlainTail(*E.Kids[1]);
    return;
  }
  case Expr::Kind::Case: {
    Reg Scrut = evalPlain(*E.Kids[0]);
    bool IsData = E.Kids[0]->Ty->K == Type::Kind::Data;
    Reg Tag = Scrut;
    if (IsData) {
      Tag = allocTemp(E.Loc);
      A.lw(Tag, 0, Scrut);
    }
    bool HasCatchAll = false;
    for (const auto &Arm : E.Arms) {
      Label Next = A.newLabel();
      switch (Arm->PK) {
      case ml::CaseArm::PatKind::Con:
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
      case ml::CaseArm::PatKind::IntLit:
        if (Arm->IntValue == 0) {
          A.bnez(Tag, Next);
        } else {
          A.li(At, Arm->IntValue);
          A.bne(Tag, At, Next);
        }
        break;
      case ml::CaseArm::PatKind::Var:
        A.sw(Scrut, static_cast<int32_t>(slotOffset(Arm->VarSlot)), Fp);
        HasCatchAll = true;
        break;
      case ml::CaseArm::PatKind::Wild:
        HasCatchAll = true;
        break;
      }
      evalPlainTail(*Arm->Body);
      A.bind(Next);
      if (HasCatchAll)
        break;
    }
    if (!HasCatchAll)
      A.trap(TrapCode::MatchFail);
    if (IsData)
      releaseTemp(Tag);
    releaseTemp(Scrut);
    return;
  }
  case Expr::Kind::Call:
    // Direct self tail call: overwrite the parameter slots and loop.
    // (In Deferred mode staged functions never reach PlainFn compilation,
    // and wrappers do not use tail evaluation, so Callee == &F implies an
    // ordinary one-step call.)
    if (E.Callee == &F) {
      size_t N = E.Kids.size();
      // Fast path: when the pool provably has room, evaluate every new
      // argument into registers and store straight to the slots (correct
      // because stores happen only after all arguments are evaluated).
      // While evaluating argument i, i earlier values are held live, so
      // the requirement is max_i(i + tempNeed(arg_i)) free temporaries.
      unsigned FreeTemps = 0;
      for (unsigned I = 0; I < NumTemps; ++I)
        FreeTemps += !TempUsed[I];
      // Identity arguments (a parameter passed through unchanged, the
      // common case for loop-invariant values) need no evaluation at all.
      std::vector<const ml::Param *> Params;
      for (const auto &G : F.Groups)
        for (const ml::Param &P : G)
          Params.push_back(&P);
      auto IsIdentity = [&](size_t I) {
        return E.Kids[I]->K == Expr::Kind::Var &&
               E.Kids[I]->VarSlot == Params[I]->Slot;
      };
      unsigned Need = 0, Held = 0;
      for (size_t I = 0; I < N; ++I) {
        if (IsIdentity(I))
          continue;
        Need = std::max(Need, Held + tempNeed(*E.Kids[I]));
        ++Held;
      }
      if (Need <= FreeTemps) {
        std::vector<std::pair<Reg, const ml::Param *>> Vals;
        for (size_t I = 0; I < N; ++I)
          if (!IsIdentity(I))
            Vals.push_back({evalPlain(*E.Kids[I]), Params[I]});
        for (auto [R, P] : Vals) {
          A.sw(R, static_cast<int32_t>(slotOffset(P->Slot)), Fp);
          releaseTemp(R);
        }
        A.j(PlainBodyStart);
        return;
      }
      evalArgsToStage(E, 0, N);
      size_t PI = 0;
      for (const auto &G : F.Groups)
        for (const ml::Param &P : G) {
          A.lw(At, static_cast<int32_t>(4 * (N - 1 - PI)), Sp);
          A.sw(At, static_cast<int32_t>(slotOffset(P.Slot)), Fp);
          ++PI;
        }
      A.addiu(Sp, Sp, static_cast<int32_t>(4 * N));
      A.j(PlainBodyStart);
      return;
    }
    break;
  default:
    break;
  }
  Reg R = evalPlain(E);
  A.move(V0, R);
  releaseTemp(R);
  A.j(PlainEpilogue);
}

void FnCompiler::compileWrapper() {
  emitPrologue();
  const auto &EarlyG = F.Groups[0];
  const auto &LateG = F.Groups[1];
  for (size_t I = 0; I < EarlyG.size(); ++I)
    A.lw(static_cast<Reg>(A0 + I),
         static_cast<int32_t>(slotOffset(EarlyG[I].Slot)), Fp);
  A.jal(M.GenLabels.at(&F));
  A.move(T9, V0);
  for (size_t I = 0; I < LateG.size(); ++I)
    A.lw(static_cast<Reg>(A0 + I),
         static_cast<int32_t>(slotOffset(LateG[I].Slot)), Fp);
  A.jalr(T9);
  emitEpilogue();
}

void FnCompiler::compile() {
  switch (FMode) {
  case Mode::PlainFn:
    A.bind(M.FnLabels.at(&F));
    compilePlainBody();
    break;
  case Mode::Wrapper:
    A.bind(M.FnLabels.at(&F));
    compileWrapper();
    break;
  case Mode::Generator:
    A.bind(M.GenLabels.at(&F));
    compileGenerator();
    break;
  }
}

//===----------------------------------------------------------------------===//
// Module driver
//===----------------------------------------------------------------------===//

uint32_t CompiledUnit::fnAddr(const std::string &Name) const {
  auto It = FnAddr.find(Name);
  assert(It != FnAddr.end() && "unknown function");
  return It->second;
}

uint32_t CompiledUnit::genAddr(const std::string &Name) const {
  auto It = GenAddr.find(Name);
  assert(It != GenAddr.end() && "function has no generator");
  return It->second;
}

bool fab::compileProgram(const ml::Program &P, const BackendOptions &Opts,
                         CompiledUnit &Out, DiagnosticEngine &Diags) {
  BackendOptions EffOpts = Opts;
  // Process-wide escape hatch mirroring FAB_DECODE_CACHE / FAB_TRACE:
  // force word-by-word li/sw emission without touching every construction
  // site (the --no-templates flag's env counterpart).
  if (const char *E = std::getenv("FAB_TEMPLATES"); E && E[0] == '0' && !E[1])
    EffOpts.EmitTemplates = false;
  ModuleContext M(P, EffOpts, Diags);

  // Create labels and memo tables up front so calls can be emitted in any
  // order.
  for (const auto &F : P.Functions) {
    M.FnLabels[F.get()] = M.Asm.newLabel();
    if (Opts.Mode == CompileMode::Deferred && F->isStaged()) {
      M.GenLabels[F.get()] = M.Asm.newLabel();
      uint32_t Keys = static_cast<uint32_t>(F->Groups[0].size());
      uint32_t Words = 2 + layout::MemoCapacity * (Keys + 1);
      M.MemoAddrs[F.get()] = M.allocData(Words);
      if (F->Groups[0].size() > 4)
        Diags.error(F->Loc, "staged function '" + F->Name +
                                "' has more than four early parameters");
    }
  }
  if (Diags.hasErrors())
    return false;

  emitRuntimeRoutines(M);

  for (const auto &F : P.Functions) {
    if (Opts.Mode == CompileMode::Deferred && F->isStaged()) {
      FnCompiler(M, *F, FnCompiler::Mode::Wrapper).compile();
      FnCompiler(M, *F, FnCompiler::Mode::Generator).compile();
    } else {
      FnCompiler(M, *F, FnCompiler::Mode::PlainFn).compile();
    }
  }
  if (Diags.hasErrors())
    return false;

  M.Asm.finalize();
  Out.Code = M.Asm.code();
  Out.CodeBase = M.Asm.baseAddr();
  Out.TemplateData = std::move(M.TemplatePool);
  Out.TemplateBase = layout::TemplateDataBase;
  for (const auto &F : P.Functions) {
    Out.FnAddr[F->Name] = M.Asm.addrOf(M.FnLabels.at(F.get()));
    if (auto It = M.GenLabels.find(F.get()); It != M.GenLabels.end()) {
      Out.GenAddr[F->Name] = M.Asm.addrOf(It->second);
      Out.MemoAddr[F->Name] = M.MemoAddrs.at(F.get());
      Out.MemoKeys[F->Name] = static_cast<uint32_t>(F->Groups[0].size());
    }
  }
  return true;
}
