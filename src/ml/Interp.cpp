//===- Interp.cpp - Reference AST interpreter -------------------------------===//

#include "ml/Interp.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace fab;
using namespace fab::ml;

uint32_t Interp::alloc(uint32_t Header, size_t N) {
  size_t Off = Heap.size();
  Heap.resize(Off + 1 + N);
  Heap[Off] = Header;
  return HandleBase + static_cast<uint32_t>(Off) * 4;
}

uint32_t *Interp::words(uint32_t Handle) {
  size_t Off = (Handle - HandleBase) / 4;
  assert(Handle >= HandleBase && Off < Heap.size() && "bad handle");
  return Heap.data() + Off;
}

const uint32_t *Interp::words(uint32_t Handle) const {
  size_t Off = (Handle - HandleBase) / 4;
  assert(Handle >= HandleBase && Off < Heap.size() && "bad handle");
  return Heap.data() + Off;
}

uint32_t Interp::vector(const std::vector<uint32_t> &Elems) {
  uint32_t H = alloc(static_cast<uint32_t>(Elems.size()), Elems.size());
  std::copy(Elems.begin(), Elems.end(), words(H) + 1);
  return H;
}

uint32_t Interp::cell(uint32_t Tag, const std::vector<uint32_t> &Fields) {
  uint32_t H = alloc(Tag, Fields.size());
  std::copy(Fields.begin(), Fields.end(), words(H) + 1);
  return H;
}

std::vector<uint32_t> Interp::readVector(uint32_t Handle) const {
  const uint32_t *W = words(Handle);
  return std::vector<uint32_t>(W + 1, W + 1 + W[0]);
}

std::optional<uint32_t> Interp::call(const std::string &Fn,
                                     const std::vector<uint32_t> &Args) {
  const FunDef *F = P.findFunction(Fn);
  assert(F && "unknown function");
  assert(Args.size() == F->numParams() && "argument count mismatch");
#ifndef NDEBUG
  uint32_t Slot = 0;
  for (const auto &G : F->Groups)
    for (const Param &Pm : G) {
      assert(Pm.Slot == Slot && "parameters are slots 0..n-1");
      ++Slot;
    }
#endif
  if (Stack.size() < F->NumSlots)
    Stack.resize(F->NumSlots);
  std::copy(Args.begin(), Args.end(), Stack.begin());
  Top = F->NumSlots;
  auto Here = reinterpret_cast<uintptr_t>(__builtin_frame_address(0));
  StackLimit = Here > StackBudget ? Here - StackBudget : 0;
  Failed = false;
  uint32_t R = eval(F->Body.get(), 0, /*Tail=*/true);
  if (Failed)
    return std::nullopt;
  return R;
}

static bool armMatches(const CaseArm &Arm, uint32_t Tag) {
  switch (Arm.PK) {
  case CaseArm::PatKind::Con:
    return Tag == Arm.Con->Tag;
  case CaseArm::PatKind::IntLit:
    return Tag == static_cast<uint32_t>(Arm.IntValue);
  case CaseArm::PatKind::Var:
  case CaseArm::PatKind::Wild:
    return true;
  }
  return false;
}

uint32_t Interp::operand(const Expr *E, size_t Base) {
  switch (E->K) {
  case Expr::Kind::Var:
    if (Fuel-- == 0)
      return fail(InterpTrap::OutOfFuel);
    return Stack[Base + E->VarSlot];
  case Expr::Kind::IntLit:
    if (Fuel-- == 0)
      return fail(InterpTrap::OutOfFuel);
    return static_cast<uint32_t>(E->IntValue);
  default:
    return eval(E, Base, /*Tail=*/false);
  }
}

bool Interp::evalInto(const std::vector<ExprPtr> &Kids, size_t Base,
                      size_t At) {
  if (At + Kids.size() > Stack.size())
    Stack.resize(At + Kids.size());
  for (size_t I = 0; I < Kids.size(); ++I) {
    uint32_t V = operand(Kids[I].get(), Base);
    if (Failed)
      return false;
    Stack[At + I] = V;
    Top = At + I + 1;
  }
  return true;
}

uint32_t Interp::eval(const Expr *E, size_t Base, bool Tail) {
  auto F32 = [](uint32_t B) { return std::bit_cast<float>(B); };
  auto B32 = [](float F) { return std::bit_cast<uint32_t>(F); };

  // If, Let, Case and tail calls continue with their tail subexpression;
  // every other node returns.
  for (;;) {
    if (Fuel-- == 0)
      return fail(InterpTrap::OutOfFuel);

    switch (E->K) {
    case Expr::Kind::IntLit:
      return static_cast<uint32_t>(E->IntValue);
    case Expr::Kind::RealLit:
      return B32(E->RealValue);
    case Expr::Kind::BoolLit:
      return E->BoolValue ? 1u : 0u;
    case Expr::Kind::UnitLit:
      return 0u;
    case Expr::Kind::Var:
      return Stack[Base + E->VarSlot];

    case Expr::Kind::Unary: {
      uint32_t V = operand(E->Kids[0].get(), Base);
      if (Failed)
        return 0;
      if (E->UnOp == UnOpKind::Not)
        return V ^ 1u;
      if (E->OperandsAreReal)
        return B32(0.0f - F32(V));
      return 0u - V;
    }

    case Expr::Kind::Binary: {
      uint32_t L = operand(E->Kids[0].get(), Base);
      if (Failed)
        return 0;
      uint32_t R = operand(E->Kids[1].get(), Base);
      if (Failed)
        return 0;
      uint32_t A = L, B = R;
      if (E->OperandsAreReal) {
        float X = F32(A), Y = F32(B);
        switch (E->BinOp) {
        case BinOpKind::Add:
          return B32(X + Y);
        case BinOpKind::Sub:
          return B32(X - Y);
        case BinOpKind::Mul:
          return B32(X * Y);
        case BinOpKind::Div:
          return B32(X / Y);
        case BinOpKind::Mod:
          return fail(InterpTrap::DivZero); // rejected by the checker
        case BinOpKind::Eq:
          return X == Y ? 1u : 0u;
        case BinOpKind::Ne:
          return X != Y ? 1u : 0u;
        case BinOpKind::Lt:
          return X < Y ? 1u : 0u;
        case BinOpKind::Le:
          return X <= Y ? 1u : 0u;
        case BinOpKind::Gt:
          return X > Y ? 1u : 0u;
        case BinOpKind::Ge:
          return X >= Y ? 1u : 0u;
        }
      }
      int32_t SA = static_cast<int32_t>(A), SB = static_cast<int32_t>(B);
      switch (E->BinOp) {
      case BinOpKind::Add:
        return A + B;
      case BinOpKind::Sub:
        return A - B;
      case BinOpKind::Mul:
        return static_cast<uint32_t>(SA * static_cast<int64_t>(SB));
      case BinOpKind::Div:
        if (B == 0)
          return fail(InterpTrap::DivZero);
        if (A == 0x80000000u && B == 0xFFFFFFFFu)
          return 0x80000000u; // wraps, matching the simulator's definition
        return static_cast<uint32_t>(SA / SB);
      case BinOpKind::Mod:
        if (B == 0)
          return fail(InterpTrap::DivZero);
        if (A == 0x80000000u && B == 0xFFFFFFFFu)
          return 0u;
        return static_cast<uint32_t>(SA % SB);
      case BinOpKind::Eq:
        return A == B ? 1u : 0u;
      case BinOpKind::Ne:
        return A != B ? 1u : 0u;
      case BinOpKind::Lt:
        return SA < SB ? 1u : 0u;
      case BinOpKind::Le:
        return SA <= SB ? 1u : 0u;
      case BinOpKind::Gt:
        return SA > SB ? 1u : 0u;
      case BinOpKind::Ge:
        return SA >= SB ? 1u : 0u;
      }
      return 0u;
    }

    case Expr::Kind::If: {
      uint32_t C = operand(E->Kids[0].get(), Base);
      if (Failed)
        return 0;
      E = E->Kids[C ? 1 : 2].get();
      continue;
    }

    case Expr::Kind::Let: {
      uint32_t V = operand(E->Kids[0].get(), Base);
      if (Failed)
        return 0;
      Stack[Base + E->VarSlot] = V;
      E = E->Kids[1].get();
      continue;
    }

    case Expr::Kind::Case: {
      uint32_t S = operand(E->Kids[0].get(), Base);
      if (Failed)
        return 0;
      bool IsData = E->Kids[0]->Ty->K == Type::Kind::Data;
      uint32_t Tag = IsData ? *words(S) : S;
      const CaseArm *Hit = nullptr;
      for (const auto &Arm : E->Arms)
        if (armMatches(*Arm, Tag)) {
          Hit = Arm.get();
          break;
        }
      if (!Hit)
        return fail(InterpTrap::MatchFail);
      if (Hit->PK == CaseArm::PatKind::Con) {
        const uint32_t *Fields = words(S) + 1;
        for (size_t FI = 0; FI < Hit->FieldSlots.size(); ++FI)
          if (Hit->FieldSlots[FI] != ~0u)
            Stack[Base + Hit->FieldSlots[FI]] = Fields[FI];
      } else if (Hit->PK == CaseArm::PatKind::Var) {
        Stack[Base + Hit->VarSlot] = S;
      }
      E = Hit->Body.get();
      continue;
    }

    case Expr::Kind::Con: {
      // Fields go on the slot stack above the frame until the cell exists.
      size_t N = E->Kids.size(), At = Top;
      if (!evalInto(E->Kids, Base, At))
        return 0;
      Top = At;
      uint32_t H = alloc(E->Con->Tag, N);
      std::copy_n(Stack.begin() + At, N, words(H) + 1);
      return H;
    }

    case Expr::Kind::Prim: {
      uint32_t Vals[3];
      assert(E->Kids.size() <= 3 && "builtins take at most 3 operands");
      for (size_t I = 0; I < E->Kids.size(); ++I) {
        uint32_t V = operand(E->Kids[I].get(), Base);
        if (Failed)
          return 0;
        Vals[I] = V;
      }
      switch (E->Prim) {
      case PrimKind::Length:
        return *words(Vals[0]);
      case PrimKind::VSub: {
        const uint32_t *W = words(Vals[0]);
        if (Vals[1] >= W[0]) // unsigned: negative indices trap too
          return fail(InterpTrap::Bounds);
        return W[1 + Vals[1]];
      }
      case PrimKind::MkVec: {
        if (static_cast<int32_t>(Vals[0]) < 0)
          return fail(InterpTrap::Bounds);
        uint32_t H = alloc(Vals[0], Vals[0]);
        std::fill_n(words(H) + 1, Vals[0], Vals[1]);
        return H;
      }
      case PrimKind::VSet: {
        uint32_t *W = words(Vals[0]);
        if (Vals[1] >= W[0])
          return fail(InterpTrap::Bounds);
        W[1 + Vals[1]] = Vals[2];
        return 0u;
      }
      case PrimKind::RealOf:
        return B32(static_cast<float>(static_cast<int32_t>(Vals[0])));
      case PrimKind::Trunc:
        return static_cast<uint32_t>(static_cast<int32_t>(F32(Vals[0])));
      case PrimKind::Andb:
        return Vals[0] & Vals[1];
      case PrimKind::Orb:
        return Vals[0] | Vals[1];
      case PrimKind::Xorb:
        return Vals[0] ^ Vals[1];
      case PrimKind::Lsh:
        return Vals[0] << (Vals[1] & 31);
      case PrimKind::Rsh:
        return Vals[0] >> (Vals[1] & 31);
      }
      return 0u;
    }

    case Expr::Kind::Call: {
      // Arguments land in the first slots of a new frame on top.
      const FunDef *F = E->Callee;
      size_t New = Top, N = E->Kids.size();
      if (!evalInto(E->Kids, Base, New))
        return 0;
      if (Tail) {
        // Nothing of the caller's frame is live any more: reuse it.
        std::copy_n(Stack.begin() + New, N, Stack.begin() + Base);
        Top = Base + F->NumSlots;
        if (Top > Stack.size())
          Stack.resize(Top);
        E = F->Body.get();
        continue;
      }
      if (reinterpret_cast<uintptr_t>(__builtin_frame_address(0)) <
          StackLimit)
        return fail(InterpTrap::StackOverflow);
      Top = New + F->NumSlots;
      if (Top > Stack.size())
        Stack.resize(Top);
      uint32_t R = eval(F->Body.get(), New, /*Tail=*/true);
      Top = New;
      return R;
    }
    }
    return 0u;
  }
}
