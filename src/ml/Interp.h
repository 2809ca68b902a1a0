//===- Interp.h - Reference AST interpreter ---------------------*- C++ -*-===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A direct AST interpreter for the ML subset, used as the oracle in
/// property tests: for random programs and inputs, the interpreter, the
/// plain backend, and the deferred backend must agree. Values mirror the
/// compiled representation exactly (untagged 32-bit words; vectors and
/// datatype cells as handles into an interpreter heap), so results are
/// comparable word-for-word, including integer wraparound and float
/// rounding.
///
/// The walker allocates nothing per node or per call. One flat word heap
/// holds every vector ([len, e...]) and datatype cell ([tag, f...]); a
/// handle is HandleBase + 4 x the word offset of its header, so handles
/// stay valid as the heap grows. One slot stack holds the call frames: a
/// frame is the callee's NumSlots words, and arguments are evaluated
/// straight into its first slots (the checker numbers parameters 0..n-1).
/// `if`, `let` and `case` continue with their tail subexpression in the
/// same C frame, and a call in tail position of a function body reuses
/// its caller's frame, so ML tail recursion runs in constant C stack.
/// Every node evaluated costs one unit of fuel.
///
//===----------------------------------------------------------------------===//

#ifndef FAB_ML_INTERP_H
#define FAB_ML_INTERP_H

#include "ml/Ast.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fab {
namespace ml {

/// Why interpretation stopped abnormally. Bounds, MatchFail and DivZero
/// mirror the compiled TrapCodes; OutOfFuel and StackOverflow are the
/// interpreter's own limits.
enum class InterpTrap {
  None,
  Bounds,
  MatchFail,
  DivZero,
  OutOfFuel,
  /// Non-tail calls nested past Interp::StackBudget bytes of C stack.
  /// Tail calls never count against it.
  StackOverflow,
};

/// The reference interpreter. Heap values are handles (word offsets
/// shifted to look address-like) into an internal word heap.
class Interp {
public:
  /// C stack that nested non-tail calls may use before the interpreter
  /// traps with StackOverflow: half the default 8 MiB thread stack, so
  /// the trap comes first in optimized and in sanitizer builds alike.
  static constexpr size_t StackBudget = size_t(4) << 20;

  explicit Interp(const Program &P, uint64_t Fuel = 50'000'000)
      : P(P), Fuel(Fuel) {}

  /// Allocates a vector; returns its handle (usable as an argument).
  uint32_t vector(const std::vector<uint32_t> &Elems);
  /// Allocates a datatype cell [tag, fields...].
  uint32_t cell(uint32_t Tag, const std::vector<uint32_t> &Fields);
  /// Reads a vector back.
  std::vector<uint32_t> readVector(uint32_t Handle) const;

  /// Calls a function with all arguments (curried groups concatenated).
  /// Returns nullopt on trap; check trap() for the reason.
  std::optional<uint32_t> call(const std::string &Fn,
                               const std::vector<uint32_t> &Args);

  InterpTrap trap() const { return Trap; }

private:
  static constexpr uint32_t HandleBase = 0x40000000;
  /// Appends [Header, N payload words] to the heap; returns its handle.
  uint32_t alloc(uint32_t Header, size_t N);
  uint32_t *words(uint32_t Handle);
  const uint32_t *words(uint32_t Handle) const;

  /// Evaluates \p E in the frame at \p Base. \p Tail: E is in tail
  /// position of the body whose frame is at Base, the topmost frame. On a
  /// trap, sets Failed and returns 0.
  uint32_t eval(const Expr *E, size_t Base, bool Tail);
  /// eval for a non-tail operand, reading variables and integer literals
  /// without a call (they still cost their unit of fuel).
  uint32_t operand(const Expr *E, size_t Base);
  /// Evaluates \p Kids into Stack[At...], reserving each slot filled
  /// before the next is evaluated. False on a trap.
  bool evalInto(const std::vector<ExprPtr> &Kids, size_t Base, size_t At);
  uint32_t fail(InterpTrap T) {
    Trap = T;
    Failed = true;
    return 0;
  }

  const Program &P;
  uint64_t Fuel;
  InterpTrap Trap = InterpTrap::None;
  bool Failed = false; ///< the current call() trapped
  std::vector<uint32_t> Heap;
  std::vector<uint32_t> Stack;
  size_t Top = 0;           ///< first free slot of Stack
  uintptr_t StackLimit = 0; ///< lowest C frame address a call may use
};

} // namespace ml
} // namespace fab

#endif // FAB_ML_INTERP_H
