//===- Backend.h - FABIUS code generation -----------------------*- C++ -*-===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles a typed, staging-annotated ML program to FAB-32 code in one of
/// two modes:
///
/// * **Plain** — ordinary compilation. Curried parameter groups are
///   concatenated, every function becomes one FAB-32 routine. This is the
///   paper's "without RTCG" configuration.
///
/// * **Deferred** — the paper's contribution. Each staged function `f`
///   becomes:
///     - `f$gen`, a *generating extension*: a memoized run-time code
///       generator that takes the early arguments, executes the early
///       computations, and emits FAB-32 encodings for the late
///       computations directly into the dynamic code segment (no run-time
///       intermediate representation of any kind);
///     - `f`, a wrapper taking all arguments that calls `f$gen` and then
///       the returned specialized code (the paper's "two calls").
///   Unstaged functions compile exactly as in Plain mode.
///
/// Generator mechanics reproduced from the paper: one-pass emission with
/// backpatched holes for late conditionals; run-time instruction selection
/// (16-bit immediate vs. register forms); memoization keyed on pointer/word
/// equality of early arguments with in-progress entries supporting cyclic
/// specialization; run-time inlining of self tail calls (contiguous loop
/// unrolling); I-cache line alignment of each specialization and a flush
/// before the generator returns.
///
//===----------------------------------------------------------------------===//

#ifndef FAB_BACKEND_BACKEND_H
#define FAB_BACKEND_BACKEND_H

#include "ml/Ast.h"
#include "runtime/Layout.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace fab {

/// Compilation mode: see file comment.
enum class CompileMode { Plain, Deferred };

/// Backend options. The booleans are the design choices evaluated by the
/// ablation benchmarks; defaults reproduce the paper's system.
struct BackendOptions {
  CompileMode Mode = CompileMode::Deferred;

  /// Staged functions whose *self tail calls* go through the memo table
  /// (emitting a jump to the memoized specialization) instead of being
  /// unrolled inline by the generator. Needed when the early arguments
  /// cycle (e.g. a regular-expression matcher over a cyclic NFA); the
  /// paper controls this with a heuristic and programmer hints.
  std::set<std::string> MemoizedSelfCalls;

  /// Run-time instruction selection (paper section 3.3): pick short
  /// immediate forms when early values fit 16 bits. Off = always use the
  /// general 2-instruction form.
  bool RuntimeInstructionSelection = true;

  /// Run-time strength reduction (paper section 3.3): for the pattern
  /// `late + early * late` the generator tests the early factor at
  /// specialization time and, when it is zero, emits a single move
  /// instead of the subscript/multiply/add — "eliminating the
  /// multiplication, addition, and subscripting of v2 whenever
  /// (v1 sub i) is zero". Works for int and real accumulations.
  bool RuntimeStrengthReduction = true;

  /// Memoize specializations (paper section 3.5). Off = every generator
  /// call regenerates code (ablation only; cyclic programs will diverge).
  bool Memoization = true;

  /// Coalesce code-pointer increments over straight-line emission runs
  /// (paper section 3.2 footnote). Off = one addiu per emitted word.
  bool CoalesceCpUpdates = true;

  /// Align each specialization to an I-cache line (paper section 3.4).
  bool AlignSpecializations = true;

  /// I-cache line size used for alignment; must match the VM's model.
  uint32_t IcacheLineBytes = 16;

  /// Emit code-space guards into generator prologues and loop heads: a
  /// compare of $cp against DynCodeEnd - CodeSpaceGuardMargin that traps
  /// with TrapCode::CodeSpace before emission could run past the segment.
  /// The VM's hard bound still backstops emission if guards are disabled.
  bool EmitCodeSpaceGuards = true;

  /// Headroom the guard keeps below DynCodeEnd. One specialization
  /// iteration must not emit more than this between guard checks. Tests
  /// raise it to trigger code-space pressure quickly on small workloads.
  uint32_t CodeSpaceGuardMargin = layout::CodeSpaceGuardMargin;

  /// Template-burst emission (see docs/INTERNALS.md, "Emission strategy"):
  /// maximal runs of emission-constant words become read-only templates in
  /// the static data segment, and the generator copies them with lw/sw
  /// bursts instead of materializing each word with li/sw. Purely a
  /// generator-speed optimization: the dynamic code segment is
  /// byte-identical with templates on or off. Escape hatches mirror the
  /// decode cache: `fabc --no-templates`, FAB_TEMPLATES=0.
  bool EmitTemplates = true;

  /// Minimum constant-run length (words) worth turning into a template.
  /// Shorter runs always use li/sw; at-or-above, the generator picks
  /// whichever of li/sw and template copy costs fewer instructions.
  uint32_t MinTemplateRun = 4;

  /// Run length at-or-above which the template copy is emitted as a
  /// compact loop instead of an unrolled lw/sw sequence. The loop executes
  /// more generator instructions per word than the unrolled form; it
  /// exists to bound static code size on very long runs.
  uint32_t TemplateLoopRun = 64;

  /// Base address for the static code image. The default places it at the
  /// canonical static code base; a second unit (e.g. a Plain fall-back
  /// image compiled alongside a Deferred one) can be placed above the
  /// first by overriding this.
  uint32_t CodeBase = layout::StaticCodeBase;
};

/// Result of compiling a program: a static code image plus the symbol and
/// memo-table maps needed to run and instrument it.
struct CompiledUnit {
  std::vector<uint32_t> Code;
  uint32_t CodeBase = layout::StaticCodeBase;

  /// Read-only emission templates (pre-encoded constant runs the
  /// generators copy into the dynamic code segment), loaded at
  /// TemplateBase in the static data region. Empty when
  /// BackendOptions::EmitTemplates is off or no run qualified.
  std::vector<uint32_t> TemplateData;
  uint32_t TemplateBase = layout::TemplateDataBase;

  /// Entry point per function. In Deferred mode a staged function's entry
  /// is its wrapper (all arguments, two-call sequence).
  std::map<std::string, uint32_t> FnAddr;
  /// Deferred mode: generator entry per staged function (early args only;
  /// returns the specialized code address).
  std::map<std::string, uint32_t> GenAddr;
  /// Deferred mode: memo table address per staged function.
  std::map<std::string, uint32_t> MemoAddr;
  /// Number of early keys per staged function's memo entries.
  std::map<std::string, uint32_t> MemoKeys;

  uint32_t fnAddr(const std::string &Name) const;
  uint32_t genAddr(const std::string &Name) const;
};

/// Compiles \p P (typecheck + staging must have succeeded). Backend limits
/// (register pools, argument counts) are reported through \p Diags.
/// \returns true on success and fills \p Out.
bool compileProgram(const ml::Program &P, const BackendOptions &Opts,
                    CompiledUnit &Out, DiagnosticEngine &Diags);

} // namespace fab

#endif // FAB_BACKEND_BACKEND_H
