//===- Fabius.h - Public FABIUS API -----------------------------*- C++ -*-===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public facade. Typical use:
///
/// \code
///   fab::FabiusOptions Opts;                 // deferred compilation
///   auto C = fab::compile(MlSource, Opts);   // parse/typecheck/stage/codegen
///   fab::Machine M(C->Unit);
///   uint32_t V = M.heap().vector({1, 2, 3});
///   auto Dot = M.invoke<int32_t>("dotprod", {V, W}); // wrapper: gen + run
///   if (!Dot) { /* structured error in Dot.error() */ }
///   uint32_t Spec = M.specializeOrDie("loop", {V, 0, 3}); // explicit staging
///   int32_t R = M.invokeOrDie<int32_t>(Spec, {W, 0});
/// \endcode
///
/// All code runs on the deterministic FAB-32 simulator. Simulated cycles
/// are read from vm().stats(); everything else the machine counts comes
/// through telemetry().
///
//===----------------------------------------------------------------------===//

#ifndef FAB_CORE_FABIUS_H
#define FAB_CORE_FABIUS_H

#include "backend/Backend.h"
#include "core/FabError.h"
#include "ml/Ast.h"
#include "runtime/HeapImage.h"
#include "telemetry/Telemetry.h"
#include "vm/Vm.h"

#include <bit>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

namespace fab {

/// End-to-end compiler options.
struct FabiusOptions {
  BackendOptions Backend;
  /// Deferred mode only: additionally compile the program as a Plain
  /// (non-RTCG) image placed in the static code region above the deferred
  /// image, so a caller can route around the staged path through
  /// Machine::callPlainInt (the serving layer's circuit breaker).
  bool PlainFallback = false;
  /// When false, currying is collapsed and the program compiles to
  /// ordinary code (the paper's "without RTCG" configuration).
  bool runtimeCodegen() const {
    return Backend.Mode == CompileMode::Deferred;
  }
  static FabiusOptions plain() {
    FabiusOptions O;
    O.Backend.Mode = CompileMode::Plain;
    return O;
  }
  static FabiusOptions deferred() {
    FabiusOptions O;
    O.Backend.Mode = CompileMode::Deferred;
    return O;
  }
  static FabiusOptions deferredWithFallback() {
    FabiusOptions O = deferred();
    O.PlainFallback = true;
    return O;
  }
};

/// A successfully compiled program. Owns the AST and types (the compiled
/// unit does not reference them at run time, but diagnostics and tools do).
struct Compilation {
  std::shared_ptr<ml::TypeContext> Types;
  std::shared_ptr<ml::Program> Ast;
  CompiledUnit Unit;
  /// Present when FabiusOptions::PlainFallback was set: the same program
  /// compiled Plain, based above Unit's code.
  std::optional<CompiledUnit> PlainUnit;
};

/// Prints \p E and exits; shared by every *OrDie convenience.
[[noreturn]] void dieOnError(const FabError &E);

namespace detail {
/// Maps the raw $v0 bits of a completed run onto a host return type.
/// invoke<T> is defined for exactly these specializations.
template <typename T> T decodeReturn(uint32_t Raw) = delete;
template <> inline int32_t decodeReturn<int32_t>(uint32_t Raw) {
  return static_cast<int32_t>(Raw);
}
template <> inline uint32_t decodeReturn<uint32_t>(uint32_t Raw) {
  return Raw;
}
template <> inline float decodeReturn<float>(uint32_t Raw) {
  return std::bit_cast<float>(Raw);
}
} // namespace detail

/// Compiles ML source through the full pipeline. On failure returns
/// std::nullopt and fills \p Diags.
std::optional<Compilation> compile(const std::string &Source,
                                   const FabiusOptions &Opts,
                                   DiagnosticEngine &Diags);

/// Convenience: compiles or exits with the diagnostics printed (tests and
/// benchmarks).
Compilation compileOrDie(const std::string &Source,
                         const FabiusOptions &Opts);

/// A loaded program instance: simulator + heap + symbol table.
///
/// Failure handling: every operation reports failures as a
/// FabResult/ExecResult instead of crashing and re-seats $sp/$fp after a
/// failed run so the machine stays usable. A by-name run that stops on
/// code-space pressure — the guard trap (TrapCode::CodeSpace), a full
/// memo table (TrapCode::MemoFull) or the VM's emission hard bound
/// (Fault::CodeSpaceExhausted) — is retried once from an empty segment
/// (resetCodeSpace()); if the retry stops on pressure too, the segment
/// is reset again and the caller gets FabErrc::CodeSpaceExhausted. Every
/// other recovery decision (compaction, request retries, routing to the
/// Plain image) belongs to the caller. The *OrDie variants exit the
/// process on failure (benchmark convenience).
class Machine {
public:
  explicit Machine(const CompiledUnit &Unit, VmOptions VmOpts = VmOptions());
  /// Loads C.Unit and, when present, C.PlainUnit (served by
  /// callPlainInt). \p C must outlive the machine.
  explicit Machine(const Compilation &C, VmOptions VmOpts = VmOptions());

  Vm &vm() { return Sim; }
  HeapImage &heap() { return Heap; }

  /// The call surface: one implementation, two targets. By name (in
  /// Deferred mode, a staged function's entry is its wrapper) the name is
  /// checked and a run stopped by code-space pressure is reset and
  /// retried once; by address, i.e. previously specialized code, there is
  /// no retry, because a reset would invalidate the address. T is
  /// one of int32_t, uint32_t, float (see detail::decodeReturn). A failed
  /// run's stop (trap, fuel) is in the error's FabError::Exec.
  template <typename T>
  FabResult<T> invoke(const std::string &Name,
                      const std::vector<uint32_t> &Args) {
    FabResult<uint32_t> R = invokeNamedRaw(Name, Args);
    if (!R)
      return R.error();
    return detail::decodeReturn<T>(*R);
  }
  template <typename T>
  FabResult<T> invoke(uint32_t Addr, const std::vector<uint32_t> &Args) {
    FabResult<uint32_t> R = invokeAtRaw(Addr, Args);
    if (!R)
      return R.error();
    return detail::decodeReturn<T>(*R);
  }
  /// Crash-on-error invoke (print the error and exit).
  template <typename T>
  T invokeOrDie(const std::string &Name, const std::vector<uint32_t> &Args) {
    FabResult<T> R = invoke<T>(Name, Args);
    if (!R)
      dieOnError(R.error());
    return *R;
  }
  template <typename T>
  T invokeOrDie(uint32_t Addr, const std::vector<uint32_t> &Args) {
    FabResult<T> R = invoke<T>(Addr, Args);
    if (!R)
      dieOnError(R.error());
    return *R;
  }

  /// Runs the generating extension of staged function \p Name on the early
  /// arguments; returns the address of the specialized code, or a
  /// structured error if the generator fails (after the reset-and-retry
  /// on code-space pressure).
  FabResult<uint32_t> specialize(const std::string &Name,
                                 const std::vector<uint32_t> &EarlyArgs);
  uint32_t specializeOrDie(const std::string &Name,
                           const std::vector<uint32_t> &EarlyArgs) {
    FabResult<uint32_t> R = specialize(Name, EarlyArgs);
    if (!R)
      dieOnError(R.error());
    return *R;
  }
  /// Bytes of dynamic code the specialize() run that produced \p Addr
  /// emitted, for addresses specialize() returned in the current code
  /// epoch (0 for any other address). A later run the in-VM memo answers
  /// with the same address emits nothing but reports the same size here.
  uint64_t specializationBytes(uint32_t Addr) const {
    auto It = Specs.find(Addr);
    return It == Specs.end() ? 0 : It->second.Bytes;
  }

  /// Calls the Plain fall-back image with the *combined* early+late
  /// argument list (Plain collapses currying). The serving layer uses
  /// this to route a request around the staged path while an entry
  /// point's circuit breaker is open. Counts toward
  /// RecoveryStats::PlainFallbackCalls.
  FabResult<int32_t> callPlainInt(const std::string &Name,
                                  const std::vector<uint32_t> &Args);

  /// Whether a Plain fall-back image is loaded.
  bool hasPlainFallback() const { return Plain != nullptr; }

  // -- Telemetry -------------------------------------------------------------

  /// The stats snapshot: VM, memo, recovery and decode-cache counters, the
  /// machine gauges (code epoch, live specializations, code-space bytes)
  /// and per-entry-point profiles; see docs/TELEMETRY.md. Hot-path cycle
  /// deltas read vm().stats() instead, which copies nothing.
  TelemetrySnapshot telemetry() const;

  /// The lifecycle event ring (owned by the VM; the facade records
  /// specialize/memo/guard-trip/reset events into it).
  fab::telemetry::TraceRing &trace() { return Sim.trace(); }
  const fab::telemetry::TraceRing &trace() const { return Sim.trace(); }
  void setTraceEnabled(bool On) { Sim.trace().setEnabled(On); }

  /// Dynamic-code words emitted so far (== instructions generated).
  uint64_t instructionsGenerated() const {
    return Sim.stats().DynWordsWritten;
  }

  /// Number of specializations currently reachable through the in-VM memo
  /// tables (the sum of every table's entry count). Drops to zero after
  /// resetCodeSpace().
  uint32_t specializationsLive() const;

  /// Monotonic counter bumped by every resetCodeSpace(). Specialization
  /// addresses are only meaningful within the epoch that produced them;
  /// a host-side cache tags entries with the epoch and re-specializes on
  /// mismatch instead of calling through a dangling address.
  uint64_t codeEpoch() const { return CodeEpoch; }

  /// Reclaims the dynamic code segment: resets the code pointer, clears
  /// every memo table, and invalidates the freed I-cache range in one
  /// operation (the paper's section 3.4 code-space reuse discipline:
  /// "when code is garbage collected the freed space can be invalidated
  /// in a single operation"). Previously returned specialization
  /// addresses become invalid.
  void resetCodeSpace();

  /// Bytes of dynamic code currently in use.
  uint32_t codeSpaceUsed() const {
    return Sim.reg(Cp) - layout::DynCodeBase;
  }

private:
  void syncHeapPointer();
  /// Runs \p Entry with $sp/$fp snapshotting: a failed run has its stack
  /// registers re-seated so subsequent calls need no manual repair.
  ExecResult runGuarded(uint32_t Entry, const std::vector<uint32_t> &Args);
  /// runGuarded plus the reset-and-retry on code-space pressure.
  ExecResult runRecovered(uint32_t Entry, const std::vector<uint32_t> &Args);
  FabError makeError(const std::string &Fn, const ExecResult &R) const;
  /// Calls a function by name, with the reset-and-retry.
  ExecResult call(const std::string &Name, const std::vector<uint32_t> &Args);
  /// Calls previously specialized code as-is.
  ExecResult callAt(uint32_t Addr, const std::vector<uint32_t> &Args);
  /// The single implementations behind invoke<T>: raw $v0 bits or a
  /// structured error.
  FabResult<uint32_t> invokeNamedRaw(const std::string &Name,
                                     const std::vector<uint32_t> &Args);
  FabResult<uint32_t> invokeAtRaw(uint32_t Addr,
                                  const std::vector<uint32_t> &Args);

  const CompiledUnit &Unit;
  const CompiledUnit *Plain = nullptr; ///< callPlainInt's image, optional
  Vm Sim;
  HeapImage Heap;
  RecoveryStats Recovery;
  SpecializationStats Memo;
  /// Per-entry-point accounting for telemetry(). Specialization counters
  /// accumulate in specialize() alongside Memo (so summing Entries
  /// reproduces the Memo totals exactly); Calls count call() by name and
  /// callAt() through Specs.
  std::map<std::string, EntryPointProfile> Profiles;
  /// What specialize() returned an address for: the owning entry point
  /// and the code bytes its emitting run wrote.
  struct SpecRecord {
    std::string Fn;
    uint64_t Bytes = 0;
  };
  /// Specialized address -> its record, valid within the current code
  /// epoch only (cleared by resetCodeSpace()).
  std::unordered_map<uint32_t, SpecRecord> Specs;
  uint64_t CodeEpoch = 0;
};

} // namespace fab

#endif // FAB_CORE_FABIUS_H
