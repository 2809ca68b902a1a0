//===- FabError.h - Structured machine-layer errors -------------*- C++ -*-===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured, recoverable error reporting for the Machine facade. Every
/// failure of specialize()/call*() surfaces as a FabError carried in a
/// FabResult<T> instead of aborting the process, so a host serving many
/// requests can log, retry, degrade, or shed load per call. The *OrDie
/// wrappers on Machine reconstruct the old crash-on-error convenience for
/// tests and benchmarks.
///
//===----------------------------------------------------------------------===//

#ifndef FAB_CORE_FABERROR_H
#define FAB_CORE_FABERROR_H

#include "vm/Vm.h"

#include <string>
#include <utility>
#include <variant>

namespace fab {

/// Machine-layer error categories (coarser than vm::Fault: the policy
/// layer keys recovery decisions on these).
///
/// The numeric values are part of the wire protocol (docs/WIRE.md):
/// Error frames carry them verbatim, so remote clients built against an
/// older server must keep decoding them correctly. They are therefore
/// assigned explicitly, locked by the static_asserts below, and must
/// never be renumbered — add new enumerators at the end with the next
/// free value. Values 100 and up are reserved for the wire layer's own
/// protocol errors (net::WireErrc).
enum class FabErrc {
  UnknownFunction = 0,    ///< name not in the compiled unit's symbol table
  Trapped = 1,            ///< the VM stopped on a fault or program trap
  OutOfFuel = 2,          ///< instruction budget exhausted
  CodeSpaceExhausted = 3, ///< dynamic code segment full and not recoverable
  Degraded = 4,           ///< retired, never produced; older servers sent
                          ///< it for a machine degraded to Plain
  Rejected = 5,           ///< serving layer refused the request (shut down
                          ///< or queue over its configured depth)
  DeadlineExceeded = 6,   ///< request deadline passed (in queue or mid-run)
  CircuitOpen = 7,        ///< entry point's circuit breaker is open and no
                          ///< plain fallback image exists to serve it
};

// ABI lock: these values travel in wire Error frames. Renumbering is a
// protocol break; this assert is the tripwire.
static_assert(static_cast<int>(FabErrc::UnknownFunction) == 0 &&
                  static_cast<int>(FabErrc::Trapped) == 1 &&
                  static_cast<int>(FabErrc::OutOfFuel) == 2 &&
                  static_cast<int>(FabErrc::CodeSpaceExhausted) == 3 &&
                  static_cast<int>(FabErrc::Degraded) == 4 &&
                  static_cast<int>(FabErrc::Rejected) == 5 &&
                  static_cast<int>(FabErrc::DeadlineExceeded) == 6 &&
                  static_cast<int>(FabErrc::CircuitOpen) == 7,
              "FabErrc values are wire ABI (docs/WIRE.md); never renumber");

/// One failed Machine operation. Exec carries the underlying VM stop when
/// there is one (Reason == Halted means "no VM run is associated").
struct FabError {
  FabErrc Code = FabErrc::Trapped;
  std::string Fn; ///< function name or "@0x..." call address
  ExecResult Exec;

  std::string message() const;
};

/// Minimal expected<T, FabError> (the toolchain targets C++20, which has
/// no std::expected).
template <class T> class FabResult {
public:
  FabResult(T Value) : V(std::move(Value)) {}
  FabResult(FabError E) : V(std::move(E)) {}

  bool ok() const { return V.index() == 0; }
  explicit operator bool() const { return ok(); }

  T &operator*() { return std::get<0>(V); }
  const T &operator*() const { return std::get<0>(V); }
  T &value() { return std::get<0>(V); }
  const T &value() const { return std::get<0>(V); }

  FabError &error() { return std::get<1>(V); }
  const FabError &error() const { return std::get<1>(V); }

private:
  std::variant<T, FabError> V;
};

} // namespace fab

#endif // FAB_CORE_FABERROR_H
