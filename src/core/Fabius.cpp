//===- Fabius.cpp - Public FABIUS API --------------------------------------===//

#include "core/Fabius.h"

#include "ml/Parser.h"
#include "ml/TypeCheck.h"
#include "staging/Staging.h"

#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <sstream>

using namespace fab;

//===----------------------------------------------------------------------===//
// Errors
//===----------------------------------------------------------------------===//

std::string FabError::message() const {
  std::ostringstream OS;
  switch (Code) {
  case FabErrc::UnknownFunction:
    OS << "unknown function '" << Fn << "'";
    break;
  case FabErrc::Trapped:
  case FabErrc::OutOfFuel:
    OS << Fn << ": " << Exec.describe();
    break;
  case FabErrc::CodeSpaceExhausted:
    OS << Fn << ": dynamic code space exhausted (" << Exec.describe() << ")";
    break;
  case FabErrc::Degraded:
    OS << Fn << ": machine degraded (retired code, sent by older servers)";
    break;
  case FabErrc::Rejected:
    OS << Fn << ": request rejected (server shutting down or queue full)";
    break;
  case FabErrc::DeadlineExceeded:
    OS << Fn << ": deadline exceeded";
    break;
  case FabErrc::CircuitOpen:
    OS << Fn << ": circuit breaker open and no plain fallback image";
    break;
  }
  return OS.str();
}

namespace {

/// A stop curable by resetCodeSpace(): the emitted guard trap, a full memo
/// table (reset also clears the tables), or the VM's emission hard bound.
bool isCodeSpacePressure(const ExecResult &R) {
  if (R.Reason != StopReason::Trapped)
    return false;
  if (R.FaultKind == Fault::CodeSpaceExhausted)
    return true;
  return R.FaultKind == Fault::ProgramTrap &&
         (R.TrapValue == static_cast<uint32_t>(TrapCode::CodeSpace) ||
          R.TrapValue == static_cast<uint32_t>(TrapCode::MemoFull));
}

FabErrc classify(const ExecResult &R) {
  if (R.Reason == StopReason::OutOfFuel)
    return FabErrc::OutOfFuel;
  if (isCodeSpacePressure(R))
    return FabErrc::CodeSpaceExhausted;
  return FabErrc::Trapped;
}

} // namespace

//===----------------------------------------------------------------------===//
// Compilation
//===----------------------------------------------------------------------===//

std::optional<Compilation> fab::compile(const std::string &Source,
                                        const FabiusOptions &Opts,
                                        DiagnosticEngine &Diags) {
  Compilation C;
  C.Types = std::make_shared<ml::TypeContext>();
  C.Ast = std::shared_ptr<ml::Program>(ml::parse(Source, Diags));
  if (Diags.hasErrors())
    return std::nullopt;
  if (!ml::typecheck(*C.Ast, *C.Types, Diags))
    return std::nullopt;
  if (!analyzeStaging(*C.Ast, Diags))
    return std::nullopt;
  if (!compileProgram(*C.Ast, Opts.Backend, C.Unit, Diags))
    return std::nullopt;

  if (Opts.PlainFallback && Opts.Backend.Mode == CompileMode::Deferred) {
    // Compile the Plain image above the deferred one. Plain code
    // allocates no static data, so the two units only share the code
    // region and cannot clash elsewhere.
    BackendOptions PB = Opts.Backend;
    PB.Mode = CompileMode::Plain;
    uint32_t DeferredEnd =
        C.Unit.CodeBase + 4u * static_cast<uint32_t>(C.Unit.Code.size());
    PB.CodeBase = (DeferredEnd + 0xFFu) & ~0xFFu;
    CompiledUnit PU;
    if (!compileProgram(*C.Ast, PB, PU, Diags))
      return std::nullopt;
    if (PB.CodeBase + 4u * static_cast<uint32_t>(PU.Code.size()) >
        layout::StaticCodeEnd) {
      Diags.error(SourceLoc(),
                  "plain fall-back image does not fit in the static "
                  "code region");
      return std::nullopt;
    }
    C.PlainUnit = std::move(PU);
  }
  return C;
}

Compilation fab::compileOrDie(const std::string &Source,
                              const FabiusOptions &Opts) {
  DiagnosticEngine Diags;
  auto C = compile(Source, Opts, Diags);
  if (!C) {
    std::fprintf(stderr, "FABIUS compilation failed:\n%s", Diags.str().c_str());
    std::exit(1);
  }
  return std::move(*C);
}

//===----------------------------------------------------------------------===//
// Machine
//===----------------------------------------------------------------------===//

Machine::Machine(const CompiledUnit &U, VmOptions VmOpts)
    : Unit(U), Sim(VmOpts), Heap(Sim) {
  [[maybe_unused]] bool Loaded =
      Sim.writeBlock(U.CodeBase, U.Code.data(), U.Code.size());
  assert(Loaded && "compiled code does not fit the VM image");
  if (!U.TemplateData.empty()) {
    Loaded = Sim.writeBlock(U.TemplateBase, U.TemplateData.data(),
                            U.TemplateData.size());
    assert(Loaded && "template pool does not fit the VM image");
    // Loads from the written template pool are burst copies; the VM
    // coalesces them into TemplateFlush trace events.
    Sim.setTemplateRegion(U.TemplateBase,
                          U.TemplateBase +
                              4u * static_cast<uint32_t>(U.TemplateData.size()));
  }
  Sim.setCodeRegions(layout::StaticCodeBase, layout::StaticCodeEnd,
                     layout::DynCodeBase, layout::DynCodeEnd);
  Sim.setReg(Sp, layout::StackTop);
  Sim.setReg(Hp, layout::HeapBase);
  Sim.setReg(Cp, layout::DynCodeBase);
  Sim.setReg(Gp, layout::StaticDataBase);
}

Machine::Machine(const Compilation &C, VmOptions VmOpts)
    : Machine(C.Unit, VmOpts) {
  if (C.PlainUnit) {
    Plain = &*C.PlainUnit;
    [[maybe_unused]] bool Loaded =
        Sim.writeBlock(Plain->CodeBase, Plain->Code.data(), Plain->Code.size());
    assert(Loaded && "Plain image does not fit the VM image");
  }
}

void Machine::syncHeapPointer() {
  if (Sim.reg(Hp) < Heap.heapTop())
    Sim.setReg(Hp, Heap.heapTop());
}

void Machine::resetCodeSpace() {
  // Clear the memo tables (count, last-hit pointer, and every slot's
  // cached-address word so hashing sees empty slots again).
  for (const auto &[Name, Addr] : Unit.MemoAddr) {
    uint32_t Keys = Unit.MemoKeys.at(Name);
    Sim.store32(Addr, 0);     // count
    Sim.store32(Addr + 4, 0); // last-hit entry
    uint32_t EntryWords = Keys + 1;
    for (uint32_t I = 0; I < layout::MemoCapacity; ++I)
      Sim.store32(Addr + 8 + (I * EntryWords + Keys) * 4, 0);
  }
  const uint32_t Used = codeSpaceUsed();
  Sim.setReg(Cp, layout::DynCodeBase);
  // The code segment will be rewritten from DynCodeBase: every predecoded
  // block over it is garbage now, not merely stale.
  Sim.invalidateDecodeCache(layout::DynCodeBase, layout::DynCodeEnd);
  ++CodeEpoch;
  AddrOwner.clear();
  // Advance the ring epoch before recording so the reset event (and
  // everything after it) carries the epoch it opens; Arg0 records how
  // many bytes the closing epoch had emitted.
  Sim.trace().setEpoch(static_cast<uint32_t>(CodeEpoch));
  if (Sim.trace().enabled())
    Sim.trace().record(telemetry::EventKind::CodeSpaceReset,
                       Sim.stats().Executed, Used);
}

uint32_t Machine::specializationsLive() const {
  uint32_t Live = 0;
  for (const auto &[Name, Addr] : Unit.MemoAddr)
    Live += Sim.load32(Addr);
  return Live;
}

ExecResult Machine::runGuarded(uint32_t Entry,
                               const std::vector<uint32_t> &Args) {
  syncHeapPointer();
  const uint32_t Sp0 = Sim.reg(Sp);
  const uint32_t Fp0 = Sim.reg(Fp);
  ExecResult R;
  if (Args.size() <= 4) {
    R = Sim.call(Entry, Args);
  } else {
    // Spill extra arguments to the stack per the calling convention.
    uint32_t ExtraWords = static_cast<uint32_t>(Args.size()) - 4;
    uint32_t NewSp = Sp0 - 4 * ExtraWords;
    for (uint32_t I = 0; I < ExtraWords; ++I)
      Sim.store32(NewSp + 4 * I, Args[4 + I]);
    Sim.setReg(Sp, NewSp);
    std::vector<uint32_t> RegArgs(Args.begin(), Args.begin() + 4);
    R = Sim.call(Entry, RegArgs);
    Sim.setReg(Sp, Sp0);
  }
  if (!R.ok()) {
    // A trapped run leaves whatever frame was live; re-seat the stack so
    // the machine stays usable without manual repair.
    Sim.setReg(Sp, Sp0);
    Sim.setReg(Fp, Fp0);
  }
  return R;
}

ExecResult Machine::runRecovered(uint32_t Entry,
                                 const std::vector<uint32_t> &Args) {
  // Traces a pressure stop at the PC that tripped it (Arg1 carries the
  // trap value, or ~0 for the VM's hard bound), then empties the segment.
  auto resetAfter = [&](const ExecResult &Stop) {
    if (Sim.trace().enabled())
      Sim.trace().record(telemetry::EventKind::CodeGuardTrip,
                         Sim.stats().Executed, Stop.FaultPc,
                         Stop.FaultKind == Fault::ProgramTrap
                             ? Stop.TrapValue
                             : ~uint64_t(0));
    resetCodeSpace();
    ++Recovery.FaultResets;
  };

  ExecResult R = runGuarded(Entry, Args);
  if (R.ok() || !isCodeSpacePressure(R))
    return R;
  resetAfter(R);
  R = runGuarded(Entry, Args);
  if (R.ok())
    ++Recovery.RecoveredRetries;
  else if (isCodeSpacePressure(R))
    // Unrecovered: reset again so the memo tables hold no in-progress
    // entries pointing at the abandoned emission and the next operation
    // starts from an empty segment.
    resetAfter(R);
  return R;
}

FabError Machine::makeError(const std::string &Fn, const ExecResult &R) const {
  FabError E;
  E.Code = classify(R);
  E.Fn = Fn;
  E.Exec = R;
  return E;
}

ExecResult Machine::call(const std::string &Name,
                         const std::vector<uint32_t> &Args) {
  ++Profiles[Name].Calls;
  return runRecovered(Unit.fnAddr(Name), Args);
}

FabResult<int32_t> Machine::callPlainInt(const std::string &Name,
                                         const std::vector<uint32_t> &Args) {
  if (!Plain || !Plain->FnAddr.count(Name))
    return FabError{FabErrc::UnknownFunction, Name, {}};
  ++Profiles[Name].Calls;
  ++Recovery.PlainFallbackCalls;
  ExecResult R = runGuarded(Plain->fnAddr(Name), Args);
  if (!R.ok())
    return makeError(Name, R);
  return static_cast<int32_t>(R.V0);
}

FabResult<uint32_t> Machine::invokeNamedRaw(const std::string &Name,
                                            const std::vector<uint32_t> &Args) {
  if (!Unit.FnAddr.count(Name))
    return FabError{FabErrc::UnknownFunction, Name, {}};
  ExecResult R = call(Name, Args);
  if (!R.ok())
    return makeError(Name, R);
  return R.V0;
}

FabResult<uint32_t> Machine::invokeAtRaw(uint32_t Addr,
                                         const std::vector<uint32_t> &Args) {
  ExecResult R = callAt(Addr, Args);
  if (!R.ok()) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "@0x%08x", Addr);
    return makeError(Buf, R);
  }
  return R.V0;
}

FabResult<uint32_t> Machine::specialize(const std::string &Name,
                                        const std::vector<uint32_t> &EarlyArgs) {
  if (!Unit.GenAddr.count(Name))
    return FabError{FabErrc::UnknownFunction, Name, {}};
  auto &Ring = Sim.trace();
  const bool Tracing = Ring.enabled();
  uint16_t NameId = 0;
  if (Tracing) {
    NameId = telemetry::internName(Name);
    Ring.record(telemetry::EventKind::SpecializeBegin, Sim.stats().Executed, 0,
                0, NameId);
  }
  uint64_t WordsBefore = Sim.stats().DynWordsWritten;
  uint64_t ExecBefore = Sim.stats().Executed;
  ExecResult R = runRecovered(Unit.genAddr(Name), EarlyArgs);
  if (!R.ok()) {
    if (Tracing)
      Ring.record(telemetry::EventKind::SpecializeEnd, Sim.stats().Executed, 0,
                  Sim.stats().DynWordsWritten - WordsBefore, NameId);
    return makeError(Name, R);
  }
  ++Memo.GeneratorRuns;
  const uint64_t GenExec = Sim.stats().Executed - ExecBefore;
  const uint64_t GenWords = Sim.stats().DynWordsWritten - WordsBefore;
  Memo.GenExecuted += GenExec;
  Memo.GenDynWords += GenWords;
  EntryPointProfile &P = Profiles[Name];
  ++P.Specializations;
  P.GenInstrs += GenExec;
  P.DynWords += GenWords;
  if (GenWords == 0) {
    ++Memo.MemoHits;
    ++P.MemoHits;
    if (Tracing)
      Ring.record(telemetry::EventKind::MemoHit, Sim.stats().Executed, R.V0, 0,
                  NameId);
  } else {
    ++Memo.MemoMisses;
    if (Tracing)
      Ring.record(telemetry::EventKind::MemoMiss, Sim.stats().Executed, R.V0,
                  GenWords, NameId);
  }
  if (Tracing)
    Ring.record(telemetry::EventKind::SpecializeEnd, Sim.stats().Executed,
                R.V0, GenWords, NameId);
  AddrOwner[R.V0] = Name;
  return R.V0;
}

ExecResult Machine::callAt(uint32_t Addr, const std::vector<uint32_t> &Args) {
  // Attribute the call to the entry point that produced Addr (this
  // epoch's specializations only; the map clears on reset).
  if (auto It = AddrOwner.find(Addr); It != AddrOwner.end())
    ++Profiles[It->second].Calls;
  return runGuarded(Addr, Args);
}

TelemetrySnapshot Machine::telemetry() const {
  TelemetrySnapshot T;
  T.Vm = Sim.stats();
  T.Memo = Memo;
  T.Recovery = Recovery;
  T.DecodeCache = Sim.decodeCacheStats();
  T.CodeEpoch = CodeEpoch;
  T.SpecializationsLive = specializationsLive();
  T.CodeSpaceUsed = codeSpaceUsed();
  T.TraceRecorded = Sim.trace().recorded();
  T.TraceDropped = Sim.trace().dropped();
  T.Entries.reserve(Profiles.size());
  for (const auto &[Fn, P] : Profiles) {
    T.Entries.push_back(P);
    T.Entries.back().Fn = Fn;
  }
  return T;
}

void fab::dieOnError(const FabError &E) {
  std::fprintf(stderr, "FABIUS: %s\n", E.message().c_str());
  std::exit(1);
}
