//===- Vm.h - FAB-32 simulator ----------------------------------*- C++ -*-===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic simulator for the FAB-32 ISA. It stands in for the
/// paper's DECstation 5000/200: all benchmark results are reported in
/// simulated cycles, so the paper's relative comparisons (FABIUS vs. C
/// baselines, with vs. without run-time code generation, instructions
/// executed per instruction generated) are directly measurable.
///
/// The simulator additionally models the instruction-cache coherence
/// discipline of section 3.4: writes into the dynamic code segment mark
/// I-cache lines dirty, the `flush` service instruction invalidates them
/// (charging a kernel-trap cost plus a per-byte cost), and fetching from a
/// dirty line is a detectable coherence violation. This lets the test
/// suite verify that generated generators follow the paper's flush and
/// line-alignment discipline rather than merely assuming it.
///
//===----------------------------------------------------------------------===//

#ifndef FAB_VM_VM_H
#define FAB_VM_VM_H

#include "isa/Isa.h"
#include "telemetry/Stats.h"
#include "telemetry/TraceRing.h"

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace fab {

/// Why an execution run stopped.
enum class StopReason {
  Halted,        ///< Ext/Halt executed
  ReturnedToHost,///< jumped to the host return sentinel
  Trapped,       ///< Ext/Trap or a machine fault
  OutOfFuel,     ///< instruction budget exhausted
};

/// Machine faults (distinct from program-level TrapCodes).
enum class Fault {
  None,
  BadFetch,         ///< PC outside memory or unaligned
  BadAccess,        ///< load/store outside memory or unaligned
  BadInstruction,   ///< undecodable word
  DivideByZero,     ///< divq/rem with zero divisor
  IcacheIncoherent, ///< fetched a dirty (unflushed) dynamic code line
  ProgramTrap,      ///< Ext/Trap executed; see TrapValue
  CodeSpaceExhausted, ///< dynamic-code emission past [DynLo, DynHi)
};

/// Deterministic fault injection for testing failure paths (the machine
/// layer's recovery logic, harness error reporting, benchmark guard rails).
/// While Armed, run() stops with the configured outcome immediately before
/// executing the trigger instruction: the AfterInstructions-th instruction
/// of the run, or the first instruction fetched at AtPc when AtPc != 0.
/// The injected stop is indistinguishable from the organic fault by
/// construction, so every consumer-visible failure path is exercisable
/// without crafting a program that actually faults.
struct FaultInjector {
  bool Armed = false;
  /// Fire before executing the Nth instruction of the run (0 = first).
  /// Counted per run() call, not cumulatively.
  uint64_t AfterInstructions = 0;
  /// If nonzero, fire when the PC first reaches this address instead of
  /// after an instruction count.
  uint32_t AtPc = 0;
  /// StopReason::Trapped injects fault Kind/TrapValue;
  /// StopReason::OutOfFuel injects fuel exhaustion.
  StopReason Reason = StopReason::Trapped;
  Fault Kind = Fault::BadAccess;
  uint32_t TrapValue = 0;
  /// Disarm automatically after firing once (so a retry runs clean).
  bool OneShot = true;
};

/// Configuration for a simulator instance.
struct VmOptions {
  uint32_t MemBytes = 64u << 20; ///< flat memory size
  uint64_t Fuel = 4'000'000'000ULL; ///< instruction budget per run() call
  /// Modeled I-cache line size (bytes). DECstation 5000/200 had 16-byte
  /// lines on a 64 KiB I-cache; we default to 16.
  uint32_t IcacheLineBytes = 16;
  /// Cost of one flush call: a kernel trap (~cycles) plus per-byte cost.
  /// Paper: "a kernel trap plus approximately 0.8 nanoseconds per byte" on
  /// a 25 MHz machine, i.e. one cycle per 50 bytes.
  uint32_t FlushTrapCycles = 100;
  uint32_t FlushBytesPerCycle = 50;
  /// If true, fetching from a dirty dynamic-code line faults; if false the
  /// violation is only counted (CoherenceViolations).
  bool TrapOnIncoherentFetch = true;
  /// Optional deterministic fault injection; see FaultInjector. Can also be
  /// (re)armed on a live machine via Vm::injectFault().
  FaultInjector Injector;
  /// Two-level interpretation: on first execution of a PC, decode forward
  /// to the basic-block end into a cached array of predecoded records,
  /// then dispatch those records on later visits (see docs/VM.md).
  /// Results, VmStats, fault PCs, and trap values are bit-identical with
  /// this off; only host-side speed changes. The FAB_DECODE_CACHE=0
  /// environment variable forces it off process-wide (CI runs the test
  /// suite both ways).
  bool EnableDecodeCache = true;
  /// Predecode window: maximum source instructions per cached block.
  uint32_t MaxBlockInsts = 64;
  /// Safety cap on distinct cached blocks; the cache is cleared and
  /// rebuilt on demand when it fills (pathological code only).
  uint32_t MaxCachedBlocks = 1u << 16;
  /// Lifecycle tracing into the per-machine TraceRing (see
  /// docs/TELEMETRY.md). Compiled in but default-off; when disabled the
  /// only cost is one predictable branch per instrumented site
  /// (bench_host_micro's BM_VmDispatchTraced measures the enabled cost).
  /// The FAB_TRACE=0 environment variable forces it off process-wide,
  /// mirroring FAB_DECODE_CACHE. Can also be flipped on a live machine
  /// via Vm::trace().setEnabled().
  bool EnableTrace = false;
  /// TraceRing capacity in events; when full the oldest event is dropped
  /// (and counted in TraceRing::dropped()).
  uint32_t TraceCapacity = 4096;
};

/// Result of one run()/call() invocation.
struct ExecResult {
  StopReason Reason = StopReason::Halted;
  Fault FaultKind = Fault::None;
  uint32_t TrapValue = 0; ///< TrapCode for ProgramTrap
  uint32_t FaultPc = 0;
  uint32_t V0 = 0; ///< $v0 at stop time

  bool ok() const {
    return Reason == StopReason::Halted || Reason == StopReason::ReturnedToHost;
  }
  std::string describe() const;
};

/// The FAB-32 simulator.
class Vm {
public:
  /// Address the host installs in $ra for call(); a jump here returns
  /// control to the host.
  static constexpr uint32_t HostReturnAddr = 0xFFFFFFF0u;

  explicit Vm(VmOptions Opts = VmOptions());

  /// Declares the code regions used for statistics and coherence checking.
  /// [StaticLo, StaticHi) holds compiler output; [DynLo, DynHi) is the
  /// run-time code segment.
  void setCodeRegions(uint32_t StaticLo, uint32_t StaticHi, uint32_t DynLo,
                      uint32_t DynHi);

  // -- Memory access from the host -----------------------------------------

  uint32_t load32(uint32_t Addr) const;
  /// Host stores participate in code coherence exactly like guest `sw`:
  /// writes landing in the dynamic code segment mark the touched I-cache
  /// lines dirty (execute-after-write requires a flush), and writes into
  /// either code region drop any cached predecoded blocks they overlap.
  /// Both writers bounds-check in every build type: an extent reaching
  /// past memBytes() (computed in 64 bits, so it cannot wrap) writes
  /// nothing and returns false.
  bool store32(uint32_t Addr, uint32_t Value);
  bool writeBlock(uint32_t Addr, const uint32_t *Words, size_t Count);
  /// Host-side I-cache invalidation for [Addr, Addr + Len): clears dirty
  /// lines like the guest `flush` service instruction (which calls it)
  /// but charges no simulated cycles (a loader/DMA-style operation, not
  /// guest work).
  void flushIcache(uint32_t Addr, uint32_t Len);
  uint32_t memBytes() const { return Opts.MemBytes; }
  /// Raw memory for snapshot/diff assertions (e.g. proving a faulting
  /// emission left adjacent regions untouched).
  std::span<const uint8_t> memory() const {
    return {Mem.get(), Opts.MemBytes};
  }

  // -- Register access ------------------------------------------------------

  uint32_t reg(unsigned RegNo) const { return Regs[RegNo]; }
  void setReg(unsigned RegNo, uint32_t Value) {
    if (RegNo != 0)
      Regs[RegNo] = Value;
  }

  // -- Execution ------------------------------------------------------------

  /// Runs from \p EntryPc until halt/host-return/trap/fuel exhaustion.
  ExecResult run(uint32_t EntryPc);

  /// Calls a function using the FABIUS calling convention: up to four
  /// arguments in $a0..$a3, result in $v0, $ra set to the host sentinel.
  /// $sp must already be valid (see Runtime layout).
  ExecResult call(uint32_t EntryPc, const std::vector<uint32_t> &Args);

  const VmStats &stats() const { return Stats; }
  uint64_t coherenceViolations() const { return CoherenceViolations; }

  const DecodeCacheStats &decodeCacheStats() const { return CacheStats; }
  bool decodeCacheEnabled() const { return Opts.EnableDecodeCache; }

  /// The lifecycle event ring (see telemetry/TraceRing.h). The VM records
  /// decode-cache and template-copy events; the Machine facade layers
  /// specialize/memo/reset events on top through the same ring.
  telemetry::TraceRing &trace() { return Ring; }
  const telemetry::TraceRing &trace() const { return Ring; }
  /// Declares [Lo, Hi) as the read-only template pool: guest loads from
  /// it are template-burst copies and recorded (coalesced) when tracing.
  void setTemplateRegion(uint32_t Lo, uint32_t Hi) {
    TmplLo = Lo;
    TmplHi = Hi;
  }
  /// Drops every cached predecoded block overlapping [Lo, Hi). Stores
  /// (guest and host) invalidate automatically; this is the hook for
  /// host-side bulk reclamation such as Machine::resetCodeSpace().
  void invalidateDecodeCache(uint32_t Lo, uint32_t Hi);

  /// Replaces the per-run instruction budget (e.g. to recover a machine
  /// whose generator ran out of fuel mid-emission).
  void setFuel(uint64_t Fuel) { Opts.Fuel = Fuel; }
  uint64_t fuel() const { return Opts.Fuel; }

  /// Arms (or, with Armed=false, disarms) the fault injector for subsequent
  /// run()/call() invocations.
  void injectFault(const FaultInjector &FI) { Opts.Injector = FI; }
  const FaultInjector &injector() const { return Opts.Injector; }

  /// Debug output accumulated from PutInt/PutCh.
  const std::string &output() const { return Output; }
  void clearOutput() { Output.clear(); }

  /// Disassembles \p Count instructions starting at \p Addr (debugging and
  /// golden-code tests).
  std::string disassembleRange(uint32_t Addr, unsigned Count) const;

private:
  // MemBytes is word-aligned and nonzero, so the subtraction cannot
  // wrap; the naive `Addr + 3 < size` form wrapped for Addr >= 0xFFFFFFFC.
  bool inBounds(uint32_t Addr) const { return Addr <= Opts.MemBytes - 4; }
  bool inDynRegion(uint32_t Addr) const {
    return Addr >= DynLo && Addr < DynHi;
  }
  bool inStaticRegion(uint32_t Addr) const {
    return Addr >= StaticLo && Addr < StaticHi;
  }
  uint32_t fetch(uint32_t Addr) const;
  ExecResult stopFault(Fault Kind, uint32_t Pc, uint32_t TrapValue = 0);

  // -- Predecoded basic-block engine (see docs/VM.md) ----------------------

  /// One predecoded record. Tag is an internal dispatch code (one per
  /// instruction form plus fused variants); Len is the number of source
  /// instructions the record covers (2 for fused pairs) and is the unit
  /// of fuel/statistics accounting.
  struct MicroOp {
    uint8_t Tag = 0;
    uint8_t Len = 1;
    uint8_t Rs = 0, Rt = 0, Rd = 0, Shamt = 0;
    int32_t Imm = 0;  ///< pre-extended immediate (sign/zero per op)
    uint32_t Aux = 0; ///< absolute branch/jump target, imm32, lui value
  };

  /// A decoded basic block: straight-line code from Base to the first
  /// control transfer / Ext instruction / undecodable word, never
  /// crossing a code-region boundary.
  struct Block {
    uint32_t Base = 0;
    uint32_t InstCount = 0; ///< source instructions covered
    uint32_t FirstLine = 0, LastLine = 0; ///< I-cache line index range
    uint8_t Region = 0;     ///< 0 = neither, 1 = static, 2 = dynamic
    std::vector<MicroOp> Ops;
    /// Chained successors for static-target terminators (taken / not
    /// taken), valid only while the matching epoch equals Vm::CacheEpoch
    /// (any block retirement stales every cached successor pointer).
    Block *SuccTaken = nullptr, *SuccFall = nullptr;
    uint64_t EpochTaken = 0, EpochFall = 0;
  };

  using BlockMap = std::unordered_map<uint32_t, std::unique_ptr<Block>>;

  /// Per-run() mutable state threaded through both execution tiers.
  struct RunState {
    uint32_t Pc;
    uint64_t Budget;
    uint64_t ExecutedThisRun;
  };

  enum class BlockExit : uint8_t {
    Next,   ///< block finished; continue dispatch at RunState::Pc
    Stopped ///< run ended; ExecResult is filled in
  };

  Block *lookupOrBuildBlock(uint32_t Pc);
  void buildBlock(uint32_t Pc, Block &B);
  BlockExit execBlock(Block &B, RunState &S, ExecResult &R);
  /// Executes exactly one instruction with the original fetch/decode
  /// interpreter; the reference semantics both tiers must agree on.
  /// Returns true when the run ended (R is filled in).
  bool stepSlow(RunState &S, ExecResult &R);

  bool anyBlockLineDirty(const Block &B) const;
  bool lineDirty(uint32_t L) const {
    const uint32_t I = L - DirtyBase;
    return (I >> 6) < DirtyBits.size() && ((DirtyBits[I >> 6] >> (I & 63)) & 1);
  }
  /// Marks line \p L dirty; \p L must be a line of the dynamic segment.
  void markDirty(uint32_t L) {
    const uint32_t I = L - DirtyBase;
    uint64_t &W = DirtyBits[I >> 6];
    const uint64_t Bit = uint64_t{1} << (I & 63);
    DirtyCount += (W & Bit) == 0;
    W |= Bit;
  }
  /// Sets (Dirty) or clears the dirty bits of lines [Lo, Hi], clipped to
  /// the dynamic segment, keeping DirtyCount exact.
  void setDirtyLines(uint64_t Lo, uint64_t Hi, bool Dirty);
  /// True while some cached block overlaps I-cache line \p L.
  bool lineOwned(uint32_t L) const {
    for (const LineCounts &T : Owners)
      if (L - T.Base < T.N.size() && T.N[L - T.Base])
        return true;
    return false;
  }
  /// Adds (Delta = +1) or removes (-1) \p B's lines in the owner counts.
  void indexBlock(const Block &B, int Delta);
  /// Drops cached blocks overlapping the I-cache line containing Addr.
  void invalidateLineBlocks(uint32_t Addr);
  void invalidateRange(uint32_t Lo, uint32_t Hi);
  void retireBlock(BlockMap::iterator It);
  void clearDecodeCache();
  /// Coherence bookkeeping for host-initiated writes (store32/writeBlock).
  void noteHostWrite(uint32_t Lo, uint32_t Bytes);
  uint8_t regionClass(uint32_t Addr) const {
    return inStaticRegion(Addr) ? 1 : inDynRegion(Addr) ? 2 : 0;
  }
  static uint32_t quickSlot(uint32_t Pc) {
    return (Pc >> 2) & (QuickSlots - 1);
  }

  struct FreeDeleter {
    void operator()(uint8_t *P) const { std::free(P); }
  };

  VmOptions Opts;
  /// The flat memory image, calloc'd: the kernel maps zero pages on first
  /// touch, so building a Vm costs nothing per byte and its resident set
  /// is the pages it has touched (see docs/VM.md, "Memory").
  std::unique_ptr<uint8_t[], FreeDeleter> Mem;
  uint32_t Regs[32] = {0};
  VmStats Stats;
  uint64_t CoherenceViolations = 0;
  std::string Output;

  uint32_t StaticLo = 0, StaticHi = 0, DynLo = 0, DynHi = 0;
  /// Dirty I-cache lines of the dynamic segment: bit I stands for line
  /// DirtyBase + I (line index = addr / line size), one bit per line of
  /// [DynLo, DynHi). DirtyCount is the number of bits set.
  std::vector<uint64_t> DirtyBits;
  uint32_t DirtyBase = 0, DirtyCount = 0;

  /// Block cache: entry PC -> predecoded block.
  BlockMap Blocks;
  /// Invalidation index: how many cached blocks overlap each I-cache
  /// line. One table per region class (Block::Region), each covering
  /// only the lines its blocks were built on; N[I] counts line Base + I.
  struct LineCounts {
    uint32_t Base = 0;
    std::vector<uint32_t> N;
  };
  LineCounts Owners[3];
  /// Lines with a nonzero count in any table.
  uint32_t OwnedLines = 0;
  /// Cached blocks outside both code regions (Region 0). While zero, a
  /// host write that misses both code regions cannot hit a cached block.
  uint32_t Region0Blocks = 0;
  /// Direct-mapped front cache over Blocks (hot dispatch path).
  static constexpr uint32_t QuickSlots = 1u << 13;
  std::vector<Block *> Quick;
  /// Blocks invalidated while possibly still executing; kept alive until
  /// the next dispatch point so self-modifying code cannot free the block
  /// it is running from. They then move to Spare, whose storage (micro-op
  /// arrays included) the next block builds reuse.
  std::vector<std::unique_ptr<Block>> Retired, Spare;
  /// Bumped on every block retirement; validates chained Succ pointers.
  uint64_t CacheEpoch = 1;
  DecodeCacheStats CacheStats;

  telemetry::TraceRing Ring;
  /// Ring.enabled() cached at run() entry: the per-instruction
  /// instrumentation (template-copy loads) branches on a plain bool
  /// instead of an atomic load.
  bool TraceLive = false;
  uint32_t TmplLo = 0, TmplHi = 0; ///< template pool, [TmplLo, TmplHi)
};

/// RAII fuel cap: while in scope, every run() on \p V gets at most \p Cap
/// instructions (0 = leave the budget unchanged); the previous budget is
/// restored on exit. The serving layer converts a request's remaining
/// wall-clock deadline into such a cap at the modeled clock rate, so a
/// runaway specialized function stops with StopReason::OutOfFuel instead
/// of wedging its worker (deadline-as-fuel; see docs/SERVICE.md).
class ScopedFuelCap {
public:
  ScopedFuelCap(Vm &V, uint64_t Cap) : V(V), Saved(V.fuel()) {
    if (Cap && Cap < Saved)
      V.setFuel(Cap);
  }
  ~ScopedFuelCap() { V.setFuel(Saved); }
  ScopedFuelCap(const ScopedFuelCap &) = delete;
  ScopedFuelCap &operator=(const ScopedFuelCap &) = delete;

private:
  Vm &V;
  uint64_t Saved;
};

} // namespace fab

#endif // FAB_VM_VM_H
