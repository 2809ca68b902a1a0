//===- Vm.cpp - FAB-32 simulator execution engine -------------------------===//
//
// Two-level interpretation (see docs/VM.md): run() dispatches predecoded
// basic blocks from a cache keyed by entry PC and falls back to the
// original per-instruction fetch/decode interpreter (stepSlow) whenever
// exact modeling demands it — fault injector armed, fuel nearly exhausted,
// or a dirty (unflushed) I-cache line under the block. The two tiers are
// bit-identical in every observable: registers, memory, VmStats, fault
// PCs, trap values, coherence-violation counts.
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "support/StringUtil.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>

using namespace fab;

/// The dispatch loop's functions start on a 64-byte boundary, so their
/// branch and jump-table layout relative to cache lines and the
/// decoded-icache windows does not move when code linked before them
/// grows or shrinks (host-time metrics moved with it by up to 11%).
#define FAB_VM_HOT [[gnu::aligned(64)]]

std::string ExecResult::describe() const {
  std::ostringstream OS;
  switch (Reason) {
  case StopReason::Halted:
    OS << "halted, v0=" << static_cast<int32_t>(V0);
    break;
  case StopReason::ReturnedToHost:
    OS << "returned, v0=" << static_cast<int32_t>(V0);
    break;
  case StopReason::OutOfFuel:
    OS << "out of fuel at pc=" << hex32(FaultPc);
    break;
  case StopReason::Trapped:
    OS << "trap at pc=" << hex32(FaultPc) << ": ";
    switch (FaultKind) {
    case Fault::None:
      OS << "none";
      break;
    case Fault::BadFetch:
      OS << "bad fetch";
      break;
    case Fault::BadAccess:
      OS << "bad access";
      break;
    case Fault::BadInstruction:
      OS << "bad instruction";
      break;
    case Fault::DivideByZero:
      OS << "divide by zero";
      break;
    case Fault::IcacheIncoherent:
      OS << "icache incoherent fetch";
      break;
    case Fault::ProgramTrap:
      OS << "program trap code " << TrapValue;
      break;
    case Fault::CodeSpaceExhausted:
      OS << "dynamic code space exhausted";
      break;
    }
    break;
  }
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Micro-op dispatch tags
//===----------------------------------------------------------------------===//

namespace {

/// Dispatch codes for predecoded records. One tag per instruction form
/// (operand fields and immediates are pre-extracted) plus fused variants
/// for the two pairs the backend emits constantly: lui+ori constant
/// synthesis and compare+branch-on-result.
enum OpTag : uint8_t {
  TSll,
  TSrl,
  TSra,
  TSllv,
  TSrlv,
  TSrav,
  TJr,
  TJalr,
  TAddu,
  TSubu,
  TAnd,
  TOr,
  TXor,
  TNor,
  TSlt,
  TSltu,
  TMul,
  TDivq,
  TRem,
  TFAdd,
  TFSub,
  TFMul,
  TFDiv,
  TFLt,
  TFLe,
  TFEq,
  TCvtSW,
  TCvtWS,
  THalt,
  TFlush,
  TPutInt,
  TPutCh,
  TTrap,
  TJ,
  TJal,
  TBeq,
  TBne,
  TAddiu,
  TSlti,
  TSltiu,
  TAndi,
  TOri,
  TXori,
  TLui,
  TLw,
  TSw,
  /// An instruction whose only effect would be a write to $zero: counts
  /// toward every statistic but does nothing.
  TNop,
  /// An undecodable word: consumes fuel (the slow path charges fuel
  /// before decoding) then faults without counting as executed.
  TBadInst,
  /// lui rt, hi; ori rt, rt, lo  ->  rt = Aux (Len = 2).
  TLoadImm32,
  /// slt/sltu/slti/sltiu + beq/bne on the result against $zero (Len = 2).
  /// Shamt bits 0-1 select the compare (0 slt, 1 sltu, 2 slti, 3 sltiu);
  /// bit 2 is the branch sense (set = bne). The compare destination (Rd)
  /// is still written, exactly as the unfused pair would.
  TCmpBranch,
};

constexpr uint8_t CmpSlt = 0, CmpSltu = 1, CmpSlti = 2, CmpSltiu = 3;
constexpr uint8_t CmpBranchOnTrue = 4;

bool isBlockTerminator(uint8_t Tag) {
  switch (Tag) {
  case TJr:
  case TJalr:
  case TJ:
  case TJal:
  case TBeq:
  case TBne:
  case THalt:
  case TFlush:
  case TPutInt:
  case TPutCh:
  case TTrap:
  case TBadInst:
  case TCmpBranch:
    return true;
  default:
    return false;
  }
}

float floatOf(uint32_t Bits) { return std::bit_cast<float>(Bits); }
uint32_t bitsOf(float F) { return std::bit_cast<uint32_t>(F); }

uint8_t functTag(Funct Fn) {
  switch (Fn) {
  case Funct::Sll:
    return TSll;
  case Funct::Srl:
    return TSrl;
  case Funct::Sra:
    return TSra;
  case Funct::Sllv:
    return TSllv;
  case Funct::Srlv:
    return TSrlv;
  case Funct::Srav:
    return TSrav;
  case Funct::Jr:
    return TJr;
  case Funct::Jalr:
    return TJalr;
  case Funct::Addu:
    return TAddu;
  case Funct::Subu:
    return TSubu;
  case Funct::And:
    return TAnd;
  case Funct::Or:
    return TOr;
  case Funct::Xor:
    return TXor;
  case Funct::Nor:
    return TNor;
  case Funct::Slt:
    return TSlt;
  case Funct::Sltu:
    return TSltu;
  case Funct::Mul:
    return TMul;
  case Funct::Divq:
    return TDivq;
  case Funct::Rem:
    return TRem;
  case Funct::FAdd:
    return TFAdd;
  case Funct::FSub:
    return TFSub;
  case Funct::FMul:
    return TFMul;
  case Funct::FDiv:
    return TFDiv;
  case Funct::FLt:
    return TFLt;
  case Funct::FLe:
    return TFLe;
  case Funct::FEq:
    return TFEq;
  case Funct::CvtSW:
    return TCvtSW;
  case Funct::CvtWS:
    return TCvtWS;
  }
  return TNop;
}

} // namespace

//===----------------------------------------------------------------------===//
// Construction and host memory access
//===----------------------------------------------------------------------===//

Vm::Vm(VmOptions Options) : Opts(Options) {
  assert(Opts.MemBytes >= 4 && (Opts.MemBytes & 3) == 0 &&
         "memory size must be word aligned and nonzero");
  // Process-wide escape hatch so the whole test suite can run against the
  // reference interpreter without touching every construction site.
  if (const char *E = std::getenv("FAB_DECODE_CACHE"))
    if (E[0] == '0' && E[1] == '\0')
      Opts.EnableDecodeCache = false;
  // Same hatch for lifecycle tracing (forces it off even when a
  // construction site requested it).
  if (const char *E = std::getenv("FAB_TRACE"))
    if (E[0] == '0' && E[1] == '\0')
      Opts.EnableTrace = false;
  Ring.reset(Opts.TraceCapacity);
  Ring.setEnabled(Opts.EnableTrace);
  Mem.reset(static_cast<uint8_t *>(std::calloc(Opts.MemBytes, 1)));
  if (!Mem)
    throw std::bad_alloc();
  if (Opts.EnableDecodeCache)
    Quick.assign(QuickSlots, nullptr);
}

void Vm::setCodeRegions(uint32_t SLo, uint32_t SHi, uint32_t DLo,
                        uint32_t DHi) {
  StaticLo = SLo;
  StaticHi = SHi;
  // The dirty bitmap covers the new dynamic segment's lines; a line dirty
  // in both the old and the new segment stays dirty.
  const uint32_t Line = Opts.IcacheLineBytes;
  std::vector<uint64_t> Bits;
  uint32_t Base = 0, Count = 0;
  if (DHi > DLo) {
    Base = DLo / Line;
    const uint32_t Lines = (DHi - 1) / Line - Base + 1;
    Bits.assign((Lines + 63) / 64, 0);
    for (size_t W = 0; W < DirtyBits.size(); ++W)
      for (uint64_t Word = DirtyBits[W]; Word; Word &= Word - 1) {
        const uint32_t I = DirtyBase + static_cast<uint32_t>(W * 64) +
                           std::countr_zero(Word) - Base;
        if (I < Lines) {
          Bits[I >> 6] |= uint64_t{1} << (I & 63);
          ++Count;
        }
      }
  }
  DirtyBits = std::move(Bits);
  DirtyBase = Base;
  DirtyCount = Count;
  DynLo = DLo;
  DynHi = DHi;
  // Region classes partition cached blocks; re-declaring regions could
  // split existing blocks differently, so start over.
  if (!Blocks.empty())
    clearDecodeCache();
}

uint32_t Vm::load32(uint32_t Addr) const {
  assert(inBounds(Addr) && (Addr & 3) == 0 && "host load out of range");
  uint32_t Value;
  std::memcpy(&Value, &Mem[Addr], 4);
  return Value;
}

bool Vm::store32(uint32_t Addr, uint32_t Value) {
  assert((Addr & 3) == 0 && "host store misaligned");
  if (uint64_t{Addr} + 4 > Opts.MemBytes)
    return false;
  std::memcpy(&Mem[Addr], &Value, 4);
  noteHostWrite(Addr, 4);
  return true;
}

bool Vm::writeBlock(uint32_t Addr, const uint32_t *Words, size_t Count) {
  // Addr + 4 * Count <= MemBytes, phrased so that no term can wrap.
  if (Addr > Opts.MemBytes || Count > (Opts.MemBytes - Addr) / 4)
    return false;
  if (Count == 0)
    return true;
  std::memcpy(&Mem[Addr], Words, Count * 4);
  noteHostWrite(Addr, static_cast<uint32_t>(Count * 4));
  return true;
}

void Vm::noteHostWrite(uint32_t Lo, uint32_t Bytes) {
  uint32_t Hi = Lo + Bytes;
  // Host stores into the dynamic code segment obey the same coherence
  // discipline as guest `sw`: the touched lines become dirty and must be
  // flushed (guest `flush` or host flushIcache) before execution.
  if (DynHi > DynLo && Lo < DynHi && Hi > DynLo) {
    const uint32_t Line = Opts.IcacheLineBytes;
    const uint32_t L = std::max(Lo, DynLo), H = std::min(Hi, DynHi);
    const uint32_t Start = L & ~(Line - 1);
    setDirtyLines(Start / Line, Start / Line + (H - 1 - Start) / Line, true);
  }
  // Predecoded blocks under the written range are stale regardless of
  // which code region they live in. Blocks never straddle a region
  // boundary, so a write missing both code regions can only hit a
  // Region-0 block; while none is cached (heap, static data and memo
  // tables normally hold no executed code) the write is a plain copy.
  const bool HitsCode = (Lo < StaticHi && Hi > StaticLo) ||
                        (Lo < DynHi && Hi > DynLo);
  if (!Blocks.empty() && (HitsCode || Region0Blocks))
    invalidateRange(Lo, Hi);
}

void Vm::flushIcache(uint32_t Addr, uint32_t Len) {
  if (!DirtyCount)
    return;
  // The lines of [Addr & ~(Line - 1), Addr + Len), with the end taken
  // modulo 2^32 as the guest's registers hold it.
  const uint32_t Line = Opts.IcacheLineBytes;
  const uint32_t Start = Addr & ~(Line - 1), End = Addr + Len;
  if (Start < End)
    setDirtyLines(Start / Line, Start / Line + (End - 1 - Start) / Line,
                  false);
}

void Vm::setDirtyLines(uint64_t Lo, uint64_t Hi, bool Dirty) {
  if (DirtyBits.empty())
    return;
  Lo = std::max<uint64_t>(Lo, DirtyBase);
  Hi = std::min<uint64_t>(Hi, (DynHi - 1) / Opts.IcacheLineBytes);
  while (Lo <= Hi) {
    // One word at a time: the bits of [Lo, Hi] within Lo's word.
    const uint64_t I = Lo - DirtyBase, Shift = I & 63;
    const uint64_t Take = std::min<uint64_t>(64 - Shift, Hi - Lo + 1);
    const uint64_t Mask = (Take == 64 ? ~uint64_t{0}
                                      : (uint64_t{1} << Take) - 1)
                          << Shift;
    uint64_t &W = DirtyBits[I >> 6];
    const uint64_t Flip = Dirty ? Mask & ~W : Mask & W;
    W ^= Flip;
    if (Dirty)
      DirtyCount += std::popcount(Flip);
    else
      DirtyCount -= std::popcount(Flip);
    Lo += Take;
  }
}

uint32_t Vm::fetch(uint32_t Addr) const {
  uint32_t Value;
  std::memcpy(&Value, &Mem[Addr], 4);
  return Value;
}

ExecResult Vm::stopFault(Fault Kind, uint32_t Pc, uint32_t TrapValue) {
  ExecResult R;
  R.Reason = StopReason::Trapped;
  R.FaultKind = Kind;
  R.FaultPc = Pc;
  R.TrapValue = TrapValue;
  R.V0 = Regs[V0];
  return R;
}

//===----------------------------------------------------------------------===//
// Block cache maintenance
//===----------------------------------------------------------------------===//

void Vm::clearDecodeCache() {
  if (Ring.enabled() && !Blocks.empty())
    Ring.record(telemetry::EventKind::BlockInvalidate, Stats.Executed,
                Blocks.begin()->first, Blocks.size());
  CacheStats.Invalidations += Blocks.size();
  ++CacheEpoch;
  // Move storage to Retired rather than destroying it: the capacity clear
  // can trigger mid-chain from lookupOrBuildBlock while a block is still
  // executing.
  for (auto &[Pc, B] : Blocks)
    Retired.push_back(std::move(B));
  Blocks.clear();
  for (LineCounts &T : Owners)
    T.N.clear();
  OwnedLines = 0;
  Region0Blocks = 0;
  if (!Quick.empty())
    std::fill(Quick.begin(), Quick.end(), nullptr);
}

void Vm::indexBlock(const Block &B, int Delta) {
  LineCounts &T = Owners[B.Region];
  if (Delta > 0) {
    // Grow the region's table to cover the block's lines.
    if (T.N.empty())
      T.Base = B.FirstLine;
    if (B.FirstLine < T.Base) {
      T.N.insert(T.N.begin(), T.Base - B.FirstLine, 0);
      T.Base = B.FirstLine;
    }
    if (B.LastLine - T.Base >= T.N.size())
      T.N.resize(B.LastLine - T.Base + 1, 0);
  }
  for (uint32_t L = B.FirstLine; L <= B.LastLine; ++L) {
    uint32_t &N = T.N[L - T.Base];
    if (Delta > 0) {
      OwnedLines += !lineOwned(L);
      ++N;
    } else {
      --N;
      OwnedLines -= !lineOwned(L);
    }
  }
}

void Vm::retireBlock(BlockMap::iterator It) {
  Block *B = It->second.get();
  // Window 0: only back-to-back retirements (an invalidation flood from
  // one host write) coalesce into a single event with a count.
  if (Ring.enabled())
    Ring.recordMerged(telemetry::EventKind::BlockInvalidate, Stats.Executed,
                      /*Window=*/0, B->Base, 1);
  if (B->Region == 0)
    --Region0Blocks;
  indexBlock(*B, -1);
  if (Quick[quickSlot(B->Base)] == B)
    Quick[quickSlot(B->Base)] = nullptr;
  // Keep the storage alive until the next dispatch point: the retiring
  // store may have been issued from within this very block.
  Retired.push_back(std::move(It->second));
  Blocks.erase(It);
  ++CacheEpoch; // stale every chained successor pointer
  ++CacheStats.Invalidations;
}

void Vm::invalidateLineBlocks(uint32_t Addr) {
  const uint32_t Line = Opts.IcacheLineBytes;
  const uint32_t L = Addr / Line;
  if (!lineOwned(L))
    return;
  // A block overlapping line L starts at most MaxBlockInsts words before
  // the line: probe those entry PCs in ascending order until the line's
  // count drops to zero.
  const uint64_t LineLo = uint64_t{L} * Line;
  const uint64_t Reach = 4 * uint64_t{std::max(1u, Opts.MaxBlockInsts)};
  const uint64_t End = std::min<uint64_t>(LineLo + Line, Opts.MemBytes);
  for (uint64_t Pc = LineLo > Reach ? (LineLo - Reach) & ~uint64_t{3} : 0;
       Pc < End && lineOwned(L); Pc += 4) {
    auto It = Blocks.find(static_cast<uint32_t>(Pc));
    if (It != Blocks.end() && It->second->FirstLine <= L &&
        L <= It->second->LastLine)
      retireBlock(It);
  }
}

void Vm::invalidateRange(uint32_t Lo, uint32_t Hi) {
  if (Lo >= Hi || !OwnedLines)
    return;
  const uint32_t Line = Opts.IcacheLineBytes;
  uint64_t RangeLines = (static_cast<uint64_t>(Hi - 1) / Line) - Lo / Line + 1;
  if (RangeLines <= uint64_t{OwnedLines} * 2) {
    for (uint64_t L = Lo / Line; L <= (Hi - 1) / Line; ++L)
      invalidateLineBlocks(static_cast<uint32_t>(L * Line));
    return;
  }
  // A wide range (loading a whole image, resetCodeSpace's sweep of the
  // dynamic segment) over a smaller cache: one pass over the cached
  // blocks instead of probing every line of the range. Observables match
  // retireBlock's exactly: the same Invalidations count and, since
  // nothing executes in between, the same single coalesced trace event
  // (first victim, victim count).
  uint64_t Dropped = 0;
  uint32_t FirstPc = 0;
  for (auto It = Blocks.begin(); It != Blocks.end();) {
    Block *B = It->second.get();
    if (B->Base >= Hi || B->Base + 4 * B->InstCount <= Lo) {
      ++It;
      continue;
    }
    if (Dropped++ == 0)
      FirstPc = It->first;
    if (B->Region == 0)
      --Region0Blocks;
    indexBlock(*B, -1);
    if (Quick[quickSlot(B->Base)] == B)
      Quick[quickSlot(B->Base)] = nullptr;
    // Keep the storage alive until the next dispatch point, as
    // retireBlock does.
    Retired.push_back(std::move(It->second));
    It = Blocks.erase(It);
  }
  if (!Dropped)
    return;
  if (Ring.enabled())
    Ring.recordMerged(telemetry::EventKind::BlockInvalidate, Stats.Executed,
                      /*Window=*/0, FirstPc, Dropped);
  ++CacheEpoch; // stale every chained successor pointer
  CacheStats.Invalidations += Dropped;
}

void Vm::invalidateDecodeCache(uint32_t Lo, uint32_t Hi) {
  invalidateRange(Lo, Hi);
}

bool Vm::anyBlockLineDirty(const Block &B) const {
  for (uint32_t L = B.FirstLine; L <= B.LastLine; ++L)
    if (lineDirty(L))
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// Block construction
//===----------------------------------------------------------------------===//

void Vm::buildBlock(uint32_t Pc, Block &B) {
  // B may be recycled storage: keep only its micro-op capacity.
  B.Ops.clear();
  B.SuccTaken = B.SuccFall = nullptr;
  B.EpochTaken = B.EpochFall = 0;
  B.Base = Pc;
  B.Region = regionClass(Pc);
  B.Ops.reserve(8);
  const uint32_t Max = std::max(1u, Opts.MaxBlockInsts);
  uint32_t Count = 0;

  while (Count < Max) {
    if (!inBounds(Pc) || regionClass(Pc) != B.Region)
      break; // next instruction is the slow path's problem (BadFetch /
             // region straddle)
    Inst I;
    if (!decode(fetch(Pc), I)) {
      MicroOp Op;
      Op.Tag = TBadInst;
      B.Ops.push_back(Op);
      ++Count;
      break;
    }

    // Peek one ahead for pair fusion. Never fuse across the window cap,
    // a region boundary, or the end of memory.
    Inst N;
    bool HaveNext = false;
    if (Count + 2 <= Max && inBounds(Pc + 4) &&
        regionClass(Pc + 4) == B.Region)
      HaveNext = decode(fetch(Pc + 4), N);

    MicroOp Op;
    Op.Rs = I.Rs;
    Op.Rt = I.Rt;
    Op.Rd = I.Rd;
    Op.Shamt = I.Shamt;

    switch (I.Op) {
    case Opcode::Special:
      Op.Tag = functTag(I.Fn);
      // Pure ALU writes to $zero are architectural no-ops; Jr/Jalr are
      // control flow and Divq/Rem can still fault.
      if (I.Rd == 0 && Op.Tag != TJr && Op.Tag != TJalr &&
          Op.Tag != TDivq && Op.Tag != TRem)
        Op.Tag = TNop;
      // slt/sltu feeding a branch on the result against $zero.
      if ((Op.Tag == TSlt || Op.Tag == TSltu) && HaveNext &&
          (N.Op == Opcode::Beq || N.Op == Opcode::Bne) && N.Rs == I.Rd &&
          N.Rt == 0) {
        Op.Tag = TCmpBranch;
        Op.Len = 2;
        Op.Shamt = (I.Fn == Funct::Slt ? CmpSlt : CmpSltu);
        if (N.Op == Opcode::Bne)
          Op.Shamt |= CmpBranchOnTrue;
        Op.Aux = Pc + 8 + (static_cast<int32_t>(N.Imm) << 2);
      }
      break;
    case Opcode::Ext:
      switch (I.Ext) {
      case ExtFn::Halt:
        Op.Tag = THalt;
        break;
      case ExtFn::Flush:
        Op.Tag = TFlush;
        break;
      case ExtFn::PutInt:
        Op.Tag = TPutInt;
        break;
      case ExtFn::PutCh:
        Op.Tag = TPutCh;
        break;
      case ExtFn::Trap:
        Op.Tag = TTrap;
        break;
      }
      break;
    case Opcode::J:
    case Opcode::Jal:
      Op.Tag = I.Op == Opcode::J ? TJ : TJal;
      Op.Aux = (Pc & 0xF0000000u) | (I.Target << 2);
      break;
    case Opcode::Beq:
    case Opcode::Bne:
      Op.Tag = I.Op == Opcode::Beq ? TBeq : TBne;
      Op.Aux = Pc + 4 + (static_cast<int32_t>(I.Imm) << 2);
      break;
    case Opcode::Addiu:
      Op.Tag = I.Rt ? TAddiu : TNop;
      Op.Imm = static_cast<int32_t>(I.Imm);
      break;
    case Opcode::Slti:
    case Opcode::Sltiu:
      Op.Tag = I.Op == Opcode::Slti ? TSlti : TSltiu;
      Op.Imm = static_cast<int32_t>(I.Imm);
      if (I.Rt == 0)
        Op.Tag = TNop;
      else if (HaveNext && (N.Op == Opcode::Beq || N.Op == Opcode::Bne) &&
               N.Rs == I.Rt && N.Rt == 0) {
        Op.Rd = I.Rt; // compare destination
        Op.Tag = TCmpBranch;
        Op.Len = 2;
        Op.Shamt = (I.Op == Opcode::Slti ? CmpSlti : CmpSltiu);
        if (N.Op == Opcode::Bne)
          Op.Shamt |= CmpBranchOnTrue;
        Op.Aux = Pc + 8 + (static_cast<int32_t>(N.Imm) << 2);
      }
      break;
    case Opcode::Andi:
    case Opcode::Ori:
    case Opcode::Xori:
      Op.Tag = I.Rt == 0      ? TNop
               : I.Op == Opcode::Andi ? TAndi
               : I.Op == Opcode::Ori  ? TOri
                                      : TXori;
      Op.Imm = static_cast<int32_t>(static_cast<uint16_t>(I.Imm));
      break;
    case Opcode::Lui:
      Op.Tag = I.Rt ? TLui : TNop;
      Op.Aux = static_cast<uint32_t>(static_cast<uint16_t>(I.Imm)) << 16;
      // lui rt, hi; ori rt, rt, lo — the assembler's li expansion.
      if (I.Rt != 0 && HaveNext && N.Op == Opcode::Ori && N.Rs == I.Rt &&
          N.Rt == I.Rt) {
        Op.Tag = TLoadImm32;
        Op.Len = 2;
        Op.Rd = I.Rt;
        Op.Aux |= static_cast<uint16_t>(N.Imm);
      }
      break;
    case Opcode::Lw:
    case Opcode::Sw:
      Op.Tag = I.Op == Opcode::Lw ? TLw : TSw;
      Op.Imm = static_cast<int32_t>(I.Imm);
      break;
    }

    B.Ops.push_back(Op);
    Count += Op.Len;
    Pc += 4u * Op.Len;
    if (Op.Len == 2)
      ++CacheStats.FusedOps;
    if (isBlockTerminator(Op.Tag))
      break;
  }

  B.InstCount = Count;
  const uint32_t Line = Opts.IcacheLineBytes;
  B.FirstLine = B.Base / Line;
  B.LastLine = (B.Base + 4 * Count - 1) / Line;
}

FAB_VM_HOT Vm::Block *Vm::lookupOrBuildBlock(uint32_t Pc) {
  if (!inBounds(Pc) || (Pc & 3))
    return nullptr; // slow path raises BadFetch with exact accounting
  const uint32_t Slot = quickSlot(Pc);
  if (Block *B = Quick[Slot]; B && B->Base == Pc)
    return B;
  auto It = Blocks.find(Pc);
  if (It == Blocks.end()) {
    if (Blocks.size() >= std::max(1u, Opts.MaxCachedBlocks))
      clearDecodeCache();
    std::unique_ptr<Block> Owned;
    if (Spare.empty()) {
      Owned = std::make_unique<Block>();
    } else {
      Owned = std::move(Spare.back());
      Spare.pop_back();
    }
    buildBlock(Pc, *Owned);
    if (Owned->Region == 0)
      ++Region0Blocks;
    indexBlock(*Owned, +1);
    ++CacheStats.BlocksBuilt;
    if (TraceLive)
      Ring.record(telemetry::EventKind::BlockBuild, Stats.Executed, Pc,
                  Owned->InstCount);
    It = Blocks.emplace(Pc, std::move(Owned)).first;
  }
  Quick[Slot] = It->second.get();
  return It->second.get();
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

ExecResult Vm::call(uint32_t EntryPc, const std::vector<uint32_t> &Args) {
  assert(Args.size() <= 4 && "host call supports at most 4 register args");
  for (size_t I = 0; I < Args.size(); ++I)
    Regs[A0 + I] = Args[I];
  Regs[Ra] = HostReturnAddr;
  return run(EntryPc);
}

/// One instruction under the reference interpreter. Order of checks and
/// side effects is load-bearing: injector, fetch bounds, fuel, coherence,
/// decode, statistics, execute — matching the seed interpreter exactly.
bool Vm::stepSlow(RunState &S, ExecResult &R) {
  const uint32_t Line = Opts.IcacheLineBytes;
  const uint32_t Pc = S.Pc;

  if (Opts.Injector.Armed) {
    const bool Fire = Opts.Injector.AtPc
                          ? Pc == Opts.Injector.AtPc
                          : S.ExecutedThisRun >= Opts.Injector.AfterInstructions;
    if (Fire) {
      FaultInjector FI = Opts.Injector;
      if (FI.OneShot)
        Opts.Injector.Armed = false;
      if (FI.Reason == StopReason::OutOfFuel) {
        R = ExecResult();
        R.Reason = StopReason::OutOfFuel;
        R.FaultPc = Pc;
        R.V0 = Regs[V0];
        return true;
      }
      R = stopFault(FI.Kind, Pc, FI.TrapValue);
      return true;
    }
  }
  ++S.ExecutedThisRun;
  if (!inBounds(Pc) || (Pc & 3)) {
    R = stopFault(Fault::BadFetch, Pc);
    return true;
  }
  if (S.Budget-- == 0) {
    R = ExecResult();
    R.Reason = StopReason::OutOfFuel;
    R.FaultPc = Pc;
    R.V0 = Regs[V0];
    return true;
  }

  // Coherence check: the generated-code discipline requires a flush
  // before executing freshly written dynamic code (paper section 3.4).
  if (DirtyCount && inDynRegion(Pc) && lineDirty(Pc / Line)) {
    ++CoherenceViolations;
    if (Opts.TrapOnIncoherentFetch) {
      R = stopFault(Fault::IcacheIncoherent, Pc);
      return true;
    }
  }

  uint32_t Word = fetch(Pc);
  Inst I;
  if (!decode(Word, I)) {
    R = stopFault(Fault::BadInstruction, Pc);
    return true;
  }

  ++Stats.Executed;
  ++Stats.Cycles;
  ++CacheStats.SlowInsts;
  if (inStaticRegion(Pc))
    ++Stats.ExecutedStatic;
  else if (inDynRegion(Pc))
    ++Stats.ExecutedDynamic;

  uint32_t NextPc = Pc + 4;
  const uint32_t RsV = Regs[I.Rs];
  const uint32_t RtV = Regs[I.Rt];

  switch (I.Op) {
  case Opcode::Special: {
    uint32_t Result = 0;
    bool WriteRd = true;
    switch (I.Fn) {
    case Funct::Sll:
      Result = RtV << I.Shamt;
      break;
    case Funct::Srl:
      Result = RtV >> I.Shamt;
      break;
    case Funct::Sra:
      Result = static_cast<uint32_t>(static_cast<int32_t>(RtV) >> I.Shamt);
      break;
    case Funct::Sllv:
      Result = RtV << (RsV & 31);
      break;
    case Funct::Srlv:
      Result = RtV >> (RsV & 31);
      break;
    case Funct::Srav:
      Result = static_cast<uint32_t>(static_cast<int32_t>(RtV) >> (RsV & 31));
      break;
    case Funct::Jr:
      NextPc = RsV;
      WriteRd = false;
      break;
    case Funct::Jalr:
      Result = Pc + 4;
      NextPc = RsV;
      break;
    case Funct::Addu:
      Result = RsV + RtV;
      break;
    case Funct::Subu:
      Result = RsV - RtV;
      break;
    case Funct::And:
      Result = RsV & RtV;
      break;
    case Funct::Or:
      Result = RsV | RtV;
      break;
    case Funct::Xor:
      Result = RsV ^ RtV;
      break;
    case Funct::Nor:
      Result = ~(RsV | RtV);
      break;
    case Funct::Slt:
      Result = static_cast<int32_t>(RsV) < static_cast<int32_t>(RtV);
      break;
    case Funct::Sltu:
      Result = RsV < RtV;
      break;
    case Funct::Mul:
      Result = static_cast<uint32_t>(
          static_cast<int32_t>(RsV) *
          static_cast<int64_t>(static_cast<int32_t>(RtV)));
      break;
    case Funct::Divq:
      if (RtV == 0) {
        R = stopFault(Fault::DivideByZero, Pc);
        return true;
      }
      // INT_MIN / -1 wraps (hardware leaves it unspecified; we define it
      // so the reference interpreter can match).
      if (RsV == 0x80000000u && RtV == 0xFFFFFFFFu)
        Result = 0x80000000u;
      else
        Result = static_cast<uint32_t>(static_cast<int32_t>(RsV) /
                                       static_cast<int32_t>(RtV));
      break;
    case Funct::Rem:
      if (RtV == 0) {
        R = stopFault(Fault::DivideByZero, Pc);
        return true;
      }
      if (RsV == 0x80000000u && RtV == 0xFFFFFFFFu)
        Result = 0;
      else
        Result = static_cast<uint32_t>(static_cast<int32_t>(RsV) %
                                       static_cast<int32_t>(RtV));
      break;
    case Funct::FAdd:
      Result = bitsOf(floatOf(RsV) + floatOf(RtV));
      break;
    case Funct::FSub:
      Result = bitsOf(floatOf(RsV) - floatOf(RtV));
      break;
    case Funct::FMul:
      Result = bitsOf(floatOf(RsV) * floatOf(RtV));
      break;
    case Funct::FDiv:
      Result = bitsOf(floatOf(RsV) / floatOf(RtV));
      break;
    case Funct::FLt:
      Result = floatOf(RsV) < floatOf(RtV);
      break;
    case Funct::FLe:
      Result = floatOf(RsV) <= floatOf(RtV);
      break;
    case Funct::FEq:
      Result = floatOf(RsV) == floatOf(RtV);
      break;
    case Funct::CvtSW:
      Result = bitsOf(static_cast<float>(static_cast<int32_t>(RsV)));
      break;
    case Funct::CvtWS:
      Result = static_cast<uint32_t>(static_cast<int32_t>(floatOf(RsV)));
      break;
    }
    if (WriteRd && I.Rd != 0)
      Regs[I.Rd] = Result;
    break;
  }

  case Opcode::Ext:
    switch (I.Ext) {
    case ExtFn::Halt:
      R = ExecResult();
      R.Reason = StopReason::Halted;
      R.V0 = Regs[V0];
      return true;
    case ExtFn::Flush: {
      uint32_t Lo = RsV, Len = RtV;
      ++Stats.Flushes;
      Stats.FlushedBytes += Len;
      Stats.Cycles += Opts.FlushTrapCycles;
      if (Opts.FlushBytesPerCycle)
        Stats.Cycles += Len / Opts.FlushBytesPerCycle;
      flushIcache(Lo, Len);
      break;
    }
    case ExtFn::PutInt:
      Output += std::to_string(static_cast<int32_t>(RsV));
      break;
    case ExtFn::PutCh:
      Output += static_cast<char>(RsV & 0xFF);
      break;
    case ExtFn::Trap:
      R = stopFault(Fault::ProgramTrap, Pc, I.Shamt);
      return true;
    }
    break;

  case Opcode::J:
    NextPc = (Pc & 0xF0000000u) | (I.Target << 2);
    break;
  case Opcode::Jal:
    Regs[Ra] = Pc + 4;
    NextPc = (Pc & 0xF0000000u) | (I.Target << 2);
    break;
  case Opcode::Beq:
    if (RsV == RtV)
      NextPc = Pc + 4 + (static_cast<int32_t>(I.Imm) << 2);
    break;
  case Opcode::Bne:
    if (RsV != RtV)
      NextPc = Pc + 4 + (static_cast<int32_t>(I.Imm) << 2);
    break;
  case Opcode::Addiu:
    if (I.Rt != 0)
      Regs[I.Rt] = RsV + static_cast<uint32_t>(static_cast<int32_t>(I.Imm));
    break;
  case Opcode::Slti:
    if (I.Rt != 0)
      Regs[I.Rt] = static_cast<int32_t>(RsV) < static_cast<int32_t>(I.Imm);
    break;
  case Opcode::Sltiu:
    if (I.Rt != 0)
      Regs[I.Rt] = RsV < static_cast<uint32_t>(static_cast<int32_t>(I.Imm));
    break;
  case Opcode::Andi:
    if (I.Rt != 0)
      Regs[I.Rt] = RsV & static_cast<uint16_t>(I.Imm);
    break;
  case Opcode::Ori:
    if (I.Rt != 0)
      Regs[I.Rt] = RsV | static_cast<uint16_t>(I.Imm);
    break;
  case Opcode::Xori:
    if (I.Rt != 0)
      Regs[I.Rt] = RsV ^ static_cast<uint16_t>(I.Imm);
    break;
  case Opcode::Lui:
    if (I.Rt != 0)
      Regs[I.Rt] = static_cast<uint32_t>(static_cast<uint16_t>(I.Imm)) << 16;
    break;
  case Opcode::Lw: {
    uint32_t Addr = RsV + static_cast<uint32_t>(static_cast<int32_t>(I.Imm));
    if (!inBounds(Addr) || (Addr & 3)) {
      R = stopFault(Fault::BadAccess, Pc);
      return true;
    }
    ++Stats.Loads;
    // Loads from the read-only template pool are template-burst copies;
    // coalesce the per-word loads of one burst (the copy loop runs ~4
    // instructions per word, hence the window) into a single event.
    if (TraceLive && Addr >= TmplLo && Addr < TmplHi)
      Ring.recordMerged(telemetry::EventKind::TemplateFlush, Stats.Executed,
                        /*Window=*/16, Addr, 1);
    if (I.Rt != 0)
      Regs[I.Rt] = fetch(Addr);
    break;
  }
  case Opcode::Sw: {
    uint32_t Addr = RsV + static_cast<uint32_t>(static_cast<int32_t>(I.Imm));
    if (!inBounds(Addr) || (Addr & 3)) {
      R = stopFault(Fault::BadAccess, Pc);
      return true;
    }
    // Hard bound on dynamic-code emission: $cp is the dedicated code
    // pointer (never a temp), so a $cp-based store landing outside the
    // dynamic segment means the generator ran past DynCodeEnd (or was
    // mis-seated below DynCodeBase). Fault *before* writing so adjacent
    // regions (stack above, heap below) are never corrupted.
    if (I.Rs == Cp && DynHi != DynLo && !inDynRegion(Addr)) {
      R = stopFault(Fault::CodeSpaceExhausted, Pc);
      return true;
    }
    ++Stats.Stores;
    std::memcpy(&Mem[Addr], &RtV, 4);
    if (inDynRegion(Addr)) {
      ++Stats.DynWordsWritten;
      markDirty(Addr / Line);
    }
    // Keep predecoded blocks coherent with guest code writes.
    if (Opts.EnableDecodeCache &&
        (inDynRegion(Addr) || inStaticRegion(Addr)))
      invalidateLineBlocks(Addr);
    break;
  }
  }

  S.Pc = NextPc;
  return false;
}

FAB_VM_HOT Vm::BlockExit Vm::execBlock(Block &B, RunState &S,
                                       ExecResult &R) {
  const uint32_t Line = Opts.IcacheLineBytes;
  Block *Cur = &B;

for (;;) {
  uint32_t Pc = Cur->Base;
  uint64_t *RegionCtr = Cur->Region == 1   ? &Stats.ExecutedStatic
                        : Cur->Region == 2 ? &Stats.ExecutedDynamic
                                           : nullptr;
  const MicroOp *Ops = Cur->Ops.data();
  const size_t N = Cur->Ops.size();
  // Source instructions retired so far, accumulated locally and committed
  // to fuel + statistics at every exit. Equivalent to per-op updates
  // because counters are only observable after run() returns.
  uint64_t Done = 0;
  const auto Commit = [&] {
    S.Budget -= Done;
    Stats.Executed += Done;
    Stats.Cycles += Done;
    CacheStats.FastInsts += Done;
    if (RegionCtr)
      *RegionCtr += Done;
  };
  // Set by static-target terminators before `goto chain`: which of the
  // block's two successor slots (taken / fall-through) S.Pc went to.
  bool Taken = false;

  for (size_t Idx = 0; Idx < N; ++Idx) {
    // By reference is safe even under self-modifying code: a store that
    // retires Cur moves its storage to Retired, which outlives this call.
    const MicroOp &Op = Ops[Idx];
    if (Op.Tag == TBadInst) {
      // The slow path charges fuel before decoding, then faults without
      // counting the word as executed.
      Commit();
      --S.Budget;
      R = stopFault(Fault::BadInstruction, Pc);
      return BlockExit::Stopped;
    }
    Done += Op.Len; // fuel pre-checked against Cur->InstCount

    switch (Op.Tag) {
    case TNop:
      break;
    case TSll:
      Regs[Op.Rd] = Regs[Op.Rt] << Op.Shamt;
      break;
    case TSrl:
      Regs[Op.Rd] = Regs[Op.Rt] >> Op.Shamt;
      break;
    case TSra:
      Regs[Op.Rd] =
          static_cast<uint32_t>(static_cast<int32_t>(Regs[Op.Rt]) >> Op.Shamt);
      break;
    case TSllv:
      Regs[Op.Rd] = Regs[Op.Rt] << (Regs[Op.Rs] & 31);
      break;
    case TSrlv:
      Regs[Op.Rd] = Regs[Op.Rt] >> (Regs[Op.Rs] & 31);
      break;
    case TSrav:
      Regs[Op.Rd] = static_cast<uint32_t>(static_cast<int32_t>(Regs[Op.Rt]) >>
                                          (Regs[Op.Rs] & 31));
      break;
    case TAddu:
      Regs[Op.Rd] = Regs[Op.Rs] + Regs[Op.Rt];
      break;
    case TSubu:
      Regs[Op.Rd] = Regs[Op.Rs] - Regs[Op.Rt];
      break;
    case TAnd:
      Regs[Op.Rd] = Regs[Op.Rs] & Regs[Op.Rt];
      break;
    case TOr:
      Regs[Op.Rd] = Regs[Op.Rs] | Regs[Op.Rt];
      break;
    case TXor:
      Regs[Op.Rd] = Regs[Op.Rs] ^ Regs[Op.Rt];
      break;
    case TNor:
      Regs[Op.Rd] = ~(Regs[Op.Rs] | Regs[Op.Rt]);
      break;
    case TSlt:
      Regs[Op.Rd] = static_cast<int32_t>(Regs[Op.Rs]) <
                    static_cast<int32_t>(Regs[Op.Rt]);
      break;
    case TSltu:
      Regs[Op.Rd] = Regs[Op.Rs] < Regs[Op.Rt];
      break;
    case TMul:
      Regs[Op.Rd] = static_cast<uint32_t>(
          static_cast<int32_t>(Regs[Op.Rs]) *
          static_cast<int64_t>(static_cast<int32_t>(Regs[Op.Rt])));
      break;
    case TDivq: {
      const uint32_t RsV = Regs[Op.Rs], RtV = Regs[Op.Rt];
      if (RtV == 0) {
        Commit();
        R = stopFault(Fault::DivideByZero, Pc);
        return BlockExit::Stopped;
      }
      uint32_t Result;
      if (RsV == 0x80000000u && RtV == 0xFFFFFFFFu)
        Result = 0x80000000u;
      else
        Result = static_cast<uint32_t>(static_cast<int32_t>(RsV) /
                                       static_cast<int32_t>(RtV));
      if (Op.Rd)
        Regs[Op.Rd] = Result;
      break;
    }
    case TRem: {
      const uint32_t RsV = Regs[Op.Rs], RtV = Regs[Op.Rt];
      if (RtV == 0) {
        Commit();
        R = stopFault(Fault::DivideByZero, Pc);
        return BlockExit::Stopped;
      }
      uint32_t Result;
      if (RsV == 0x80000000u && RtV == 0xFFFFFFFFu)
        Result = 0;
      else
        Result = static_cast<uint32_t>(static_cast<int32_t>(RsV) %
                                       static_cast<int32_t>(RtV));
      if (Op.Rd)
        Regs[Op.Rd] = Result;
      break;
    }
    case TFAdd:
      Regs[Op.Rd] = bitsOf(floatOf(Regs[Op.Rs]) + floatOf(Regs[Op.Rt]));
      break;
    case TFSub:
      Regs[Op.Rd] = bitsOf(floatOf(Regs[Op.Rs]) - floatOf(Regs[Op.Rt]));
      break;
    case TFMul:
      Regs[Op.Rd] = bitsOf(floatOf(Regs[Op.Rs]) * floatOf(Regs[Op.Rt]));
      break;
    case TFDiv:
      Regs[Op.Rd] = bitsOf(floatOf(Regs[Op.Rs]) / floatOf(Regs[Op.Rt]));
      break;
    case TFLt:
      Regs[Op.Rd] = floatOf(Regs[Op.Rs]) < floatOf(Regs[Op.Rt]);
      break;
    case TFLe:
      Regs[Op.Rd] = floatOf(Regs[Op.Rs]) <= floatOf(Regs[Op.Rt]);
      break;
    case TFEq:
      Regs[Op.Rd] = floatOf(Regs[Op.Rs]) == floatOf(Regs[Op.Rt]);
      break;
    case TCvtSW:
      Regs[Op.Rd] =
          bitsOf(static_cast<float>(static_cast<int32_t>(Regs[Op.Rs])));
      break;
    case TCvtWS:
      Regs[Op.Rd] =
          static_cast<uint32_t>(static_cast<int32_t>(floatOf(Regs[Op.Rs])));
      break;

    case TAddiu:
      Regs[Op.Rt] = Regs[Op.Rs] + static_cast<uint32_t>(Op.Imm);
      break;
    case TSlti:
      Regs[Op.Rt] = static_cast<int32_t>(Regs[Op.Rs]) < Op.Imm;
      break;
    case TSltiu:
      Regs[Op.Rt] = Regs[Op.Rs] < static_cast<uint32_t>(Op.Imm);
      break;
    case TAndi:
      Regs[Op.Rt] = Regs[Op.Rs] & static_cast<uint32_t>(Op.Imm);
      break;
    case TOri:
      Regs[Op.Rt] = Regs[Op.Rs] | static_cast<uint32_t>(Op.Imm);
      break;
    case TXori:
      Regs[Op.Rt] = Regs[Op.Rs] ^ static_cast<uint32_t>(Op.Imm);
      break;
    case TLui:
      Regs[Op.Rt] = Op.Aux;
      break;
    case TLoadImm32:
      Regs[Op.Rd] = Op.Aux;
      break;

    case TLw: {
      const uint32_t Addr = Regs[Op.Rs] + static_cast<uint32_t>(Op.Imm);
      if (!inBounds(Addr) || (Addr & 3)) {
        Commit();
        R = stopFault(Fault::BadAccess, Pc);
        return BlockExit::Stopped;
      }
      ++Stats.Loads;
      // Template-burst copy detection; Stats.Executed is committed in
      // batches here, so add the local Done count for an exact stamp.
      if (TraceLive && Addr >= TmplLo && Addr < TmplHi)
        Ring.recordMerged(telemetry::EventKind::TemplateFlush,
                          Stats.Executed + Done, /*Window=*/16, Addr, 1);
      if (Op.Rt)
        Regs[Op.Rt] = fetch(Addr);
      break;
    }
    case TSw: {
      const uint32_t Addr = Regs[Op.Rs] + static_cast<uint32_t>(Op.Imm);
      if (!inBounds(Addr) || (Addr & 3)) {
        Commit();
        R = stopFault(Fault::BadAccess, Pc);
        return BlockExit::Stopped;
      }
      if (Op.Rs == Cp && DynHi != DynLo && !inDynRegion(Addr)) {
        Commit();
        R = stopFault(Fault::CodeSpaceExhausted, Pc);
        return BlockExit::Stopped;
      }
      ++Stats.Stores;
      const uint32_t Val = Regs[Op.Rt];
      std::memcpy(&Mem[Addr], &Val, 4);
      const bool InDyn = inDynRegion(Addr);
      if (InDyn) {
        ++Stats.DynWordsWritten;
        markDirty(Addr / Line);
      }
      if (InDyn || inStaticRegion(Addr)) {
        invalidateLineBlocks(Addr);
        // Self-modifying code: the store may alias this block's own
        // instructions, so bail out and let the dispatcher re-decode.
        // (Retired keeps Cur's storage alive; its fields stay readable.)
        if (Addr - Cur->Base < 4 * Cur->InstCount) {
          Commit();
          S.Pc = Pc + 4;
          return BlockExit::Next;
        }
      }
      break;
    }

    // -- Block terminators -------------------------------------------------
    case TJr:
      Commit();
      S.Pc = Regs[Op.Rs];
      return BlockExit::Next;
    case TJalr: {
      Commit();
      const uint32_t Target = Regs[Op.Rs];
      if (Op.Rd)
        Regs[Op.Rd] = Pc + 4;
      S.Pc = Target;
      return BlockExit::Next;
    }
    case TJ:
      Commit();
      S.Pc = Op.Aux;
      Taken = true;
      goto chain;
    case TJal:
      Commit();
      Regs[Ra] = Pc + 4;
      S.Pc = Op.Aux;
      Taken = true;
      goto chain;
    case TBeq:
      Commit();
      Taken = Regs[Op.Rs] == Regs[Op.Rt];
      S.Pc = Taken ? Op.Aux : Pc + 4;
      goto chain;
    case TBne:
      Commit();
      Taken = Regs[Op.Rs] != Regs[Op.Rt];
      S.Pc = Taken ? Op.Aux : Pc + 4;
      goto chain;
    case TCmpBranch: {
      uint32_t Cond = 0;
      switch (Op.Shamt & 3) {
      case CmpSlt:
        Cond = static_cast<int32_t>(Regs[Op.Rs]) <
               static_cast<int32_t>(Regs[Op.Rt]);
        break;
      case CmpSltu:
        Cond = Regs[Op.Rs] < Regs[Op.Rt];
        break;
      case CmpSlti:
        Cond = static_cast<int32_t>(Regs[Op.Rs]) < Op.Imm;
        break;
      case CmpSltiu:
        Cond = Regs[Op.Rs] < static_cast<uint32_t>(Op.Imm);
        break;
      }
      Regs[Op.Rd] = Cond; // Rd != 0 guaranteed by the builder
      Taken = (Op.Shamt & CmpBranchOnTrue) ? Cond != 0 : Cond == 0;
      Commit();
      S.Pc = Taken ? Op.Aux : Pc + 8;
      goto chain;
    }

    case THalt:
      Commit();
      R = ExecResult();
      R.Reason = StopReason::Halted;
      R.V0 = Regs[V0];
      return BlockExit::Stopped;
    case TFlush: {
      Commit();
      const uint32_t Lo = Regs[Op.Rs], FlushLen = Regs[Op.Rt];
      ++Stats.Flushes;
      Stats.FlushedBytes += FlushLen;
      Stats.Cycles += Opts.FlushTrapCycles;
      if (Opts.FlushBytesPerCycle)
        Stats.Cycles += FlushLen / Opts.FlushBytesPerCycle;
      flushIcache(Lo, FlushLen);
      S.Pc = Pc + 4;
      return BlockExit::Next;
    }
    case TPutInt:
      Commit();
      Output += std::to_string(static_cast<int32_t>(Regs[Op.Rs]));
      S.Pc = Pc + 4;
      return BlockExit::Next;
    case TPutCh:
      Commit();
      Output += static_cast<char>(Regs[Op.Rs] & 0xFF);
      S.Pc = Pc + 4;
      return BlockExit::Next;
    case TTrap:
      Commit();
      R = stopFault(Fault::ProgramTrap, Pc, Op.Shamt);
      return BlockExit::Stopped;
    }

    Pc += 4u * Op.Len;
  }

  // Fell off the predecode window / region edge: straight-line successor.
  Commit();
  S.Pc = Pc;

chain:
  // Direct block-to-block transfer for static targets, skipping the
  // dispatch loop. Bail to run() whenever any of its bookkeeping is due:
  // retired storage to reclaim, fuel too low to pre-charge the successor,
  // or a dirty line demanding per-instruction coherence checks.
  if (!Retired.empty())
    return BlockExit::Next;
  Block *&Slot = Taken ? Cur->SuccTaken : Cur->SuccFall;
  uint64_t &SlotEpoch = Taken ? Cur->EpochTaken : Cur->EpochFall;
  Block *Nx = SlotEpoch == CacheEpoch ? Slot : nullptr;
  if (!Nx) {
    Nx = lookupOrBuildBlock(S.Pc);
    if (!Nx)
      return BlockExit::Next; // host return / BadFetch: run() decides
    Slot = Nx;
    SlotEpoch = CacheEpoch;
  }
  if (S.Budget < Nx->InstCount ||
      (Nx->Region == 2 && DirtyCount && anyBlockLineDirty(*Nx)))
    return BlockExit::Next;
  ++CacheStats.BlockRuns;
  Cur = Nx;
}
}

FAB_VM_HOT ExecResult Vm::run(uint32_t EntryPc) {
  RunState S{EntryPc, Opts.Fuel, 0};
  ExecResult R;
  const bool Fast = Opts.EnableDecodeCache;
  // Sample the atomic enable flag once per run; the per-instruction
  // instrumentation branches on this plain bool.
  TraceLive = Ring.enabled();

  while (true) {
    if (S.Pc == HostReturnAddr) {
      R = ExecResult();
      R.Reason = StopReason::ReturnedToHost;
      R.V0 = Regs[V0];
      return R;
    }
    // Fast tier. The slow path takes over whenever exactness needs the
    // per-instruction model: fault injector armed (injection points are
    // counted per instruction), fuel too low to pre-charge a whole
    // block, or a dirty line under the block (per-fetch coherence
    // checks must fire at the precise PC).
    if (Fast && !Opts.Injector.Armed) {
      // Dispatch point: nothing retired can still be executing, so its
      // storage goes back to the builder.
      if (!Retired.empty()) {
        for (std::unique_ptr<Block> &B : Retired)
          Spare.push_back(std::move(B));
        Retired.clear();
      }
      if (Block *B = lookupOrBuildBlock(S.Pc)) {
        if (S.Budget >= B->InstCount &&
            !(B->Region == 2 && DirtyCount && anyBlockLineDirty(*B))) {
          ++CacheStats.BlockRuns;
          if (execBlock(*B, S, R) == BlockExit::Stopped)
            return R;
          continue;
        }
      }
    }
    if (stepSlow(S, R))
      return R;
  }
}

std::string Vm::disassembleRange(uint32_t Addr, unsigned Count) const {
  std::ostringstream OS;
  for (unsigned I = 0; I < Count; ++I) {
    uint32_t A = Addr + I * 4;
    OS << hex32(A) << ":  " << disassemble(load32(A), A) << '\n';
  }
  return OS.str();
}
