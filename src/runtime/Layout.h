//===- Layout.h - FABIUS runtime memory layout ------------------*- C++ -*-===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory map and calling/representation conventions shared by the
/// backend, the runtime, the baselines, and the host facade.
///
/// Memory map (within the default 64 MiB image). The image is address
/// space, not resident memory: the VM calloc's it, so only the pages a
/// program touches become resident (docs/VM.md, "Memory").
///
///   0x0000_0000  null guard page (nothing allocated here)
///   0x0000_1000  static code  (compiler output incl. generating extensions)
///   0x0050_0000  static data  (memo tables, globals); $gp points here
///   0x0090_0000  heap, bump-allocated upward via $hp
///   0x0300_0000  dynamic code segment, bump-allocated upward via $cp
///   0x03FF_FFF0  initial $sp, stack grows downward
///
/// Everything lives below 2^28 so J-type jumps reach all code.
///
/// Value representation (untagged, per the paper's section 5):
///   int/bool/unit: raw 32-bit word (bool 0/1, unit 0)
///   real:          IEEE-754 single bit pattern in a word
///   vector:        pointer to [length, e0, e1, ...]
///   datatype:      pointer to [constructor tag, field0, ...]; nullary
///                  constructors are also heap cells so pointer equality
///                  stays meaningful for memoization keys
///
/// Calling convention: args in $a0..$a3 then stack (at 0($sp), 4($sp), ...
/// pre-decremented by the caller); result in $v0; $s0..$s7/$sp/$fp are
/// callee-saved; $ra holds the return address.
///
//===----------------------------------------------------------------------===//

#ifndef FAB_RUNTIME_LAYOUT_H
#define FAB_RUNTIME_LAYOUT_H

#include <cstdint>

namespace fab {
namespace layout {

constexpr uint32_t StaticCodeBase = 0x00001000;
constexpr uint32_t StaticCodeEnd = 0x00500000;
constexpr uint32_t StaticDataBase = 0x00500000;
constexpr uint32_t StaticDataEnd = 0x00900000;

/// Read-only emission templates (pre-encoded constant runs of dynamic
/// code copied by generating extensions — see docs/INTERNALS.md,
/// "Emission strategy") live at the top of the static data region.
/// Ordinary static data (memo tables, globals) bump-allocates from
/// StaticDataBase and must stay below TemplateDataBase.
constexpr uint32_t TemplateDataBase = 0x00880000;
constexpr uint32_t TemplateDataEnd = StaticDataEnd;
constexpr uint32_t HeapBase = 0x00900000;
constexpr uint32_t HeapEnd = 0x03000000;
constexpr uint32_t DynCodeBase = 0x03000000;
constexpr uint32_t DynCodeEnd = 0x03800000;
constexpr uint32_t DynCodeBytes = DynCodeEnd - DynCodeBase;
constexpr uint32_t StackTop = 0x03FFFFF0; ///< ~8 MiB of stack

/// Capacity of one specialization memo table, in entries.
constexpr uint32_t MemoCapacity = 4096;

/// Default headroom the emitted code-space guard keeps below DynCodeEnd:
/// the guard traps once $cp crosses DynCodeEnd - margin, bounding how much
/// one specialization iteration may emit between guard checks.
constexpr uint32_t CodeSpaceGuardMargin = 0x10000;

/// Generators coalesce $cp bumps: emitted words are stored at growing
/// immediate offsets off an unmoved $cp and one addiu catches $cp up at
/// control-flow joins. The pending offset must stay representable in the
/// sw/lw 16-bit signed displacement, so emission flushes once it reaches
/// this limit.
constexpr uint32_t CpCoalesceLimit = 32000;
static_assert(CpCoalesceLimit + 4 <= 32767,
              "coalesced $cp offsets must fit the sw 16-bit signed "
              "displacement");

} // namespace layout
} // namespace fab

#endif // FAB_RUNTIME_LAYOUT_H
