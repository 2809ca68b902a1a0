//===- StringUtil.h - Small string helpers ----------------------*- C++ -*-===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Formatting helpers shared by the disassembler, diagnostics, and bench
/// report printers, and the strict count parser behind numeric flags and
/// environment overrides.
///
//===----------------------------------------------------------------------===//

#ifndef FAB_SUPPORT_STRINGUTIL_H
#define FAB_SUPPORT_STRINGUTIL_H

#include <cstdint>
#include <optional>
#include <string>

namespace fab {

/// Renders \p Value as 0x%08x.
std::string hex32(uint32_t Value);

/// Renders \p Value with a fixed number of decimal places (bench tables).
std::string fixed(double Value, int Places);

/// printf-style formatting into a std::string.
std::string formatf(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

/// Parses \p S as a whole unsigned count in strtoull base-0 syntax
/// (decimal, 0x hex, 0 octal). Returns std::nullopt for anything else:
/// an empty string, a sign or leading space, trailing characters, or a
/// value past UINT64_MAX. strtoull alone reads "abc" as 0 and "-1" as
/// UINT64_MAX.
std::optional<uint64_t> parseCount(const char *S);

} // namespace fab

#endif // FAB_SUPPORT_STRINGUTIL_H
