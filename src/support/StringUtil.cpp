//===- StringUtil.cpp -----------------------------------------------------===//

#include "support/StringUtil.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <vector>

using namespace fab;

std::string fab::hex32(uint32_t Value) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "0x%08x", Value);
  return Buf;
}

std::string fab::fixed(double Value, int Places) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Places, Value);
  return Buf;
}

std::string fab::formatf(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Copy;
  va_copy(Copy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  std::vector<char> Buf(static_cast<size_t>(Needed) + 1);
  std::vsnprintf(Buf.data(), Buf.size(), Fmt, Args);
  va_end(Args);
  return std::string(Buf.data(), static_cast<size_t>(Needed));
}

std::optional<uint64_t> fab::parseCount(const char *S) {
  if (!S || !std::isdigit(static_cast<unsigned char>(S[0])))
    return std::nullopt;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 0);
  if (*End || errno == ERANGE)
    return std::nullopt;
  return V;
}
