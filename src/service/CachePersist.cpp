//===- CachePersist.cpp ---------------------------------------------------===//

#include "service/CachePersist.h"

#include "runtime/HeapImage.h"
#include "runtime/Layout.h"

#include <cstdio>
#include <cstring>
#include <fstream>

using namespace fab;
using namespace fab::service;

namespace {

constexpr char Magic[4] = {'F', 'A', 'B', 'C'};
constexpr uint32_t Version = 1;

void put32(std::ostream &OS, uint32_t V) {
  OS.write(reinterpret_cast<const char *>(&V), sizeof V);
}
void put64(std::ostream &OS, uint64_t V) {
  OS.write(reinterpret_cast<const char *>(&V), sizeof V);
}
void put8(std::ostream &OS, uint8_t V) {
  OS.write(reinterpret_cast<const char *>(&V), sizeof V);
}

/// Reader with sticky failure: every get*() after a short read returns 0
/// and leaves Ok false, so the caller validates once at the end of a
/// section instead of after every field.
struct Reader {
  std::istream &IS;
  bool Ok = true;

  uint32_t get32() {
    uint32_t V = 0;
    if (Ok && !IS.read(reinterpret_cast<char *>(&V), sizeof V))
      Ok = false;
    return Ok ? V : 0;
  }
  uint64_t get64() {
    uint64_t V = 0;
    if (Ok && !IS.read(reinterpret_cast<char *>(&V), sizeof V))
      Ok = false;
    return Ok ? V : 0;
  }
  uint8_t get8() {
    uint8_t V = 0;
    if (Ok && !IS.read(reinterpret_cast<char *>(&V), sizeof V))
      Ok = false;
    return Ok ? V : 0;
  }
};

void putSegment(std::ostream &OS, const WorkerImage::Segment &S) {
  put32(OS, S.FullWords);
  put32(OS, static_cast<uint32_t>(S.Words.size()));
  OS.write(reinterpret_cast<const char *>(S.Words.data()),
           static_cast<std::streamsize>(S.Words.size() * sizeof(uint32_t)));
}

/// Reads one segment restored at [Base, End): its extent must fit there.
bool getSegment(Reader &R, WorkerImage::Segment &S, uint32_t Base,
                uint32_t End) {
  S.FullWords = R.get32();
  uint32_t Stored = R.get32();
  if (!R.Ok || Stored > S.FullWords || S.FullWords > (End - Base) / 4)
    return false;
  S.Words.resize(Stored);
  if (Stored &&
      !R.IS.read(reinterpret_cast<char *>(S.Words.data()),
                 static_cast<std::streamsize>(Stored * sizeof(uint32_t))))
    R.Ok = false;
  return R.Ok;
}

} // namespace

uint64_t fab::service::compilationFingerprint(const Compilation &C) {
  uint64_t H = HeapImage::FnvOffset;
  for (uint32_t W : C.Unit.Code)
    H = HeapImage::fnv1aWord(H, W);
  for (uint32_t W : C.Unit.TemplateData)
    H = HeapImage::fnv1aWord(H, W);
  if (C.PlainUnit)
    for (uint32_t W : C.PlainUnit->Code)
      H = HeapImage::fnv1aWord(H, W);
  return H;
}

bool fab::service::saveCacheFile(const std::string &Path, const CacheFile &F) {
  // Write a sibling temp file and rename it over Path, so a crash
  // mid-write leaves the previous file (or none), never a torn one.
  const std::string Tmp = Path + ".tmp";
  std::ofstream OS(Tmp, std::ios::binary | std::ios::trunc);
  if (!OS)
    return false;
  OS.write(Magic, sizeof Magic);
  put32(OS, Version);
  put64(OS, F.Fingerprint);
  put32(OS, static_cast<uint32_t>(F.Workers.size()));
  for (const WorkerImage &W : F.Workers) {
    put32(OS, W.HpReg);
    put32(OS, W.CpReg);
    putSegment(OS, W.StaticData);
    putSegment(OS, W.Heap);
    putSegment(OS, W.DynCode);
    put32(OS, static_cast<uint32_t>(W.Intern.size()));
    for (const WorkerImage::InternRow &Row : W.Intern) {
      put32(OS, static_cast<uint32_t>(Row.Vec.size()));
      OS.write(reinterpret_cast<const char *>(Row.Vec.data()),
               static_cast<std::streamsize>(Row.Vec.size() * sizeof(int32_t)));
      put32(OS, Row.Addr);
    }
    put32(OS, static_cast<uint32_t>(W.Entries.size()));
    for (const WorkerImage::EntryRow &E : W.Entries) {
      put32(OS, static_cast<uint32_t>(E.Fn.size()));
      OS.write(E.Fn.data(), static_cast<std::streamsize>(E.Fn.size()));
      put32(OS, static_cast<uint32_t>(E.Words.size()));
      OS.write(reinterpret_cast<const char *>(E.Words.data()),
               static_cast<std::streamsize>(E.Words.size() * sizeof(uint32_t)));
      put32(OS, E.Addr);
      put64(OS, E.Bytes);
      put8(OS, E.Pinned ? 1 : 0);
    }
  }
  OS.close();
  if (!OS || std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

std::optional<CacheFile>
fab::service::loadCacheFile(const std::string &Path,
                            uint64_t ExpectFingerprint) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS)
    return std::nullopt;
  char M[4] = {};
  if (!IS.read(M, sizeof M) || std::memcmp(M, Magic, sizeof Magic) != 0)
    return std::nullopt;
  Reader R{IS};
  if (R.get32() != Version)
    return std::nullopt;
  CacheFile F;
  F.Fingerprint = R.get64();
  if (!R.Ok || F.Fingerprint != ExpectFingerprint)
    return std::nullopt;
  uint32_t Workers = R.get32();
  // A worker image is at least hp+cp+3 empty segments; anything claiming
  // more workers than the remaining bytes could hold is corrupt.
  if (!R.Ok || Workers > (1u << 16))
    return std::nullopt;
  F.Workers.resize(Workers);
  for (WorkerImage &W : F.Workers) {
    W.HpReg = R.get32();
    W.CpReg = R.get32();
    if (!getSegment(R, W.StaticData, layout::StaticDataBase,
                    layout::StaticDataEnd) ||
        !getSegment(R, W.Heap, layout::HeapBase, layout::HeapEnd) ||
        !getSegment(R, W.DynCode, layout::DynCodeBase, layout::DynCodeEnd))
      return std::nullopt;
    if (W.HpReg < layout::HeapBase || W.HpReg >= layout::HeapEnd ||
        W.CpReg < layout::DynCodeBase || W.CpReg >= layout::DynCodeEnd)
      return std::nullopt;
    uint32_t InternRows = R.get32();
    if (!R.Ok || InternRows > (1u << 24))
      return std::nullopt;
    W.Intern.resize(InternRows);
    for (WorkerImage::InternRow &Row : W.Intern) {
      uint32_t Len = R.get32();
      if (!R.Ok || Len > (1u << 26))
        return std::nullopt;
      Row.Vec.resize(Len);
      if (Len &&
          !IS.read(reinterpret_cast<char *>(Row.Vec.data()),
                   static_cast<std::streamsize>(Len * sizeof(int32_t))))
        return std::nullopt;
      Row.Addr = R.get32();
      if (Row.Addr < layout::HeapBase || Row.Addr >= W.HpReg)
        return std::nullopt;
    }
    uint32_t EntryRows = R.get32();
    if (!R.Ok || EntryRows > (1u << 24))
      return std::nullopt;
    W.Entries.resize(EntryRows);
    for (WorkerImage::EntryRow &E : W.Entries) {
      uint32_t FnLen = R.get32();
      if (!R.Ok || FnLen > (1u << 16))
        return std::nullopt;
      E.Fn.resize(FnLen);
      if (FnLen && !IS.read(E.Fn.data(), FnLen))
        return std::nullopt;
      uint32_t Words = R.get32();
      if (!R.Ok || Words > (1u << 26))
        return std::nullopt;
      E.Words.resize(Words);
      if (Words &&
          !IS.read(reinterpret_cast<char *>(E.Words.data()),
                   static_cast<std::streamsize>(Words * sizeof(uint32_t))))
        return std::nullopt;
      E.Addr = R.get32();
      E.Bytes = R.get64();
      E.Pinned = R.get8() != 0;
      if (E.Addr < layout::DynCodeBase || E.Addr >= W.CpReg)
        return std::nullopt;
    }
    if (!R.Ok)
      return std::nullopt;
  }
  return F;
}
