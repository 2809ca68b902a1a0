//===- CachePersist.h - Warm-start cache persistence ------------*- C++ -*-===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serialization of a MachinePool's warm state — per-worker memory
/// segments (static data with its memo tables and template pool, the
/// live heap prefix, the dynamic-code prefix), the bump registers, the
/// intern table, and the SpecCache contents — so a restarted server can
/// skip the cold phase entirely (CachePolicy::LoadFile / SaveFile).
///
/// Restoring is pure host-side block writes: Vm::writeBlock does not
/// count DynWordsWritten (it is a loader/DMA-style operation, the same
/// contract flushIcache documents), so a restored worker serves its
/// first warm request with **zero** generator words — the acceptance
/// criterion the persistence round-trip test pins.
///
/// File format (little-endian host words, docs/SERVICE.md "Cache
/// policy"):
///
///   magic "FABC" | u32 version | u64 fingerprint | u32 workers
///   per worker:
///     u32 hp, u32 cp
///     3 segments (static data, heap, dyn code), each:
///       u32 fullWords | u32 storedWords | storedWords * u32
///       (trailing zero words are trimmed; the loader zero-fills the
///       tail so the restored segment is byte-identical)
///     u32 internRows   | per row: u32 len, len * i32, u32 addr
///     u32 cacheEntries | per entry (coldest-first): u32 fnLen, fn
///       bytes, u32 words, words * u32, u32 addr, u64 bytes, u8 pinned
///
/// The fingerprint is FNV-1a over the compilation's code (staged unit,
/// template pool, and Plain image when present): a file written by a
/// different program version fails validation and is skipped — the
/// server just cold-starts.
///
//===----------------------------------------------------------------------===//

#ifndef FAB_SERVICE_CACHEPERSIST_H
#define FAB_SERVICE_CACHEPERSIST_H

#include "core/Fabius.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fab {
namespace service {

/// One worker's warm state, as captured at shutdown / replayed at boot.
struct WorkerImage {
  uint32_t HpReg = 0; ///< heap bump pointer (host top folded in)
  uint32_t CpReg = 0; ///< dynamic-code bump pointer

  /// A memory segment with its trailing zero words trimmed off.
  struct Segment {
    uint32_t FullWords = 0; ///< restored extent (tail zero-filled)
    std::vector<uint32_t> Words;
  };
  Segment StaticData; ///< [StaticDataBase, StaticDataEnd)
  Segment Heap;       ///< [HeapBase, HpReg)
  Segment DynCode;    ///< [DynCodeBase, CpReg)

  struct InternRow {
    std::vector<int32_t> Vec;
    uint32_t Addr = 0;
  };
  std::vector<InternRow> Intern;

  struct EntryRow {
    std::string Fn;
    std::vector<uint32_t> Words;
    uint32_t Addr = 0;
    uint64_t Bytes = 0;
    bool Pinned = false;
  };
  std::vector<EntryRow> Entries; ///< coldest-first (SpecCache::exportEntries)
};

struct CacheFile {
  uint64_t Fingerprint = 0;
  std::vector<WorkerImage> Workers;
};

/// FNV-1a over every code word the compilation would load (staged unit,
/// template pool, Plain image): the compatibility check for a cache file.
uint64_t compilationFingerprint(const Compilation &C);

/// Writes \p F to `<Path>.tmp`, then renames it over \p Path, so \p Path
/// always holds a whole file. Returns false on any I/O failure, leaving
/// \p Path as it was.
bool saveCacheFile(const std::string &Path, const CacheFile &F);

/// Reads \p Path, validating magic/version/fingerprint and every restored
/// extent against runtime/Layout.h: segments fit their regions, hp lies
/// in the heap, cp in the dynamic segment, entry addresses in
/// [DynCodeBase, cp) and intern addresses in [HeapBase, hp). nullopt
/// (never a partial file) on missing file, corruption, a field out of
/// range, or fingerprint mismatch.
std::optional<CacheFile> loadCacheFile(const std::string &Path,
                                       uint64_t ExpectFingerprint);

} // namespace service
} // namespace fab

#endif // FAB_SERVICE_CACHEPERSIST_H
