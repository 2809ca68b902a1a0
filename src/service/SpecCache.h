//===- SpecCache.h - Value-keyed specialization cache -----------*- C++ -*-===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A host-side cache mapping (function, early-argument *values*) to the
/// address of the specialization a Machine produced for them, tagged with
/// the machine's code epoch.
///
/// The paper's section 3.5 memo tables live inside the VM and key on
/// pointer/word equality of the early arguments, so they cannot recognize
/// equal data at a different heap address, cannot be shared across
/// machines, and are wiped — together with the addresses they return —
/// by every resetCodeSpace(). This cache closes those gaps for a serving
/// front-end: keys are deep FNV-1a hashes over the function name and the
/// early-argument values (heap vectors hashed element-wise via
/// HeapImage), entries carry the code epoch that produced them, and a
/// lookup in a later epoch reports the entry as stale so the caller
/// transparently re-specializes (a "rehydration") instead of jumping to
/// a dangling address. LRU eviction bounds the footprint; pinned entries
/// are never evicted.
///
//===----------------------------------------------------------------------===//

#ifndef FAB_SERVICE_SPECCACHE_H
#define FAB_SERVICE_SPECCACHE_H

#include "runtime/HeapImage.h"
#include "telemetry/Stats.h"

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace fab {
namespace service {

/// A host-side argument value: what a serving request carries instead of
/// machine addresses (each pool worker owns its own heap, so addresses
/// are meaningless across the wire). RealVec stores IEEE-754 bit
/// patterns; in heap representation int and real vectors are identical,
/// so they hash identically on purpose.
struct Value {
  enum class Kind : uint8_t { Int, Vec } K = Kind::Int;
  int32_t I = 0;
  std::vector<int32_t> Vec;

  static Value ofInt(int32_t V) {
    Value R;
    R.K = Kind::Int;
    R.I = V;
    return R;
  }
  static Value ofVec(std::vector<int32_t> V) {
    Value R;
    R.K = Kind::Vec;
    R.Vec = std::move(V);
    return R;
  }
  static Value ofRealVec(const std::vector<float> &V);

  bool operator==(const Value &Rhs) const {
    return K == Rhs.K && (K == Kind::Int ? I == Rhs.I : Vec == Rhs.Vec);
  }
};

/// Cache key: the function name plus the canonicalized early-argument
/// words, with a precomputed FNV-1a hash. Scalars contribute their word;
/// vectors contribute a tag, their length, and every element, matching
/// HeapImage::hashVector so in-heap and host-side values produce the
/// same key.
struct SpecKey {
  /// Per-argument tags: they keep [1] and 1 from colliding, and they make
  /// Words self-delimiting, so earlyValues() can decode the original
  /// argument list back out of a key (compaction re-specializes from
  /// exactly this).
  static constexpr uint32_t ScalarTag = 0x5Cu;
  static constexpr uint32_t VectorTag = 0x5Du;

  uint64_t Hash = HeapImage::FnvOffset;
  std::string Fn;
  std::vector<uint32_t> Words; ///< canonical key material (for exact equality)

  static SpecKey make(const std::string &Fn, const std::vector<Value> &Early);

  /// Decodes Words back into the early-argument values that produced the
  /// key (the tag stream is self-delimiting). Returns std::nullopt on a
  /// malformed stream — only possible for a hand-built key.
  std::optional<std::vector<Value>> earlyValues() const;

  /// Rebuilds a key (hash included) from its serialized Fn + Words —
  /// the warm-start loader's inverse of writing those two fields out.
  static SpecKey fromWords(std::string Fn, std::vector<uint32_t> W);

  /// Builds the key from arguments already materialized in a machine
  /// heap: \p IsVec flags which of \p ArgWords are heap vector pointers
  /// to hash deeply (the rest contribute their raw word).
  static SpecKey fromHeap(const std::string &Fn,
                          const std::vector<uint32_t> &ArgWords,
                          const std::vector<bool> &IsVec, const HeapImage &H);

  bool operator==(const SpecKey &Rhs) const {
    return Hash == Rhs.Hash && Fn == Rhs.Fn && Words == Rhs.Words;
  }
};

struct SpecKeyHash {
  size_t operator()(const SpecKey &K) const {
    return static_cast<size_t>(K.Hash);
  }
};

/// Everything policy-shaped about the cache layer, in one struct threaded
/// SpecCache -> PoolOptions -> ServerOptions -> fabserve flags (see
/// docs/SERVICE.md "Cache policy" and the docs/INTERNALS.md toggle
/// table). The admission doorkeeper lives inside SpecCache; compaction
/// and warm-start persistence are executed by the pool worker that owns
/// the cache, against the fields here.
struct CachePolicy {
  size_t Capacity = 1024;
  /// Ghost-LRU doorkeeper: a first-sighting insert that would force an
  /// eviction is refused and only the key's hash is remembered; the
  /// second sighting is admitted. A flood of one-shot keys therefore
  /// cannot evict the hot working set (scan resistance). FAB_ADMISSION=0
  /// vetoes process-wide; fabserve --no-admission.
  bool Admission = true;
  /// Hashes the ghost LRU remembers; 0 = auto (same as Capacity).
  size_t GhostCapacity = 0;
  /// Selective code-space rebuild: when a worker machine's dynamic
  /// segment crosses CompactWatermark * DynCodeBytes, re-specialize only
  /// pinned + hottest keys (up to CompactKeepFraction of the watermark
  /// budget, by recorded per-entry bytes) into a fresh segment before
  /// pressure makes the Machine's all-or-nothing reset wipe the cache.
  bool Compaction = true;
  double CompactWatermark = 0.75; ///< fraction of DynCodeBytes
  double CompactKeepFraction = 0.5;
  /// Warm-start persistence (docs/SERVICE.md "Cache policy" has the file
  /// format): LoadFile is restored worker-by-worker at boot, SaveFile is
  /// written at shutdown. FAB_CACHE_FILE=PATH sets both; FAB_CACHE_FILE=
  /// (empty) vetoes both.
  std::string LoadFile;
  std::string SaveFile;
};

/// The cache proper. Single-threaded by design: each pool worker owns
/// one, alongside its Machine (the sharding model — see MachinePool.h).
class SpecCache {
public:
  explicit SpecCache(const CachePolicy &Options);

  /// Returns the cached specialization address when present and produced
  /// in \p Epoch; a stale-epoch entry is erased and counted as a
  /// rehydration (and a miss).
  std::optional<uint32_t> lookup(const SpecKey &K, uint64_t Epoch);

  /// Records \p Addr for \p K under \p Epoch with \p Bytes of emitted
  /// code attributed to it, evicting the least recently used unpinned
  /// entry when over capacity. (If every entry is pinned the cache grows
  /// past capacity rather than dropping one.) With admission enabled, a
  /// full cache refuses a never-sighted key (returning false and
  /// recording the sighting in the ghost LRU) rather than evicting for
  /// it. Returns true when the entry is resident afterwards.
  bool insert(const SpecKey &K, uint32_t Addr, uint64_t Epoch,
              uint64_t Bytes = 0);

  /// Marks an entry as (un)evictable; returns false when absent.
  bool pin(const SpecKey &K, bool On);

  /// Drops every entry for function \p Fn — or every entry outright when
  /// \p Fn is empty — regardless of pinning, counting the drops as
  /// Invalidated (not Evictions). Returns the number dropped. This is
  /// the service-level invalidation primitive behind the wire
  /// Invalidate frame: the next request for a dropped key
  /// re-specializes.
  size_t invalidate(const std::string &Fn);

  /// Drops every entry without touching the eviction counter (used when
  /// the backing machine itself is replaced). The ghost LRU survives: it
  /// describes the request stream, not the machine.
  void clear();

  /// The keys a compaction should carry into the fresh code space:
  /// every pinned entry, then the hottest unpinned entries in LRU order,
  /// stopping once their recorded bytes exceed \p MaxBytes. Entries from
  /// epochs other than \p Epoch are stale and never planned.
  struct PlanEntry {
    SpecKey Key;
    bool Pinned = false;
  };
  std::vector<PlanEntry> compactionPlan(uint64_t MaxBytes,
                                        uint64_t Epoch) const;
  /// Compaction accounting, called by the worker that executed one.
  void noteCompaction(uint64_t Kept, uint64_t Dropped) {
    ++Stats.Compactions;
    Stats.CompactKept += Kept;
    Stats.CompactDropped += Dropped;
  }

  /// Warm-start persistence hooks. exportEntries() returns the resident
  /// entries coldest-first, so replaying them through importEntry()
  /// reproduces the LRU order; importEntry() bypasses the doorkeeper
  /// (the entry earned residency in a previous life) and counts
  /// WarmRestored.
  struct Exported {
    SpecKey Key;
    uint32_t Addr = 0;
    uint64_t Epoch = 0; ///< savers skip entries from stale epochs
    uint64_t Bytes = 0;
    bool Pinned = false;
  };
  std::vector<Exported> exportEntries() const;
  void importEntry(const SpecKey &K, uint32_t Addr, uint64_t Epoch,
                   uint64_t Bytes, bool Pinned);

  size_t size() const { return Map.size(); }
  const SpecCacheStats &stats() const { return Stats; }

private:
  struct Entry {
    uint32_t Addr = 0;
    uint64_t Epoch = 0;
    uint64_t Bytes = 0;
    bool Pinned = false;
    std::list<SpecKey>::iterator LruIt; ///< position in Lru (front = hottest)
  };

  /// Notes a doorkeeper sighting of \p K in the ghost LRU (a resident
  /// entry is not a sighting).
  void recordSighting(const SpecKey &K);
  void evictOne();
  void eraseEntry(std::unordered_map<SpecKey, Entry, SpecKeyHash>::iterator It);
  size_t ghostCapacity() const {
    return Policy.GhostCapacity ? Policy.GhostCapacity : Policy.Capacity;
  }

  CachePolicy Policy;
  std::list<SpecKey> Lru;
  std::unordered_map<SpecKey, Entry, SpecKeyHash> Map;
  /// Doorkeeper ghost LRU: hashes of refused keys, most recent at the
  /// front, bounded by ghostCapacity().
  std::list<uint64_t> Ghost;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> GhostMap;
  SpecCacheStats Stats;
};

} // namespace service
} // namespace fab

#endif // FAB_SERVICE_SPECCACHE_H
