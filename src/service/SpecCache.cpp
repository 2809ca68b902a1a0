//===- SpecCache.cpp ------------------------------------------------------===//

#include "service/SpecCache.h"

#include <bit>

using namespace fab;
using namespace fab::service;

Value Value::ofRealVec(const std::vector<float> &V) {
  Value R;
  R.K = Kind::Vec;
  R.Vec.reserve(V.size());
  for (float F : V)
    R.Vec.push_back(static_cast<int32_t>(std::bit_cast<uint32_t>(F)));
  return R;
}

namespace {

void hashWord(SpecKey &K, uint32_t W) {
  K.Hash = HeapImage::fnv1aWord(K.Hash, W);
  K.Words.push_back(W);
}

} // namespace

SpecKey SpecKey::make(const std::string &Fn, const std::vector<Value> &Early) {
  SpecKey K;
  K.Fn = Fn;
  for (char C : Fn)
    K.Hash = HeapImage::fnv1aWord(K.Hash, static_cast<unsigned char>(C));
  for (const Value &V : Early) {
    if (V.K == Value::Kind::Int) {
      hashWord(K, ScalarTag);
      hashWord(K, static_cast<uint32_t>(V.I));
    } else {
      hashWord(K, VectorTag);
      hashWord(K, static_cast<uint32_t>(V.Vec.size()));
      for (int32_t E : V.Vec)
        hashWord(K, static_cast<uint32_t>(E));
    }
  }
  return K;
}

std::optional<std::vector<Value>> SpecKey::earlyValues() const {
  std::vector<Value> Early;
  size_t I = 0;
  while (I < Words.size()) {
    if (Words[I] == ScalarTag) {
      if (I + 1 >= Words.size())
        return std::nullopt;
      Early.push_back(Value::ofInt(static_cast<int32_t>(Words[I + 1])));
      I += 2;
    } else if (Words[I] == VectorTag) {
      if (I + 1 >= Words.size())
        return std::nullopt;
      size_t Len = Words[I + 1];
      if (I + 2 + Len > Words.size())
        return std::nullopt;
      std::vector<int32_t> Elems;
      Elems.reserve(Len);
      for (size_t J = 0; J < Len; ++J)
        Elems.push_back(static_cast<int32_t>(Words[I + 2 + J]));
      Early.push_back(Value::ofVec(std::move(Elems)));
      I += 2 + Len;
    } else {
      return std::nullopt;
    }
  }
  return Early;
}

SpecKey SpecKey::fromWords(std::string Fn, std::vector<uint32_t> W) {
  SpecKey K;
  K.Fn = std::move(Fn);
  for (char C : K.Fn)
    K.Hash = HeapImage::fnv1aWord(K.Hash, static_cast<unsigned char>(C));
  for (uint32_t Word : W)
    K.Hash = HeapImage::fnv1aWord(K.Hash, Word);
  K.Words = std::move(W);
  return K;
}

SpecKey SpecKey::fromHeap(const std::string &Fn,
                          const std::vector<uint32_t> &ArgWords,
                          const std::vector<bool> &IsVec, const HeapImage &H) {
  std::vector<Value> Early;
  Early.reserve(ArgWords.size());
  for (size_t I = 0; I < ArgWords.size(); ++I) {
    if (I < IsVec.size() && IsVec[I])
      Early.push_back(Value::ofVec(H.readVector(ArgWords[I])));
    else
      Early.push_back(Value::ofInt(static_cast<int32_t>(ArgWords[I])));
  }
  return make(Fn, Early);
}

SpecCache::SpecCache(const CachePolicy &Options) : Policy(Options) {}

std::optional<uint32_t> SpecCache::lookup(const SpecKey &K, uint64_t Epoch) {
  auto It = Map.find(K);
  if (It == Map.end()) {
    ++Stats.Misses;
    return std::nullopt;
  }
  if (It->second.Epoch != Epoch) {
    eraseEntry(It);
    ++Stats.Rehydrations;
    ++Stats.Misses;
    return std::nullopt;
  }
  ++Stats.Hits;
  Lru.splice(Lru.begin(), Lru, It->second.LruIt);
  return It->second.Addr;
}

bool SpecCache::insert(const SpecKey &K, uint32_t Addr, uint64_t Epoch,
                       uint64_t Bytes) {
  auto It = Map.find(K);
  if (It != Map.end()) {
    It->second.Addr = Addr;
    It->second.Epoch = Epoch;
    It->second.Bytes = Bytes;
    Lru.splice(Lru.begin(), Lru, It->second.LruIt);
    return true;
  }
  if (Map.size() >= Policy.Capacity) {
    if (Policy.Admission) {
      auto GIt = GhostMap.find(K.Hash);
      if (GIt == GhostMap.end()) {
        // First sighting of a key that would force an eviction: refuse,
        // remember only the hash. Its second occurrence earns admission.
        recordSighting(K);
        ++Stats.AdmissionRejects;
        return false;
      }
      Ghost.erase(GIt->second);
      GhostMap.erase(GIt);
      ++Stats.AdmissionAdmits;
    }
    evictOne();
  }
  Lru.push_front(K);
  Entry E;
  E.Addr = Addr;
  E.Epoch = Epoch;
  E.Bytes = Bytes;
  E.LruIt = Lru.begin();
  Map.emplace(K, E);
  return true;
}

void SpecCache::evictOne() {
  for (auto It = Lru.rbegin(); It != Lru.rend(); ++It) {
    auto MapIt = Map.find(*It);
    if (MapIt != Map.end() && !MapIt->second.Pinned) {
      eraseEntry(MapIt);
      ++Stats.Evictions;
      return;
    }
  }
  // Everything pinned: grow past capacity rather than drop a pin.
}

void SpecCache::eraseEntry(
    std::unordered_map<SpecKey, Entry, SpecKeyHash>::iterator It) {
  Lru.erase(It->second.LruIt);
  Map.erase(It);
}

bool SpecCache::pin(const SpecKey &K, bool On) {
  auto It = Map.find(K);
  if (It == Map.end())
    return false;
  It->second.Pinned = On;
  return true;
}

size_t SpecCache::invalidate(const std::string &Fn) {
  size_t Dropped = 0;
  if (Fn.empty()) {
    Dropped = Map.size();
    clear();
  } else {
    for (auto It = Map.begin(); It != Map.end();) {
      if (It->first.Fn == Fn) {
        Lru.erase(It->second.LruIt);
        It = Map.erase(It);
        ++Dropped;
      } else {
        ++It;
      }
    }
  }
  Stats.Invalidated += Dropped;
  return Dropped;
}

void SpecCache::clear() {
  Map.clear();
  Lru.clear();
}

void SpecCache::recordSighting(const SpecKey &K) {
  auto GIt = GhostMap.find(K.Hash);
  if (GIt != GhostMap.end()) {
    Ghost.splice(Ghost.begin(), Ghost, GIt->second);
    return;
  }
  if (Ghost.size() >= ghostCapacity()) {
    GhostMap.erase(Ghost.back());
    Ghost.pop_back();
  }
  Ghost.push_front(K.Hash);
  GhostMap.emplace(K.Hash, Ghost.begin());
}

std::vector<SpecCache::PlanEntry>
SpecCache::compactionPlan(uint64_t MaxBytes, uint64_t Epoch) const {
  std::vector<PlanEntry> Plan;
  Plan.reserve(Map.size());
  // Pinned entries first — they survive regardless of the byte budget.
  for (const auto &[K, E] : Map)
    if (E.Pinned && E.Epoch == Epoch)
      Plan.push_back({K, true});
  // Then the hottest unpinned entries, front-of-LRU first, until the
  // recorded bytes would blow the budget.
  uint64_t Budget = 0;
  for (const SpecKey &K : Lru) {
    auto It = Map.find(K);
    if (It == Map.end() || It->second.Pinned || It->second.Epoch != Epoch)
      continue;
    if (Budget + It->second.Bytes > MaxBytes)
      break;
    Budget += It->second.Bytes;
    Plan.push_back({K, false});
  }
  return Plan;
}

std::vector<SpecCache::Exported> SpecCache::exportEntries() const {
  std::vector<Exported> Out;
  Out.reserve(Map.size());
  // Coldest-first: replaying through importEntry() rebuilds the same
  // LRU order (each import lands at the front).
  for (auto It = Lru.rbegin(); It != Lru.rend(); ++It) {
    auto MapIt = Map.find(*It);
    if (MapIt == Map.end())
      continue;
    Out.push_back({MapIt->first, MapIt->second.Addr, MapIt->second.Epoch,
                   MapIt->second.Bytes, MapIt->second.Pinned});
  }
  return Out;
}

void SpecCache::importEntry(const SpecKey &K, uint32_t Addr, uint64_t Epoch,
                            uint64_t Bytes, bool Pinned) {
  if (Map.size() >= Policy.Capacity && !Map.count(K))
    evictOne();
  Lru.push_front(K);
  Entry E;
  E.Addr = Addr;
  E.Epoch = Epoch;
  E.Bytes = Bytes;
  E.Pinned = Pinned;
  E.LruIt = Lru.begin();
  auto [It, Inserted] = Map.emplace(K, E);
  if (!Inserted) {
    Lru.erase(It->second.LruIt);
    It->second = E;
  }
  ++Stats.WarmRestored;
}
