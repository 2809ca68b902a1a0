//===- TraceRing.h - Fixed-capacity lifecycle event ring --------*- C++ -*-===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-Machine ring buffer of typed lifecycle events: specialize
/// begin/end, memo hit/miss, template-burst flushes, code-space guard
/// trips and resets, plain-fallback engagement, decode-cache block
/// build/invalidate, and worker submit/complete. Each event is stamped
/// with wall-clock nanoseconds (one steady clock shared process-wide, so
/// multi-worker traces align), the simulated instruction count, and the
/// machine's code epoch — addresses in an event are only meaningful
/// within the epoch that recorded them, which is what keeps traces
/// readable across resetCodeSpace().
///
/// Cost discipline: recording is compiled in everywhere but guarded by a
/// single branch on the enable flag (an atomic so host threads can flip
/// it on a live machine; the VM caches a plain bool per run() call).
/// When the ring is full the oldest event is dropped and counted. The
/// ring is single-writer by design — it belongs to one Machine, which is
/// single-threaded; cross-thread readers must drain on the owning thread
/// (see MachinePool) or after it has quiesced.
///
/// Event names (entry-point strings) are interned in a process-wide
/// table so ids stay valid across machine rebuilds and can be resolved
/// when merging traces from many workers.
///
//===----------------------------------------------------------------------===//

#ifndef FAB_TELEMETRY_TRACERING_H
#define FAB_TELEMETRY_TRACERING_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fab {
namespace telemetry {

enum class EventKind : uint8_t {
  SpecializeBegin,  ///< generator run starting; Name = entry point
  SpecializeEnd,    ///< ... finished; Arg0 = code address (0 on failure),
                    ///< Arg1 = dyn words emitted
  MemoHit,          ///< specialize answered by the in-VM memo table
  MemoMiss,         ///< specialize ran the generator and emitted code
  TemplateFlush,    ///< template-burst copy; Arg0 = template addr of the
                    ///< first word, Arg1 = words copied (coalesced)
  CodeGuardTrip,    ///< code-space pressure stop; Arg0 = fault PC,
                    ///< Arg1 = trap value (~0 for the VM hard bound)
  CodeSpaceReset,   ///< resetCodeSpace(); Arg0 = bytes that were in use,
                    ///< Epoch = the new epoch
  BlockBuild,       ///< decode cache predecoded a block; Arg0 = base PC,
                    ///< Arg1 = instructions covered
  BlockInvalidate,  ///< cached block(s) dropped; Arg0 = first base PC,
                    ///< Arg1 = blocks dropped (coalesced)
  WorkerBegin,      ///< pool worker starts serving a request; Name = fn
  WorkerComplete,   ///< ... finished; Arg0 = 1 on success, 0 on error
  RequestShed,      ///< deadline passed before serving; Arg0 = ns late
  RequestRetry,     ///< transient failure being retried; Arg0 = attempt
                    ///< number, Arg1 = FabErrc of the failure
  BreakerOpen,      ///< entry-point breaker opened; Name = fn,
                    ///< Arg0 = consecutive failures
  BreakerProbe,     ///< half-open specialization probe; Name = fn
  BreakerClose,     ///< breaker closed after a successful probe; Name = fn
  ConnOpen,         ///< wire connection accepted; Arg0 = connection id
  ConnClose,        ///< ... closed; Arg0 = connection id, Arg1 = frames
                    ///< decoded over its lifetime
  FrameRecv,        ///< request frames decoded (coalesced per read
                    ///< batch); Arg0 = connection id, Arg1 = frames
  FrameSend,        ///< reply frames written (coalesced); Arg0 =
                    ///< connection id, Arg1 = frames
};

/// Stable lower-case token for an event kind (exporters, text dumps).
const char *eventName(EventKind K);

struct TraceEvent {
  EventKind Kind = EventKind::SpecializeBegin;
  uint16_t Name = 0;    ///< interned entry-point id, 0 = none
  uint32_t Epoch = 0;   ///< machine code epoch when recorded
  uint64_t TimeNs = 0;  ///< wall clock, ns since the process trace epoch
  uint64_t SimInstr = 0;///< cumulative simulated instructions executed
  uint64_t Arg0 = 0;
  uint64_t Arg1 = 0;
};

/// Process-wide name interning (thread-safe). Id 0 is the empty string.
uint16_t internName(std::string_view Name);
const std::string &internedName(uint16_t Id);

/// Nanoseconds on the shared steady clock since the process trace epoch.
uint64_t traceNowNs();

class TraceRing {
public:
  explicit TraceRing(size_t Capacity = 4096, bool Enabled = false)
      : EnabledFlag(Enabled) {
    Buf.resize(Capacity ? Capacity : 1);
  }

  // The atomic member makes the ring non-copyable; Vm owns exactly one.
  // Moving is allowed so a Vm itself stays movable (moves only happen
  // with the owning machine quiescent, like every other Vm member).
  TraceRing(const TraceRing &) = delete;
  TraceRing &operator=(const TraceRing &) = delete;
  TraceRing(TraceRing &&O) noexcept
      : EnabledFlag(O.enabled()), Buf(std::move(O.Buf)), Head(O.Head),
        Count(O.Count), Recorded(O.Recorded), Dropped(O.Dropped),
        CurEpoch(O.CurEpoch) {}
  TraceRing &operator=(TraceRing &&O) noexcept {
    setEnabled(O.enabled());
    Buf = std::move(O.Buf);
    Head = O.Head;
    Count = O.Count;
    Recorded = O.Recorded;
    Dropped = O.Dropped;
    CurEpoch = O.CurEpoch;
    return *this;
  }

  bool enabled() const { return EnabledFlag.load(std::memory_order_relaxed); }
  void setEnabled(bool On) {
    EnabledFlag.store(On, std::memory_order_relaxed);
  }

  /// Drops all events and resizes the ring.
  void reset(size_t Capacity) {
    Buf.assign(Capacity ? Capacity : 1, TraceEvent());
    Head = Count = 0;
    Recorded = Dropped = 0;
  }

  /// Epoch stamped into subsequent events (the owning Machine bumps this
  /// from resetCodeSpace()).
  void setEpoch(uint32_t E) { CurEpoch = E; }
  uint32_t epoch() const { return CurEpoch; }

  void record(EventKind K, uint64_t SimInstr, uint64_t Arg0 = 0,
              uint64_t Arg1 = 0, uint16_t Name = 0) {
    if (!enabled())
      return;
    push(make(K, SimInstr, Arg0, Arg1, Name));
  }

  /// Flood-friendly variant: when the newest event has the same kind and
  /// its SimInstr is within \p Window instructions, fold this occurrence
  /// into it (Arg1 accumulates \p Count, stamps advance) instead of
  /// appending. Template copies record one event per burst rather than
  /// one per word; mass invalidations record one event per reset.
  void recordMerged(EventKind K, uint64_t SimInstr, uint64_t Window,
                    uint64_t Arg0, uint64_t N = 1) {
    if (!enabled())
      return;
    if (TraceEvent *Tail = newest();
        Tail && Tail->Kind == K && Tail->Epoch == CurEpoch &&
        SimInstr - Tail->SimInstr <= Window) {
      Tail->Arg1 += N;
      Tail->SimInstr = SimInstr;
      Tail->TimeNs = traceNowNs();
      return;
    }
    push(make(K, SimInstr, Arg0, N, 0));
  }

  /// Oldest-first copy of the buffered events.
  std::vector<TraceEvent> snapshot() const {
    std::vector<TraceEvent> Out;
    Out.reserve(Count);
    for (size_t I = 0; I < Count; ++I)
      Out.push_back(Buf[(Head + I) % Buf.size()]);
    return Out;
  }

  /// snapshot() + clear the ring (counters keep accumulating).
  std::vector<TraceEvent> drain() {
    std::vector<TraceEvent> Out = snapshot();
    Head = Count = 0;
    return Out;
  }

  void clear() { Head = Count = 0; }

  size_t size() const { return Count; }
  size_t capacity() const { return Buf.size(); }
  uint64_t recorded() const { return Recorded; }
  uint64_t dropped() const { return Dropped; }

private:
  TraceEvent make(EventKind K, uint64_t SimInstr, uint64_t Arg0,
                  uint64_t Arg1, uint16_t Name) {
    TraceEvent E;
    E.Kind = K;
    E.Name = Name;
    E.Epoch = CurEpoch;
    E.TimeNs = traceNowNs();
    E.SimInstr = SimInstr;
    E.Arg0 = Arg0;
    E.Arg1 = Arg1;
    return E;
  }

  TraceEvent *newest() {
    return Count ? &Buf[(Head + Count - 1) % Buf.size()] : nullptr;
  }

  void push(const TraceEvent &E) {
    ++Recorded;
    if (Count == Buf.size()) {
      // Full: overwrite the oldest.
      Head = (Head + 1) % Buf.size();
      --Count;
      ++Dropped;
    }
    Buf[(Head + Count) % Buf.size()] = E;
    ++Count;
  }

  std::atomic<bool> EnabledFlag;
  std::vector<TraceEvent> Buf;
  size_t Head = 0;
  size_t Count = 0;
  uint64_t Recorded = 0; ///< events accepted over the ring's lifetime
  uint64_t Dropped = 0;  ///< ... of which overwritten before being read
  uint32_t CurEpoch = 0;
};

} // namespace telemetry
} // namespace fab

#endif // FAB_TELEMETRY_TRACERING_H
