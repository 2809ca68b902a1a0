//===- WireServer.h - TCP front-end over SpecServer -------------*- C++ -*-===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The network front-end that puts the specialization service on the
/// wire (docs/WIRE.md): a TCP listener speaking the Wire.h frame
/// protocol over a SpecServer. Connection I/O is reactor-driven and
/// SHARDED: N independent event loops (epoll, or poll-fallback), each
/// owning its own epoll set, timer wheel, done queue, and connection
/// table, so the server's thread count is fixed — acceptor + N reactors
/// + pool workers — no matter how many thousands of clients connect,
/// and network I/O scales across cores instead of saturating one.
///
/// Accept strategies (docs/WIRE.md "Sharding"): with SO_REUSEPORT, each
/// shard gets its own listening socket on the same address and the
/// kernel hashes connections across them; where the option is missing
/// (or FAB_REUSEPORT=0 vetoes it) a single listener round-robins
/// accepted fds over the shards. Either way ONE acceptor thread drives
/// admission, so the pinned thread count is identical in both modes.
///
/// Everything per-connection is shard-local: a connection's socket,
/// framing state, output buffer, idle timer, and in-flight count live
/// on exactly one shard and are touched only by that shard's reactor
/// thread. The only cross-shard traffic is pool submission (the
/// MachinePool was always shared) and the telemetry snapshot, which
/// still sums exactly: per-shard rows (ShardLoadRow) aggregate into the
/// Net/Reactor blocks, and closed connections fold their counters into
/// a per-shard aggregate at close time — O(shards) retained state, not
/// O(connections ever).
///
/// Requests pipeline freely because replies complete out of order: each
/// SubmitSpecialize/Call turns into SpecServer::submitAsync, whose
/// completion (running on the serving worker's thread) encodes the
/// reply and hands it to the owning shard through a lock-guarded done
/// queue plus a coalesced wakeup. Each reactor drains every complete
/// frame a readable socket buffered before moving on, so a burst of
/// pipelined same-key requests lands in one worker queue batch and
/// shares one specialization through that worker's SpecCache.
///
/// Limits are enforced where they are cheapest: MaxConns at accept
/// (refused with a typed Rejected before the connection ever reaches a
/// reactor), per-connection and global in-flight caps at dispatch
/// (typed Rejected with a retry-after hint; the connection stays
/// healthy), and idle timeouts on each shard's coarse timer wheel whose
/// notion of activity is *complete frames*, not bytes — a slow-loris
/// peer dripping header bytes is reaped on schedule while busy
/// pipelined connections (on any shard) are never touched.
///
/// All overload refusals from PR 6 — queue sheds, deadline misses,
/// breaker fast-fails — surface as typed Error frames carrying the
/// ABI-locked FabErrc code and an advisory retry-after hint; the
/// connection itself stays healthy. Only protocol violations (bad
/// magic/version, oversized or unparseable framing) cost the client its
/// connection, and even then every other connection is unaffected.
///
//===----------------------------------------------------------------------===//

#ifndef FAB_NET_WIRESERVER_H
#define FAB_NET_WIRESERVER_H

#include "net/Reactor.h"
#include "net/Socket.h"
#include "net/Transport.h"
#include "net/Wire.h"
#include "service/SpecServer.h"
#include "telemetry/TraceRing.h"

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace fab {
namespace net {

struct WireOptions {
  std::string BindAddr = "127.0.0.1";
  uint16_t Port = 0; ///< 0 = ephemeral; port() reports the bound one
  int Backlog = 64;
  uint32_t MaxFrameBytes = DefaultMaxFrameBytes;
  /// Advisory retry-after hints attached to overload refusals
  /// (microseconds): Rejected means "a queue slot frees within a batch
  /// drain", CircuitOpen means "the breaker cools down over
  /// CooldownRequests requests". Both are coarse by design — the point
  /// is to give remote clients *some* pacing signal instead of a naked
  /// error.
  uint32_t RetryAfterRejectedUs = 200;
  uint32_t RetryAfterCircuitUs = 5000;
  /// Connection admission ceiling: accepts past this many live
  /// connections are answered with a typed Rejected (tag 0) and closed.
  /// 0 = unlimited.
  unsigned MaxConns = 0;
  /// Reap a connection after this long with no *complete* frame decoded
  /// and no reply enqueued (dripped bytes do not count as activity, so
  /// slow-loris peers age out). Connections with requests in flight or
  /// unflushed replies are never reaped. 0 = disabled.
  uint64_t IdleTimeoutMs = 0;
  /// Pipelining ceilings: requests dispatched but not yet answered, per
  /// connection and across all connections. Excess requests get a typed
  /// Rejected with the retry-after hint; the connection survives.
  /// 0 = unlimited.
  unsigned MaxInFlightPerConn = 0;
  unsigned MaxInFlightGlobal = 0;
  /// Number of reactor shards (independent event loops). 1 = the
  /// single-reactor behaviour of PR 8, bit-identical semantics. 0 =
  /// auto: derived from std::thread::hardware_concurrency() (see
  /// autoShards()). Each shard costs one thread.
  unsigned Shards = 1;
  /// Accept via per-shard SO_REUSEPORT listeners when the platform has
  /// the option (kernel-hashed distribution). false — or FAB_REUSEPORT=0
  /// in the environment, or a runtime setsockopt/bind failure — falls
  /// back to a single listener whose acceptor round-robins fds over the
  /// shards. Irrelevant at Shards == 1.
  bool UseReusePort = true;
  /// Forces the poll(2) reactor backend even where epoll is available
  /// (fallback-path coverage). FAB_REACTOR=poll in the environment does
  /// the same. Applies to every shard.
  bool ForcePollReactor = false;
  /// Arms the server-side TraceRing (conn open/close, frame batches);
  /// drainTrace() empties it. Worker-side tracing is configured on the
  /// pool as before.
  bool EnableTrace = false;
  size_t TraceCapacity = 4096;
};

/// The Shards == 0 "auto" policy: half the hardware threads, clamped to
/// [1, 8] — the reactors share the machine with the pool workers.
unsigned autoShards();

/// Aggregate + per-connection wire counters (connectionStats()). Closed
/// connections are folded into one aggregate row per shard (Live =
/// false, ConnId = 0, Connections/Disconnects = how many folded) so
/// retention stays O(shards) under connection churn; row sums still
/// equal the telemetry aggregate exactly.
struct ConnStatsRow {
  uint64_t ConnId = 0;
  unsigned Shard = 0;
  bool Live = false;
  NetStats Net;
};

class WireServer {
public:
  /// \p S must outlive the server. stop() (or destruction) closes every
  /// connection but does not shut the SpecServer down — callers
  /// typically stop the wire first, then SpecServer::shutdown().
  WireServer(service::SpecServer &S, const WireOptions &Opts = {});
  ~WireServer();

  WireServer(const WireServer &) = delete;
  WireServer &operator=(const WireServer &) = delete;

  /// Binds, listens, and starts the accept thread plus one reactor
  /// thread per shard. False + \p Err when the port cannot be bound or
  /// a reactor cannot be set up.
  bool start(std::string *Err = nullptr);

  /// Stops intake, closes every connection (replies already encoded are
  /// flushed where the socket allows), joins every thread. Idempotent.
  void stop();

  bool running() const { return Running.load(std::memory_order_acquire); }
  uint16_t port() const { return BoundPort; }

  /// Shard count actually running (after the Shards == 0 auto policy).
  unsigned shards() const { return static_cast<unsigned>(Sh.size()); }

  /// True when accepts go through per-shard SO_REUSEPORT listeners;
  /// false = single listener + round-robin handoff (always false at one
  /// shard, or under FAB_REUSEPORT=0).
  bool usingReusePort() const { return ReusePortLive; }

  /// True when the live reactors are epoll-backed (false = poll
  /// fallback; the backend is uniform across shards).
  bool reactorUsingEpoll() const;

  /// SpecServer::telemetry() with the Net block filled in: the sum over
  /// every connection ever accepted (live and closed) across all
  /// shards, plus one ShardLoadRow per shard. The sums are exact
  /// against both connectionStats() and the shard rows — net_test and
  /// shard_test assert it. The Reactor block carries the event-loop
  /// gauges summed over shards.
  TelemetrySnapshot telemetry() const;

  /// One row per live connection plus one closed-aggregate row per
  /// shard that has ever lost a connection.
  std::vector<ConnStatsRow> connectionStats() const;

  /// Connections currently open, across all shards.
  unsigned liveConnections() const;

  /// Connections currently open on one shard (tests pin clients to
  /// shards in handoff mode and assert distribution).
  unsigned liveConnections(unsigned Shard) const;

  /// Takes the server's accumulated net trace events (ConnOpen,
  /// ConnClose, FrameRecv, FrameSend).
  std::vector<telemetry::TraceEvent> drainTrace();

private:
  struct Shard;

  /// All fields except Stats and the intake/done handoffs are owned by
  /// the owning shard's reactor thread — no locks, by construction.
  struct Conn {
    explicit Conn(uint32_t MaxFrameBytes) : FR(MaxFrameBytes) {}

    uint64_t Id = 0;
    Shard *Home = nullptr; ///< owning shard; set once at accept
    std::unique_ptr<Transport> Tr;
    FrameReader FR;

    // Preamble state machine: bytes accumulate here until the 8-byte
    // handshake can be judged; only then does frame decoding start.
    uint8_t Pre[PreambleBytes] = {0};
    size_t PreGot = 0;
    bool PreambleDone = false;

    // Outbound bytes not yet accepted by the kernel. Flat buffer with a
    // consumed prefix (compacted like FrameReader) so a stalled peer
    // costs one allocation, not one per reply.
    std::vector<uint8_t> Out;
    size_t OutPos = 0;

    bool WantWrite = false;      ///< EPOLLOUT armed
    bool DirtyOut = false;       ///< batched in the current done-drain
    bool ReadClosed = false;     ///< peer EOF seen; still flushing
    bool CloseAfterFlush = false;///< protocol refusal pending teardown
    bool Closed = false;         ///< torn down and folded into the shard

    unsigned InFlight = 0;       ///< dispatched, reply not yet queued
    uint64_t LastActivityMs = 0; ///< open / frame decoded / reply queued

    mutable std::mutex StatsMutex;
    NetStats Stats; // guarded by StatsMutex (read by external threads)
  };
  using ConnPtr = std::shared_ptr<Conn>;

  /// One completed request travelling worker -> owning shard's reactor.
  struct DoneItem {
    ConnPtr C;
    std::vector<uint8_t> Bytes;
    bool IsError = false;
  };

  /// One independent event loop: its own readiness set, timer wheel,
  /// done/intake queues, connection table, and closed-connection
  /// aggregate. Heap-allocated (stable address — Conn::Home points
  /// here) and touched by exactly one reactor thread except for the
  /// explicitly guarded handoff queues and stats.
  struct Shard {
    explicit Shard(bool ForcePoll) : Rx(ForcePoll) {}

    unsigned Index = 0;
    Reactor Rx;
    TimerWheel Wheel;
    std::thread Loop;

    /// Worker -> reactor completion handoff. WakePending coalesces pipe
    /// writes: only the first completion after a sweep pays one.
    std::mutex DoneMutex;
    std::vector<DoneItem> DoneQ; // guarded by DoneMutex
    std::atomic<bool> WakePending{false};

    /// Acceptor -> reactor new-connection handoff.
    std::mutex IntakeMutex;
    std::vector<ConnPtr> IntakeQ; // guarded by IntakeMutex

    /// Requests dispatched but unanswered on THIS shard's connections.
    /// Reactor thread only (dispatch and done-drain both run there).
    unsigned InFlight = 0;

    mutable std::mutex ConnsMutex;
    std::vector<ConnPtr> Conns; // open connections; guarded
    /// Closed connections fold their NetStats here at close time — the
    /// O(shards) replacement for the per-dead-connection row retention
    /// of PR 7/8 (unbounded under churn). Guarded by ConnsMutex.
    NetStats ClosedAgg;
    uint64_t ClosedConns = 0; // guarded by ConnsMutex

    mutable std::mutex RStatsMutex;
    ReactorStats RStats; // guarded by RStatsMutex
  };

  void runAccept();
  void admit(Socket &&S, Shard &Home);
  void runReactor(Shard &Sd);
  void intake(Shard &Sd, std::unordered_map<uint64_t, ConnPtr> &ById,
              uint64_t NowMs);
  void drainDone(Shard &Sd, std::unordered_map<uint64_t, ConnPtr> &ById,
                 uint64_t NowMs);
  void readReady(const ConnPtr &C, std::vector<uint8_t> &Buf, uint64_t NowMs);
  void handleFrame(const ConnPtr &C, Frame &&F);
  bool overCap(const ConnPtr &C) const;
  /// Queues bytes on the connection (reactor thread only), counting
  /// BytesOut always and FramesOut/ErrorsOut when \p IsFrame.
  void appendOut(const ConnPtr &C, const std::vector<uint8_t> &Bytes,
                 bool IsFrame, bool IsError);
  void sendError(const ConnPtr &C, uint64_t Tag, uint16_t Code,
                 uint32_t RetryUs, const std::string &Msg, bool CloseConn);
  /// Writes until done or EAGAIN; arms/disarms EPOLLOUT; closes the
  /// connection when it becomes close-eligible. False = conn was closed.
  bool flushOut(const ConnPtr &C);
  void closeConn(const ConnPtr &C);
  void onTimer(Shard &Sd, std::unordered_map<uint64_t, ConnPtr> &ById,
               uint64_t NowMs);
  /// The completion lambda body shared by submit and invalidate: push
  /// to the owning shard's done queue, wake its reactor (coalesced).
  void completeToShard(const ConnPtr &C, DoneItem &&D);
  uint32_t retryHint(FabErrc C) const;
  void trace(telemetry::EventKind K, uint64_t Arg0, uint64_t Arg1);

  service::SpecServer &Server;
  WireOptions Opts;
  /// One listener per shard in SO_REUSEPORT mode; exactly one (index 0)
  /// in handoff mode. All bound to the same port.
  std::vector<std::unique_ptr<Listener>> Lst;
  std::vector<std::unique_ptr<Shard>> Sh;
  uint16_t BoundPort = 0;
  bool ReusePortLive = false;
  std::thread Acceptor;
  std::atomic<bool> Running{false};
  std::atomic<bool> StopFlag{false};

  /// Round-robin shard cursor for handoff-mode accepts (acceptor thread
  /// only).
  unsigned NextShard = 0;

  /// Total requests dispatched but unanswered across all shards. The
  /// only hot-path cross-shard state; relaxed ordering is fine because
  /// the global cap is advisory pacing, not an exactness invariant (at
  /// one shard the reactor thread is the only writer, so the PR 8
  /// deterministic cap tests hold bit-identically).
  std::atomic<unsigned> GlobalInFlight{0};

  std::atomic<uint64_t> NextConnId{1};

  /// The ring is single-writer by contract; the wire layer has several
  /// writers (acceptor + shard reactors), so recording goes through
  /// TraceMutex. Rates here are per-batch, not per-instruction, so the
  /// lock is cold.
  std::mutex TraceMutex;
  telemetry::TraceRing Trace;
};

} // namespace net
} // namespace fab

#endif // FAB_NET_WIRESERVER_H
