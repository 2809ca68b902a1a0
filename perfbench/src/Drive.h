//===- Drive.h - Timed calls into each layer --------------------*- C++ -*-===//
//
// Part of the FABIUS benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything here times a layer from outside, through its public
/// functions: the compile pipeline (ml::parse, ml::typecheck,
/// analyzeStaging, compileProgram), lone machines (Machine::specialize /
/// invoke), the serving pool (SpecServer::submitAsync) and the wire
/// (the net/Wire.h codec over non-blocking loopback sockets).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_DRIVE_H
#define PERFBENCH_DRIVE_H

#include "Measure.h"
#include "Workloads.h"

#include "net/Socket.h"
#include "net/Wire.h"
#include "net/WireServer.h"
#include "service/SpecServer.h"
#include "support/Rng.h"

#include <memory>
#include <optional>
#include <unordered_map>

namespace pb {

/// Failure accounting shared by every path: typed errors, refusals,
/// timeouts and oracle mismatches all count as failed operations.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Mismatches = 0; ///< included in Failed
  Tally &operator+=(const Tally &R) {
    Attempted += R.Attempted;
    Failed += R.Failed;
    Mismatches += R.Mismatches;
    return *this;
  }
};

//===----------------------------------------------------------------------===//
// Compile
//===----------------------------------------------------------------------===//

struct CompileTimes {
  double ParseUs = 0, TypecheckUs = 0, StageUs = 0, CodegenUs = 0;
  double totalMs() const {
    return (ParseUs + TypecheckUs + StageUs + CodegenUs) / 1e3;
  }
};

/// The workload's source compiled Deferred (Def.Unit) and Plain, from one
/// parse.
struct Compiled {
  fab::Compilation Def;
  fab::CompiledUnit Plain;
  CompileTimes T;
  uint64_t staticWords() const {
    return Def.Unit.Code.size() + Plain.Code.size();
  }
};

/// Runs the pipeline stage by stage, timing each stage and recording a
/// compile.* span (children of one "compile" span) around it. Null on a
/// compile error (printed to stderr).
std::unique_ptr<Compiled> compileWorkload(const Workload &W, Tracer &T);

//===----------------------------------------------------------------------===//
// Lone machines and the reference oracle
//===----------------------------------------------------------------------===//

/// One Deferred machine and, optionally, one Plain machine and the AST
/// interpreter over one compilation. Each machine gets the workload's
/// inputs placed once per pool entry; Scratch arguments are zeroed again
/// before every call.
class Lone {
public:
  Lone(const Workload &W, const Compiled &C, bool WithPlain, bool WithInterp);

  /// specialize(early) then invoke at the returned address: the Deferred
  /// path. Adds host microseconds to \p SpecUs / \p InvUs when non-null
  /// and records machine.* spans for request \p Req.
  fab::FabResult<uint32_t> deferred(const Op &O, Tracer &T, uint64_t Req,
                                    std::vector<double> *SpecUs = nullptr,
                                    std::vector<double> *InvUs = nullptr);
  /// The Plain image, called with early ++ late.
  fab::FabResult<uint32_t> plain(const Op &O);
  /// The AST interpreter, called with early ++ late.
  std::optional<uint32_t> interp(const Op &O);

  fab::Machine &def() { return D; }
  fab::Machine *plainMachine() { return P.get(); }

  /// Guest instructions the last deferred() call's specialize executed
  /// and the code words it emitted.
  uint64_t lastGenInstrs() const { return GenInstrs; }
  uint64_t lastGenWords() const { return GenWords; }

private:
  struct Placed {
    std::vector<std::vector<uint32_t>> Early, Late;
  };
  const std::vector<uint32_t> &words(fab::Machine &M,
                                     std::vector<std::vector<uint32_t>> &Slots,
                                     const std::vector<Args> &Pool,
                                     uint32_t Idx);

  const Workload &W;
  fab::Machine D;
  std::unique_ptr<fab::Machine> P;
  std::unique_ptr<fab::ml::Interp> I;
  std::vector<Placed> PlD, PlP; ///< per program
  uint64_t GenInstrs = 0, GenWords = 0;
};

/// Expected raw result per op. Programs with a host oracle use it; the
/// paper's programs run on the Plain image and the AST interpreter, which
/// must agree. Results are memoized per (program, early, late).
class Oracle {
public:
  Oracle(const Workload &W, const Compiled &C);
  /// False when the references disagree or fail (a mismatch).
  bool expected(const Op &O, uint32_t &Out);

private:
  const Workload &W;
  std::unique_ptr<Lone> Ref; ///< paper programs only
  std::unordered_map<uint64_t, std::optional<uint32_t>> Memo;
};

//===----------------------------------------------------------------------===//
// The suite pass
//===----------------------------------------------------------------------===//

/// Per-program simulated costs of a pass.
struct ProgCost {
  uint64_t PlainCycles = 0;
  uint64_t DeferredCycles = 0; ///< specialize + run
  uint64_t GenInstrs = 0;      ///< of the specialize calls that emitted
  uint64_t GenWords = 0;
};

/// One in-process pass over W.SuiteOps: compile, then specialize, run and
/// check every call on fresh machines.
struct PassResult {
  double WallS = 0;
  uint64_t StaticWords = 0;
  std::vector<ProgCost> Costs; ///< per program
  fab::SpecializationStats Memo;
  fab::DecodeCacheStats Decode;
  fab::VmStats Vm; ///< the Deferred machine
  std::vector<double> SpecUs, InvUs;
  double MachineS = 0; ///< host seconds inside Deferred Machine calls
  Tally Ops;

  double simSpeedupGeomean() const;
  double genInstrsPerWord() const;
  /// The values two same-seed passes must reproduce exactly.
  std::vector<uint64_t> fingerprint() const;
};

PassResult suitePass(const Workload &W, Tracer &T);

//===----------------------------------------------------------------------===//
// Open loops
//===----------------------------------------------------------------------===//

struct LoopSpec;

/// One open-loop phase at one fixed rate.
struct LoopResult {
  LoopResult() = default;
  /// Reserves room for the samples \p S will produce.
  explicit LoopResult(const LoopSpec &S);

  double Rps = 0;
  std::vector<double> LatUs;  ///< completion - due, successful requests
  std::vector<double> LateUs; ///< sender lateness, every request
  Tally Ops;
  double FirstQuarterP50 = 0, LastQuarterP50 = 0;
  bool Aborted = false; ///< stopped early: the limit was clearly missed
  double StolenMs = 0;  ///< CPU time the hypervisor took during the phase

  /// No failure, p99 within \p LimitUs, sender kept up, and latency at the
  /// end of the phase not growing away from its start.
  bool meets(double LimitUs) const;
};

/// Phase parameters: rate, length, Poisson seed, and (for ladder probes)
/// the limit whose clear breach stops the phase early.
struct LoopSpec {
  double Rps = 0;
  double Seconds = 1;
  uint64_t Seed = 1;
  double AbortLimitUs = 0; ///< 0 = never abort
};

/// Exponential inter-arrival gaps from a seeded stream.
class Poisson {
public:
  Poisson(double Rps, uint64_t Seed) : Rps(Rps), R(Seed) {}
  uint64_t gapNs();

private:
  double Rps;
  fab::Rng R;
};

/// Fills the quarter medians of \p R from (due, latency) pairs.
void quarterMedians(std::vector<std::pair<uint64_t, double>> &DueLat,
                    LoopResult &R);

/// The modeled FAB-32 core's clock: simulated cycles per microsecond.
constexpr double CyclesPerUs = 25;

/// Service times, in modeled microseconds, of \p Requests consecutive
/// requests of W.Stream (W.OpsPerRequest calls each) on the lone Deferred
/// machine: the simulated cycles of their specialize and invoke calls at
/// CyclesPerUs. Every result is checked into \p T.
std::vector<double> modeledService(const Workload &W, Lone &L, Oracle &O,
                                   size_t Requests, Tally &T);

/// The in-process open loop in modeled time: requests arrive on the
/// seeded Poisson schedule of \p S and are served in order, one at a time,
/// with the service times \p ServiceUs (cycled); waiting follows Lindley's
/// recursion, so latencies are exact and deterministic per seed. Sends
/// \p Requests requests; the sender is never late.
LoopResult modeledLoop(const std::vector<double> &ServiceUs,
                       const LoopSpec &S, size_t Requests);

/// Wire form of the workload's inputs, converted on first use.
class WireValues {
public:
  explicit WireValues(const Workload &W)
      : W(W), E(W.Progs.size()), L(W.Progs.size()) {}
  const std::vector<fab::service::Value> &early(const Op &O);
  const std::vector<fab::service::Value> &late(const Op &O);

private:
  const Workload &W;
  std::vector<std::unordered_map<uint32_t, std::vector<fab::service::Value>>>
      E, L;
};

/// A SpecServer behind a WireServer on loopback, and the client's
/// non-blocking connections.
class Rig {
public:
  /// \p Recycle: the pool recycles worker heaps early (see
  /// serverOptions()).
  Rig(const Workload &W, const fab::Compilation &C, Oracle &O, WireValues &V,
      bool Recycle = false);
  ~Rig();
  Rig(const Rig &) = delete;
  Rig &operator=(const Rig &) = delete;

  /// Starts the listener and connects; false + \p Err on failure.
  bool start(std::string &Err);
  /// Sends \p Ops one at a time on connection 0 and waits for each reply,
  /// recording wire.rtt spans (with wire.encode / wire.decode children)
  /// under request ids Req0, Req0 + 1, ...
  Tally serial(const std::vector<Op> &Ops, std::vector<double> *RttUs,
               Tracer &T, uint64_t Req0 = 1);
  /// Serial pings on connection 0.
  bool pings(size_t N, std::vector<double> &RttUs);

  LoopResult openLoop(size_t &Cursor, const LoopSpec &S);

  fab::TelemetrySnapshot telemetry() const { return Wire->telemetry(); }

private:
  struct Conn {
    fab::net::Socket S;
    fab::net::FrameReader FR;
    std::vector<uint8_t> Out;
    size_t OutPos = 0;
  };
  bool flush(Conn &C);
  std::vector<uint8_t> encodeOp(uint64_t Tag, const Op &O);
  /// Waits for the reply tagged \p Tag on connection 0 (blocking, with a
  /// timeout), skipping late replies to earlier requests.
  bool awaitFrame(uint64_t Tag, fab::net::Frame &F, double TimeoutS);
  /// Checks a Result/Error reply for \p O; false = failed.
  bool checkReply(const fab::net::Frame &F, const Op &O, Tally &T);

  const Workload &W;
  Oracle &Orc;
  WireValues &Vals;
  std::unique_ptr<fab::service::SpecServer> Server;
  std::unique_ptr<fab::net::WireServer> Wire;
  std::vector<Conn> Conns;
  uint64_t NextTag = 1;
};

/// Replays \p Ops one at a time through SpecServer::submitAsync on a fresh
/// server (after replaying \p Warm untimed), timing submit -> Done and
/// recording service.submit spans under request ids 1, 2, ... \p OpsS is
/// the wall time of the \p Ops part.
Tally replayService(const Workload &W, const fab::Compilation &C, Oracle &O,
                    WireValues &V, const std::vector<Op> &Warm,
                    const std::vector<Op> &Ops, std::vector<double> &LatUs,
                    Tracer &T, double &OpsS);

/// Server options the workload asks for. With \p Recycle, a worker
/// recycles its heap once it has used W.TracedRecycleAfter bytes of it
/// (when set).
fab::service::ServerOptions serverOptions(const Workload &W,
                                          bool Recycle = false);

/// Median host milliseconds to build one worker machine from \p C: the
/// rebuild a heap recycle performs.
double machineBuildMs(const fab::Compilation &C, int Times);

} // namespace pb

#endif // PERFBENCH_DRIVE_H
