//===- Workloads.h - The benchmark's seeded workloads -----------*- C++ -*-===//
//
// Part of the FABIUS benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload is a set of staged programs, pools of early and late
/// inputs drawn from the seed, and two operation sequences over them: the
/// suite pass (run in process through a lone Deferred machine, a lone
/// Plain machine and, for the paper's programs, the AST interpreter) and
/// the open-loop request stream. The program under test sees only the
/// generated inputs. docs: perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "core/Fabius.h"
#include "ml/Interp.h"
#include "service/SpecCache.h"

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace pb {

/// One argument, as host data. Scratch is a zero int vector the callee
/// may write; it is zeroed again before every call.
struct Arg {
  enum class Kind : uint8_t { Int, Vec, Reals, AList, ISet, Scratch };
  Kind K = Kind::Int;
  int32_t I = 0;
  std::vector<int32_t> V; ///< Vec / Scratch elements; AList k0,v0,k1,v1..;
                          ///< ISet elements
  std::vector<float> F;   ///< Reals elements

  static Arg num(int32_t X);
  static Arg vec(std::vector<int32_t> X);
  static Arg reals(std::vector<float> X);
  static Arg alist(std::vector<int32_t> KeyValues);
  static Arg iset(std::vector<int32_t> Elems);
  static Arg scratch(uint32_t Words);
};
using Args = std::vector<Arg>;

/// Host oracle over (early, late): the expected raw result bits.
using HostCheck = uint32_t (*)(const Args &Early, const Args &Late);

struct Program {
  std::string Name; ///< reporting name
  std::string Fn;   ///< staged entry point
  std::vector<Args> Early, Late;
  /// Null for the paper's programs, which are checked against the Plain
  /// image and ml::Interp instead.
  HostCheck Check = nullptr;
};

/// One call: program, early-pool index, late-pool index.
struct Op {
  uint16_t Prog = 0;
  uint32_t Early = 0;
  uint32_t Late = 0;
};

/// The open loop's fixed absolute rates (requests/s) and latency limit.
struct Rates {
  double Nominal = 0;
  double High = 0;
  std::vector<double> Ladder; ///< ascending
  double LimitUs = 0;         ///< p99 limit for the ladder
  /// Most requests one ladder probe sends: a probe of that many lasts long
  /// enough to show a backlog, and a run of them never fills a worker
  /// heap.
  double ProbeCalls = 24000;
};

struct Workload {
  std::string Name;
  std::string Source;
  std::set<std::string> MemoizedSelfCalls;
  std::vector<Program> Progs;
  std::vector<Op> SuiteOps; ///< the in-process pass
  std::vector<Op> Stream;   ///< open-loop calls, cycled
  unsigned OpsPerRequest = 1; ///< consecutive Stream calls per request
  std::vector<Op> Warmup;   ///< touched during set-up
  bool OverWire = false;    ///< open loop over loopback TCP, else in process
  bool ExpectNoGeneration = false; ///< measured phase must emit no code
  Rates R;

  /// Whether some program is checked against the AST interpreter (it has
  /// no host oracle).
  bool needsInterp() const {
    for (const Program &P : Progs)
      if (!P.Check)
        return true;
    return false;
  }

  // Cache policy and control traffic (OverWire only); the pool's
  // defaults unless set.
  size_t CacheCapacity = 1024;
  double CompactWatermark = 0.75;
  double CompactKeepFraction = 0.5;
  double InvalidateEveryS = 0; ///< 0 = never
  /// Worker heap bytes after which the traced run's pool recycles the
  /// heap; 0 = the pool's default margin.
  uint32_t TracedRecycleAfter = 0;
};

/// The workload names makeWorkload() accepts.
const std::vector<std::string> &workloadNames();

/// Builds workload \p Name from \p Seed; false when the name is unknown.
/// \p Tiny shortens the suite pass and warm-up (smoke tests).
bool makeWorkload(const std::string &Name, uint64_t Seed, bool Tiny,
                  Workload &Out);

/// Early ++ late, the argument list of the Plain image and the
/// interpreter (currying collapses there).
Args concat(const Args &A, const Args &B);

/// Lays \p A out in a machine heap / the interpreter's store; returns
/// the argument words.
std::vector<uint32_t> place(fab::Machine &M, const Args &A);
std::vector<uint32_t> place(fab::ml::Interp &I, const Args &A);
/// Zeroes every Scratch argument previously placed at \p Words.
void rezero(fab::Machine &M, const Args &A, const std::vector<uint32_t> &Words);

/// Whether \p A has a wire form (no datatype arguments).
bool wireForm(const Args &A);
/// Wire form of \p A; requires wireForm(A).
std::vector<fab::service::Value> toValues(const Args &A);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
