//===- unit_test.cpp - The benchmark's own measurement math ---------------===//
//
// Part of the FABIUS benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks the percentile, span self-time, layer-peeling and modeled-loop
/// arithmetic the benchmark reports, and the seed determinism of its
/// workloads. Exits 1 on any failure. Run: perfbench_unit (or
/// perfbench/tests/smoke.py).
///
//===----------------------------------------------------------------------===//

#include "Drive.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace pb;

namespace {

int Failures = 0;

#define CHECK(Cond)                                                            \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__,    \
                   #Cond);                                                     \
      ++Failures;                                                              \
    }                                                                          \
  } while (0)

bool near(double A, double B) { return std::fabs(A - B) < 1e-9; }

void testPercentiles() {
  CHECK(nearestRank(0, 0.5) == 0);
  CHECK(nearestRank(1, 0.99) == 1);
  CHECK(nearestRank(100, 0.5) == 50);
  CHECK(nearestRank(1000, 0.99) == 990);
  CHECK(nearestRank(1001, 0.99) == 991);

  std::vector<double> V;
  for (int I = 1000; I >= 1; --I)
    V.push_back(I); // unsorted on purpose
  Percentile P = percentile(V, 0.99);
  CHECK(near(P.Value, 990));
  CHECK(P.N == 1000);
  CHECK(P.Enough); // exactly 10 samples above rank 990
  CHECK(near(percentile(V, 0.5).Value, 500));

  V.pop_back(); // 999 samples: rank 990, only 9 above
  CHECK(!percentile(V, 0.99).Enough);
  CHECK(percentile({}, 0.5).N == 0);
  CHECK(!percentile({}, 0.5).Enough);

  // A stall that makes 5% of the requests late decides the p99, however
  // few stretches of the phase it falls in.
  std::vector<double> Stalled(10000, 100);
  for (size_t I = 3000; I < 3500; ++I)
    Stalled[I] = 20000;
  CHECK(near(percentile(Stalled, 0.99).Value, 20000));
  CHECK(near(percentile(Stalled, 0.50).Value, 100));

  CHECK(near(median({3, 1, 2}), 2));
  CHECK(near(median({4, 1, 3, 2}), 2.5));
  CHECK(near(geomean({2, 8}), 4));
}

Span span(uint32_t Id, uint32_t Parent, uint64_t Req, const char *Name,
          uint64_t B, uint64_t E) {
  Span S;
  S.Id = Id;
  S.Parent = Parent;
  S.Req = Req;
  S.Name = Name;
  S.BeginNs = B;
  S.EndNs = E;
  return S;
}

const SelfTime *find(const std::vector<SelfTime> &V, const std::string &N) {
  for (const SelfTime &S : V)
    if (S.Name == N)
      return &S;
  return nullptr;
}

void testSelfTimes() {
  // Root 0..10000 ns with children 1000..3000, 2000..5000 (overlapping:
  // union 1000..5000) and 9000..12000 (clipped to 9000..10000).
  std::vector<Span> S = {
      span(1, 0, 1, "root", 0, 10000), span(2, 1, 1, "a", 1000, 3000),
      span(3, 1, 1, "a", 2000, 5000), span(4, 1, 1, "b", 9000, 12000),
      span(5, 2, 1, "c", 1500, 2500)};
  std::vector<SelfTime> T = selfTimes(S);
  const SelfTime *Root = find(T, "root");
  const SelfTime *A = find(T, "a");
  CHECK(Root && near(Root->TotalUs, 10) && near(Root->SelfUs, 5));
  CHECK(A && A->Count == 2 && near(A->TotalUs, 5) && near(A->SelfUs, 4));
  CHECK(find(T, "b") && near(find(T, "b")->SelfUs, 3));
}

void testPeel() {
  // Two requests through machine (two spans), service, wire; request 3
  // lacks the wire layer and is skipped; child spans never count.
  std::vector<Span> S = {
      span(1, 0, 1, "machine.specialize", 0, 2000),
      span(2, 0, 1, "machine.invoke", 5000, 6000),
      span(3, 0, 2, "machine.invoke", 0, 3000),
      span(4, 0, 1, "service.submit", 0, 10000),
      span(5, 0, 2, "service.submit", 0, 7000),
      span(6, 0, 1, "wire.rtt", 0, 30000),
      span(7, 6, 1, "wire.encode", 0, 25000),
      span(8, 0, 2, "wire.rtt", 0, 20000),
      span(9, 0, 3, "service.submit", 0, 99000),
      span(10, 0, 3, "machine.invoke", 0, 99000)};
  std::vector<PeelRow> R =
      peel(S, {{"machine.specialize", "machine.invoke"},
               {"service.submit"},
               {"wire.rtt"}});
  CHECK(R.size() == 3);
  CHECK(R[0].Requests == 2 && near(R[0].MeanTotalUs, 3) &&
        near(R[0].MeanSelfUs, 3));
  CHECK(near(R[1].MeanTotalUs, 8.5) && near(R[1].MeanSelfUs, 5.5));
  CHECK(near(R[2].MeanTotalUs, 25) && near(R[2].MeanSelfUs, 16.5));
}

void testTracer() {
  Tracer Off(false);
  CHECK(Off.begin("x") == 0);
  Off.end(0);
  CHECK(Off.spans().empty());
  Tracer On(true);
  uint32_t P = On.begin("p", 0, 7);
  {
    Scope C(On, "c", P, 7);
  }
  On.end(P);
  CHECK(On.spans().size() == 2 && On.spans()[1].Parent == P &&
        On.spans()[1].Req == 7 && On.spans()[0].EndNs >= On.spans()[1].EndNs);
}

void testLoopVerdict() {
  LoopResult R;
  for (int I = 0; I < 2000; ++I) {
    R.LatUs.push_back(100);
    R.LateUs.push_back(1);
  }
  R.FirstQuarterP50 = R.LastQuarterP50 = 100;
  CHECK(R.meets(500));
  CHECK(!R.meets(50));
  R.LastQuarterP50 = 400; // backlog grew through the phase
  CHECK(!R.meets(500));
  R.LastQuarterP50 = 100;
  R.Ops.Failed = 1; // a failed request misses the limit
  CHECK(!R.meets(500));
}

void testModeledLoop() {
  LoopSpec S;
  S.Rps = 1; // arrivals a second apart: nobody waits
  S.Seed = 3;
  LoopResult Idle = modeledLoop({100, 200}, S, 2000);
  CHECK(Idle.LatUs.size() == 2000 && near(Idle.LatUs[0], 100) &&
        near(Idle.LatUs[1], 200) && near(percentile(Idle.LateUs, 1).Value, 0));
  CHECK(Idle.meets(500) && !Idle.meets(150));
  S.Rps = 1e6; // far past capacity: the backlog grows through the phase
  LoopResult Over = modeledLoop({100}, S, 2000);
  CHECK(Over.LatUs.back() > 100 * Over.LatUs.front() &&
        Over.LastQuarterP50 > 2 * Over.FirstQuarterP50 && !Over.meets(1e5));
  LoopResult Again = modeledLoop({100}, S, 2000);
  CHECK(Again.LatUs == Over.LatUs);
}

void testSeeds() {
  for (const std::string &N : workloadNames()) {
    Workload A, B, C;
    CHECK(makeWorkload(N, 7, false, A));
    CHECK(makeWorkload(N, 7, false, B));
    CHECK(makeWorkload(N, 8, false, C));
    auto Same = [](const Workload &X, const Workload &Y) {
      if (X.Stream.size() != Y.Stream.size())
        return false;
      for (size_t I = 0; I < X.Stream.size(); ++I)
        if (X.Stream[I].Prog != Y.Stream[I].Prog ||
            X.Stream[I].Early != Y.Stream[I].Early ||
            X.Stream[I].Late != Y.Stream[I].Late)
          return false;
      for (size_t P = 0; P < X.Progs.size(); ++P)
        for (size_t E = 0; E < X.Progs[P].Early.size(); ++E)
          for (size_t K = 0; K < X.Progs[P].Early[E].size(); ++K)
            if (X.Progs[P].Early[E][K].V != Y.Progs[P].Early[E][K].V ||
                X.Progs[P].Early[E][K].I != Y.Progs[P].Early[E][K].I)
              return false;
      return true;
    };
    CHECK(Same(A, B));
    CHECK(!Same(A, C));
  }
  Workload W;
  CHECK(!makeWorkload("no-such-workload", 1, false, W));
}

} // namespace

int main() {
  testPercentiles();
  testSelfTimes();
  testPeel();
  testTracer();
  testLoopVerdict();
  testModeledLoop();
  testSeeds();
  if (Failures) {
    std::fprintf(stderr, "perfbench_unit: %d failure(s)\n", Failures);
    return 1;
  }
  std::printf("perfbench_unit: all checks passed\n");
  return 0;
}
