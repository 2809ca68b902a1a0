//===- WorkloadDrivers.h - Benchmark workload drivers -----------*- C++ -*-===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, deterministic input for each of the paper's ten benchmark
/// programs. Each driver builds its inputs on the machine's heap, calls the
/// program's entry point by name (so the call specializes on first use)
/// and returns every call's result. Tests that must hold for every
/// workload (template emission, code-space reset) share these drivers.
///
//===----------------------------------------------------------------------===//

#ifndef FAB_TESTS_WORKLOADDRIVERS_H
#define FAB_TESTS_WORKLOADDRIVERS_H

#include "workloads/Inputs.h"
#include "workloads/MlPrograms.h"

#include "bpf/Bpf.h"

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

namespace fab {
namespace test_drivers {

using DriverResults = std::vector<int32_t>;

inline DriverResults driveMatmul(Machine &M) {
  uint32_t V1 = M.heap().vector({0, 3, 0, 5, 2, 0, 0, 1});
  uint32_t V2 = M.heap().vector({9, 2, 7, 4, 1, 1, 8, 3});
  return {M.invokeOrDie<int32_t>("dotprod", {V1, V2})};
}

inline DriverResults driveFMatmul(Machine &M) {
  using namespace workloads;
  const uint32_t N = 4;
  std::vector<std::vector<float>> A(N, std::vector<float>(N, 0.0f)),
      B(N, std::vector<float>(N, 1.5f));
  A[0][1] = 2.0f;
  A[2][3] = -1.25f;
  A[3][0] = 0.5f;
  uint32_t Ar = buildRealRows(M, A);
  uint32_t Btr = buildRealRows(M, B);
  uint32_t Cr = buildRealRows(
      M, std::vector<std::vector<float>>(N, std::vector<float>(N, 0.0f)));
  return {M.invokeOrDie<int32_t>("fmatmul", {Ar, Btr, Cr})};
}

inline DriverResults drivePacketFilter(Machine &M) {
  bpf::Program F = bpf::telnetFilter();
  uint32_t Fv = M.heap().vector(F.Words);
  DriverResults Out;
  for (const auto &P : bpf::makeTrace(6, 99)) {
    uint32_t Pv = M.heap().vector(P);
    Out.push_back(M.invokeOrDie<int32_t>("runfilter", {Fv, Pv}));
  }
  return Out;
}

inline DriverResults driveRegexp(Machine &M) {
  using namespace workloads;
  Nfa N = compileRegex(vowelsInOrderPattern());
  uint32_t Prog = M.heap().vector(N.Prog);
  DriverResults Out;
  for (const char *W : {"facetious", "abstemious", "zzz"}) {
    uint32_t S = M.heap().string(W);
    Out.push_back(M.invokeOrDie<int32_t>("matches", {Prog, S}));
  }
  return Out;
}

inline DriverResults driveAssoc(Machine &M) {
  std::vector<std::pair<int32_t, int32_t>> Entries;
  for (int32_t I = 0; I < 64; ++I)
    Entries.push_back({I * 3 + 1, I * 100});
  uint32_t L = workloads::buildAList(M, Entries);
  DriverResults Out = {M.invokeOrDie<int32_t>("lookup", {L, 7}),
                       M.invokeOrDie<int32_t>("lookup", {L, 999999})};
  EXPECT_EQ(Out[0], 200);
  EXPECT_EQ(Out[1], -1);
  return Out;
}

inline DriverResults driveMember(Machine &M) {
  std::vector<int32_t> Elems;
  for (int32_t I = 0; I < 64; ++I)
    Elems.push_back(I * 7);
  uint32_t S = workloads::buildISet(M, Elems);
  DriverResults Out = {M.invokeOrDie<int32_t>("member", {S, 7 * 13}),
                       M.invokeOrDie<int32_t>("member", {S, 5})};
  EXPECT_EQ(Out[0], 1);
  EXPECT_EQ(Out[1], 0);
  return Out;
}

inline DriverResults driveLife(Machine &M) {
  uint32_t W = 0, H = 0;
  std::vector<int32_t> Cells = workloads::gliderGunCells(1, W, H);
  uint32_t S = workloads::buildISet(M, Cells);
  return {M.invokeOrDie<int32_t>("life", {S, 2, W * H, W})};
}

inline DriverResults driveIsort(Machine &M) {
  auto Words = workloads::wordList(12, 3);
  uint32_t Arr = workloads::buildStringArray(M, Words);
  return {M.invokeOrDie<int32_t>("sortall", {Arr})};
}

inline DriverResults driveCg(Machine &M) {
  using namespace workloads;
  const uint32_t N = 8, Iters = 4;
  Rng R(3);
  std::vector<std::vector<float>> A;
  std::vector<float> B;
  tridiagonalSystem(N, R, A, B);
  std::vector<std::vector<int32_t>> IdxRows;
  std::vector<std::vector<float>> ValRows;
  sparseFromDense(A, IdxRows, ValRows);
  uint32_t Ai = buildIntRowsV(M, IdxRows);
  uint32_t Av = buildRealRows(M, ValRows);
  uint32_t Bv = M.heap().vectorF(B);
  auto ZeroVec = [&] {
    return M.heap().vectorF(std::vector<float>(N, 0.0f));
  };
  uint32_t X = ZeroVec(), Rv = ZeroVec(), P = ZeroVec(), Ap = ZeroVec();
  return {M.invokeOrDie<int32_t>("cg", {Ai, Av, Bv, X, Rv, P, Ap, Iters})};
}

inline DriverResults drivePseudoknot(Machine &M) {
  const uint32_t Levels = 16;
  Rng R(17);
  std::vector<int32_t> Chk = workloads::constraintTable(Levels, 0.1, R);
  uint32_t ChkV = M.heap().vector(Chk);
  uint32_t Vals =
      M.heap().vector({1, 5, 3, 9, 2, 8, 0, 4, 6, 7, 11, 13, 2, 5, 1, 3});
  return {M.invokeOrDie<int32_t>("pkrun", {ChkV, Vals, Levels})};
}

struct WorkloadDriver {
  const char *Name;
  const char *Src;
  DriverResults (*Drive)(Machine &);
};

/// Test parameters print as the workload's name, not as raw bytes.
inline void PrintTo(const WorkloadDriver &W, std::ostream *OS) {
  *OS << W.Name;
}

/// The ten benchmark programs of workloads/MlPrograms.h, in header order.
inline const std::vector<WorkloadDriver> &allWorkloadDrivers() {
  static const std::vector<WorkloadDriver> All = {
      {"Matmul", workloads::MatmulSrc, driveMatmul},
      {"FMatmul", workloads::FMatmulSrc, driveFMatmul},
      {"PacketFilter", workloads::EvalSrc, drivePacketFilter},
      {"Regexp", workloads::RegexpSrc, driveRegexp},
      {"Assoc", workloads::AssocSrc, driveAssoc},
      {"Member", workloads::MemberSrc, driveMember},
      {"Life", workloads::LifeSrc, driveLife},
      {"Isort", workloads::IsortSrc, driveIsort},
      {"Cg", workloads::CgSrc, driveCg},
      {"Pseudoknot", workloads::PseudoknotSrc, drivePseudoknot},
  };
  return All;
}

} // namespace test_drivers
} // namespace fab

#endif // FAB_TESTS_WORKLOADDRIVERS_H
