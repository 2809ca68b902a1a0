//===- ParkFirstRequest.h - Hold a one-worker pool in its first request ---===//
//
// Part of the FABIUS reproduction of Lee & Leone, PLDI 1996.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A BeforeRequest hook that parks a one-worker pool inside its first
/// request until release(), so whatever is submitted meanwhile is queued
/// (and drained afterwards as one batch).
///
/// A test that parks the worker must release it on every path out, or
/// ~SpecServer joins a worker that never wakes and the test hangs
/// instead of failing. Declare the guard from releaseOnExit() after the
/// server, so it runs first:
///
///   ParkFirstRequest Park;
///   SO.Pool.BeforeRequest = Park.hook();
///   SpecServer S(C, SO);
///   auto Unpark = Park.releaseOnExit();
///
//===----------------------------------------------------------------------===//

#ifndef FAB_TESTS_PARKFIRSTREQUEST_H
#define FAB_TESTS_PARKFIRSTREQUEST_H

#include "core/Fabius.h"

#include <cstdint>
#include <functional>
#include <future>

namespace fab {

struct ParkFirstRequest {
  std::promise<void> EnteredP, ReleaseP;
  std::future<void> Entered = EnteredP.get_future();
  std::shared_future<void> Released = ReleaseP.get_future().share();
  bool Parked = false;   ///< written by the worker only
  bool Unparked = false; ///< written by the test thread only

  std::function<void(unsigned, Machine &, uint64_t)> hook() {
    return [this](unsigned, Machine &, uint64_t Seq) {
      if (Seq == 1 && !Parked) {
        Parked = true;
        EnteredP.set_value();
        Released.wait();
      }
    };
  }
  /// Lets the parked worker go; later calls do nothing.
  void release() {
    if (!Unparked) {
      Unparked = true;
      ReleaseP.set_value();
    }
  }

  /// Calls release() when it goes out of scope.
  struct Guard {
    explicit Guard(ParkFirstRequest &P) : Park(P) {}
    ~Guard() { Park.release(); }
    Guard(const Guard &) = delete;
    Guard &operator=(const Guard &) = delete;
    ParkFirstRequest &Park;
  };
  [[nodiscard]] Guard releaseOnExit() { return Guard(*this); }
};

} // namespace fab

#endif // FAB_TESTS_PARKFIRSTREQUEST_H
