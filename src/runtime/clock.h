#pragma once

#include <chrono>

namespace aptserve::runtime {

/// Real time for the async wall-clock serving mode, where latency is
/// measured for real: std::chrono::steady_clock rebased so the first
/// reading after construction is ~0, in seconds as double (only
/// differences are meaningful). The deterministic modes attach no Clock —
/// their timeline is the serving loop's virtual clock, which advances only
/// when the loop says so. Thread-safe (the epoch is immutable).
class Clock {
 public:
  Clock() : epoch_(std::chrono::steady_clock::now()) {}
  double Now() const {
    const auto dt = std::chrono::steady_clock::now() - epoch_;
    return std::chrono::duration<double>(dt).count();
  }

 private:
  const std::chrono::steady_clock::time_point epoch_;
};

}  // namespace aptserve::runtime
