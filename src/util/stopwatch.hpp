#pragma once

/// \file stopwatch.hpp
/// Wall-clock timing for engine statistics and bench harnesses.

#include <chrono>

namespace genfv::util {

/// Monotonic stopwatch; starts running on construction.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(Clock::now()) {}

  /// Elapsed seconds since construction.
  double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace genfv::util
