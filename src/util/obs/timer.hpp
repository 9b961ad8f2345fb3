// Monotonic wall-clock primitives shared by the whole observability layer
// (latency sketches, trace spans) and by the benchmark CSV reporting —
// one clock, one epoch, no duplicated chrono boilerplate.
#pragma once

#include <chrono>
#include <cstdint>

namespace orev::obs {

/// Nanoseconds on the steady clock since process start. All trace spans
/// and timers share this epoch, so timestamps from different threads are
/// directly comparable (and chrome://tracing renders them on one axis).
std::uint64_t now_ns();

/// Monotonic wall-clock timer with total-elapsed and lap accessors.
class WallTimer {
 public:
  WallTimer() : start_(now_ns()), lap_(start_) {}

  /// Nanoseconds since construction (or the last reset()).
  std::uint64_t elapsed_ns() const { return now_ns() - start_; }

  /// Seconds since construction (or the last reset()).
  double seconds() const { return static_cast<double>(elapsed_ns()) * 1e-9; }

  /// Nanoseconds since the previous lap_ns() call (or construction), and
  /// start a new lap. Useful for per-iteration timing without re-creating
  /// timers.
  std::uint64_t lap_ns() {
    const std::uint64_t now = now_ns();
    const std::uint64_t d = now - lap_;
    lap_ = now;
    return d;
  }

  /// Seconds since the previous lap; starts a new lap.
  double lap_seconds() { return static_cast<double>(lap_ns()) * 1e-9; }

  /// Restart both the total and the lap clock.
  void reset() {
    start_ = now_ns();
    lap_ = start_;
  }

 private:
  std::uint64_t start_;
  std::uint64_t lap_;
};

}  // namespace orev::obs
