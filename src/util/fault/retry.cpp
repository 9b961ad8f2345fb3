#include "util/fault/retry.hpp"

#include <cmath>

#include "util/obs/metrics.hpp"
#include "util/rng.hpp"

namespace orev::fault {

double backoff_ms(const RetryPolicy& policy, int attempt,
                  std::uint64_t op_id) {
  const double raw = policy.base_backoff_ms *
                     std::pow(policy.multiplier, attempt - 1);
  const double capped = std::min(raw, policy.max_backoff_ms);
  if (policy.jitter_frac <= 0.0) return capped;
  // One uniform draw from a stream keyed on (jitter seed, op, attempt):
  // deterministic, and independent of every other operation's jitter.
  Rng rng = Rng(policy.jitter_seed).split(op_id * 16 +
                                          static_cast<std::uint64_t>(attempt));
  const double jitter =
      1.0 + policy.jitter_frac * (2.0 * rng.uniform() - 1.0);
  return capped * jitter;
}

namespace detail {

void record_retries(int extra_attempts, double backoff_ms_total) {
  static obs::Counter& retries =
      obs::counter("fault.retries", "extra attempts spent retrying ops");
  static obs::SketchMetric& backoff = obs::sketch(
      "fault.retry.backoff_ms", 0.01,
      "virtual backoff accumulated per retried operation");
  retries.inc(static_cast<std::uint64_t>(extra_attempts));
  backoff.observe(backoff_ms_total);
}

void record_exhausted() {
  static obs::Counter& exhausted = obs::counter(
      "fault.retry.exhausted", "operations that failed after all retries");
  exhausted.inc();
}

}  // namespace detail
}  // namespace orev::fault
