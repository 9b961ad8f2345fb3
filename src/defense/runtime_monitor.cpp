#include "defense/runtime_monitor.hpp"

#include "util/check.hpp"

namespace orev::defense {

void SdlWriteMonitor::expect_writers(const std::string& ns,
                                     std::set<std::string> writers) {
  OREV_CHECK(!ns.empty(), "namespace must be non-empty");
  expected_[ns] = std::move(writers);
}

std::vector<WriteAlert> SdlWriteMonitor::scan(const oran::Sdl& sdl) {
  std::vector<WriteAlert> alerts;
  const auto& log = sdl.audit_log();
  // The audit log is a bounded ring: cursor_ is an absolute sequence
  // number, and the record at sequence s lives at index s - dropped.
  // Records evicted before we scanned them are skipped (they are gone).
  const std::uint64_t base = sdl.audit_dropped_records();
  if (cursor_ < base) cursor_ = base;
  for (; cursor_ - base < log.size(); ++cursor_) {
    const oran::AuditRecord& rec = log[cursor_ - base];
    if (rec.op != oran::Op::kWrite || !rec.allowed) continue;
    const auto it = expected_.find(rec.ns);
    if (it == expected_.end()) continue;  // unprotected namespace
    if (it->second.count(rec.app_id) == 0) {
      alerts.push_back(WriteAlert{rec.ns, rec.key, rec.app_id});
    }
  }
  alerts_ += alerts.size();
  return alerts;
}

TelemetryDriftDetector::TelemetryDriftDetector(double z_threshold,
                                               int warmup)
    : z_threshold_(z_threshold), warmup_(warmup) {
  OREV_CHECK(z_threshold > 0.0, "z threshold must be positive");
  OREV_CHECK(warmup >= 2, "warmup needs at least two samples");
}

void TelemetryDriftDetector::observe(const nn::Tensor& sample) {
  OREV_CHECK(profile_.features() == 0 ||
                 sample.numel() == profile_.features(),
             "drift detector sample shape changed");
  profile_.observe(sample.raw(), sample.numel());
}

double TelemetryDriftDetector::score(const nn::Tensor& sample) const {
  if (!warmed_up()) return 0.0;
  OREV_CHECK(sample.numel() == profile_.features(),
             "drift detector sample shape changed");
  return profile_.max_z(sample.raw(), sample.numel());
}

bool TelemetryDriftDetector::is_anomalous(const nn::Tensor& sample) const {
  return score(sample) >= z_threshold_;
}

}  // namespace orev::defense
