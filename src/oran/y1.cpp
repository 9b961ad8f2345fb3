#include "oran/y1.hpp"

#include "util/check.hpp"
#include "util/log.hpp"
#include "util/obs/obs.hpp"

namespace orev::oran {

Y1Service::Y1Service(const Operator* op) : operator_(op) {
  OREV_CHECK(op != nullptr, "Y1 service requires the operator");
}

bool Y1Service::subscribe(const Certificate& cert,
                          std::shared_ptr<Y1Consumer> consumer) {
  OREV_CHECK(consumer != nullptr, "null Y1 consumer");
  if (!operator_->verify_certificate(cert)) {
    log_warn("Y1 subscription rejected: invalid certificate for ",
             cert.subject);
    return false;
  }
  consumers_[cert.subject] = std::move(consumer);
  return true;
}

bool Y1Service::unsubscribe(const std::string& subject) {
  return consumers_.erase(subject) > 0;
}

void Y1Service::publish(const RaiReport& report) {
  static obs::Counter& published =
      obs::counter("oran.y1.published", "Y1 RAI reports published");
  static obs::SketchMetric& fanout_ms =
      obs::sketch("oran.y1.fanout_ms", 0.01, "Y1 consumer fan-out latency");
  published.inc();
  obs::ScopedTimerMs t(fanout_ms);
  ++published_;
  for (auto& [subject, consumer] : consumers_) {
    consumer->on_rai(report);
  }
}

}  // namespace orev::oran
