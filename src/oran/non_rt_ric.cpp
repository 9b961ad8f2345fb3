#include "oran/non_rt_ric.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/log.hpp"
#include "util/obs/obs.hpp"

namespace orev::oran {

NonRtRic::NonRtRic(Rbac* rbac, const OnboardingService* onboarding,
                   int history_window)
    : rbac_(rbac),
      onboarding_(onboarding),
      sdl_(rbac),
      history_window_(history_window) {
  OREV_CHECK(rbac != nullptr && onboarding != nullptr,
             "NonRtRic requires RBAC and onboarding services");
  OREV_CHECK(history_window > 0, "history window must be positive");
  if (!rbac_->has_role("ric-platform-internal")) {
    rbac_->define_role("ric-platform-internal",
                       {Permission{"*", /*read=*/true, /*write=*/true}});
  }
  rbac_->assign_role(kRicPlatformId, "ric-platform-internal");
}

bool NonRtRic::register_rapp(std::shared_ptr<RApp> app,
                             const std::string& app_id, int priority) {
  OREV_CHECK(app != nullptr, "null rApp");
  if (!onboarding_->is_onboarded(app_id)) {
    log_warn("rApp registration rejected (not onboarded): ", app_id);
    return false;
  }
  app->app_id_ = app_id;
  rapps_.push_back(Registration{std::move(app), priority});
  std::stable_sort(rapps_.begin(), rapps_.end(),
                   [](const Registration& a, const Registration& b) {
                     return a.priority < b.priority;
                   });
  stats_.emplace(app_id, RAppDispatchStats{});
  return true;
}

void NonRtRic::connect_o1(O1Interface* o1) {
  OREV_CHECK(o1 != nullptr, "null O1 interface");
  o1_ = o1;
}

void NonRtRic::set_fault_injector(fault::FaultInjector* injector) {
  fault_ = injector;
  sdl_.set_fault_injector(injector);
}

const RAppDispatchStats& NonRtRic::stats_of(const std::string& app_id) const {
  static const RAppDispatchStats kEmpty{};
  const auto it = stats_.find(app_id);
  return it == stats_.end() ? kEmpty : it->second;
}

bool NonRtRic::publish_history() {
  const int cells = static_cast<int>(cell_ids_.size());
  const int window = history_window_;
  nn::Tensor hist({window, cells});
  // Pad the front with the oldest available row when the deque is short.
  for (int t = 0; t < window; ++t) {
    const int deficit = window - static_cast<int>(prb_history_.size());
    const int src = std::max(0, t - deficit);
    const auto& row = prb_history_[static_cast<std::size_t>(
        std::min(src, static_cast<int>(prb_history_.size()) - 1))];
    for (int c = 0; c < cells; ++c)
      hist.at2(t, c) = static_cast<float>(row[static_cast<std::size_t>(c)]);
  }
  const fault::RetryOutcome rc = fault::retry_call(retry_, retry_ops_++, [&] {
    switch (sdl_.write_tensor(kRicPlatformId, kNsPm, kKeyPrbHistory, hist)) {
      case SdlStatus::kOk: return fault::TryResult::kOk;
      case SdlStatus::kUnavailable: return fault::TryResult::kTransient;
      default: return fault::TryResult::kFatal;
    }
  });
  return rc.success;
}

void NonRtRic::step() {
  static obs::Counter& periods =
      obs::counter("oran.o1.pm_periods", "O1 PM reporting periods collected");
  static obs::Counter& collect_failures = obs::counter(
      "oran.o1.collect_failures", "PM periods lost to O1 collection faults");
  static obs::Counter& publish_failures = obs::counter(
      "oran.o1.publish_failures",
      "PM history publishes that failed after retries");
  static obs::SketchMetric& collect_ms =
      obs::sketch("oran.o1.collect_ms", 0.01, "O1 PM collection latency");
  OREV_CHECK(o1_ != nullptr, "no O1 interface connected");
  OREV_TRACE_SPAN_CAT("nonrt.step", "oran");

  // O1 collection can fail transiently (lossy management-plane link);
  // retried, and a period whose collection never succeeds is lost whole.
  if (fault::FaultInjector* fi = fault::effective(fault_)) {
    bool lost = false;
    const fault::RetryOutcome rc =
        fault::retry_call(retry_, retry_ops_++, [&] {
          const fault::FaultDecision d =
              fi->decide(fault::sites::kO1Collect);
          if (d.kind == fault::FaultKind::kTransient)
            return fault::TryResult::kTransient;
          if (d.kind == fault::FaultKind::kDrop) lost = true;
          return fault::TryResult::kOk;
        });
    if (lost || !rc.success) {
      ++pm_collect_failures_;
      collect_failures.inc();
      log_warn("PM collection failed for this period; skipping");
      return;
    }
  }

  periods.inc();
  PmReport report;
  {
    obs::ScopedTimerMs t(collect_ms);
    report = o1_->collect_pm();
  }
  report.period = period_++;

  cell_ids_.clear();
  std::vector<double> prb_row;
  for (const auto& [cell_id, pm] : report.cells) {
    cell_ids_.push_back(cell_id);
    prb_row.push_back(pm.prb_util_dl);
  }
  prb_history_.push_back(std::move(prb_row));
  while (static_cast<int>(prb_history_.size()) > history_window_)
    prb_history_.pop_front();

  if (!publish_history()) {
    // Degraded period: rApps still dispatch and fall back to the stale
    // history (or their fail-safe) instead of the platform crashing.
    ++pm_publish_failures_;
    publish_failures.inc();
    log_warn("PM history publish failed after retries; dispatching degraded");
  }

  static obs::SketchMetric& dispatch_ms =
      obs::sketch("oran.rapp.dispatch_ms", 0.01, "per-rApp dispatch latency");
  static obs::Counter& rapp_faults = obs::counter(
      "oran.rapp.faults", "rApp dispatches that ended in an exception");
  fault::FaultInjector* fi = fault::effective(fault_);
  for (const Registration& reg : rapps_) {
    OREV_TRACE_SPAN_CAT("rapp.dispatch", "oran");
    RAppDispatchStats& s = stats_[reg.app->app_id()];
    obs::ScopedTimerMs t(dispatch_ms);
    ++s.dispatches;
    try {
      if (fi != nullptr) {
        const fault::FaultDecision d =
            fi->decide(fault::sites::kRAppDispatch);
        if (d.kind == fault::FaultKind::kCrash ||
            d.kind == fault::FaultKind::kTransient) {
          throw fault::FaultInjectedError(fault::sites::kRAppDispatch);
        }
      }
      reg.app->on_pm_period(report, *this);
    } catch (const std::exception& e) {
      ++s.faults;
      rapp_faults.inc();
      log_warn("rApp fault in ", reg.app->app_id(), ": ", e.what());
    } catch (...) {
      ++s.faults;
      rapp_faults.inc();
      log_warn("rApp fault in ", reg.app->app_id(), ": unknown exception");
    }
  }
}

bool NonRtRic::request_cell_state(const std::string& app_id, int cell_id,
                                  bool active) {
  static obs::Counter& controls = obs::counter(
      "oran.o1.cell_controls", "O1 cell state changes forwarded");
  static obs::Counter& denied = obs::counter(
      "oran.o1.control_denied", "O1 cell control attempts rejected by policy");
  static obs::Counter& dropped = obs::counter(
      "oran.o1.controls_dropped", "O1 cell controls lost in transport");
  OREV_CHECK(o1_ != nullptr, "no O1 interface connected");
  if (!rbac_->allowed(app_id, "o1/cell-control", Op::kWrite)) {
    denied.inc();
    log_warn("cell control denied for ", app_id);
    return false;
  }
  if (fault::FaultInjector* fi = fault::effective(fault_)) {
    bool lost = false;
    const fault::RetryOutcome rc =
        fault::retry_call(retry_, retry_ops_++, [&] {
          const fault::FaultDecision d =
              fi->decide(fault::sites::kO1Control);
          if (d.kind == fault::FaultKind::kTransient)
            return fault::TryResult::kTransient;
          if (d.kind == fault::FaultKind::kDrop) lost = true;
          return fault::TryResult::kOk;
        });
    if (lost || !rc.success) {
      dropped.inc();
      return false;
    }
  }
  controls.inc();
  return o1_->set_cell_state(cell_id, active);
}

bool NonRtRic::push_a1_policy(NearRtRic& target, const A1Policy& policy) {
  static obs::Counter& pushed =
      obs::counter("oran.a1.policies_pushed", "A1 policies pushed downstream");
  static obs::Counter& dropped = obs::counter(
      "oran.a1.policies_dropped", "A1 policies lost in transport");
  static obs::Counter& failed = obs::counter(
      "oran.a1.policies_failed", "A1 pushes that failed after retries");
  if (fault::FaultInjector* fi = fault::effective(fault_)) {
    bool lost = false;
    const fault::RetryOutcome rc =
        fault::retry_call(retry_, retry_ops_++, [&] {
          const fault::FaultDecision d = fi->decide(fault::sites::kA1Policy);
          if (d.kind == fault::FaultKind::kTransient)
            return fault::TryResult::kTransient;
          if (d.kind == fault::FaultKind::kDrop) lost = true;
          return fault::TryResult::kOk;
        });
    if (lost) {
      ++policies_dropped_;
      dropped.inc();
      return false;
    }
    if (!rc.success) {
      ++policies_failed_;
      failed.inc();
      log_warn("A1 policy push failed after ", rc.attempts, " attempt(s)");
      return false;
    }
  }
  pushed.inc();
  target.accept_policy(policy);
  return true;
}

SdlStatus NonRtRic::read_pm_history(const std::string& app_id,
                                    nn::Tensor& out) {
  SdlStatus last = SdlStatus::kUnavailable;
  fault::retry_call(retry_, retry_ops_++, [&] {
    last = sdl_.read_tensor(app_id, kNsPm, kKeyPrbHistory, out);
    switch (last) {
      case SdlStatus::kOk: return fault::TryResult::kOk;
      case SdlStatus::kUnavailable: return fault::TryResult::kTransient;
      default: return fault::TryResult::kFatal;
    }
  });
  return last;
}

}  // namespace orev::oran
