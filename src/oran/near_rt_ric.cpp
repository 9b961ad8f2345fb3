#include "oran/near_rt_ric.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "oran/e2_codec.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/obs/obs.hpp"
#include "util/rng.hpp"

namespace orev::oran {

NearRtRic::NearRtRic(Rbac* rbac, const OnboardingService* onboarding,
                     double control_window_ms)
    : rbac_(rbac),
      onboarding_(onboarding),
      sdl_(rbac),
      control_window_ms_(control_window_ms) {
  OREV_CHECK(rbac != nullptr && onboarding != nullptr,
             "NearRtRic requires RBAC and onboarding services");
  OREV_CHECK(control_window_ms > 0.0, "control window must be positive");
  // The platform itself holds an internal role with full SDL access.
  if (!rbac_->has_role("ric-platform-internal")) {
    rbac_->define_role("ric-platform-internal",
                       {Permission{"*", /*read=*/true, /*write=*/true}});
  }
  rbac_->assign_role(kRicPlatformId, "ric-platform-internal");
}

bool NearRtRic::register_xapp(std::shared_ptr<XApp> app,
                              const std::string& app_id, int priority) {
  OREV_CHECK(app != nullptr, "null xApp");
  if (!onboarding_->is_onboarded(app_id)) {
    log_warn("xApp registration rejected (not onboarded): ", app_id);
    return false;
  }
  app->app_id_ = app_id;
  XAppDispatchStats* stats = &stats_.emplace(app_id, XAppDispatchStats{})
                                  .first->second;
  fault::CircuitBreaker* breaker =
      &breakers_.emplace(app_id, fault::CircuitBreaker(breaker_cfg_))
           .first->second;
  xapps_.push_back(Registration{std::move(app), priority, stats, breaker});
  std::stable_sort(xapps_.begin(), xapps_.end(),
                   [](const Registration& a, const Registration& b) {
                     return a.priority < b.priority;
                   });
  return true;
}

void NearRtRic::connect_e2(E2Node* node) {
  OREV_CHECK(node != nullptr, "null E2 node");
  e2_node_ = node;
}

void NearRtRic::set_fault_injector(fault::FaultInjector* injector) {
  fault_ = injector;
  sdl_.set_fault_injector(injector);
}

void NearRtRic::set_breaker_config(const fault::BreakerConfig& cfg) {
  breaker_cfg_ = cfg;
  for (auto& [_, breaker] : breakers_) breaker = fault::CircuitBreaker(cfg);
}

fault::CircuitBreaker::State NearRtRic::breaker_state(
    const std::string& app_id) const {
  const auto it = breakers_.find(app_id);
  return it == breakers_.end() ? fault::CircuitBreaker::State::kClosed
                               : it->second.state();
}

std::uint64_t NearRtRic::breaker_opens(const std::string& app_id) const {
  const auto it = breakers_.find(app_id);
  return it == breakers_.end() ? 0 : it->second.times_opened();
}

namespace {

const char* telemetry_ns(IndicationKind kind) {
  return kind == IndicationKind::kSpectrogram ? kNsSpectrogram : kNsKpm;
}

}  // namespace

template <class Write>
bool NearRtRic::deliver_core(const E2Indication& ind, std::span<float> payload,
                             std::size_t wire_bytes, obs::Counter* frames,
                             Write&& write) {
  static obs::Counter& indications =
      obs::counter("oran.e2.indications", "E2 indications delivered");
  static obs::Counter& dropped = obs::counter(
      "oran.e2.indications_dropped", "E2 indications lost in transport");
  static obs::Counter& duplicated = obs::counter(
      "oran.e2.indications_duplicated", "E2 indications duplicated in transport");
  static obs::Counter& corrupted = obs::counter(
      "oran.e2.indications_corrupted", "E2 indication payloads corrupted");
  static obs::Counter& ind_bytes = obs::counter(
      "oran.e2.indication_bytes",
      "telemetry payload bytes carried by delivered E2 indications");

  // Transport fate of this indication (drop / delay / duplicate / corrupt).
  int copies = 1;
  double transport_delay_ms = 0.0;
  if (fault::FaultInjector* fi = fault::effective(fault_)) {
    const fault::FaultDecision d = fi->decide(fault::sites::kE2Indication);
    switch (d.kind) {
      case fault::FaultKind::kDrop:
        ++indications_dropped_;
        dropped.inc();
        return false;
      case fault::FaultKind::kDuplicate:
        copies = 2;
        duplicated.inc();
        break;
      case fault::FaultKind::kDelay:
        transport_delay_ms = d.delay_ms;
        break;
      case fault::FaultKind::kCorrupt: {
        corrupted.inc();
        Rng rng(d.payload_seed);
        for (float& f : payload) f += rng.normal(0.0f, d.corrupt_scale);
        break;
      }
      default:
        break;
    }
  }

  for (int copy = 0; copy < copies; ++copy) {
    if (frames != nullptr) frames->inc();
    indications.inc();
    ind_bytes.inc(wire_bytes);
    ++indications_;
    // Causal root for this delivery: trace id from the platform-wide
    // delivery sequence number (duplicated copies get distinct traces),
    // timestamped on the RIC's own virtual lane clock (1 ms per
    // delivery). Invalid context — and zero cost — when tracing is off.
    obs::TraceContext root;
    if (obs::causal_enabled()) {
      root = obs::causal_root(
          obs::derive_trace_id(obs::domains::kE2, indications_),
          "e2.indication", obs::lanes::kIndication, indications_ * 1000);
    }
    // The platform write retries transient storage faults; if the store
    // stays down the loop degrades instead of dying — xApps fall back to
    // their last-known-good telemetry or a fail-safe decision.
    const bool last = copy + 1 == copies;
    const fault::RetryOutcome rc =
        fault::retry_call(retry_, retry_ops_++, [&] {
          switch (write(last)) {
            case SdlStatus::kOk: return fault::TryResult::kOk;
            case SdlStatus::kUnavailable: return fault::TryResult::kTransient;
            default: return fault::TryResult::kFatal;
          }
        });
    if (!rc.success) {
      static obs::Counter& write_failures = obs::counter(
          "oran.e2.sdl_write_failures",
          "platform telemetry writes that failed after retries");
      ++sdl_write_failures_;
      write_failures.inc();
      log_warn("platform SDL write failed after ", rc.attempts,
               " attempt(s); dispatching degraded");
    }
    dispatch_all(ind, transport_delay_ms, root);
  }
  return true;
}

bool NearRtRic::deliver_indication(const E2Indication& ind) {
  OREV_TRACE_SPAN_CAT("e2.deliver_indication", "oran");
  // A private copy takes any corrupt fault. Every SDL write attempt
  // copies it again (write_tensor(const&)), so a retry after an SDL
  // corrupt fault writes the indication as delivered.
  E2Indication own = ind;
  const char* ns = telemetry_ns(own.kind);
  const std::string key = own.ran_node_id + "/current";
  return deliver_core(
      own, std::span<float>(own.payload.raw(), own.payload.numel()),
      own.payload.numel() * sizeof(float), nullptr, [&](bool) {
        return sdl_.write_tensor(kRicPlatformId, ns, key, own.payload);
      });
}

bool NearRtRic::deliver_indication(E2Indication&& ind) {
  OREV_TRACE_SPAN_CAT("e2.deliver_indication", "oran");
  // Owned payload: corruption perturbs it in place (no defensive copy),
  // and the last copy's SDL write moves the buffer instead of copying it.
  const char* ns = telemetry_ns(ind.kind);
  const std::string key = ind.ran_node_id + "/current";
  return deliver_core(
      ind, std::span<float>(ind.payload.raw(), ind.payload.numel()),
      ind.payload.numel() * sizeof(float), nullptr, [&](bool last) {
        // The rvalue SDL overload consumes the tensor only on commit, so
        // re-moving it on a retry after kUnavailable is sound. A
        // duplicated first copy still has to copy (the second needs the
        // payload too). After the last write the dispatched indication
        // is metadata-only, which is all apps consume.
        return last ? sdl_.write_tensor(kRicPlatformId, ns, key,
                                        std::move(ind.payload))
                    : sdl_.write_tensor(kRicPlatformId, ns, key, ind.payload);
      });
}

bool NearRtRic::deliver_kpm_frame(std::string_view frame) {
  static obs::Counter& frames =
      obs::counter("oran.e2.kpm_frames", "binary KPM frames delivered");
  static obs::Counter& rejected = obs::counter(
      "oran.e2.kpm_frames_rejected",
      "binary KPM frames rejected by the decoder");
  OREV_TRACE_SPAN_CAT("e2.deliver_kpm_frame", "oran");

  KpmFrameView view;
  if (decode_kpm_frame(frame, view) != KpmDecodeStatus::kOk) {
    ++frames_rejected_;
    rejected.inc();
    return false;
  }

  // Materialise into the reusable scratch (no allocation at steady state).
  kpm_features_.resize(view.feature_count);
  view.copy_features(kpm_features_);
  kpm_scratch_.tti = view.tti;
  kpm_scratch_.kind = view.kind;
  // The node id and SDL key only depend on the cell: each is formatted
  // and resolved on the cell's first frame, and a frame from the cell the
  // scratch already names copies nothing.
  const std::uint64_t cell_key =
      static_cast<std::uint64_t>(view.kind) << 32 | view.cell_id;
  auto [it, fresh] = kpm_cells_.try_emplace(cell_key);
  KpmCell& cell = it->second;
  if (fresh) {
    char idbuf[16];
    char* id_end = std::to_chars(idbuf, idbuf + sizeof idbuf,
                                 view.cell_id).ptr;
    cell.node_id.assign("cell-");
    cell.node_id.append(idbuf, static_cast<std::size_t>(id_end - idbuf));
    cell.telemetry = sdl_.resolve(kRicPlatformId, telemetry_ns(view.kind),
                                  cell.node_id + "/current");
  }
  if (kpm_cell_ != &cell) {
    kpm_cell_ = &cell;
    kpm_scratch_.ran_node_id.assign(cell.node_id);
  }
  kpm_scratch_.trace = obs::TraceContext{};
  if (kpm_shape_.size() != 1 ||
      kpm_shape_[0] != static_cast<int>(view.feature_count))
    kpm_shape_ = nn::Shape{static_cast<int>(view.feature_count)};

  return deliver_core(
      kpm_scratch_, std::span<float>(kpm_features_), frame.size(), &frames,
      [&](bool) {
        return sdl_.write_tensor_inplace(
            cell.telemetry, kpm_shape_,
            std::span<const float>(kpm_features_));
      });
}

void NearRtRic::dispatch_all(const E2Indication& ind,
                             double transport_delay_ms,
                             const obs::TraceContext& root) {
  static obs::SketchMetric& dispatch_ms = obs::sketch(
      "oran.xapp.dispatch_ms", 0.01,
      "per-xApp dispatch latency within the near-RT control window");
  static obs::Counter& misses = obs::counter(
      "oran.xapp.deadline_misses", "dispatches past the control window");
  static obs::Counter& faults = obs::counter(
      "oran.xapp.faults", "xApp dispatches that ended in an exception");
  static obs::Counter& quarantined = obs::counter(
      "oran.xapp.quarantined_skips",
      "dispatches skipped because the app's circuit breaker was open");
  fault::FaultInjector* fi = fault::effective(fault_);
  // One mutable copy carries the per-app dispatch context; made only when
  // the delivery is traced, so the untraced path stays copy-free.
  E2Indication traced;
  if (root.valid()) traced = ind;
  for (const Registration& reg : xapps_) {
    const std::string& app_id = reg.app->app_id();
    XAppDispatchStats& s = *reg.stats;
    fault::CircuitBreaker& breaker = *reg.breaker;
    if (!breaker.allow()) {
      ++s.quarantined_skips;
      quarantined.inc();
      continue;
    }
    OREV_TRACE_SPAN_CAT("xapp.dispatch", "oran");
    double injected_ms = transport_delay_ms;
    bool faulted = false;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      if (fi != nullptr) {
        const fault::FaultDecision d =
            fi->decide(fault::sites::kXAppDispatch);
        if (d.kind == fault::FaultKind::kCrash ||
            d.kind == fault::FaultKind::kTransient) {
          throw fault::FaultInjectedError(fault::sites::kXAppDispatch);
        }
        if (d.kind == fault::FaultKind::kDelay) injected_ms += d.delay_ms;
      }
      if (root.valid()) {
        traced.trace = obs::causal_child(root, "dispatch." + app_id,
                                         obs::lanes::kDispatch, root.ts_us);
        reg.app->on_indication(traced, *this);
      } else {
        reg.app->on_indication(ind, *this);
      }
    } catch (const std::exception& e) {
      // One throwing xApp must not take down the platform or starve the
      // lower-priority apps behind it.
      faulted = true;
      log_warn("xApp fault in ", app_id, ": ", e.what());
    } catch (...) {
      faulted = true;
      log_warn("xApp fault in ", app_id, ": unknown exception");
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count() +
        injected_ms;
    dispatch_ms.observe(ms);
    ++s.dispatches;
    s.total_ms += ms;
    // A failure that opens the app's breaker dumps a flight-recorder
    // report: the causal span tail leading up to quarantine is exactly
    // the evidence a post-mortem needs.
    if (faulted) {
      ++s.faults;
      faults.inc();
      const std::uint64_t opens = breaker.times_opened();
      breaker.record_failure();
      if (breaker.times_opened() > opens)
        obs::flight_trigger("breaker.open", app_id);
      continue;
    }
    if (ms > control_window_ms_) {
      ++s.deadline_misses;
      misses.inc();
      if (breaker_cfg_.count_deadline_misses) {
        const std::uint64_t opens = breaker.times_opened();
        breaker.record_failure();
        if (breaker.times_opened() > opens)
          obs::flight_trigger("breaker.open", app_id);
        continue;
      }
    }
    breaker.record_success();
  }
  // Post-dispatch heartbeat: deferred-work services (e.g. a serving
  // engine's micro-batcher) get a chance to run once per indication even
  // when no app submitted new work this round.
  if (post_dispatch_) post_dispatch_();
}

void NearRtRic::send_control(const std::string& app_id,
                             const E2Control& control) {
  static obs::Counter& controls =
      obs::counter("oran.e2.controls", "E2 control messages sent to the RAN");
  static obs::Counter& denied = obs::counter(
      "oran.e2.control_denied", "E2 control attempts rejected by policy");
  static obs::Counter& dropped = obs::counter(
      "oran.e2.controls_dropped", "E2 controls lost in transport");
  static obs::Counter& failed = obs::counter(
      "oran.e2.controls_failed", "E2 controls that failed after retries");
  OREV_CHECK(e2_node_ != nullptr, "no E2 node connected");
  // Control access is itself policy-gated: an app must hold write
  // permission on the control namespace to steer the RAN. The decision
  // is re-taken whenever the app or the policy generation changes.
  if (control_gen_ != rbac_->generation() || control_app_ != app_id) {
    static const std::string kControlNs = "e2/control";
    control_ok_ = rbac_->allowed(app_id, kControlNs, Op::kWrite);
    control_app_.assign(app_id);
    control_gen_ = rbac_->generation();
  }
  if (!control_ok_) {
    denied.inc();
    log_warn("E2 control denied for ", app_id);
    return;
  }
  if (fault::FaultInjector* fi = fault::effective(fault_)) {
    bool lost = false;
    const fault::RetryOutcome rc =
        fault::retry_call(retry_, retry_ops_++, [&] {
          const fault::FaultDecision d =
              fi->decide(fault::sites::kE2Control);
          if (d.kind == fault::FaultKind::kTransient)
            return fault::TryResult::kTransient;
          if (d.kind == fault::FaultKind::kDrop) lost = true;
          return fault::TryResult::kOk;
        });
    if (lost) {  // silent loss: the sender believes the send succeeded
      ++controls_dropped_;
      dropped.inc();
      return;
    }
    if (!rc.success) {
      ++controls_failed_;
      failed.inc();
      log_warn("E2 control from ", app_id, " failed after ", rc.attempts,
               " attempt(s)");
      return;
    }
  }
  controls.inc();
  e2_node_->handle_control(control);
}

namespace {

/// One mediated telemetry read under the retry policy: kUnavailable is
/// retried; kDenied / kNotFound are final.
template <class Read>
SdlStatus retried_read(const fault::RetryPolicy& policy, std::uint64_t op,
                       Read&& read) {
  SdlStatus last = SdlStatus::kUnavailable;
  fault::retry_call(policy, op, [&] {
    last = read();
    switch (last) {
      case SdlStatus::kOk: return fault::TryResult::kOk;
      case SdlStatus::kUnavailable: return fault::TryResult::kTransient;
      default: return fault::TryResult::kFatal;  // kDenied/kNotFound stay
    }
  });
  return last;
}

}  // namespace

SdlStatus NearRtRic::read_telemetry(const std::string& app_id,
                                    const std::string& ns,
                                    const std::string& key,
                                    nn::Tensor& out) {
  return retried_read(retry_, retry_ops_++, [&] {
    return sdl_.read_tensor(app_id, ns, key, out);
  });
}

SdlStatus NearRtRic::read_telemetry(SdlHandle& h, nn::Tensor& out) {
  return retried_read(retry_, retry_ops_++,
                      [&] { return sdl_.read_tensor(h, out); });
}

void NearRtRic::accept_policy(const A1Policy& policy) {
  static obs::Counter& policies =
      obs::counter("oran.a1.policies", "A1 policies accepted by Near-RT RICs");
  policies.inc();
  policies_.push_back(policy);
}

const XAppDispatchStats& NearRtRic::stats_of(const std::string& app_id) const {
  static const XAppDispatchStats kEmpty{};
  const auto it = stats_.find(app_id);
  return it == stats_.end() ? kEmpty : it->second;
}

}  // namespace orev::oran
