#include "apps/ic_xapp.hpp"

#include <charconv>
#include <utility>

#include "ran/datasets.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/obs/obs.hpp"

namespace orev::apps {

IcXApp::IcXApp(nn::Model model, oran::IndicationKind kind,
               int fixed_mcs_index)
    : model_(std::move(model)), kind_(kind), fixed_mcs_index_(fixed_mcs_index) {}

void IcXApp::set_serve_engine(serve::ServeEngine* engine) {
  if (engine != nullptr) {
    OREV_CHECK(engine->model_input_shape() == model_.input_shape() &&
                   engine->model_num_classes() == model_.num_classes(),
               "serve engine model does not match the IC xApp's model");
  }
  serve_ = engine;
}

IcXApp::Node& IcXApp::node_for(std::string_view node_id,
                               oran::NearRtRic& ric) {
  auto it = nodes_.find(node_id);
  if (it == nodes_.end())
    it = nodes_.emplace(std::string(node_id), Node{}).first;
  Node& node = it->second;
  if (node.ric != &ric) {
    const std::string ns = kind_ == oran::IndicationKind::kSpectrogram
                               ? oran::kNsSpectrogram
                               : oran::kNsKpm;
    oran::Sdl& sdl = ric.sdl();
    node.ric = &ric;
    node.id = it->first;
    node.flow_key = ns + "/" + node.id + "/current";
    node.telemetry = sdl.resolve(app_id(), ns, node.id + "/current");
    node.decision = sdl.resolve(app_id(), oran::kNsDecisions, "ic/" + node.id);
    node.alert =
        sdl.resolve(app_id(), oran::kNsDefenseAlerts, app_id() + "/" + node.id);
    node.flow_engine = nullptr;
  }
  return node;
}

void IcXApp::enable_release_channel(oran::NearRtRic& ric) {
  OREV_CHECK(serve_ != nullptr,
             "enable_release_channel needs an attached serve engine");
  static obs::Counter& released_ctr = obs::counter(
      "apps.ic.serve_released",
      "IC xApp quarantined classifications released on review");
  oran::NearRtRic* ric_ptr = &ric;
  serve_->set_release_handler([this, ric_ptr](
                                  const serve::ReviewOutcome& o) {
    ++serve_released_;
    released_ctr.inc();
    // The flow key is "<ns>/<node>/current" (see Node::flow_key); recover
    // the node so the corrected decision reaches the right cell.
    std::string_view node_id;
    const std::size_t last = o.flow_key.rfind('/');
    if (last != std::string::npos && last > 0) {
      const std::size_t prev = o.flow_key.rfind('/', last - 1);
      if (prev != std::string::npos)
        node_id = std::string_view(o.flow_key).substr(prev + 1,
                                                      last - prev - 1);
    }
    Node& node = node_for(node_id, *ric_ptr);
    // Correcting attestation: supersedes the quarantine alert for this
    // request, naming the review evidence (epoch asymmetry included).
    text_.assign("released key=");
    text_.append(o.flow_key);
    text_.append(" request=");
    text_.append(std::to_string(o.request_id));
    text_.append(" epoch=");
    text_.append(std::to_string(o.model_epoch));
    text_.append(" score=");
    text_.append(std::to_string(o.review_score));
    ric_ptr->sdl().write_text(node.alert, text_);
    if (node_id.empty() || o.corrected_pred < 0) return;
    // Replay through the normal decision path: the prediction publishes
    // and the control issues exactly as an unflagged completion would.
    finish_classification(o.corrected_pred, node);
  });
}

void IcXApp::finish_classification(int pred, Node& node,
                                   obs::TraceContext ctx) {
  ++predictions_;
  last_prediction_ = pred;
  if (pred == ran::kLabelInterference) ++detections_;

  // Publish the prediction (legitimately observable by other apps with
  // read access to the decisions namespace — the cloning side channel).
  char buf[16];
  const char* end = std::to_chars(buf, buf + sizeof buf, pred).ptr;
  node.ric->sdl().write_text(
      node.decision, std::string_view(buf, static_cast<std::size_t>(end - buf)));

  oran::E2Control control;
  if (pred == ran::kLabelInterference) {
    control.action = oran::ControlAction::kSetAdaptiveMcs;
  } else {
    control.action = oran::ControlAction::kSetFixedMcs;
    control.fixed_mcs_index = fixed_mcs_index_;
  }
  node.ric->send_control(app_id(), control);
  // Tail of the request chain: the control decision, parented under the
  // serve completion (served path) or the classify span (sync path).
  obs::causal_child(ctx, "e2.control", obs::lanes::kControl, ctx.ts_us);
}

void IcXApp::issue_failsafe(Node& node, obs::TraceContext ctx) {
  node.ric->sdl().write_text(node.decision, "failsafe");
  oran::E2Control control;
  control.action = oran::ControlAction::kSetAdaptiveMcs;
  node.ric->send_control(app_id(), control);
  obs::causal_child(ctx, "e2.failsafe", obs::lanes::kControl, ctx.ts_us);
}

void IcXApp::on_served(const serve::ServeResult& r, Node& node) {
  static obs::Counter& shed_ctr = obs::counter(
      "apps.ic.serve_shed",
      "IC xApp classifications shed by the serving engine");
  static obs::Counter& quarantine_ctr = obs::counter(
      "apps.ic.serve_quarantined",
      "IC xApp classifications quarantined by the defense plane");
  if (r.status == serve::ServeStatus::kQuarantined) {
    // The defense plane withheld the prediction. Publish an alert naming
    // the suspect telemetry entry and the SDL identity that last wrote it
    // (behavioural-attestation evidence; the write is RBAC-gated like any
    // other), then degrade exactly as a shed.
    ++serve_quarantined_;
    quarantine_ctr.inc();
    oran::Sdl& sdl = node.ric->sdl();
    if (!sdl.last_writer(node.telemetry, writer_)) writer_.assign("<unknown>");
    text_.assign("quarantined key=");
    text_.append(node.flow_key);
    text_.append(" writer=");
    text_.append(writer_);
    sdl.write_text(node.alert, text_);
    issue_failsafe(node, r.trace);
    return;
  }
  if (r.prediction < 0) {
    // Shed without a prediction: steer to the fail-safe adaptive MCS
    // rather than leaving the node on a stale configuration.
    ++serve_shed_;
    shed_ctr.inc();
    issue_failsafe(node, r.trace);
    return;
  }
  finish_classification(r.prediction, node, r.trace);
}

void IcXApp::classify_and_control(const nn::Tensor& input, Node& node,
                                  obs::TraceContext ctx,
                                  std::uint64_t version) {
  if (serve_ == nullptr) {
    finish_classification(model_.predict_one(input), node, ctx);
    return;
  }
  // Serving path: the input is copied into a recycled request slot and
  // the decision publishes on completion — typically when a later
  // indication fills the micro-batch or expires its window. The node
  // context (RIC included) outlives the engine's pump cycle, so the
  // completion captures just it and the app. The causal context rides
  // the request; the completion's own span comes back in r.trace, so the
  // control issued there parents under the completion.
  //
  // Flow tag: the telemetry entry this input was read from, at the SDL
  // version of that read — the defense plane's norm screen compares the
  // input against the flow's last-known-good indication and applies the
  // same staleness bound the degraded-read path uses.
  if (node.flow_engine != serve_) {
    node.flow = serve_->flow_id(node.flow_key);
    node.flow_engine = serve_;
  }
  Node* n = &node;
  serve_->submit_row(input, node.flow, version, ctx,
                     [this, n](const serve::ServeResult& r) {
                       on_served(r, *n);
                     });
}

void IcXApp::on_indication(const oran::E2Indication& ind,
                           oran::NearRtRic& ric) {
  static obs::Counter& tel_failures = obs::counter(
      "apps.ic.telemetry_failures", "IC xApp telemetry reads without fresh data");
  static obs::Counter& fallback_ctr = obs::counter(
      "apps.ic.fallback_classifications",
      "IC xApp classifications made from cached telemetry");
  static obs::Counter& failsafe_ctr = obs::counter(
      "apps.ic.failsafe_controls",
      "IC xApp fail-safe adaptive-MCS controls (no usable telemetry)");
  if (ind.kind != kind_) return;

  Node& node = node_for(ind.ran_node_id, ric);

  // One app-lane span per handled indication; everything this handler
  // does (serve admission, control, fail-safe) parents under it.
  const obs::TraceContext app_ctx = obs::causal_child(
      ind.trace, "ic.classify", obs::lanes::kApp, ind.trace.ts_us);

  // A read lands in the node's last-known-good row only when it succeeds
  // (a failed read leaves its output untouched), so the fresh row and the
  // degraded-mode cache are one buffer.
  const oran::SdlStatus st = ric.read_telemetry(node.telemetry, node.last_good);
  if (st == oran::SdlStatus::kOk) {
    node.consecutive_failures = 0;
    node.have_last_good = true;
    node.last_good_version = ric.sdl().version(node.telemetry).value_or(0);
    classify_and_control(node.last_good, node, app_ctx,
                         node.last_good_version);
    return;
  }

  ++telemetry_failures_;
  tel_failures.inc();
  if (!degraded_.enabled) {
    log_warn("IC xApp could not read telemetry: ", app_id());
    return;
  }

  // Degraded mode: fall back to this node's last-known-good telemetry if
  // it is fresh enough. Staleness is measured in SDL versions when the
  // store still answers version queries, else by the run of failed reads.
  ++node.consecutive_failures;
  std::uint64_t staleness = node.consecutive_failures;
  if (node.have_last_good) {
    if (const auto v = ric.sdl().version(node.telemetry)) {
      staleness = *v >= node.last_good_version ? *v - node.last_good_version
                                               : node.consecutive_failures;
    }
    if (staleness <= degraded_.max_stale) {
      ++fallbacks_;
      fallback_ctr.inc();
      // The flow version is the cached read's version — the defense
      // plane sees the same staleness the degraded-read bound was
      // computed from.
      classify_and_control(node.last_good, node, app_ctx,
                           node.last_good_version);
      return;
    }
  }

  // Fail-safe: no usable telemetry at all — steer to adaptive MCS, the
  // configuration that stays safe if interference is actually present.
  ++failsafes_;
  failsafe_ctr.inc();
  issue_failsafe(node, app_ctx);
}

}  // namespace orev::apps
