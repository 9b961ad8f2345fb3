// Request/response types for the batched serving engine (DESIGN.md §11).
//
// A ServeRequest carries one single-sample input tensor plus its virtual
// arrival time and absolute deadline; a ServeResult reports how the
// request was ultimately served (batched, degraded-synchronous, or shed at
// admission) together with its virtual latency. Completions are plain
// callbacks fired on the submitting thread — the engine is in-process and
// deterministic, so "asynchronous" here means deferred to a later pump,
// never a different thread.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "nn/tensor.hpp"
#include "util/obs/context.hpp"

namespace orev::serve {

/// How a request moved through the engine.
enum class ServeStatus {
  /// Admitted to the queue; the result arrives via the completion later.
  kQueued = 0,
  /// Served by a batched forward pass.
  kOk,
  /// Served by the degraded synchronous single-sample path (queue-full
  /// shed, failed batch, or projected deadline miss with fallback on).
  kDegradedSync,
  /// Shed at admission with no prediction (fallback disabled).
  kRejected,
  /// Flagged by the inline defense plane: the prediction was computed but
  /// withheld (−1 in the result), exactly like a shed — the owning app
  /// degrades instead of acting on a suspect input.
  kQuarantined,
};

/// Stable lowercase name ("queued", "degraded-sync", ...) for reports.
const char* serve_status_name(ServeStatus s);

/// Identity of the stream a request belongs to (a UE, a RAN node's
/// telemetry key, a sector), plus that stream's version counter — the SDL
/// version where the input came from an SDL read. The defense plane's
/// norm screen keys its last-known-good state on `key` and applies its
/// staleness bound to `version`. An empty key opts the request out of the
/// per-flow screen (the distribution and ensemble detectors still run).
struct FlowTag {
  std::string key;
  std::uint64_t version = 0;
};

/// Terminal outcome of one request.
struct ServeResult {
  ServeStatus status = ServeStatus::kRejected;
  /// Argmax class, or -1 when the request was shed without a prediction.
  int prediction = -1;
  std::uint64_t request_id = 0;
  /// Batch the request was served in (0 for sync/shed paths).
  std::uint64_t batch_id = 0;
  int batch_size = 0;
  /// Replica shard that computed the prediction (0 for sync/shed paths).
  int replica = 0;
  /// Virtual submit → completion latency in microseconds.
  std::uint64_t latency_us = 0;
  /// True when the completion landed past the request's SLO deadline.
  bool deadline_missed = false;
  /// Combined defense score (threshold-normalized; ≥ 1 ⇔ quarantined).
  /// 0 when the engine has no defense plane.
  double defense_score = 0.0;
  /// Causal context of this request's completion span — callers parent
  /// their downstream spans (e.g. the control message) under it. Zero
  /// when causal tracing is off.
  obs::TraceContext trace;
};

/// Completion callback. Fired exactly once per submitted request, on the
/// submitting thread, during a later submit()/pump()/drain() (or inline
/// for shed and degraded-sync admissions). Completions must not call back
/// into the engine.
using Completion = std::function<void(const ServeResult&)>;

/// One queued unit of inference work.
struct ServeRequest {
  std::uint64_t id = 0;
  /// Virtual clock at admission.
  std::uint64_t arrival_us = 0;
  /// Absolute virtual deadline (arrival + ServeConfig::deadline_us).
  std::uint64_t deadline_us = 0;
  /// Causal context the request entered the engine with: the admit span,
  /// parented under whatever the submitter passed (or a serve-minted
  /// root). Zero when causal tracing is off.
  obs::TraceContext trace;
  /// Flow identity for the defense plane's per-flow screen (empty key
  /// when the submitter did not tag the request).
  FlowTag flow;
  /// The defense plane's id for the flow (DefensePlane::flow_id),
  /// resolved at admission; unused without a plane.
  std::uint32_t flow_id = 0;
  /// Combined defense score, filled by the screen before completion.
  double defense_score = 0.0;
  nn::Tensor input;
  Completion done;
};

}  // namespace orev::serve
