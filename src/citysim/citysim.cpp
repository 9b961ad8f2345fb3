#include "citysim/citysim.hpp"

#include <algorithm>
#include <chrono>

#include "ran/traffic.hpp"
#include "util/check.hpp"
#include "util/obs/obs.hpp"
#include "util/persist/frame.hpp"
#include "util/thread_pool.hpp"

namespace orev::citysim {

namespace {

constexpr const char* kCkptTag = "orev.citysim";

/// Packed per-event digest record: every field an executed event is
/// defined by, fixed layout so the digest bytes are platform-stable.
void digest_event(Sha256& h, const Event& ev) {
  std::uint8_t rec[25];
  std::memcpy(rec, &ev.time_us, 8);
  std::memcpy(rec + 8, &ev.shard, 4);
  std::memcpy(rec + 12, &ev.seq, 8);
  rec[20] = static_cast<std::uint8_t>(ev.type);
  const std::uint32_t entity = ev.type == EventType::kCellReport ? ev.cell
                                                                 : ev.ue;
  std::memcpy(rec + 21, &entity, 4);
  h.update(rec, sizeof rec);
}

obs::Counter& frames_counter() {
  static obs::Counter& c = obs::counter(
      "citysim.frames", "KPM frames delivered to the sink at barriers");
  return c;
}
obs::Counter& frames_lost_counter() {
  static obs::Counter& c = obs::counter(
      "citysim.frames_lost", "KPM frames dropped by injected faults");
  return c;
}

}  // namespace

CitySim::CitySim(const CityConfig& config) : cfg_(config), base_(config.seed) {
  OREV_CHECK(cfg_.cells > 0, "citysim needs at least one cell");
  OREV_CHECK(cfg_.shards > 0, "citysim needs at least one shard");
  OREV_CHECK(cfg_.shards <= cfg_.cells,
             "more shards than cells leaves empty shards");
  OREV_CHECK(cfg_.epoch_us > 0 && cfg_.report_period_us > 0 &&
                 cfg_.mean_dwell_us > 1 && cfg_.day_us > 0,
             "citysim periods must be positive");
  OREV_CHECK(cfg_.features >= 8, "citysim needs >= 8 KPM features");
  OREV_CHECK(cfg_.handover_prob >= 0.0 && cfg_.handover_prob <= 1.0,
             "handover_prob must be in [0, 1]");
  ues_.resize(cfg_.ues);
  cells_.resize(cfg_.cells);
  shards_.reserve(cfg_.shards);
  for (std::uint32_t s = 0; s < cfg_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->outbound.resize(cfg_.shards);
  }
  // Initial placement: UE u starts in cell u % cells (cells beyond the UE
  // population stay empty — the zero-UE edge the tests cover). The first
  // move lands at a uniform fraction of a full dwell: at t=0 the
  // population is mid-dwell, so mobility is in steady state from the
  // first epoch instead of ramping in after mean_dwell_us.
  for (std::uint32_t u = 0; u < cfg_.ues; ++u) {
    UeState& ue = ues_[u];
    ue.cell = u % cfg_.cells;
    Rng r = ue_stream(u).split(ue.draws++);
    const std::uint64_t dwell = draw_dwell(r);
    ue.next_move_us = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(dwell) *
                                      static_cast<double>(r.uniform())));
    ++cells_[ue.cell].ue_count;
  }
  for (std::uint32_t c = 0; c < cfg_.cells; ++c)
    cells_[c].next_report_us = cfg_.report_period_us;
  seed_queues();
}

std::uint64_t CitySim::draw_dwell(Rng& r) const {
  const double dwell =
      0.5 * static_cast<double>(cfg_.mean_dwell_us) +
      static_cast<double>(r.uniform()) * static_cast<double>(cfg_.mean_dwell_us);
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(dwell));
}

void CitySim::seed_queues() {
  // Canonical schedule order per shard: owned cells ascending, then owned
  // UEs ascending. Seq assignment follows this order, so a freshly built
  // sim and a checkpoint-rebuilt one agree on every event key.
  for (std::uint32_t c = 0; c < cfg_.cells; ++c) {
    Shard& sh = *shards_[shard_of_cell(c)];
    cells_[c].report_event_seq = sh.next_seq++;
    sh.heap.push(Event{cells_[c].next_report_us, shard_of_cell(c),
                       cells_[c].report_event_seq, EventType::kCellReport, 0,
                       c});
  }
  for (std::uint32_t u = 0; u < cfg_.ues; ++u) {
    const std::uint32_t s = shard_of_cell(ues_[u].cell);
    Shard& sh = *shards_[s];
    ues_[u].move_seq = sh.next_seq++;
    sh.heap.push(Event{ues_[u].next_move_us, s, ues_[u].move_seq,
                       EventType::kUeMove, u, 0});
  }
}

void CitySim::run_epochs(std::uint64_t n) {
  static obs::SketchMetric& epoch_ms = obs::sketch(
      "citysim.epoch_ms", 0.01, "wall milliseconds per simulated epoch");
  for (std::uint64_t i = 0; i < n; ++i) {
    OREV_TRACE_SPAN_CAT("citysim.epoch", "citysim");
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t horizon = (epoch_ + 1) * cfg_.epoch_us;
    util::parallel_for(0, cfg_.shards, 1, [&](std::int64_t s) {
      process_shard(static_cast<std::uint32_t>(s), horizon);
    });
    deliver_frames();
    apply_handovers();
    ++epoch_;
    const auto t1 = std::chrono::steady_clock::now();
    epoch_ms.observe(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
}

void CitySim::process_shard(std::uint32_t s, std::uint64_t horizon) {
  Shard& sh = *shards_[s];
  while (!sh.heap.empty() && sh.heap.top().time_us < horizon) {
    const Event ev = sh.heap.top();
    sh.heap.pop();
    if (ev.type == EventType::kUeMove) {
      // Stale entries (superseded by pin_ue_move or a handover reschedule)
      // are skipped: the live schedule is whatever UeState says it is.
      const UeState& ue = ues_[ev.ue];
      if (ue.next_move_us != ev.time_us || ue.move_seq != ev.seq) continue;
      digest_event(sh.digest, ev);
      ++sh.stats.events;
      handle_move(s, ev);
    } else {
      digest_event(sh.digest, ev);
      ++sh.stats.events;
      handle_report(s, ev);
    }
  }
}

void CitySim::handle_move(std::uint32_t s, const Event& ev) {
  UeState& ue = ues_[ev.ue];
  Rng r = ue_stream(ev.ue).split(ue.draws++);
  std::uint32_t to_cell = ue.cell;
  if (cfg_.cells > 1 && r.bernoulli(cfg_.handover_prob)) {
    // Uniform over the other cells.
    to_cell = static_cast<std::uint32_t>(
        r.uniform_int(0, static_cast<int>(cfg_.cells) - 2));
    if (to_cell >= ue.cell) ++to_cell;
  }
  ue.next_move_us = ev.time_us + draw_dwell(r);
  Shard& sh = *shards_[s];
  if (to_cell == ue.cell) {
    ++sh.stats.moves;
    ue.move_seq = sh.next_seq++;
    sh.heap.push(Event{ue.next_move_us, s, ue.move_seq, EventType::kUeMove,
                       ev.ue, 0});
    return;
  }
  --cells_[ue.cell].ue_count;  // the source cell is shard-owned
  ue.cell = to_cell;
  const std::uint32_t d = shard_of_cell(to_cell);
  if (d == s) {
    ++sh.stats.handovers_intra;
    ++cells_[to_cell].ue_count;
    ++cells_[to_cell].handovers_since;
    ue.move_seq = sh.next_seq++;
    sh.heap.push(Event{ue.next_move_us, s, ue.move_seq, EventType::kUeMove,
                       ev.ue, 0});
    return;
  }
  // Cross-shard: the destination takes ownership at the barrier and
  // schedules the UE's next move there (one epoch of handover latency).
  ++sh.stats.handovers_cross;
  sh.outbound[d].push_back(HandoverMsg{ev.ue, to_cell});
}

void CitySim::handle_report(std::uint32_t s, const Event& ev) {
  Shard& sh = *shards_[s];
  CellState& cell = cells_[ev.cell];
  // Per-report randomness from the cell's counter-based stream: identical
  // wherever and whenever this report executes.
  Rng r = cell_stream(ev.cell).split(cell.report_seq);
  const double t01 =
      static_cast<double>(ev.time_us % cfg_.day_us) /
      static_cast<double>(cfg_.day_us);
  // Capacity-style cells follow the bell diurnal shape, coverage-style
  // cells the steady plateau — the RICTest emulator's two profiles.
  const double profile = ev.cell % 3 == 0 ? ran::steady_profile(t01)
                                          : ran::bell_profile(t01);
  const float noise = r.normal(0.0f, 0.05f);
  const double offered = static_cast<double>(cell.ue_count) *
                         cfg_.ue_rate_mbps * profile *
                         (1.0 + static_cast<double>(noise));
  const double prb = std::clamp(
      100.0 * offered / cfg_.cell_capacity_mbps, 0.0, 100.0);
  const float sinr =
      15.0f + static_cast<float>(ev.cell % 10) + r.normal(0.0f, 1.5f);
  const double tput =
      offered * std::clamp(static_cast<double>(sinr) / 30.0, 0.05, 1.0);

  auto& f = sh.feat_scratch;
  f.resize(cfg_.features);
  f[0] = static_cast<float>(cell.ue_count);
  f[1] = static_cast<float>(offered);
  f[2] = static_cast<float>(prb);
  f[3] = sinr;
  f[4] = static_cast<float>(tput);
  f[5] = static_cast<float>(cell.handovers_since);
  f[6] = static_cast<float>(cell.report_seq);
  f[7] = noise;
  for (std::uint16_t i = 8; i < cfg_.features; ++i) f[i] = r.uniform();

  const std::string_view frame = sh.arena.encode(
      ev.cell, cell.report_seq, oran::IndicationKind::kKpm, f);
  sh.digest.update(frame);
  sh.frames.append(frame);
  sh.frame_sizes.push_back(static_cast<std::uint32_t>(frame.size()));
  ++sh.stats.reports;
  sh.stats.frame_bytes += frame.size();

  ++cell.report_seq;
  cell.handovers_since = 0;
  cell.next_report_us = ev.time_us + cfg_.report_period_us;
  cell.report_event_seq = sh.next_seq++;
  sh.heap.push(Event{cell.next_report_us, s, cell.report_event_seq,
                     EventType::kCellReport, 0, ev.cell});
}

void CitySim::deliver_frames() {
  fault::FaultInjector* fi = fault::effective(fault_);
  for (std::uint32_t s = 0; s < cfg_.shards; ++s) {
    Shard& sh = *shards_[s];
    std::size_t off = 0;
    for (const std::uint32_t sz : sh.frame_sizes) {
      const std::string_view frame(sh.frames.data() + off, sz);
      off += sz;
      bool deliver = true;
      if (fi != nullptr) {
        const fault::FaultDecision d = fi->decide(fault::sites::kCitysimEvent);
        if (d.kind == fault::FaultKind::kDrop) {
          deliver = false;
          ++frames_lost_;
          frames_lost_counter().inc();
        } else if (d.kind == fault::FaultKind::kTransient ||
                   d.kind == fault::FaultKind::kDelay) {
          // A failed first delivery attempt; the barrier retries once and
          // the retry succeeds (the report is still buffered).
          ++frame_retries_;
        }
      }
      if (deliver) {
        if (sink_ != nullptr) sink_->on_frame(s, frame);
        ++frames_delivered_;
        frames_counter().inc();
      }
    }
    sh.frames.clear();
    sh.frame_sizes.clear();
  }
}

void CitySim::apply_handovers() {
  static obs::Counter& cross = obs::counter(
      "citysim.handovers_cross", "cross-shard handovers applied at barriers");
  for (std::uint32_t src = 0; src < cfg_.shards; ++src) {
    for (std::uint32_t dst = 0; dst < cfg_.shards; ++dst) {
      auto& msgs = shards_[src]->outbound[dst];
      for (const HandoverMsg& m : msgs) {
        Shard& dsh = *shards_[dst];
        ++cells_[m.to_cell].ue_count;
        ++cells_[m.to_cell].handovers_since;
        UeState& ue = ues_[m.ue];
        ue.move_seq = dsh.next_seq++;
        dsh.heap.push(Event{ue.next_move_us, dst, ue.move_seq,
                            EventType::kUeMove, m.ue, 0});
        cross.inc();
      }
      msgs.clear();
    }
  }
}

std::string CitySim::event_digest() const {
  Sha256 merged;
  for (const auto& sh : shards_) {
    Sha256 copy = sh->digest;  // finish() is destructive; hash a copy
    const Sha256::Digest d = copy.finish();
    merged.update(d.data(), d.size());
  }
  return Sha256::to_hex(merged.finish());
}

std::string CitySim::state_digest() const {
  persist::ByteWriter w;
  encode_state(w);
  Sha256 h;
  h.update(w.buffer());
  return Sha256::to_hex(h.finish());
}

CityStats CitySim::stats() const {
  CityStats total;
  for (const auto& sh : shards_) {
    total.events += sh->stats.events;
    total.moves += sh->stats.moves;
    total.handovers_intra += sh->stats.handovers_intra;
    total.handovers_cross += sh->stats.handovers_cross;
    total.reports += sh->stats.reports;
    total.frame_bytes += sh->stats.frame_bytes;
  }
  total.frames_delivered = frames_delivered_;
  total.frames_lost = frames_lost_;
  total.frame_retries = frame_retries_;
  return total;
}

double CitySim::availability() const {
  const std::uint64_t emitted = frames_delivered_ + frames_lost_;
  if (emitted == 0) return 1.0;
  return static_cast<double>(frames_delivered_) /
         static_cast<double>(emitted);
}

void CitySim::pin_ue_move(std::uint32_t ue_id, std::uint64_t time_us) {
  OREV_CHECK(ue_id < cfg_.ues, "pin_ue_move: UE out of range");
  UeState& ue = ues_[ue_id];
  const std::uint32_t s = shard_of_cell(ue.cell);
  Shard& sh = *shards_[s];
  ue.next_move_us = time_us;
  ue.move_seq = sh.next_seq++;  // the heap's old entry goes stale
  sh.heap.push(
      Event{time_us, s, ue.move_seq, EventType::kUeMove, ue_id, 0});
}

// ----- checkpointing ------------------------------------------------------

std::string CitySim::fingerprint() const {
  persist::ByteWriter w;
  w.u32(cfg_.cells);
  w.u32(cfg_.ues);
  w.u32(cfg_.shards);
  w.u64(cfg_.seed);
  w.u64(cfg_.epoch_us);
  w.u64(cfg_.report_period_us);
  w.u64(cfg_.mean_dwell_us);
  w.u64(cfg_.day_us);
  w.f64(cfg_.handover_prob);
  w.u32(cfg_.features);
  w.f64(cfg_.ue_rate_mbps);
  w.f64(cfg_.cell_capacity_mbps);
  Sha256 h;
  h.update(w.buffer());
  return Sha256::to_hex(h.finish());
}

void CitySim::encode_state(persist::ByteWriter& w) const {
  w.u64(epoch_);
  for (const auto& sh : shards_) w.u64(sh->next_seq);
  for (const UeState& ue : ues_) {
    w.u32(ue.cell);
    w.u64(ue.next_move_us);
    w.u64(ue.move_seq);
    w.u64(ue.draws);
  }
  for (const CellState& c : cells_) {
    w.u64(c.next_report_us);
    w.u64(c.report_seq);
    w.u64(c.report_event_seq);
    w.u32(c.ue_count);
    w.u32(c.handovers_since);
  }
}

persist::Status CitySim::decode_state(persist::ByteReader& r) {
  using persist::Status;
  using persist::StatusCode;
  if (!r.u64(epoch_))
    return Status::Fail(StatusCode::kTruncated, "citysim epoch missing");
  for (auto& sh : shards_) {
    if (!r.u64(sh->next_seq))
      return Status::Fail(StatusCode::kTruncated, "citysim shard seq missing");
  }
  for (UeState& ue : ues_) {
    if (!r.u32(ue.cell) || !r.u64(ue.next_move_us) || !r.u64(ue.move_seq) ||
        !r.u64(ue.draws))
      return Status::Fail(StatusCode::kTruncated, "citysim UE state missing");
    if (ue.cell >= cfg_.cells)
      return Status::Fail(StatusCode::kBadValue,
                          "citysim UE cell out of range");
  }
  for (CellState& c : cells_) {
    if (!r.u64(c.next_report_us) || !r.u64(c.report_seq) ||
        !r.u64(c.report_event_seq) || !r.u32(c.ue_count) ||
        !r.u32(c.handovers_since))
      return Status::Fail(StatusCode::kTruncated, "citysim cell state missing");
  }
  return r.finish("citysim state");
}

void CitySim::rebuild_queues() {
  for (auto& sh : shards_) {
    sh->heap = EventHeap{};
    sh->frames.clear();
    sh->frame_sizes.clear();
    for (auto& out : sh->outbound) out.clear();
  }
  // Stored (time, seq) pairs are the live schedule; every key the saved
  // heaps held that was not stale is re-pushed, so pop order matches the
  // uninterrupted run exactly (keys are unique per shard).
  for (std::uint32_t c = 0; c < cfg_.cells; ++c) {
    const std::uint32_t s = shard_of_cell(c);
    shards_[s]->heap.push(Event{cells_[c].next_report_us, s,
                                cells_[c].report_event_seq,
                                EventType::kCellReport, 0, c});
  }
  for (std::uint32_t u = 0; u < cfg_.ues; ++u) {
    const std::uint32_t s = shard_of_cell(ues_[u].cell);
    shards_[s]->heap.push(Event{ues_[u].next_move_us, s, ues_[u].move_seq,
                                EventType::kUeMove, u, 0});
  }
}

persist::Status CitySim::save(const std::string& path) const {
  persist::ByteWriter w;
  encode_state(w);
  persist::FrameWriter fw(kCkptTag);
  fw.section("config", fingerprint());
  fw.section("state", w.take());
  const persist::Status st = fw.commit(path);
  if (!st.ok()) return st;
  // Kill-point: the checkpoint is durable; a seeded plan may simulate the
  // process dying here and a fresh process must resume from it.
  fault::maybe_crash(fault::sites::kCkptCitysim, fault_);
  return persist::Status::Ok();
}

persist::Status CitySim::load(const std::string& path) {
  using persist::Status;
  using persist::StatusCode;
  persist::FrameReader fr;
  Status st = persist::FrameReader::load(path, kCkptTag, fr);
  if (!st.ok()) return st;
  std::string_view sec;
  st = fr.section("config", sec);
  if (!st.ok()) return st;
  if (sec != fingerprint())
    return Status::Fail(StatusCode::kMismatch,
                        "checkpoint was written by a different citysim "
                        "config (fingerprint differs)");
  st = fr.section("state", sec);
  if (!st.ok()) return st;
  persist::ByteReader r(sec);
  st = decode_state(r);
  if (!st.ok()) return st;
  rebuild_queues();
  return Status::Ok();
}

}  // namespace orev::citysim
