#include "oran/sdl.hpp"

#include <algorithm>
#include <cstring>

#include "nn/serialize.hpp"
#include "util/check.hpp"
#include "util/obs/obs.hpp"
#include "util/persist/frame.hpp"
#include "util/rng.hpp"

namespace orev::oran {

namespace {

/// Frame app tag for SDL snapshots.
constexpr const char* kSdlTag = "orev.sdl";

std::string snapshot_path(const std::string& dir) {
  return dir + "/sdl_snapshot.ckpt";
}

std::string journal_path(const std::string& dir) {
  return dir + "/sdl_journal.log";
}

/// Stable stripe hash: FNV-1a over ns, a separator byte no key contains a
/// requirement on, and the key. Depends only on the bytes — the property
/// that keeps stripe assignment identical across runs, processes and
/// stripe-count migrations (modulo the count itself).
std::uint64_t fnv1a(const std::string& ns, const std::string& key) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ull;
    }
  };
  mix(ns);
  h ^= 0x1f;
  h *= 0x100000001b3ull;
  mix(key);
  return h;
}

/// Lock-wait distribution in nanoseconds: only contended acquisitions are
/// observed, so an uncontended (historical single-threaded) workload
/// leaves the sketch empty instead of burying contention in zeros.
obs::SketchMetric& lock_wait_ns() {
  static obs::SketchMetric& s = obs::sketch(
      "oran.sdl.lock_wait_ns", 0.01,
      "nanoseconds spent waiting for a contended SDL stripe mutex");
  return s;
}

}  // namespace

Sdl::Sdl(const Rbac* rbac, std::size_t stripes) : rbac_(rbac) {
  OREV_CHECK(rbac != nullptr, "SDL requires an RBAC engine");
  OREV_CHECK(stripes > 0, "SDL needs at least one stripe");
  stripes_.reserve(stripes);
  for (std::size_t i = 0; i < stripes; ++i)
    stripes_.push_back(std::make_unique<Stripe>());
  lock_wait_ns();  // register the metric even if never contended
}

std::size_t Sdl::stripe_of(const std::string& ns,
                           const std::string& key) const {
  return static_cast<std::size_t>(fnv1a(ns, key) % stripes_.size());
}

std::uint64_t Sdl::stripe_contentions(std::size_t stripe) const {
  OREV_CHECK(stripe < stripes_.size(), "stripe index out of range");
  return stripes_[stripe]->contentions.load(std::memory_order_relaxed);
}

std::uint64_t Sdl::total_contentions() const {
  std::uint64_t total = 0;
  for (const auto& s : stripes_)
    total += s->contentions.load(std::memory_order_relaxed);
  return total;
}

std::unique_lock<std::mutex> Sdl::lock_stripe(std::size_t i) const {
  Stripe& s = *stripes_[i];
  std::unique_lock<std::mutex> lk(s.mu, std::try_to_lock);
  if (lk.owns_lock()) return lk;
  s.contentions.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& contended = obs::counter(
      "oran.sdl.stripe_contended",
      "SDL stripe acquisitions that found the mutex held");
  contended.inc();
  const auto t0 = std::chrono::steady_clock::now();
  lk.lock();
  const auto t1 = std::chrono::steady_clock::now();
  lock_wait_ns().observe(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
  return lk;
}

const std::string* Sdl::intern(std::string_view s) const {
  auto it = pool_.find(s);
  if (it == pool_.end()) it = pool_.emplace(s).first;
  return &*it;
}

SdlHandle Sdl::resolve(const std::string& app_id, const std::string& ns,
                       const std::string& key) const {
  SdlHandle h;
  h.sdl_ = this;
  {
    std::lock_guard<std::mutex> lock(audit_mu_);
    h.app_ = intern(app_id);
    h.ns_ = intern(ns);
    h.key_ = intern(key);
  }
  h.pooled_ = true;
  h.stripe_ = stripe_of(ns, key);
  return h;
}

SdlHandle Sdl::transient(const std::string& app_id, const std::string& ns,
                         const std::string& key) const {
  SdlHandle h;
  h.sdl_ = this;
  h.app_ = &app_id;
  h.ns_ = &ns;
  h.key_ = &key;
  h.stripe_ = stripe_of(ns, key);
  return h;
}

bool Sdl::check(SdlHandle& h, Op op) const {
  OREV_CHECK(h.sdl_ == this, "SDL handle used with another store");
  // Observability: SDL traffic is the paper's attack surface (a malicious
  // app perturbing telemetry in place), so read/write/denial volumes are
  // first-class metrics.
  static obs::Counter& reads =
      obs::counter("oran.sdl.reads", "SDL read attempts");
  static obs::Counter& writes =
      obs::counter("oran.sdl.writes", "SDL write attempts");
  static obs::Counter& denied =
      obs::counter("oran.sdl.denied", "SDL accesses denied by RBAC/ABAC");
  static obs::Counter& audit_evicted = obs::counter(
      "oran.sdl.audit_dropped", "audit records evicted from the ring");
  (op == Op::kRead ? reads : writes).inc();
  const std::uint64_t gen = rbac_->generation();
  std::uint64_t& decided_at = op == Op::kRead ? h.read_gen_ : h.write_gen_;
  bool& ok = op == Op::kRead ? h.read_ok_ : h.write_ok_;
  if (decided_at != gen) {
    ok = rbac_->allowed(*h.app_, *h.ns_, op);
    decided_at = gen;
  }
  if (!ok) denied.inc();
  std::lock_guard<std::mutex> lock(audit_mu_);
  const AuditLog::Slot rec =
      h.pooled_ ? AuditLog::Slot{h.app_, h.ns_, h.key_, op, ok}
                : AuditLog::Slot{intern(*h.app_), intern(*h.ns_),
                                 intern(*h.key_), op, ok};
  util::Ring<AuditLog::Slot>& ring = audit_.ring_;
  if (ring.full()) {
    ring.pop_front();
    ++audit_dropped_;
    audit_evicted.inc();
  }
  ring.push_slot() = rec;
  return ok;
}

void Sdl::set_audit_capacity(std::size_t capacity) {
  OREV_CHECK(capacity > 0, "audit capacity must be positive");
  std::lock_guard<std::mutex> lock(audit_mu_);
  audit_dropped_ += audit_.ring_.set_capacity(capacity);
}

Sdl::Entry* Sdl::find_entry(SdlHandle& h) const {
  if (h.entry_ == nullptr) {
    auto& store = stripes_[h.stripe_]->store;
    const auto it = store.find(
        std::pair<std::string_view, std::string_view>(*h.ns_, *h.key_));
    if (it != store.end()) h.entry_ = &it->second;
  }
  return h.entry_;
}

Sdl::Entry& Sdl::entry_for_write(SdlHandle& h) {
  if (find_entry(h) == nullptr)
    h.entry_ = &stripes_[h.stripe_]->store.try_emplace(Key(*h.ns_, *h.key_))
                    .first->second;
  return *h.entry_;
}

SdlStatus Sdl::storage_fault(Op op, nn::Tensor* payload) const {
  fault::FaultInjector* fi = fault::effective(fault_);
  if (fi == nullptr) return SdlStatus::kOk;
  static obs::Counter& unavailable = obs::counter(
      "oran.sdl.unavailable", "SDL ops failed by injected transient faults");
  static obs::Counter& lost = obs::counter(
      "oran.sdl.writes_lost", "SDL writes silently dropped by faults");
  static obs::Counter& corrupted = obs::counter(
      "oran.sdl.corrupted", "SDL payloads corrupted by faults");
  const bool is_read = op == Op::kRead;
  const fault::FaultDecision d =
      fi->decide(is_read ? fault::sites::kSdlRead : fault::sites::kSdlWrite);
  switch (d.kind) {
    case fault::FaultKind::kTransient:
    case fault::FaultKind::kDelay:  // storage has no timing axis here:
                                    // delays degrade to transient failures
      unavailable.inc();
      (is_read ? unavailable_reads_ : unavailable_writes_)
          .fetch_add(1, std::memory_order_relaxed);
      return SdlStatus::kUnavailable;
    case fault::FaultKind::kDrop:
      if (is_read) {  // a dropped read response is indistinguishable from
                      // an unavailable backend to the caller
        unavailable.inc();
        unavailable_reads_.fetch_add(1, std::memory_order_relaxed);
        return SdlStatus::kUnavailable;
      }
      lost.inc();
      dropped_writes_.fetch_add(1, std::memory_order_relaxed);
      return SdlStatus::kNotFound;  // sentinel: caller drops the write
    case fault::FaultKind::kCorrupt:
      if (payload != nullptr && !payload->empty()) {
        corrupted.inc();
        corrupted_writes_.fetch_add(1, std::memory_order_relaxed);
        Rng rng(d.payload_seed);
        for (std::size_t i = 0; i < payload->numel(); ++i)
          (*payload)[i] += rng.normal(0.0f, d.corrupt_scale);
      }
      return SdlStatus::kOk;
    default:
      return SdlStatus::kOk;
  }
}

SdlStatus Sdl::shard_fault(Op op) const {
  fault::FaultInjector* fi = fault::effective(fault_);
  if (fi == nullptr) return SdlStatus::kOk;
  const fault::FaultDecision d = fi->decide(fault::sites::kSdlShard);
  switch (d.kind) {
    case fault::FaultKind::kTransient:
    case fault::FaultKind::kDelay:
    case fault::FaultKind::kDrop: {
      // A partition outage is retryable whichever way it manifests: the
      // caller cannot reach the stripe, so reads and writes both surface
      // kUnavailable (no silent write loss at this site — that semantics
      // belongs to sdl.write).
      static obs::Counter& outages = obs::counter(
          "oran.sdl.shard_unavailable",
          "SDL ops failed by injected per-stripe outages");
      outages.inc();
      (op == Op::kRead ? unavailable_reads_ : unavailable_writes_)
          .fetch_add(1, std::memory_order_relaxed);
      return SdlStatus::kUnavailable;
    }
    default:
      return SdlStatus::kOk;
  }
}

template <class Store>
SdlStatus Sdl::write_entry(SdlHandle& h, nn::Tensor* payload,
                           const std::size_t* tensor_numel, Store&& store) {
  if (!check(h, Op::kWrite)) return SdlStatus::kDenied;
  const SdlStatus fault_st = storage_fault(Op::kWrite, payload);
  if (fault_st == SdlStatus::kUnavailable) return SdlStatus::kUnavailable;
  if (fault_st == SdlStatus::kNotFound) return SdlStatus::kOk;  // lost write
  if (shard_fault(Op::kWrite) == SdlStatus::kUnavailable)
    return SdlStatus::kUnavailable;
  if (payload != nullptr || tensor_numel != nullptr) {
    // Payload-size distribution: a sketch, because write sizes are
    // exactly the kind of long-tailed series fixed buckets misrepresent.
    static obs::SketchMetric& write_values = obs::sketch(
        "oran.sdl.write_values", 0.01,
        "tensor elements per committed SDL write");
    write_values.observe(static_cast<double>(
        payload != nullptr ? payload->numel() : *tensor_numel));
  }
  std::unique_lock<std::mutex> lk = lock_stripe(h.stripe_);
  Entry& e = entry_for_write(h);
  store(e);
  e.writer.assign(*h.app_);
  ++e.version;
  journal_write(*h.ns_, *h.key_, e);
  return SdlStatus::kOk;
}

SdlStatus Sdl::write_tensor(SdlHandle& h, nn::Tensor&& value) {
  return write_entry(h, &value, nullptr, [&value](Entry& e) {
    e.tensor = std::move(value);
    e.is_tensor = true;
  });
}

SdlStatus Sdl::write_tensor_inplace(SdlHandle& h, const nn::Shape& shape,
                                    std::span<const float> data) {
  OREV_CHECK(nn::shape_numel(shape) == data.size(),
             "write_tensor_inplace payload does not match its shape");
  // The fault surface is identical to write_tensor; corruption is applied
  // to the stored entry after the copy so the caller's span stays const.
  const std::size_t numel = data.size();
  return write_entry(h, nullptr, &numel, [&](Entry& e) {
    if (e.is_tensor && e.tensor.shape() == shape) {
      std::memcpy(e.tensor.raw(), data.data(), data.size() * sizeof(float));
    } else {
      e.tensor =
          nn::Tensor(shape, std::vector<float>(data.begin(), data.end()));
    }
    e.is_tensor = true;
  });
}

SdlStatus Sdl::write_text(SdlHandle& h, std::string_view value) {
  return write_entry(h, nullptr, nullptr, [value](Entry& e) {
    e.text.assign(value);
    e.is_tensor = false;
  });
}

SdlStatus Sdl::read_tensor(SdlHandle& h, nn::Tensor& out) const {
  if (!check(h, Op::kRead)) return SdlStatus::kDenied;
  if (storage_fault(Op::kRead, nullptr) == SdlStatus::kUnavailable)
    return SdlStatus::kUnavailable;
  if (shard_fault(Op::kRead) == SdlStatus::kUnavailable)
    return SdlStatus::kUnavailable;
  std::unique_lock<std::mutex> lk = lock_stripe(h.stripe_);
  const Entry* e = find_entry(h);
  if (e == nullptr || !e->is_tensor) return SdlStatus::kNotFound;
  out = e->tensor;
  return SdlStatus::kOk;
}

SdlStatus Sdl::read_text(SdlHandle& h, std::string& out) const {
  if (!check(h, Op::kRead)) return SdlStatus::kDenied;
  if (storage_fault(Op::kRead, nullptr) == SdlStatus::kUnavailable)
    return SdlStatus::kUnavailable;
  if (shard_fault(Op::kRead) == SdlStatus::kUnavailable)
    return SdlStatus::kUnavailable;
  std::unique_lock<std::mutex> lk = lock_stripe(h.stripe_);
  const Entry* e = find_entry(h);
  if (e == nullptr || e->is_tensor) return SdlStatus::kNotFound;
  out = e->text;
  return SdlStatus::kOk;
}

std::optional<std::uint64_t> Sdl::version(SdlHandle& h) const {
  OREV_CHECK(h.sdl_ == this, "SDL handle used with another store");
  std::unique_lock<std::mutex> lk = lock_stripe(h.stripe_);
  const Entry* e = find_entry(h);
  if (e == nullptr) return std::nullopt;
  return e->version;
}

bool Sdl::last_writer(SdlHandle& h, std::string& out) const {
  OREV_CHECK(h.sdl_ == this, "SDL handle used with another store");
  std::unique_lock<std::mutex> lk = lock_stripe(h.stripe_);
  const Entry* e = find_entry(h);
  if (e == nullptr) return false;
  out.assign(e->writer);
  return true;
}

// String-keyed API: each call runs its handle twin on a one-shot handle.

SdlStatus Sdl::write_tensor(const std::string& app_id, const std::string& ns,
                            const std::string& key, const nn::Tensor& value) {
  // Copying-then-delegating preserves the historical by-value semantics
  // exactly: a corrupt fault perturbs the copy, never the caller's tensor.
  nn::Tensor copy = value;
  return write_tensor(app_id, ns, key, std::move(copy));
}

SdlStatus Sdl::write_tensor(const std::string& app_id, const std::string& ns,
                            const std::string& key, nn::Tensor&& value) {
  SdlHandle h = transient(app_id, ns, key);
  return write_tensor(h, std::move(value));
}

SdlStatus Sdl::write_tensor_inplace(const std::string& app_id,
                                    const std::string& ns,
                                    const std::string& key,
                                    const nn::Shape& shape,
                                    std::span<const float> data) {
  SdlHandle h = transient(app_id, ns, key);
  return write_tensor_inplace(h, shape, data);
}

SdlStatus Sdl::write_text(const std::string& app_id, const std::string& ns,
                          const std::string& key, std::string value) {
  SdlHandle h = transient(app_id, ns, key);
  return write_text(h, value);
}

SdlStatus Sdl::read_tensor(const std::string& app_id, const std::string& ns,
                           const std::string& key, nn::Tensor& out) const {
  SdlHandle h = transient(app_id, ns, key);
  return read_tensor(h, out);
}

SdlStatus Sdl::read_text(const std::string& app_id, const std::string& ns,
                         const std::string& key, std::string& out) const {
  SdlHandle h = transient(app_id, ns, key);
  return read_text(h, out);
}

std::optional<std::uint64_t> Sdl::version(const std::string& ns,
                                          const std::string& key) const {
  static const std::string kNoApp;
  SdlHandle h = transient(kNoApp, ns, key);
  return version(h);
}

std::optional<std::string> Sdl::last_writer(const std::string& ns,
                                            const std::string& key) const {
  static const std::string kNoApp;
  SdlHandle h = transient(kNoApp, ns, key);
  std::string out;
  if (!last_writer(h, out)) return std::nullopt;
  return out;
}

std::vector<std::string> Sdl::keys(const std::string& ns) const {
  // Each stripe's map is (ns, key)-sorted; the merged result is re-sorted
  // so callers see exactly the historical single-map ordering.
  std::vector<std::string> out;
  for (std::size_t si = 0; si < stripes_.size(); ++si) {
    std::unique_lock<std::mutex> lk = lock_stripe(si);
    for (const auto& [k, v] : stripes_[si]->store) {
      if (k.first == ns) out.push_back(k.second);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ----- crash-safe persistence ---------------------------------------------

namespace {

/// One entry's wire form, shared by snapshot sections and journal records:
/// [u8 is_tensor][str ns][str key][str writer][u64 version][payload].
void encode_entry(persist::ByteWriter& w, const std::string& ns,
                  const std::string& key, const std::string& writer,
                  std::uint64_t version, bool is_tensor,
                  const nn::Tensor& tensor, const std::string& text) {
  w.u8(is_tensor ? 1 : 0);
  w.str(ns);
  w.str(key);
  w.str(writer);
  w.u64(version);
  if (is_tensor) {
    nn::write_tensor(w, tensor);
  } else {
    w.str(text);
  }
}

}  // namespace

persist::Status Sdl::apply_entry(persist::ByteReader& r) {
  using persist::Status;
  using persist::StatusCode;
  std::uint8_t is_tensor = 0;
  std::string ns, key, writer;
  std::uint64_t version = 0;
  if (!r.u8(is_tensor) || !r.str(ns) || !r.str(key) || !r.str(writer) ||
      !r.u64(version))
    return Status::Fail(StatusCode::kTruncated, "SDL entry truncated");
  Entry e;
  e.is_tensor = is_tensor != 0;
  e.writer = std::move(writer);
  e.version = version;
  if (e.is_tensor) {
    Status st = nn::read_tensor(r, e.tensor);
    if (!st.ok()) return st;
  } else {
    if (!r.str(e.text))
      return Status::Fail(StatusCode::kTruncated, "SDL text payload missing");
  }
  const std::size_t si = stripe_of(ns, key);
  stripes_[si]->store.insert_or_assign(Key(std::move(ns), std::move(key)),
                                       std::move(e));
  return Status::Ok();
}

void Sdl::journal_write(const std::string& ns, const std::string& key,
                        const Entry& e) {
  std::lock_guard<std::mutex> lock(journal_mu_);
  if (!journal_.is_open()) return;
  journal_buf_.clear();
  encode_entry(journal_buf_, ns, key, e.writer, e.version, e.is_tensor,
               e.tensor, e.text);
  const persist::Status st = journal_.append(journal_buf_.buffer());
  OREV_CHECK(st.ok(),
             "SDL journal append failed: " + st.message());
  // Kill-point: the record is on disk; a seeded plan may simulate the
  // process dying here, leaving the journal as the only trace.
  fault::maybe_crash(fault::sites::kSdlJournal, fault_);
}

persist::Status Sdl::attach_storage(const std::string& dir,
                                    bool sync_each_write) {
  using persist::Status;
  OREV_CHECK(!dir.empty(), "attach_storage needs a directory");
  journal_.close();
  storage_dir_ = dir;
  sync_each_write_ = sync_each_write;
  journal_replayed_ = 0;
  journal_tail_torn_ = false;

  // 1. Snapshot: the compacted base state (absent on first attach).
  const std::string snap = snapshot_path(dir);
  if (persist::file_exists(snap)) {
    persist::FrameReader fr;
    Status st = persist::FrameReader::load(snap, kSdlTag, fr);
    if (!st.ok()) return st;
    std::string_view sec;
    st = fr.section("entries", sec);
    if (!st.ok()) return st;
    persist::ByteReader r(sec);
    std::uint64_t count = 0;
    if (!r.u64(count))
      return Status::Fail(persist::StatusCode::kTruncated,
                          "SDL snapshot entry count missing");
    for (std::uint64_t i = 0; i < count; ++i) {
      st = apply_entry(r);
      if (!st.ok()) return st;
    }
    st = r.finish("SDL snapshot entries");
    if (!st.ok()) return st;
  }

  // 2. Journal: replay the clean prefix of writes since that snapshot;
  //    truncate away a torn tail left by a crash mid-append.
  const std::string jpath = journal_path(dir);
  persist::JournalScan scan;
  const Status scan_st = persist::scan_journal(jpath, scan);
  if (scan_st.ok()) {
    for (const std::string& rec : scan.records) {
      persist::ByteReader r(rec);
      Status st = apply_entry(r);
      if (!st.ok()) return st;
      st = r.finish("SDL journal record");
      if (!st.ok()) return st;
      ++journal_replayed_;
    }
    if (scan.torn_tail) {
      journal_tail_torn_ = true;
      Status st = persist::truncate_file(jpath, scan.valid_bytes);
      if (!st.ok()) return st;
    }
  } else if (scan_st.code != persist::StatusCode::kNotFound) {
    return scan_st;
  }

  // 3. Log every write from here on.
  return journal_.open(jpath, sync_each_write);
}

persist::Status Sdl::snapshot() {
  using persist::Status;
  OREV_CHECK(journal_.is_open(), "snapshot() requires attached storage");

  // Serialise in global (ns, key) order so the snapshot bytes never
  // depend on the stripe count. Each stripe map is already sorted;
  // gather pointers and merge-sort across stripes.
  std::vector<std::pair<const Key*, const Entry*>> all;
  std::size_t total = 0;
  for (const auto& s : stripes_) total += s->store.size();
  all.reserve(total);
  for (const auto& s : stripes_) {
    for (const auto& [k, e] : s->store) all.emplace_back(&k, &e);
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });

  persist::ByteWriter w;
  w.u64(all.size());
  for (const auto& [k, e] : all)
    encode_entry(w, k->first, k->second, e->writer, e->version, e->is_tensor,
                 e->tensor, e->text);
  persist::FrameWriter fw(kSdlTag);
  fw.section("entries", w.take());
  Status st = fw.commit(snapshot_path(storage_dir_));
  if (!st.ok()) return st;

  // The snapshot covers every journaled write: restart the journal. A
  // crash between commit and truncate only re-replays records whose
  // effects the snapshot already holds — replay is idempotent.
  journal_.close();
  st = persist::truncate_file(journal_path(storage_dir_), 0);
  if (!st.ok()) return st;
  return journal_.open(journal_path(storage_dir_), sync_each_write_);
}

}  // namespace orev::oran
