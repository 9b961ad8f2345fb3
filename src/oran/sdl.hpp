// Shared Data Layer (SDL): the RIC-internal namespaced key-value store that
// xApps/rApps read telemetry from and (when permitted) write to.
//
// Every access is mediated by the RBAC/ABAC engine and recorded in an audit
// log. The paper's core attack path — a malicious app with (mis)granted
// write access perturbing the telemetry a victim app consumes — happens
// entirely through this interface.
//
// Sharding (DESIGN.md §16): the key map is split into `stripe_count()`
// lock-striped partitions keyed by a stable FNV-1a hash of (ns, key), so
// city-scale simulation shards can write per-cell telemetry concurrently
// without serialising on one mutex. The stripe of a key depends only on
// its bytes — never on stripe history, insertion order, or thread count —
// and every externally visible semantic (per-entry versions, last-writer
// identity, sorted keys(), journal replay, snapshot compaction bytes) is
// identical to the historical single-map store. A one-stripe SDL *is* the
// old single-mutex behaviour, which is what bench_perf_report's contention
// phase compares against. Lock waits are observed into the
// "oran.sdl.lock_wait_ns" sketch and per-stripe contention counters so
// the sharding win is measurable.
//
// Robustness: an optional FaultInjector models a flaky storage backend
// (site "sdl.read"/"sdl.write", plus per-partition outages at site
// "sdl.shard"). Transient faults surface as SdlStatus::kUnavailable — a
// retryable condition distinct from kDenied / kNotFound — write drops are
// silently lost, and corruption perturbs the stored/returned tensor
// deterministically. With no injector the store is perfectly reliable, as
// before. The audit log is a bounded ring so long chaos soaks cannot grow
// it without bound.
//
// Handles (DESIGN.md §16): resolve(app, ns, key) turns the three strings
// into an SdlHandle once — interned strings, the stripe, the entry once it
// exists, and the app's RBAC decision per operation, cached against
// Rbac::generation() so any policy change is honoured on the next access.
// Every string-keyed call is a thin wrapper that runs the same handle
// operation on a one-shot handle, so both paths draw the same fault
// decisions and leave the same audit records, store bytes and journal.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "nn/tensor.hpp"
#include "oran/rbac.hpp"
#include "util/fault/fault.hpp"
#include "util/persist/bytes.hpp"
#include "util/persist/journal.hpp"
#include "util/persist/persist.hpp"
#include "util/ring.hpp"
#include "util/string_hash.hpp"

namespace orev::oran {

enum class SdlStatus { kOk, kDenied, kNotFound, kUnavailable };

class Sdl;

/// One audited access, as read back from the ring: the strings are the
/// SDL's interned copies, valid for the SDL's lifetime.
struct AuditRecord {
  const std::string& app_id;
  const std::string& ns;
  const std::string& key;
  Op op = Op::kRead;
  bool allowed = false;
};

/// Bounded audit ring, oldest record first. Records hold pointers to
/// interned strings (32 bytes each, no heap per record); a full ring
/// overwrites its oldest slot in place.
class AuditLog {
 public:
  std::size_t size() const { return ring_.size(); }
  bool empty() const { return ring_.empty(); }
  /// Record `i` counted from the oldest.
  AuditRecord operator[](std::size_t i) const {
    const Slot& s = ring_[i];
    return AuditRecord{*s.app, *s.ns, *s.key, s.op, s.allowed};
  }
  AuditRecord front() const { return (*this)[0]; }
  AuditRecord back() const { return (*this)[size() - 1]; }

 private:
  friend class Sdl;
  struct Slot {
    const std::string* app = nullptr;
    const std::string* ns = nullptr;
    const std::string* key = nullptr;
    Op op = Op::kRead;
    bool allowed = false;
  };
  explicit AuditLog(std::size_t capacity) : ring_(capacity) {}

  util::Ring<Slot> ring_;
};

/// One stored value. Entries are never erased, so a handle may cache a
/// pointer to one for the SDL's lifetime.
struct SdlEntry {
  nn::Tensor tensor;
  std::string text;
  bool is_tensor = false;
  std::string writer;
  std::uint64_t version = 0;
};

/// (app, ns, key) resolved once by Sdl::resolve(). A handle is owned by
/// one caller and used from one thread at a time (its caches are plain
/// fields); it must not outlive the SDL that issued it.
class SdlHandle {
 private:
  friend class Sdl;
  static constexpr std::uint64_t kUndecided = ~std::uint64_t{0};

  const Sdl* sdl_ = nullptr;
  const std::string* app_ = nullptr;
  const std::string* ns_ = nullptr;
  const std::string* key_ = nullptr;
  /// Strings interned in the SDL's pool (resolve()); else they are the
  /// caller's, valid for one call (string-keyed wrappers).
  bool pooled_ = false;
  std::size_t stripe_ = 0;
  SdlEntry* entry_ = nullptr;  // set once the entry exists
  // RBAC decision per op, valid while Rbac::generation() is unchanged.
  std::uint64_t read_gen_ = kUndecided;
  std::uint64_t write_gen_ = kUndecided;
  bool read_ok_ = false;
  bool write_ok_ = false;
};

class Sdl {
 public:
  /// Default partition count; one stripe reproduces the historical
  /// single-mutex store exactly.
  static constexpr std::size_t kDefaultStripes = 16;

  /// The RBAC engine must outlive the SDL.
  explicit Sdl(const Rbac* rbac, std::size_t stripes = kDefaultStripes);

  /// Resolve (app, ns, key) once for repeated access: interns the three
  /// strings and computes the stripe. No RBAC check and no audit record
  /// happen here — every operation through the handle is checked and
  /// audited exactly like its string-keyed twin.
  SdlHandle resolve(const std::string& app_id, const std::string& ns,
                    const std::string& key) const;

  // Handle operations: the same semantics as the string-keyed calls below.
  SdlStatus write_tensor(SdlHandle& h, nn::Tensor&& value);
  SdlStatus write_tensor_inplace(SdlHandle& h, const nn::Shape& shape,
                                 std::span<const float> data);
  /// Assigns into the entry's existing text buffer.
  SdlStatus write_text(SdlHandle& h, std::string_view value);
  SdlStatus read_tensor(SdlHandle& h, nn::Tensor& out) const;
  SdlStatus read_text(SdlHandle& h, std::string& out) const;
  std::optional<std::uint64_t> version(SdlHandle& h) const;
  /// Copies the entry's last writer into `out` (reusing its buffer);
  /// false, `out` untouched, when the entry does not exist.
  bool last_writer(SdlHandle& h, std::string& out) const;

  SdlStatus write_tensor(const std::string& app_id, const std::string& ns,
                         const std::string& key, const nn::Tensor& value);

  /// Move-in write for the indication hot path: `value` is consumed only
  /// when the write commits, so a retry loop that re-moves the same
  /// tensor after kUnavailable still holds its payload. (Corner case: a
  /// corrupt fault perturbs `value` in place before a later shard-outage
  /// check, so a retried payload can carry the perturbation — the caller
  /// handed over ownership, and faults are opt-in test machinery.)
  SdlStatus write_tensor(const std::string& app_id, const std::string& ns,
                         const std::string& key, nn::Tensor&& value);

  SdlStatus write_text(const std::string& app_id, const std::string& ns,
                       const std::string& key, std::string value);

  /// Allocation-free tensor write for the binary KPM hot path: when the
  /// entry already holds a tensor of `shape`, the payload is copied into
  /// its existing storage (no allocation); otherwise this degrades to a
  /// fresh tensor. Versioning, audit, fault and journal semantics are
  /// identical to write_tensor.
  SdlStatus write_tensor_inplace(const std::string& app_id,
                                 const std::string& ns, const std::string& key,
                                 const nn::Shape& shape,
                                 std::span<const float> data);

  /// Read into `out`; returns kDenied/kNotFound/kUnavailable without
  /// touching `out` on failure.
  SdlStatus read_tensor(const std::string& app_id, const std::string& ns,
                        const std::string& key, nn::Tensor& out) const;
  SdlStatus read_text(const std::string& app_id, const std::string& ns,
                      const std::string& key, std::string& out) const;

  /// Version counter of an entry (bumped on every successful write);
  /// nullopt when absent. Versions let apps detect tampering windows and
  /// bound the staleness of cached telemetry during outages.
  std::optional<std::uint64_t> version(const std::string& ns,
                                       const std::string& key) const;

  /// Identity of the last successful writer of an entry (for audits).
  std::optional<std::string> last_writer(const std::string& ns,
                                         const std::string& key) const;

  /// Bounded audit ring: the most recent `audit_capacity()` records.
  /// The ring is shared across stripes; read it only while no concurrent
  /// SDL traffic is in flight (tests and log consumers are serial).
  const AuditLog& audit_log() const { return audit_; }
  void clear_audit_log() {
    std::lock_guard<std::mutex> lock(audit_mu_);
    audit_.ring_.clear();
  }

  /// Ring capacity (default 65536); shrinking drops the oldest records.
  void set_audit_capacity(std::size_t capacity);
  std::size_t audit_capacity() const { return audit_.ring_.capacity(); }

  /// Records evicted from the ring so far. The sequence number of
  /// audit_log().front() is exactly this value, which lets log consumers
  /// (e.g. SdlWriteMonitor) keep stable cursors across evictions.
  std::uint64_t audit_dropped_records() const { return audit_dropped_; }

  /// Inject storage faults (nullptr restores perfect reliability). Falls
  /// back to the process-global injector when unset.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

  /// Reads/writes that reported kUnavailable due to injected faults.
  std::uint64_t unavailable_reads() const { return unavailable_reads_; }
  std::uint64_t unavailable_writes() const { return unavailable_writes_; }
  /// Writes silently lost (reported kOk, store untouched).
  std::uint64_t dropped_writes() const { return dropped_writes_; }
  /// Writes whose payload was corrupted before storing.
  std::uint64_t corrupted_writes() const { return corrupted_writes_; }

  /// All keys currently present in a namespace, ascending.
  std::vector<std::string> keys(const std::string& ns) const;

  // ----- sharding ---------------------------------------------------------
  std::size_t stripe_count() const { return stripes_.size(); }

  /// Stable partition index of a key: FNV-1a over ns and key bytes, mod
  /// the stripe count. Exposed so tests can pin cross-stripe scenarios.
  std::size_t stripe_of(const std::string& ns, const std::string& key) const;

  /// Lock acquisitions that found the stripe mutex already held.
  std::uint64_t stripe_contentions(std::size_t stripe) const;
  std::uint64_t total_contentions() const;

  // ----- crash-safe persistence -----------------------------------------
  // Durable store state under `dir`: a framed snapshot
  // (<dir>/sdl_snapshot.ckpt) plus an append-only write journal
  // (<dir>/sdl_journal.log). attach_storage() loads the snapshot (if any),
  // replays the journal's clean prefix on top — truncating a torn tail
  // from a crash mid-append — and then logs every subsequent successful
  // write. snapshot() compacts: it atomically rewrites the snapshot from
  // the live store and resets the journal. Snapshot bytes are
  // stripe-independent: entries are serialised in ascending (ns, key)
  // order regardless of partitioning, so snapshots written by a 1-stripe
  // store load into a 16-stripe store (and vice versa) byte-exactly.
  // With `sync_each_write` every journal append is fsync'd (power-loss
  // durable) at a per-write cost. Without attach_storage() the SDL stays
  // purely in-memory, as before. Attach/snapshot assume no concurrent
  // traffic (they are maintenance operations, not hot-path ones).
  persist::Status attach_storage(const std::string& dir,
                                 bool sync_each_write = false);
  persist::Status snapshot();
  bool storage_attached() const { return journal_.is_open(); }
  /// Journal records replayed by the last attach_storage().
  std::uint64_t journal_replayed() const { return journal_replayed_; }
  /// Whether the last attach_storage() found (and dropped) a torn tail.
  bool journal_tail_torn() const { return journal_tail_torn_; }

 private:
  using Entry = SdlEntry;
  using Key = std::pair<std::string, std::string>;

  /// (ns, key) order for any pair of string-likes, so lookups compare
  /// views instead of building a std::pair<std::string, std::string>.
  struct KeyLess {
    using is_transparent = void;
    template <class A, class B>
    bool operator()(const A& a, const B& b) const {
      const int c = std::string_view(a.first).compare(b.first);
      return c != 0 ? c < 0 : std::string_view(a.second) < b.second;
    }
  };

  /// One partition: its own mutex, its own sorted map. unique_ptr keeps
  /// the stripe array constructible (std::mutex is not movable).
  struct Stripe {
    mutable std::mutex mu;
    std::map<Key, Entry, KeyLess> store;
    std::atomic<std::uint64_t> contentions{0};
  };

  /// One-shot handle over caller-owned strings (string-keyed wrappers).
  SdlHandle transient(const std::string& app_id, const std::string& ns,
                      const std::string& key) const;
  /// Pooled copy of `s`; call with audit_mu_ held.
  const std::string* intern(std::string_view s) const;

  /// RBAC decision (cached in the handle per generation) plus one audit
  /// record.
  bool check(SdlHandle& h, Op op) const;
  /// The handle's entry, looked up (and cached) on first use; null when
  /// it does not exist. Call with the stripe lock held.
  Entry* find_entry(SdlHandle& h) const;
  /// The handle's entry, created on first write. Stripe lock held.
  Entry& entry_for_write(SdlHandle& h);
  /// Shared write path: check, fault draws (a corrupt fault perturbs
  /// `payload`), then `store(entry)` under the stripe lock, versioning
  /// and journaling. Tensor writes observe their element count — the
  /// payload's, else `*tensor_numel`; text writes pass neither.
  template <class Store>
  SdlStatus write_entry(SdlHandle& h, nn::Tensor* payload,
                        const std::size_t* tensor_numel, Store&& store);

  /// Fault decision for one storage op; returns the injected status to
  /// surface (kOk = proceed normally). May corrupt `payload` in place.
  SdlStatus storage_fault(Op op, nn::Tensor* payload) const;

  /// Per-partition outage site ("sdl.shard"): kUnavailable on a transient
  /// decision, kOk otherwise. Drawn once per stripe access under a plan.
  SdlStatus shard_fault(Op op) const;

  /// Acquire a stripe's mutex, recording contention and lock-wait time.
  std::unique_lock<std::mutex> lock_stripe(std::size_t i) const;

  /// Append one committed write to the journal (no-op when detached),
  /// then serve the "sdl.journal" kill-point.
  void journal_write(const std::string& ns, const std::string& key,
                     const Entry& e);
  /// Decode one serialised entry and apply it to the store.
  persist::Status apply_entry(persist::ByteReader& r);

  const Rbac* rbac_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  // The audit ring and the string pool its records point into. The pool
  // keeps every distinct app id, namespace and key ever accessed:
  // bounded by the key space, as the store itself is.
  mutable std::mutex audit_mu_;
  mutable AuditLog audit_{65536};
  mutable std::unordered_set<std::string, util::StringHash, std::equal_to<>>
      pool_;
  mutable std::uint64_t audit_dropped_ = 0;
  fault::FaultInjector* fault_ = nullptr;
  mutable std::atomic<std::uint64_t> unavailable_reads_{0};
  mutable std::atomic<std::uint64_t> unavailable_writes_{0};
  mutable std::atomic<std::uint64_t> dropped_writes_{0};
  mutable std::atomic<std::uint64_t> corrupted_writes_{0};
  std::string storage_dir_;
  bool sync_each_write_ = false;
  mutable std::mutex journal_mu_;
  persist::JournalWriter journal_;
  persist::ByteWriter journal_buf_;  // record encode buffer, reused
  std::uint64_t journal_replayed_ = 0;
  bool journal_tail_torn_ = false;
};

}  // namespace orev::oran
