#include "util/fault/fault.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/check.hpp"
#include "util/obs/flight.hpp"
#include "util/obs/metrics.hpp"
#include "util/rng.hpp"

namespace orev::fault {

namespace {

/// FNV-1a over the site name: a platform-stable stream key (std::hash is
/// implementation-defined, which would break cross-build reproducibility
/// of committed fault schedules).
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

FaultInjector* g_injector = nullptr;

}  // namespace

std::string fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kNone: return "none";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kTransient: return "transient";
    case FaultKind::kCrash: return "crash";
  }
  return "none";
}

std::optional<FaultKind> fault_kind_from_name(const std::string& name) {
  for (int k = 0; k < kFaultKindCount; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    if (fault_kind_name(kind) == name) return kind;
  }
  return std::nullopt;
}

// ------------------------------------------------------------- FaultPlan

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  std::istringstream lines(text);
  std::string line;
  int lineno = 0;
  while (std::getline(lines, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream tok(line);
    std::string word;
    if (!(tok >> word)) continue;  // blank / comment-only line
    const std::string where = "fault plan line " + std::to_string(lineno);
    if (word == "seed") {
      std::string value;
      OREV_CHECK(static_cast<bool>(tok >> value),
                 where + ": seed needs a value");
      plan.seed = std::strtoull(value.c_str(), nullptr, 0);
      continue;
    }
    OREV_CHECK(word == "site",
               where + ": expected 'seed' or 'site', got '" + word + "'");
    std::string site, kind_name;
    OREV_CHECK(static_cast<bool>(tok >> site >> kind_name),
               where + ": site needs <name> <kind>");
    const auto kind = fault_kind_from_name(kind_name);
    OREV_CHECK(kind.has_value() && *kind != FaultKind::kNone,
               where + ": unknown fault kind '" + kind_name + "'");
    FaultSpec spec;
    spec.kind = *kind;
    while (tok >> word) {
      const auto eq = word.find('=');
      OREV_CHECK(eq != std::string::npos && eq + 1 < word.size(),
                 where + ": expected key=value, got '" + word + "'");
      const std::string key = word.substr(0, eq);
      const std::string value = word.substr(eq + 1);
      if (key == "p") {
        spec.probability = std::atof(value.c_str());
      } else if (key == "delay_ms") {
        spec.delay_ms = std::atof(value.c_str());
      } else if (key == "corrupt_scale") {
        spec.corrupt_scale = static_cast<float>(std::atof(value.c_str()));
      } else if (key == "max") {
        spec.max_injections = std::strtoull(value.c_str(), nullptr, 0);
      } else if (key == "after") {
        spec.after = std::strtoull(value.c_str(), nullptr, 0);
      } else {
        OREV_CHECK(false, where + ": unknown key '" + key + "'");
      }
    }
    OREV_CHECK(spec.probability >= 0.0 && spec.probability <= 1.0,
               where + ": p must be in [0, 1]");
    plan.sites[site].push_back(spec);
  }
  return plan;
}

std::optional<FaultPlan> FaultPlan::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

std::string FaultPlan::to_string() const {
  std::ostringstream out;
  out << "seed " << seed << "\n";
  for (const auto& [site, specs] : sites) {
    for (const FaultSpec& s : specs) {
      char line[256];
      std::snprintf(line, sizeof(line), "site %s %s p=%g", site.c_str(),
                    fault_kind_name(s.kind).c_str(), s.probability);
      out << line;
      if (s.kind == FaultKind::kDelay) out << " delay_ms=" << s.delay_ms;
      if (s.kind == FaultKind::kCorrupt)
        out << " corrupt_scale=" << s.corrupt_scale;
      if (s.max_injections != UINT64_MAX) out << " max=" << s.max_injections;
      if (s.after != 0) out << " after=" << s.after;
      out << "\n";
    }
  }
  return out.str();
}

FaultPlan default_chaos_plan() {
  FaultPlan plan;
  plan.seed = 42;
  auto add = [&plan](const char* site, FaultKind kind, double p,
                     std::uint64_t max = UINT64_MAX) {
    FaultSpec s;
    s.kind = kind;
    s.probability = p;
    s.max_injections = max;
    plan.sites[site].push_back(s);
  };
  // An opening outage burst (storage down, apps crashing) followed by
  // steady lossy-transport / flaky-storage background noise.
  add(sites::kSdlRead, FaultKind::kTransient, 1.0, /*max=*/40);
  add(sites::kSdlRead, FaultKind::kTransient, 0.30);
  add(sites::kSdlWrite, FaultKind::kTransient, 0.05);
  add(sites::kE2Indication, FaultKind::kDrop, 0.01);
  add(sites::kE2Control, FaultKind::kTransient, 0.10);
  add(sites::kXAppDispatch, FaultKind::kCrash, 1.0, /*max=*/4);
  add(sites::kXAppDispatch, FaultKind::kCrash, 0.02);
  add(sites::kRAppDispatch, FaultKind::kCrash, 0.02);
  add(sites::kA1Policy, FaultKind::kTransient, 0.20);
  add(sites::kO1Collect, FaultKind::kTransient, 0.10);
  // Serving path: occasional shed admissions and failed batches, so the
  // engines' degraded-sync fallback is part of every chaos run.
  add(sites::kServeAdmit, FaultKind::kTransient, 0.02);
  add(sites::kServeBatch, FaultKind::kTransient, 0.02);
  // Closed-loop defense path: occasionally refuse a hot-swap attempt
  // (rollback must keep the fleet serving) and defer a review pass.
  add(sites::kServeSwap, FaultKind::kTransient, 0.10);
  add(sites::kDefenseReview, FaultKind::kTransient, 0.05);
  // City-scale emulation plane: sporadic lost/failed simulator events and
  // brief per-stripe SDL partition outages under the sharded store.
  add(sites::kCitysimEvent, FaultKind::kDrop, 0.005);
  add(sites::kCitysimEvent, FaultKind::kTransient, 0.01);
  add(sites::kSdlShard, FaultKind::kTransient, 0.002);
  return plan;
}

FaultPlan default_recovery_plan() {
  FaultPlan plan;
  plan.seed = 7;
  auto kill = [&plan](const char* site, std::uint64_t after) {
    FaultSpec s;
    s.kind = FaultKind::kCrash;
    s.probability = 1.0;
    s.max_injections = 1;
    s.after = after;
    plan.sites[site].push_back(s);
  };
  // One crash per checkpoint-commit site, early and late: inside the
  // first surrogate candidate's training, inside the second candidate's
  // (mid-Algorithm-1), between candidates, after each UAP pass, and mid
  // SDL journal stream.
  kill(sites::kCkptTrainer, 0);
  kill(sites::kCkptTrainer, 4);
  kill(sites::kCkptClone, 0);
  kill(sites::kCkptUap, 0);
  kill(sites::kCkptUap, 1);
  kill(sites::kSdlJournal, 2);
  kill(sites::kSdlJournal, 6);
  return plan;
}

// --------------------------------------------------------- FaultInjector

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  for (const auto& [site, specs] : plan_.sites) {
    SiteState st;
    st.specs = specs;
    st.injected_per_spec.assign(specs.size(), 0);
    st.stream_key = fnv1a(site);
    sites_.emplace(site, std::move(st));
  }
}

FaultDecision FaultInjector::decide(const std::string& site) {
  static obs::Counter& injected_total =
      obs::counter("fault.injected", "fault decisions that fired (any site)");
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sites_.find(site);
  if (it == sites_.end()) return FaultDecision{};
  SiteState& st = it->second;
  const std::uint64_t n = st.stats.ops++;
  // The decision stream depends only on (plan seed, site, op index):
  // retries, interleavings with other sites and thread schedule cannot
  // shift it.
  Rng rng = Rng(plan_.seed ^ st.stream_key).split(n);
  for (std::size_t i = 0; i < st.specs.size(); ++i) {
    const FaultSpec& spec = st.specs[i];
    // The Bernoulli draw always happens, so adding/removing `after` or
    // budget clauses never shifts the decisions of later specs.
    const bool fire = rng.bernoulli(spec.probability);
    if (n < spec.after) continue;
    if (st.injected_per_spec[i] >= spec.max_injections) continue;
    if (!fire) continue;
    ++st.injected_per_spec[i];
    ++st.stats.injected;
    ++st.stats.by_kind[static_cast<int>(spec.kind)];
    injected_total.inc();
    FaultDecision d;
    d.kind = spec.kind;
    d.delay_ms = spec.delay_ms;
    d.corrupt_scale = spec.corrupt_scale;
    d.payload_seed = rng();
    return d;
  }
  return FaultDecision{};
}

std::uint64_t FaultInjector::total_ops() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [_, st] : sites_) total += st.stats.ops;
  return total;
}

std::uint64_t FaultInjector::total_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [_, st] : sites_) total += st.stats.injected;
  return total;
}

SiteStats FaultInjector::site_stats(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? SiteStats{} : it->second.stats;
}

std::string FaultInjector::stats_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{\"seed\": " << plan_.seed << ", \"sites\": {";
  bool first_site = true;
  for (const auto& [site, st] : sites_) {  // std::map ⇒ sorted, deterministic
    if (!first_site) out << ", ";
    first_site = false;
    out << "\"" << site << "\": {\"ops\": " << st.stats.ops
        << ", \"injected\": " << st.stats.injected;
    for (int k = 1; k < kFaultKindCount; ++k) {
      if (st.stats.by_kind[k] == 0) continue;
      out << ", \"" << fault_kind_name(static_cast<FaultKind>(k))
          << "\": " << st.stats.by_kind[k];
    }
    out << "}";
  }
  out << "}}";
  return out.str();
}

void FaultInjector::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [_, st] : sites_) {
    st.stats = SiteStats{};
    st.injected_per_spec.assign(st.specs.size(), 0);
  }
}

void set_global_injector(FaultInjector* injector) { g_injector = injector; }
FaultInjector* global_injector() { return g_injector; }

void maybe_crash(const std::string& site, FaultInjector* local) {
  FaultInjector* fi = effective(local);
  if (fi == nullptr) return;
  if (fi->decide(site).kind == FaultKind::kCrash) {
    obs::flight_trigger("kill_point", site);
    throw FaultInjectedError(site);
  }
}

}  // namespace orev::fault
