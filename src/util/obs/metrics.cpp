#include "util/obs/metrics.hpp"

#include <bit>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/check.hpp"
#include "util/persist/persist.hpp"

namespace orev::obs {

namespace {

std::uint64_t to_bits(double v) { return std::bit_cast<std::uint64_t>(v); }
double from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }

/// Render a double as a JSON-legal number (finite, shortest-ish form).
std::string json_double(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Prometheus metric name: [a-z0-9_:] with an orev_ prefix. ':' is legal
/// in exposition-format metric names (recording-rule convention) and is
/// preserved; every other character outside [a-zA-Z0-9] collapses to '_'.
std::string prom_name(const std::string& name) {
  std::string out = "orev_";
  for (const char c : name) {
    if (c == ':') {
      out.push_back(c);
      continue;
    }
    const char l = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    out.push_back((std::isalnum(static_cast<unsigned char>(l)) != 0) ? l : '_');
  }
  return out;
}

/// HELP text escaping per the exposition format: backslash and newline
/// must be escaped; everything else passes through.
std::string prom_help(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t idx =
      next.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

// ------------------------------------------------------------------ Gauge

void Gauge::set(double v) {
  bits_.store(to_bits(v), std::memory_order_relaxed);
}

void Gauge::add(double delta) {
  std::uint64_t cur = bits_.load(std::memory_order_relaxed);
  while (!bits_.compare_exchange_weak(cur, to_bits(from_bits(cur) + delta),
                                      std::memory_order_relaxed)) {
  }
}

double Gauge::value() const {
  return from_bits(bits_.load(std::memory_order_relaxed));
}

// ------------------------------------------------------------ SketchMetric

SketchMetric::SketchMetric(double alpha) : alpha_(alpha) {
  shards_.reserve(detail::kStripes);
  for (int i = 0; i < detail::kStripes; ++i)
    shards_.push_back(std::make_unique<Shard>(alpha));
}

void SketchMetric::observe(double v) {
  Shard& s = *shards_[thread_index() & (detail::kStripes - 1)];
  std::lock_guard<std::mutex> lock(s.mu);
  s.sketch.observe(v);
}

QuantileSketch SketchMetric::merged() const {
  // Ascending shard order: merge is order-independent anyway (exact
  // integer bucket addition), but a fixed order keeps the fp `sum` field
  // deterministic too.
  QuantileSketch out(alpha_);
  for (const std::unique_ptr<Shard>& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    out.merge(s->sketch);
  }
  return out;
}

void SketchMetric::reset() {
  for (const std::unique_ptr<Shard>& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    s->sketch.reset();
  }
}

// --------------------------------------------------------------- Registry

Registry& Registry::instance() {
  static Registry* leaked = new Registry();  // never destroyed: cached
  return *leaked;                            // references outlive exit paths
}

Counter& Registry::counter(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = metrics_[name];
  OREV_CHECK(!e.gauge && !e.sketch,
             "metric type mismatch: " + name);
  if (!e.counter) {
    e.counter = std::make_unique<Counter>();
    e.help = help;
  }
  return *e.counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = metrics_[name];
  OREV_CHECK(!e.counter && !e.sketch,
             "metric type mismatch: " + name);
  if (!e.gauge) {
    e.gauge = std::make_unique<Gauge>();
    e.help = help;
  }
  return *e.gauge;
}

SketchMetric& Registry::sketch(const std::string& name, double alpha,
                               const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = metrics_[name];
  OREV_CHECK(!e.counter && !e.gauge,
             "metric type mismatch: " + name);
  if (!e.sketch) {
    e.sketch = std::make_unique<SketchMetric>(alpha);
    e.help = help;
  }
  return *e.sketch;
}

std::string Registry::to_prometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [name, e] : metrics_) {
    const std::string pn = prom_name(name);
    if (!e.help.empty())
      os << "# HELP " << pn << ' ' << prom_help(e.help) << '\n';
    if (e.counter) {
      os << "# TYPE " << pn << " counter\n"
         << pn << ' ' << e.counter->value() << '\n';
    } else if (e.gauge) {
      os << "# TYPE " << pn << " gauge\n"
         << pn << ' ' << json_double(e.gauge->value()) << '\n';
    } else if (e.sketch) {
      const QuantileSketch s = e.sketch->merged();
      os << "# TYPE " << pn << " summary\n";
      os << pn << "{quantile=\"0.5\"} " << json_double(s.quantile(0.50))
         << '\n';
      os << pn << "{quantile=\"0.95\"} " << json_double(s.quantile(0.95))
         << '\n';
      os << pn << "{quantile=\"0.99\"} " << json_double(s.quantile(0.99))
         << '\n';
      os << pn << "{quantile=\"0.999\"} " << json_double(s.quantile(0.999))
         << '\n';
      os << pn << "_sum " << json_double(s.sum()) << '\n';
      os << pn << "_count " << s.count() << '\n';
    }
  }
  return os.str();
}

std::string Registry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\n  \"schema\": \"orev-metrics-v2\",\n";
  os << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    if (!e.counter) continue;
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": " << e.counter->value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, e] : metrics_) {
    if (!e.gauge) continue;
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": " << json_double(e.gauge->value());
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"sketches\": {";
  first = true;
  for (const auto& [name, e] : metrics_) {
    if (!e.sketch) continue;
    const QuantileSketch s = e.sketch->merged();
    const double mean =
        s.count() == 0 ? 0.0 : s.sum() / static_cast<double>(s.count());
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name) << "\": {"
       << "\"count\": " << s.count() << ", \"sum\": " << json_double(s.sum())
       << ", \"mean\": " << json_double(mean)
       << ", \"min\": " << json_double(s.min())
       << ", \"max\": " << json_double(s.max())
       << ", \"p50\": " << json_double(s.quantile(0.50))
       << ", \"p95\": " << json_double(s.quantile(0.95))
       << ", \"p99\": " << json_double(s.quantile(0.99))
       << ", \"p999\": " << json_double(s.quantile(0.999)) << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

bool Registry::save_json(const std::string& path) const {
  return persist::atomic_write_file(path, to_json(), /*sync=*/false).ok();
}

bool Registry::save_prometheus(const std::string& path) const {
  return persist::atomic_write_file(path, to_prometheus(), /*sync=*/false)
      .ok();
}

void Registry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, e] : metrics_) {
    if (e.counter) e.counter->reset();
    if (e.gauge) e.gauge->reset();
    if (e.sketch) e.sketch->reset();
  }
}

Counter& counter(const std::string& name, const std::string& help) {
  return Registry::instance().counter(name, help);
}
Gauge& gauge(const std::string& name, const std::string& help) {
  return Registry::instance().gauge(name, help);
}
SketchMetric& sketch(const std::string& name, double alpha,
                     const std::string& help) {
  return Registry::instance().sketch(name, alpha, help);
}

}  // namespace orev::obs
