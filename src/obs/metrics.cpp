#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "io/atomic_file.hpp"
#include "obs/json.hpp"

namespace mvgnn::obs {

namespace {

/// Shortest round-trippable formatting; avoids locale-dependent streams.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Trim to something readable when the value is exactly representable.
  char shorter[64];
  std::snprintf(shorter, sizeof shorter, "%.6g", v);
  if (std::strtod(shorter, nullptr) == v) return shorter;
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::percentile(double p) const {
  const auto counts = bucket_counts();
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double rank = p * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const std::uint64_t prev = cum;
    cum += counts[i];
    if (static_cast<double>(cum) >= rank) {
      // Interpolate between the bucket's lower and upper edge. The open-
      // ended buckets clamp to their finite edge.
      const double hi = (i < bounds_.size()) ? bounds_[i] : bounds_.back();
      const double lo = (i == 0) ? 0.0 : bounds_[i - 1];
      const double t = (rank - static_cast<double>(prev)) /
                       static_cast<double>(counts[i]);
      return lo + (hi - lo) * std::clamp(t, 0.0, 1.0);
    }
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

std::vector<double> Histogram::exponential_bounds(double lo, double hi) {
  // Degenerate inputs are clamped instead of producing an unusable layout:
  // a non-positive or non-finite `lo` falls back to 1.0, and a `hi` that is
  // NaN, infinite or below `lo` collapses to `lo` (one finite edge plus the
  // overflow bucket). The unclamped version returned an empty edge list for
  // the former — a single catch-all bucket that silently recorded nothing
  // useful — and looped forever when `hi` was NaN (no value compares >= it).
  if (!std::isfinite(lo) || lo <= 0.0) lo = 1.0;
  if (!std::isfinite(hi) || hi < lo) hi = lo;
  std::vector<double> out;
  double base = 1.0;  // largest power of ten <= lo
  while (base > lo) base /= 10.0;
  while (base * 10.0 <= lo) base *= 10.0;
  static constexpr double kSteps[] = {1.0, 2.0, 5.0};
  // Unreachable for sanitized inputs (512 edges span more than the double
  // range), but makes termination a structural property of the loop.
  constexpr std::size_t kMaxEdges = 512;
  for (;; base *= 10.0) {
    for (const double s : kSteps) {
      const double v = base * s;
      if (v < lo) continue;
      out.push_back(v);
      if (v >= hi || out.size() >= kMaxEdges) return out;
    }
  }
}

// ---------------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------------

std::uint64_t MetricsSnapshot::counter_or(const std::string& name,
                                          std::uint64_t fallback) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return fallback;
}

double MetricsSnapshot::gauge_or(const std::string& name,
                                 double fallback) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return fallback;
}

const MetricsSnapshot::Hist* MetricsSnapshot::histogram(
    const std::string& name) const {
  for (const Hist& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Counter& Registry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

std::size_t Registry::size() const {
  std::lock_guard lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::Hist hist;
    hist.name = name;
    hist.count = h->count();
    hist.sum = h->sum();
    if (hist.count > 0) {
      hist.p50 = h->percentile(0.5);
      hist.p99 = h->percentile(0.99);
    }
    snap.histograms.push_back(std::move(hist));
  }
  return snap;
}

std::string Registry::to_text() const {
  std::lock_guard lock(mu_);
  std::ostringstream os;
  for (const auto& [name, c] : counters_) {
    os << name << ' ' << c->value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    os << name << ' ' << fmt_double(g->value()) << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    const auto counts = h->bucket_counts();
    const auto& bounds = h->bounds();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      os << name << "{le=";
      if (i < bounds.size()) {
        os << fmt_double(bounds[i]);
      } else {
        os << "+inf";
      }
      os << "} " << counts[i] << '\n';
    }
    os << name << "_count " << h->count() << '\n';
    os << name << "_sum " << fmt_double(h->sum()) << '\n';
    // Derived quantiles, matching the JSON export. Skipped while empty:
    // printing "p50 0" for a histogram that never observed anything reads
    // as a measurement, not an absence.
    if (h->count() > 0) {
      os << name << "_p50 " << fmt_double(h->percentile(0.5)) << '\n';
      os << name << "_p99 " << fmt_double(h->percentile(0.99)) << '\n';
    }
  }
  return os.str();
}

std::string Registry::to_json() const {
  std::lock_guard lock(mu_);
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": " << c->value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": " << fmt_double(g->value());
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
       << "\": {\"bounds\": [";
    const auto& bounds = h->bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      os << (i ? ", " : "") << fmt_double(bounds[i]);
    }
    os << "], \"buckets\": [";
    const auto counts = h->bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      os << (i ? ", " : "") << counts[i];
    }
    os << "], \"count\": " << h->count()
       << ", \"sum\": " << fmt_double(h->sum())
       << ", \"p50\": " << fmt_double(h->percentile(0.5))
       << ", \"p99\": " << fmt_double(h->percentile(0.99)) << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

bool Registry::write_json(const std::string& path) const {
  // Atomic (tmp + rename) so a crash mid-export never leaves a torn
  // snapshot under the final name.
  try {
    io::atomic_write_file(path, [this](std::ostream& os) { os << to_json(); });
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

Registry& Registry::global() {
  static Registry* r = new Registry();  // leaked: see header
  return *r;
}

}  // namespace mvgnn::obs
