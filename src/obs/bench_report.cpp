#include "obs/bench_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "io/atomic_file.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"

namespace mvgnn::obs {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  char shorter[64];
  std::snprintf(shorter, sizeof shorter, "%.9g", v);
  if (std::strtod(shorter, nullptr) == v) return shorter;
  return buf;
}

const char* goal_name(MetricGoal g) {
  switch (g) {
    case MetricGoal::Lower: return "lower";
    case MetricGoal::Higher: return "higher";
    case MetricGoal::None: break;
  }
  return nullptr;
}

MetricGoal goal_from(const std::string& s) {
  if (s == "lower") return MetricGoal::Lower;
  if (s == "higher") return MetricGoal::Higher;
  return MetricGoal::None;
}

struct ParsedMetric {
  double value = 0.0;
  MetricGoal goal = MetricGoal::None;
};

struct ParsedReport {
  std::string bench;
  std::vector<std::pair<std::string, ParsedMetric>> metrics;  // file order

  [[nodiscard]] const ParsedMetric* find(const std::string& key) const {
    for (const auto& [k, m] : metrics) {
      if (k == key) return &m;
    }
    return nullptr;
  }
};

ParsedReport parse_report(const std::string& text, const char* which) {
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string(which) + " report: " + e.what());
  }
  if (!doc.is_object()) {
    throw std::runtime_error(std::string(which) +
                             " report: document is not an object");
  }
  const double schema = doc.num_or("schema", 0.0);
  if (schema != 1.0) {
    throw std::runtime_error(std::string(which) +
                             " report: unsupported schema version " +
                             fmt_double(schema) +
                             " (regenerate with the current BenchReport?)");
  }
  ParsedReport out;
  out.bench = doc.str_or("bench", "");
  const json::Value* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    throw std::runtime_error(std::string(which) +
                             " report: missing metrics object");
  }
  for (const auto& [key, v] : metrics->as_object()) {
    if (!v.is_object()) continue;
    ParsedMetric m;
    m.value = v.num_or("value", 0.0);
    m.goal = goal_from(v.str_or("goal", ""));
    out.metrics.emplace_back(key, m);
  }
  return out;
}

}  // namespace

BenchReport::BenchReport(std::string bench_name)
    : name_(std::move(bench_name)) {}

void BenchReport::config(const std::string& key, double value) {
  config_.emplace_back(key, fmt_double(value));
}

void BenchReport::config(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  quoted += json_escape(value);
  quoted += '"';
  config_.emplace_back(key, std::move(quoted));
}

void BenchReport::metric(const std::string& key, double value, MetricGoal goal,
                         const char* unit) {
  for (Metric& m : metrics_) {
    if (m.key == key) {
      m.value = value;
      m.goal = goal;
      m.unit = unit != nullptr ? unit : "";
      return;
    }
  }
  Metric m;
  m.key = key;
  m.value = value;
  m.goal = goal;
  m.unit = unit != nullptr ? unit : "";
  metrics_.push_back(std::move(m));
}

std::string BenchReport::to_json() const {
  std::string out;
  out += "{\n  \"bench\": \"";
  out += json_escape(name_);
  out += "\",\n  \"schema\": 1,\n  \"config\": {";
  bool first = true;
  for (const auto& [key, rendered] : config_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    out += json_escape(key);
    out += "\": ";
    out += rendered;
  }
  out += first ? "" : "\n  ";
  out += "},\n  \"metrics\": {";
  first = true;
  for (const Metric& m : metrics_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    out += json_escape(m.key);
    out += "\": {\"value\": ";
    out += fmt_double(m.value);
    if (const char* g = goal_name(m.goal)) {
      out += ", \"goal\": \"";
      out += g;
      out += '"';
    }
    if (!m.unit.empty()) {
      out += ", \"unit\": \"";
      out += json_escape(m.unit);
      out += '"';
    }
    out += '}';
  }
  out += first ? "" : "\n  ";
  out += "}\n}\n";
  return out;
}

bool BenchReport::write(const std::string& path) const {
  try {
    io::atomic_write_file(path,
                          [this](std::ostream& os) { os << to_json(); });
  } catch (const std::exception& e) {
    log_error("bench report write failed",
              {{"path", path}, {"what", e.what()}});
    return false;
  }
  return true;
}

CompareResult compare_bench_reports(const std::string& baseline_json,
                                    const std::string& fresh_json,
                                    const CompareOptions& opts) {
  const ParsedReport base = parse_report(baseline_json, "baseline");
  const ParsedReport fresh = parse_report(fresh_json, "fresh");

  CompareResult res;
  res.bench = base.bench;
  res.names_match = base.bench == fresh.bench;
  if (!res.names_match) res.ok = false;

  auto tol_for = [&](const std::string& key) {
    const auto it = opts.per_metric.find(key);
    return it != opts.per_metric.end() ? it->second : opts.tolerance;
  };
  auto selected = [&](const std::string& key) {
    return opts.keys.empty() ||
           std::find(opts.keys.begin(), opts.keys.end(), key) !=
               opts.keys.end();
  };

  for (const auto& [key, bm] : base.metrics) {
    if (!selected(key)) continue;
    MetricVerdict v;
    v.key = key;
    v.baseline = bm.value;
    v.goal = bm.goal;
    v.tolerance = tol_for(key);
    const ParsedMetric* fm = fresh.find(key);
    if (fm == nullptr) {
      v.status = MetricVerdict::Status::MissingFresh;
      res.ok = false;
      res.rows.push_back(std::move(v));
      continue;
    }
    v.fresh = fm->value;
    const double denom = std::max(std::fabs(bm.value), 1e-12);
    v.rel_change = (fm->value - bm.value) / denom;
    if (bm.goal == MetricGoal::None) {
      v.status = MetricVerdict::Status::Info;
    } else {
      // Positive `against` = moved against the goal.
      const double against =
          bm.goal == MetricGoal::Lower ? v.rel_change : -v.rel_change;
      if (against > v.tolerance) {
        v.status = MetricVerdict::Status::Regressed;
        res.ok = false;
      } else if (-against > v.tolerance) {
        v.status = MetricVerdict::Status::Improved;
      } else {
        v.status = MetricVerdict::Status::Pass;
      }
    }
    res.rows.push_back(std::move(v));
  }

  // Keys explicitly requested but absent from the baseline: fail loudly —
  // a typo here would otherwise turn the gate into a no-op.
  for (const std::string& key : opts.keys) {
    if (base.find(key) != nullptr) continue;
    MetricVerdict v;
    v.key = key;
    v.tolerance = tol_for(key);
    v.status = MetricVerdict::Status::MissingBase;
    res.ok = false;
    res.rows.push_back(std::move(v));
  }

  // Fresh-only metrics are informational (new metrics shouldn't fail old
  // baselines), but only when no key subset was requested.
  if (opts.keys.empty()) {
    for (const auto& [key, fm] : fresh.metrics) {
      if (base.find(key) != nullptr) continue;
      MetricVerdict v;
      v.key = key;
      v.fresh = fm.value;
      v.goal = fm.goal;
      v.status = MetricVerdict::Status::New;
      res.rows.push_back(std::move(v));
    }
  }
  return res;
}

std::string render_compare(const CompareResult& result) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf, "bench: %s%s\n", result.bench.c_str(),
                result.names_match ? "" : "  [BENCH NAME MISMATCH]");
  out += buf;
  out += "  metric                         baseline        fresh     change"
         "      tol  verdict\n";
  std::size_t regressions = 0;
  for (const MetricVerdict& v : result.rows) {
    const char* verdict = "";
    switch (v.status) {
      case MetricVerdict::Status::Pass: verdict = "ok"; break;
      case MetricVerdict::Status::Improved: verdict = "IMPROVED"; break;
      case MetricVerdict::Status::Regressed:
        verdict = "REGRESSED";
        ++regressions;
        break;
      case MetricVerdict::Status::Info: verdict = "info"; break;
      case MetricVerdict::Status::MissingFresh:
        verdict = "MISSING IN FRESH";
        ++regressions;
        break;
      case MetricVerdict::Status::MissingBase:
        verdict = "NOT IN BASELINE";
        ++regressions;
        break;
      case MetricVerdict::Status::New: verdict = "new"; break;
    }
    if (v.status == MetricVerdict::Status::MissingBase) {
      std::snprintf(buf, sizeof buf, "  %-28s %12s %12s %10s %8s  %s\n",
                    v.key.c_str(), "-", "-", "-", "-", verdict);
    } else if (v.status == MetricVerdict::Status::MissingFresh) {
      std::snprintf(buf, sizeof buf, "  %-28s %12.6g %12s %10s %8s  %s\n",
                    v.key.c_str(), v.baseline, "-", "-", "-", verdict);
    } else if (v.status == MetricVerdict::Status::New) {
      std::snprintf(buf, sizeof buf, "  %-28s %12s %12.6g %10s %8s  %s\n",
                    v.key.c_str(), "-", v.fresh, "-", "-", verdict);
    } else {
      std::snprintf(buf, sizeof buf,
                    "  %-28s %12.6g %12.6g %+9.1f%% %7.0f%%  %s\n",
                    v.key.c_str(), v.baseline, v.fresh, 100.0 * v.rel_change,
                    100.0 * v.tolerance, verdict);
    }
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "result: %s (%zu gating failure%s)\n",
                result.ok ? "PASS" : "FAIL", regressions,
                regressions == 1 ? "" : "s");
  out += buf;
  return out;
}

}  // namespace mvgnn::obs
