#include "layers.hpp"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "obs/json.hpp"
#include "obs/report.hpp"

namespace mvgnn::bench_e2e {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

BenchmarkSpec read_benchmark(const std::string& path) {
  const obs::json::Value doc = obs::json::parse(read_file(path));
  auto list = [&](const char* key) -> const obs::json::Array& {
    const obs::json::Value* v = doc.find(key);
    if (v == nullptr || !v->is_array()) {
      throw std::runtime_error(path + ": no list " + key);
    }
    return v->as_array();
  };
  auto metrics = [&](const char* key) {
    std::vector<MetricDef> defs;
    for (const obs::json::Value& m : list(key)) {
      defs.push_back({m.str_or("name", ""), m.str_or("unit", ""),
                      m.str_or("better", "") == "higher"
                          ? obs::MetricGoal::Higher
                          : obs::MetricGoal::Lower,
                      m.num_or("bound", 0.0)});
    }
    return defs;
  };
  BenchmarkSpec spec;
  for (const obs::json::Value& w : list("workloads")) {
    spec.workloads.push_back(w.str_or("name", ""));
  }
  spec.end_to_end = metrics("end_to_end");
  spec.per_layer = metrics("per_layer");
  return spec;
}

namespace {

constexpr std::string_view kSelfPct = ".self_pct";

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// The layer whose code a span times. bench.* spans wrap calls into one
/// layer from benchmark code; their self time is that layer's time outside
/// any in-program span. Span names no layer claims count as "other".
const char* layer_of(std::string_view span) {
  if (starts_with(span, "serve.")) return "serve";
  if (span == "pipe.parse" || span == "pipe.lower" || span == "bench.compile") {
    return "frontend";
  }
  if (span == "pipe.profile" || starts_with(span, "profiler.") ||
      starts_with(span, "interp.") || span == "bench.exec") {
    return "profiler";
  }
  if (span == "pipe.peg" || span == "pipe.walks" || starts_with(span, "peg.") ||
      starts_with(span, "anon_walk.")) {
    return "graph";
  }
  if (span == "pipe.embed" || starts_with(span, "dataset.") ||
      starts_with(span, "bench.build_")) {
    return "data";
  }
  if (starts_with(span, "pipe.")) return "pipe";
  if (starts_with(span, "cache.")) return "cache";
  if (starts_with(span, "core.") || starts_with(span, "trainer.") ||
      span == "bench.fit") {
    return "core";
  }
  if (span == "gemm" || starts_with(span, "gemm.") ||
      starts_with(span, "tensor.")) {
    return "tensor";
  }
  if (starts_with(span, "thread_pool.")) return "parallel";
  if (span == "bench.plan") return "transform";
  return "other";
}

double hist_delta_mean(const obs::MetricsSnapshot& before,
                       const obs::MetricsSnapshot& after,
                       const std::string& name) {
  const obs::MetricsSnapshot::Hist* a = after.histogram(name);
  if (a == nullptr) return 0.0;
  const obs::MetricsSnapshot::Hist* b = before.histogram(name);
  const double count =
      static_cast<double>(a->count - (b != nullptr ? b->count : 0));
  const double sum = a->sum - (b != nullptr ? b->sum : 0.0);
  return count > 0 ? sum / count : 0.0;
}

}  // namespace

std::vector<std::string> self_time_layers(
    const std::vector<MetricDef>& per_layer) {
  std::vector<std::string> layers;
  for (const MetricDef& d : per_layer) {
    const std::string_view n = d.name;
    if (n.size() > kSelfPct.size() &&
        n.substr(n.size() - kSelfPct.size()) == kSelfPct) {
      layers.emplace_back(n.substr(0, n.size() - kSelfPct.size()));
    }
  }
  return layers;
}

std::map<std::string, double> span_metrics(
    const std::vector<obs::SpanEvent>& events,
    const obs::MetricsSnapshot& before, const obs::MetricsSnapshot& after,
    const std::vector<std::string>& layers) {
  const obs::Report rep = obs::build_report(events, &after);
  std::map<std::string, const obs::SpanStat*> by_name;
  for (const obs::SpanStat& s : rep.spans) by_name[s.name] = &s;
  auto stat = [&](const char* name) -> const obs::SpanStat* {
    const auto it = by_name.find(name);
    return it == by_name.end() ? nullptr : it->second;
  };

  std::map<std::string, double> m;
  // Mean span time, only for spans the phase recorded.
  auto put_mean = [&](const char* metric, const char* span, double ns_per) {
    if (const obs::SpanStat* s = stat(span); s && s->count) {
      m[metric] = static_cast<double>(s->total_ns) /
                  static_cast<double>(s->count) / ns_per;
    }
  };
  // serve: request handling on the daemon's connection and batcher threads.
  put_mean("serve.featurize_ms", "serve.featurize", 1e6);
  put_mean("serve.batch_ms", "serve.batch", 1e6);
  if (const obs::SpanStat* s = stat("serve.request"); s && s->count) {
    // Self time of a request: queueing, linger and waiting for the batch.
    m["serve.wait_ms"] =
        static_cast<double>(s->self_ns) / static_cast<double>(s->count) / 1e6;
  }
  if (const obs::SpanStat* b = stat("serve.batch"); b && b->count) {
    m["serve.batch_samples"] =
        hist_delta_mean(before, after, "serve.batch_size");
    const obs::MetricsSnapshot::Hist* a = after.histogram("serve.batch_size");
    const obs::MetricsSnapshot::Hist* z = before.histogram("serve.batch_size");
    const double samples = (a ? a->sum : 0.0) - (z ? z->sum : 0.0);
    if (samples > 0) {
      m["core.forward_us_per_sample"] =
          static_cast<double>(b->total_ns) / samples / 1e3;
    }
  }

  // Pipeline stages, per item that went through the pipeline. Featurize
  // excludes its nested walks, which have their own metric.
  if (const obs::SpanStat* f = stat("pipe.featurize"); f && f->count) {
    const double items = static_cast<double>(f->count);
    auto per_item_us = [&](const char* name) {
      const obs::SpanStat* s = stat(name);
      return s ? static_cast<double>(s->total_ns) / items / 1e3 : 0.0;
    };
    m["frontend.parse_us"] = per_item_us("pipe.parse");
    m["frontend.lower_us"] = per_item_us("pipe.lower");
    m["profiler.profile_us"] = per_item_us("pipe.profile");
    m["graph.peg_us"] = per_item_us("pipe.peg");
    m["graph.walks_us"] = per_item_us("pipe.walks");
    m["pipe.featurize_us"] = static_cast<double>(f->self_ns) / items / 1e3;
  }
  put_mean("data.embed_ms", "pipe.embed", 1e6);
  put_mean("cache.get_us", "cache.get", 1e3);
  put_mean("core.batch_assembly_us", "core.batch_assembly", 1e3);
  put_mean("core.step_ms", "trainer.dp_step", 1e6);
  if (rep.task_p50_us >= 0.0) m["parallel.task_p50_us"] = rep.task_p50_us;

  // GEMM rate from the m/k/n arguments every `gemm` span carries.
  double flops = 0.0, gemm_ns = 0.0;
  for (const obs::SpanEvent& e : events) {
    if (std::strcmp(e.name, "gemm") != 0) continue;
    double mkn = 1.0;
    for (std::uint32_t i = 0; i < e.nargs; ++i) {
      mkn *= static_cast<double>(e.args[i].value);
    }
    flops += 2.0 * mkn;
    gemm_ns += static_cast<double>(e.end_ns - e.start_ns);
  }
  if (gemm_ns > 0) m["tensor.gemm_gflops"] = flops / gemm_ns;

  // Self-time shares. bench.request is the load generator waiting for the
  // daemon, not work of any layer, so it is left out of the total.
  double total = 0.0;
  std::map<std::string, double> layer_ns;
  for (const obs::SpanStat& s : rep.spans) {
    if (s.name == "bench.request") continue;
    const double ns = static_cast<double>(s.self_ns);
    layer_ns[layer_of(s.name)] += ns;
    total += ns;
  }
  if (total > 0) {
    for (const std::string& layer : layers) {
      m[layer + std::string(kSelfPct)] = 100.0 * layer_ns[layer] / total;
    }
    auto share = [&](const char* name) {
      const obs::SpanStat* s = stat(name);
      return s ? 100.0 * static_cast<double>(s->self_ns) / total : 0.0;
    };
    if (stat("gemm") != nullptr) {
      m["tensor.gemm_share_pct"] = share("gemm") + share("gemm.panel");
    }
    if (stat("tensor.spmm") != nullptr) {
      m["tensor.spmm_share_pct"] = share("tensor.spmm");
    }
  }
  return m;
}

}  // namespace mvgnn::bench_e2e
