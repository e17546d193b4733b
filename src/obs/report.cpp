#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "obs/json.hpp"

namespace mvgnn::obs {

namespace {

/// Canonical pipeline-stage order for the breakdown table. Anything else
/// under `pipe.` is appended after these; non-pipeline self-time goes to
/// the trailing bucket.
constexpr const char* kStageSpans[] = {
    "pipe.parse", "pipe.lower",     "pipe.profile", "pipe.peg",
    "pipe.walks", "pipe.featurize", "pipe.embed",
};
constexpr const char* kStageLabels[] = {
    "Parse", "Lower", "Profile", "Peg", "Walks", "Featurize", "Embed",
};
constexpr const char* kNonPipeline = "(non-pipeline)";

/// Stage label for a span name, or nullptr when it is not a stage span.
const char* stage_label(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kStageSpans); ++i) {
    if (name == kStageSpans[i]) return kStageLabels[i];
  }
  if (name.size() > 5 && name.substr(0, 5) == "pipe.") {
    return name.data() + 5;  // unknown pipe.* stage: its own row, raw name
  }
  return nullptr;
}

std::uint64_t duration_ns(const SpanEvent& e) {
  return e.end_ns >= e.start_ns ? e.end_ns - e.start_ns : 0;
}

/// Nearest-rank percentile over a sorted duration list.
std::uint64_t rank_percentile(const std::vector<std::uint64_t>& sorted,
                              double p) {
  if (sorted.empty()) return 0;  // empty guard: mirrors Histogram::percentile
  const double rank = p * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  idx = idx == 0 ? 0 : idx - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

std::string fmt_ns(std::uint64_t ns) {
  char buf[48];
  const double v = static_cast<double>(ns);
  if (ns >= 1'000'000'000ULL) {
    std::snprintf(buf, sizeof buf, "%.3f s", v / 1e9);
  } else if (ns >= 1'000'000ULL) {
    std::snprintf(buf, sizeof buf, "%.3f ms", v / 1e6);
  } else if (ns >= 1'000ULL) {
    std::snprintf(buf, sizeof buf, "%.1f us", v / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%llu ns",
                  static_cast<unsigned long long>(ns));
  }
  return buf;
}

std::string fmt_bytes(double b) {
  char buf[48];
  if (b >= 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof buf, "%.2f GiB", b / (1024.0 * 1024.0 * 1024.0));
  } else if (b >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof buf, "%.1f MiB", b / (1024.0 * 1024.0));
  } else if (b >= 1024.0) {
    std::snprintf(buf, sizeof buf, "%.1f KiB", b / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%.0f B", b);
  }
  return buf;
}

}  // namespace

Report build_report(const std::vector<SpanEvent>& events,
                    const MetricsSnapshot* metrics) {
  Report rep;
  rep.events = events.size();

  // Group event indices by thread, preserving order. events() /
  // parse_chrome_trace both deliver per-thread begin order, so a span's
  // `parent` (its index in the thread's buffer) equals the parent's local
  // position in that group. An out-of-range or forward parent — possible
  // only if spans were still open at export — degrades to "root".
  std::map<std::uint32_t, std::vector<std::size_t>> by_tid;
  for (std::size_t i = 0; i < events.size(); ++i) {
    by_tid[events[i].tid].push_back(i);
  }
  rep.threads = static_cast<std::uint32_t>(by_tid.size());

  std::uint64_t min_start = UINT64_MAX;
  std::uint64_t max_end = 0;
  std::vector<std::uint64_t> self(events.size(), 0);
  // Self-time = duration minus direct children's durations, per thread.
  for (const auto& [tid, group] : by_tid) {
    (void)tid;
    std::vector<std::uint64_t> child_ns(group.size(), 0);
    for (std::size_t li = 0; li < group.size(); ++li) {
      const SpanEvent& e = events[group[li]];
      min_start = std::min(min_start, e.start_ns);
      max_end = std::max(max_end, e.end_ns);
      if (e.flow_src != 0) ++rep.flow_links;
      const std::int32_t p = e.parent;
      if (p >= 0 && static_cast<std::size_t>(p) < li) {
        child_ns[static_cast<std::size_t>(p)] += duration_ns(e);
      }
    }
    for (std::size_t li = 0; li < group.size(); ++li) {
      const std::uint64_t dur = duration_ns(events[group[li]]);
      self[group[li]] = dur >= child_ns[li] ? dur - child_ns[li] : 0;
      rep.traced_self_ns += self[group[li]];
    }
  }
  rep.wall_ns = (max_end > min_start && min_start != UINT64_MAX)
                    ? max_end - min_start
                    : 0;

  // Per-span-name aggregation.
  struct NameAgg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::vector<std::uint64_t> durs;
  };
  std::unordered_map<std::string_view, NameAgg> by_name;
  for (std::size_t i = 0; i < events.size(); ++i) {
    NameAgg& agg = by_name[events[i].name];
    const std::uint64_t dur = duration_ns(events[i]);
    ++agg.count;
    agg.total_ns += dur;
    agg.self_ns += self[i];
    agg.durs.push_back(dur);
  }
  rep.spans.reserve(by_name.size());
  for (auto& [name, agg] : by_name) {
    std::sort(agg.durs.begin(), agg.durs.end());
    SpanStat s;
    s.name = std::string(name);
    s.count = agg.count;
    s.total_ns = agg.total_ns;
    s.self_ns = agg.self_ns;
    s.p50_ns = rank_percentile(agg.durs, 0.50);
    s.p99_ns = rank_percentile(agg.durs, 0.99);
    rep.spans.push_back(std::move(s));
  }
  std::sort(rep.spans.begin(), rep.spans.end(),
            [](const SpanStat& a, const SpanStat& b) {
              if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
              return a.name < b.name;
            });

  // Stage attribution: charge each span's self-time to its innermost
  // enclosing pipe.* ancestor (self-inclusive) on the same thread.
  std::map<std::string, StageStat> stage_acc;
  for (const auto& [tid, group] : by_tid) {
    (void)tid;
    for (std::size_t li = 0; li < group.size(); ++li) {
      const char* label = nullptr;
      std::size_t cur = li;
      for (int hops = 0; hops < 256; ++hops) {  // bounded: depth is small
        label = stage_label(events[group[cur]].name);
        if (label != nullptr) break;
        const std::int32_t p = events[group[cur]].parent;
        if (p < 0 || static_cast<std::size_t>(p) >= cur) break;
        cur = static_cast<std::size_t>(p);
      }
      StageStat& row = stage_acc[label != nullptr ? label : kNonPipeline];
      row.self_ns += self[group[li]];
      ++row.spans;
    }
  }
  // Canonical order first, then any extra pipe.* rows, then the bucket.
  for (const char* label : kStageLabels) {
    auto it = stage_acc.find(label);
    if (it == stage_acc.end()) continue;
    it->second.stage = label;
    rep.stages.push_back(std::move(it->second));
    stage_acc.erase(it);
  }
  auto bucket = stage_acc.extract(kNonPipeline);
  for (auto& [label, row] : stage_acc) {
    row.stage = label;
    rep.stages.push_back(std::move(row));
  }
  if (!bucket.empty()) {
    bucket.mapped().stage = kNonPipeline;
    rep.stages.push_back(std::move(bucket.mapped()));
  }
  for (StageStat& row : rep.stages) {
    row.pct = rep.traced_self_ns > 0
                  ? 100.0 * static_cast<double>(row.self_ns) /
                        static_cast<double>(rep.traced_self_ns)
                  : 0.0;
  }

  if (metrics != nullptr) {
    rep.has_metrics = true;
    rep.cache_hits = metrics->counter_or("cache.hits_total");
    rep.cache_misses = metrics->counter_or("cache.misses_total");
    rep.cache_mem_bytes = metrics->gauge_or("cache.mem_bytes");
    rep.cache_disk_bytes = metrics->gauge_or("cache.disk_bytes");
    rep.pool_executed =
        metrics->counter_or("thread_pool.tasks_executed_total");
    rep.pool_helped = metrics->counter_or("pool.helped_tasks_total");
    const MetricsSnapshot::Hist* lat =
        metrics->histogram("thread_pool.task_latency_us");
    if (lat != nullptr && lat->count > 0) {  // empty-histogram guard
      rep.task_p50_us = lat->p50;
      rep.task_p99_us = lat->p99;
    }
    rep.tensor_backend_id =
        static_cast<int>(metrics->gauge_or("tensor.backend", -1.0));
  }
  return rep;
}

namespace {

const char* tensor_backend_label(int id) {
  // Mirrors the frozen ids in tensor::backend (src/tensor/backend/
  // backend.hpp); duplicated here so offline report parsing stays
  // independent of the tensor layer.
  switch (id) {
    case 0: return "scalar";
    case 1: return "avx2";
    case 2: return "neon";
    default: return "unknown";
  }
}

std::string render_text(const Report& r, bool markdown) {
  std::string out;
  char buf[256];
  const char* rule = markdown ? "" : "----------------------------------";

  if (markdown) {
    out += "# mvgnn run report\n\n";
  } else {
    out += "== mvgnn run report ==============================================\n";
  }
  std::snprintf(buf, sizeof buf,
                "wall time %s | traced self %s | %llu spans on %u threads | "
                "%llu flow links\n",
                fmt_ns(r.wall_ns).c_str(), fmt_ns(r.traced_self_ns).c_str(),
                static_cast<unsigned long long>(r.events), r.threads,
                static_cast<unsigned long long>(r.flow_links));
  out += buf;
  if (markdown) out += '\n';

  // Pipeline stage breakdown.
  if (markdown) {
    out += "## Pipeline stages (self time)\n\n";
    out += "| stage | self | pct | spans |\n|---|---:|---:|---:|\n";
  } else {
    out += "-- pipeline stages (self time) -----";
    out += rule;
    out += '\n';
    out += "  stage            self           pct     spans\n";
  }
  double pct_sum = 0.0;
  for (const StageStat& s : r.stages) {
    pct_sum += s.pct;
    if (markdown) {
      std::snprintf(buf, sizeof buf, "| %s | %s | %.1f%% | %llu |\n",
                    s.stage.c_str(), fmt_ns(s.self_ns).c_str(), s.pct,
                    static_cast<unsigned long long>(s.spans));
    } else {
      std::snprintf(buf, sizeof buf, "  %-15s %11s   %6.1f%%  %8llu\n",
                    s.stage.c_str(), fmt_ns(s.self_ns).c_str(), s.pct,
                    static_cast<unsigned long long>(s.spans));
    }
    out += buf;
  }
  if (markdown) {
    std::snprintf(buf, sizeof buf, "| **total** | %s | %.1f%% | %llu |\n\n",
                  fmt_ns(r.traced_self_ns).c_str(), pct_sum,
                  static_cast<unsigned long long>(r.events));
  } else {
    std::snprintf(buf, sizeof buf, "  %-15s %11s   %6.1f%%  %8llu\n", "total",
                  fmt_ns(r.traced_self_ns).c_str(), pct_sum,
                  static_cast<unsigned long long>(r.events));
  }
  out += buf;

  // Hottest spans by self-time.
  if (markdown) {
    out += "## Hottest spans (self time)\n\n";
    out += "| span | count | total | self | p50 | p99 |\n"
           "|---|---:|---:|---:|---:|---:|\n";
  } else {
    out += "-- hottest spans (self time) -------";
    out += rule;
    out += '\n';
    out += "  span                        count       total        self"
           "         p50         p99\n";
  }
  constexpr std::size_t kTopSpans = 12;
  for (std::size_t i = 0; i < r.spans.size() && i < kTopSpans; ++i) {
    const SpanStat& s = r.spans[i];
    if (markdown) {
      std::snprintf(buf, sizeof buf, "| %s | %llu | %s | %s | %s | %s |\n",
                    s.name.c_str(), static_cast<unsigned long long>(s.count),
                    fmt_ns(s.total_ns).c_str(), fmt_ns(s.self_ns).c_str(),
                    fmt_ns(s.p50_ns).c_str(), fmt_ns(s.p99_ns).c_str());
    } else {
      std::snprintf(buf, sizeof buf,
                    "  %-26s %6llu %11s %11s %11s %11s\n", s.name.c_str(),
                    static_cast<unsigned long long>(s.count),
                    fmt_ns(s.total_ns).c_str(), fmt_ns(s.self_ns).c_str(),
                    fmt_ns(s.p50_ns).c_str(), fmt_ns(s.p99_ns).c_str());
    }
    out += buf;
  }
  if (r.spans.size() > kTopSpans) {
    std::snprintf(buf, sizeof buf, "%s(%zu more span names)\n",
                  markdown ? "\n" : "  ... ", r.spans.size() - kTopSpans);
    out += buf;
  }
  if (markdown) out += '\n';

  if (r.has_metrics) {
    const std::uint64_t lookups = r.cache_hits + r.cache_misses;
    if (markdown) out += "## Utilization\n\n";
    if (lookups > 0 || r.cache_mem_bytes > 0 || r.cache_disk_bytes > 0) {
      if (!markdown) {
        out += "-- cache ---------------------------";
        out += rule;
        out += '\n';
      }
      std::string ratio = "n/a";
      if (lookups > 0) {
        char rbuf[16];
        std::snprintf(rbuf, sizeof rbuf, "%.1f%%",
                      100.0 * static_cast<double>(r.cache_hits) /
                          static_cast<double>(lookups));
        ratio = rbuf;
      }
      std::snprintf(
          buf, sizeof buf,
          "%scache: hits %llu  misses %llu  hit ratio %s  mem %s  disk %s\n",
          markdown ? "- " : "  ",
          static_cast<unsigned long long>(r.cache_hits),
          static_cast<unsigned long long>(r.cache_misses), ratio.c_str(),
          fmt_bytes(r.cache_mem_bytes).c_str(),
          fmt_bytes(r.cache_disk_bytes).c_str());
      out += buf;
    }
    if (!markdown) {
      out += "-- thread pool ---------------------";
      out += rule;
      out += '\n';
    }
    std::string p50 = r.task_p50_us >= 0.0
                          ? fmt_ns(static_cast<std::uint64_t>(
                                std::llround(r.task_p50_us * 1e3)))
                          : "-";
    std::string p99 = r.task_p99_us >= 0.0
                          ? fmt_ns(static_cast<std::uint64_t>(
                                std::llround(r.task_p99_us * 1e3)))
                          : "-";
    std::snprintf(buf, sizeof buf,
                  "%spool: tasks executed %llu  helped %llu  task p50 %s  "
                  "p99 %s\n",
                  markdown ? "- " : "  ",
                  static_cast<unsigned long long>(r.pool_executed),
                  static_cast<unsigned long long>(r.pool_helped), p50.c_str(),
                  p99.c_str());
    out += buf;
    if (r.tensor_backend_id >= 0) {
      std::snprintf(buf, sizeof buf, "%skernels: backend %s\n",
                    markdown ? "- " : "  ",
                    tensor_backend_label(r.tensor_backend_id));
      out += buf;
    }
  }
  return out;
}

std::string render_json(const Report& r) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\n  \"wall_ns\": %llu,\n  \"traced_self_ns\": %llu,\n"
                "  \"events\": %llu,\n  \"threads\": %u,\n"
                "  \"flow_links\": %llu,\n",
                static_cast<unsigned long long>(r.wall_ns),
                static_cast<unsigned long long>(r.traced_self_ns),
                static_cast<unsigned long long>(r.events), r.threads,
                static_cast<unsigned long long>(r.flow_links));
  out += buf;
  out += "  \"stages\": [";
  for (std::size_t i = 0; i < r.stages.size(); ++i) {
    const StageStat& s = r.stages[i];
    out += i ? ",\n    {" : "\n    {";
    out += "\"stage\": \"";
    out += json_escape(s.stage);
    std::snprintf(buf, sizeof buf,
                  "\", \"self_ns\": %llu, \"pct\": %.4f, \"spans\": %llu}",
                  static_cast<unsigned long long>(s.self_ns), s.pct,
                  static_cast<unsigned long long>(s.spans));
    out += buf;
  }
  out += "\n  ],\n  \"spans\": [";
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const SpanStat& s = r.spans[i];
    out += i ? ",\n    {" : "\n    {";
    out += "\"name\": \"";
    out += json_escape(s.name);
    std::snprintf(buf, sizeof buf,
                  "\", \"count\": %llu, \"total_ns\": %llu, "
                  "\"self_ns\": %llu, \"p50_ns\": %llu, \"p99_ns\": %llu}",
                  static_cast<unsigned long long>(s.count),
                  static_cast<unsigned long long>(s.total_ns),
                  static_cast<unsigned long long>(s.self_ns),
                  static_cast<unsigned long long>(s.p50_ns),
                  static_cast<unsigned long long>(s.p99_ns));
    out += buf;
  }
  out += "\n  ]";
  if (r.has_metrics) {
    std::snprintf(buf, sizeof buf,
                  ",\n  \"cache\": {\"hits\": %llu, \"misses\": %llu, "
                  "\"mem_bytes\": %.0f, \"disk_bytes\": %.0f},\n"
                  "  \"pool\": {\"executed\": %llu, \"helped\": %llu, "
                  "\"task_p50_us\": %.3f, \"task_p99_us\": %.3f}",
                  static_cast<unsigned long long>(r.cache_hits),
                  static_cast<unsigned long long>(r.cache_misses),
                  r.cache_mem_bytes, r.cache_disk_bytes,
                  static_cast<unsigned long long>(r.pool_executed),
                  static_cast<unsigned long long>(r.pool_helped),
                  r.task_p50_us, r.task_p99_us);
    out += buf;
    if (r.tensor_backend_id >= 0) {
      std::snprintf(buf, sizeof buf,
                    ",\n  \"tensor_backend\": \"%s\"",
                    tensor_backend_label(r.tensor_backend_id));
      out += buf;
    }
  }
  out += "\n}\n";
  return out;
}

}  // namespace

std::string render_report(const Report& report, ReportFormat format) {
  switch (format) {
    case ReportFormat::Markdown: return render_text(report, /*markdown=*/true);
    case ReportFormat::Json: return render_json(report);
    case ReportFormat::Text: break;
  }
  return render_text(report, /*markdown=*/false);
}

ParsedTrace parse_chrome_trace(const std::string& json_text) {
  const json::Value doc = json::parse(json_text);
  const json::Value* evs = nullptr;
  if (doc.is_array()) {
    evs = &doc;  // bare-array form some tools emit
  } else {
    evs = doc.find("traceEvents");
    if (evs == nullptr || !evs->is_array()) {
      throw std::runtime_error("trace: missing traceEvents array");
    }
  }
  ParsedTrace out;
  // Flow endpoints are re-linked in a second pass: "s" carries the capture
  // point on the producer thread, "f" (same id) binds to the start of the
  // adopting slice, so (tid, ts) identifies the consumer X event exactly.
  struct FlowSrc {
    std::uint32_t tid;
    std::uint64_t ts_ns;
  };
  std::map<std::uint64_t, FlowSrc> flow_srcs;                // id -> producer
  std::vector<std::pair<std::uint64_t, FlowSrc>> flow_dsts;  // id, consumer
  for (const json::Value& ev : evs->as_array()) {
    if (!ev.is_object()) continue;
    const std::string ph = ev.str_or("ph", "X");
    if (ph == "s" || ph == "f") {
      FlowSrc end;
      end.tid = static_cast<std::uint32_t>(ev.num_or("tid", 0.0));
      end.ts_ns = static_cast<std::uint64_t>(
          std::llround(ev.num_or("ts", 0.0) * 1e3));
      const auto id =
          static_cast<std::uint64_t>(std::llround(ev.num_or("id", 0.0)));
      if (ph == "s") {
        flow_srcs.emplace(id, end);
      } else {
        flow_dsts.emplace_back(id, end);
      }
      continue;
    }
    if (ph != "X") continue;  // meta events carry no duration
    SpanEvent e;
    out.names.push_back(ev.str_or("name", "(unnamed)"));
    e.name = out.names.back().c_str();
    const double ts_us = ev.num_or("ts", 0.0);
    const double dur_us = ev.num_or("dur", 0.0);
    e.start_ns = static_cast<std::uint64_t>(std::llround(ts_us * 1e3));
    e.end_ns =
        e.start_ns + static_cast<std::uint64_t>(std::llround(dur_us * 1e3));
    e.tid = static_cast<std::uint32_t>(ev.num_or("tid", 0.0));
    if (const json::Value* args = ev.find("args");
        args != nullptr && args->is_object()) {
      e.parent = static_cast<std::int32_t>(args->num_or("parent", -1.0));
      e.depth = static_cast<std::int32_t>(args->num_or("depth", 0.0));
    } else {
      e.parent = -1;
    }
    out.events.push_back(e);
  }
  if (!flow_dsts.empty()) {
    std::map<std::pair<std::uint32_t, std::uint64_t>, std::size_t> by_start;
    for (std::size_t i = 0; i < out.events.size(); ++i) {
      by_start.emplace(std::pair{out.events[i].tid, out.events[i].start_ns},
                       i);
    }
    for (const auto& [id, dst] : flow_dsts) {
      const auto src = flow_srcs.find(id);
      const auto slice = by_start.find({dst.tid, dst.ts_ns});
      if (src == flow_srcs.end() || slice == by_start.end()) continue;
      SpanEvent& e = out.events[slice->second];
      // The producer's span id is not serialized (the pair is keyed by the
      // consumer's id), so it stands in for flow_src; the producer's thread
      // and capture time round-trip exactly.
      e.id = id;
      e.flow_src = id;
      e.flow_ts_ns = src->second.ts_ns;
      e.flow_src_tid = src->second.tid;
    }
  }
  return out;
}

MetricsSnapshot parse_metrics_json(const std::string& json_text) {
  const json::Value doc = json::parse(json_text);
  if (!doc.is_object()) {
    throw std::runtime_error("metrics: document is not an object");
  }
  MetricsSnapshot snap;
  if (const json::Value* cs = doc.find("counters");
      cs != nullptr && cs->is_object()) {
    for (const auto& [name, v] : cs->as_object()) {
      if (!v.is_number()) continue;
      snap.counters.emplace_back(
          name, static_cast<std::uint64_t>(std::llround(v.as_number())));
    }
  }
  if (const json::Value* gs = doc.find("gauges");
      gs != nullptr && gs->is_object()) {
    for (const auto& [name, v] : gs->as_object()) {
      if (!v.is_number()) continue;
      snap.gauges.emplace_back(name, v.as_number());
    }
  }
  if (const json::Value* hs = doc.find("histograms");
      hs != nullptr && hs->is_object()) {
    for (const auto& [name, v] : hs->as_object()) {
      if (!v.is_object()) continue;
      MetricsSnapshot::Hist h;
      h.name = name;
      h.count = static_cast<std::uint64_t>(std::llround(v.num_or("count", 0)));
      h.sum = v.num_or("sum", 0.0);
      h.p50 = v.num_or("p50", 0.0);
      h.p99 = v.num_or("p99", 0.0);
      snap.histograms.push_back(std::move(h));
    }
  }
  return snap;
}

}  // namespace mvgnn::obs
