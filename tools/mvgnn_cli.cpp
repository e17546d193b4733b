// mvgnn — command-line front door to the whole pipeline.
//
//   mvgnn ir <file.minic>         print the lowered IR
//   mvgnn cus <file.minic>        computational-unit decomposition
//   mvgnn profile <file.minic>    dependence profile + Table I features
//   mvgnn peg <file.minic>        program execution graph as Graphviz DOT
//   mvgnn suggest <file.minic>    ranked OpenMP parallelization suggestions
//   mvgnn variants <file.minic>   effect of the six IR variant pipelines
//   mvgnn train <file.minic>      train a small MV-GNN, classify the loops
//   mvgnn report <trace.json> [<metrics.json>]
//                                 attribute a recorded run: per-span stats,
//                                 pipeline-stage breakdown, utilization
//
// Observability flags (accepted anywhere on the command line):
//   --metrics-out <path>   write a JSON metrics snapshot on exit
//   --trace-out <path>     record spans; write Chrome trace_event JSON on
//                          exit (open in chrome://tracing or Perfetto)
//   --metrics-series-out <path>
//                          sample the metrics registry in the background
//                          and append JSONL rows to <path>
//   --metrics-sample-ms <n>
//                          sampling interval for the series (default 200)
//   --report               print a one-screen attribution summary on exit
//                          (implies span recording)
//   --quiet                raise the log level to warn (MVGNN_LOG_LEVEL
//                          overrides the default level too)
//
// The entry function must be named `kernel`. Array parameters are filled
// deterministically (4096 elements); int parameters get 8, floats 1.0.
#include <atomic>
#include <csignal>
#include <cstdint>
#include <ctime>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/suggest.hpp"
#include "cache/cache.hpp"
#include "core/checkpoint.hpp"
#include "core/trainer.hpp"
#include "data/corpus.hpp"
#include "data/dataset.hpp"
#include "data/serialize.hpp"
#include "frontend/lower.hpp"
#include "graph/peg.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "profiler/profile.hpp"
#include "serve/server.hpp"
#include "tensor/backend/backend.hpp"
#include "transform/parallelize.hpp"
#include "transform/passes.hpp"

namespace {

using namespace mvgnn;

int usage() {
  std::fprintf(
      stderr,
      "usage: mvgnn [flags] <command> <file.minic>\n"
      "\n"
      "commands:\n"
      "  ir        print the lowered IR\n"
      "  cus       computational-unit decomposition\n"
      "  profile   dependence profile + Table I loop features\n"
      "  peg       program execution graph as Graphviz DOT\n"
      "  suggest   ranked OpenMP parallelization suggestions\n"
      "  parallelize\n"
      "            act on the suggestions: plan a sharded parallel form of\n"
      "            every DOALL/reduction loop, run sequential vs. parallel,\n"
      "            assert output-memory equality, and print the annotated\n"
      "            source plus a measured-speedup table (--threads sets the\n"
      "            worker count, default 2; outputs are identical for all)\n"
      "  variants  effect of the six IR variant pipelines\n"
      "  train     train a small MV-GNN on a generated corpus, then\n"
      "            classify the input program's loops\n"
      "  dataset   build a generated-corpus dataset, save it to <path>\n"
      "            (bit-identical for a given --corpus/--seed, with the\n"
      "            cache off, cold, or warm; SIGINT/SIGTERM stops the\n"
      "            build cooperatively and exits 130)\n"
      "  serve     long-running inference daemon: line-delimited JSON over\n"
      "            TCP, batched forwards, admission control, hot checkpoint\n"
      "            reload on SIGHUP or {\"cmd\":\"reload\"} (docs/serving.md).\n"
      "            Takes no <file> argument; needs --checkpoint\n"
      "  cache     stage-cache maintenance: `mvgnn cache stats` or\n"
      "            `mvgnn cache clear` (needs --cache-dir)\n"
      "  report    aggregate a recorded run offline:\n"
      "            `mvgnn report <trace.json> [<metrics.json>]`\n"
      "\n"
      "flags:\n"
      "  --metrics-out <path>  write a JSON metrics snapshot on exit\n"
      "  --trace-out <path>    record spans and write Chrome trace_event\n"
      "                        JSON on exit (chrome://tracing / Perfetto)\n"
      "  --metrics-series-out <path>\n"
      "                        background-sample the metrics registry and\n"
      "                        append one JSONL row per interval to <path>\n"
      "  --metrics-sample-ms <n>\n"
      "                        series sampling interval (default 200)\n"
      "  --report              print a one-screen attribution summary on\n"
      "                        exit (implies span recording)\n"
      "  --report-format <f>   report output: text (default), md, json\n"
      "  --cache-dir <d>       stage-boundary cache directory (content-hash\n"
      "                        keyed; see docs/pipeline.md). Default: no\n"
      "                        disk tier\n"
      "  --cache-mem-mb <n>    in-memory cache budget in MiB (default 256)\n"
      "  --force-backend <b>   pin the tensor kernel backend: scalar, avx2,\n"
      "                        neon, or auto (default: best usable; the\n"
      "                        MVGNN_BACKEND env var sets the same thing)\n"
      "  --quiet, -q           only warnings and errors on the log\n"
      "                        (MVGNN_LOG_LEVEL sets the default level)\n"
      "  --help, -h            this message\n"
      "\n"
      "train/dataset options:\n"
      "  --corpus <n>          generated-corpus size in loops (default 90)\n"
      "  --epochs <n>          training epochs (default 4)\n"
      "  --seed <n>            training seed (default 1)\n"
      "  --threads <n>         data-parallel shards run at once per\n"
      "                        mini-batch (default 1); weights are\n"
      "                        bit-identical for every n\n"
      "  --checkpoint-dir <d>  write ckpt-<epoch>.mvck files into <d>;\n"
      "                        SIGINT/SIGTERM also lands a final checkpoint\n"
      "                        before the process exits nonzero\n"
      "  --checkpoint-every <n> epochs between checkpoints (default 1)\n"
      "  --resume              continue from the newest checkpoint in\n"
      "                        --checkpoint-dir (bit-identical trajectory)\n"
      "\n"
      "serve options:\n"
      "  --checkpoint <f.mvck> checkpoint to serve (required); --corpus must\n"
      "                        match the one the checkpoint was trained with\n"
      "  --port <n>            TCP port on 127.0.0.1 (default 7077; 0 lets\n"
      "                        the kernel pick — the bound port is printed)\n"
      "  --batch-max <n>       max loop samples per batched forward (32)\n"
      "  --batch-linger-ms <n> batcher linger before a partial flush (5)\n"
      "  --queue-depth <n>     admission cap on queued requests (128)\n"
      "  --deadline-ms <n>     default per-request deadline; 0 = none (10000)\n"
      "  --max-request-bytes <n> per-request line cap (1 MiB)\n"
      "  --serve-fuel <n>      per-request interpreter step cap (20000000)\n");
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

const ir::Function& kernel_of(const ir::Module& m) {
  const ir::Function* fn = m.find("kernel");
  if (!fn) throw std::runtime_error("no `kernel` function in the input");
  return *fn;
}

int cmd_ir(const ir::Module& m) {
  std::fputs(ir::to_string(m).c_str(), stdout);
  return 0;
}

int cmd_cus(const ir::Module& m) {
  for (const auto& fn : m.functions) {
    const auto cus = profiler::build_cus(*fn);
    std::printf("@%s: %zu computational units\n", fn->name.c_str(),
                cus.size());
    for (const auto& cu : cus) {
      std::printf("  CU%u  lines %d..%d  (%zu instructions)\n", cu.id,
                  cu.start_line, cu.end_line, cu.instrs.size());
    }
  }
  return 0;
}

int cmd_profile(const ir::Module& m) {
  const auto args = profiler::default_args(kernel_of(m));
  const auto prof = profiler::profile(m, "kernel", args);
  std::printf("dynamic instructions : %llu\n",
              static_cast<unsigned long long>(prof.run.steps));
  std::printf("dependence edges     : %zu\n", prof.dep.edges.size());
  std::printf("computational units  : %zu\n", prof.cus.size());
  std::printf("for-loops            : %zu\n\n", prof.loops.size());
  std::printf("%6s %8s %10s %6s %6s %9s %9s %9s\n", "line", "N_Inst", "exec",
              "CFL", "ESP", "in_dep", "internal", "out_dep");
  for (const auto& loop : prof.loops) {
    const auto& f = loop.features;
    std::printf("%6d %8llu %10llu %6.0f %6.2f %9llu %9llu %9llu\n",
                loop.fn->loops[loop.loop].start_line,
                static_cast<unsigned long long>(f.n_inst),
                static_cast<unsigned long long>(f.exec_times), f.cfl, f.esp,
                static_cast<unsigned long long>(f.incoming_dep),
                static_cast<unsigned long long>(f.internal_dep),
                static_cast<unsigned long long>(f.outgoing_dep));
  }
  // Dependence edge summary by kind.
  std::size_t raw = 0, war = 0, waw = 0, carried = 0;
  for (const auto& e : prof.dep.edges) {
    raw += e.type == profiler::DepType::RAW;
    war += e.type == profiler::DepType::WAR;
    waw += e.type == profiler::DepType::WAW;
    carried += e.loop_carried();
  }
  std::printf("\nedges: %zu RAW, %zu WAR, %zu WAW (%zu loop-carried)\n", raw,
              war, waw, carried);
  return 0;
}

int cmd_peg(const ir::Module& m) {
  const auto args = profiler::default_args(kernel_of(m));
  const auto prof = profiler::profile(m, "kernel", args);
  const auto peg = graph::build_peg(m, prof);
  std::fputs(graph::to_dot(peg, m.name).c_str(), stdout);
  return 0;
}

int cmd_suggest(const ir::Module& m) {
  const auto args = profiler::default_args(kernel_of(m));
  const auto prof = profiler::profile(m, "kernel", args);
  for (const auto& s : analysis::suggest_openmp(m, prof)) {
    std::printf("%s\n", analysis::to_string(s).c_str());
  }
  return 0;
}

int cmd_parallelize(const ir::Module& m, const std::string& source,
                    std::uint32_t threads) {
  const auto args = profiler::default_args(kernel_of(m));
  const auto prof = profiler::profile(m, "kernel", args);
  const auto suggestions = analysis::suggest_openmp(m, prof);
  const auto result = transform::plan_parallel(m, "kernel", suggestions, prof);

  std::printf("loop decisions:\n");
  for (const auto& d : result.decisions) {
    if (d.planned) {
      std::printf("  line %d..%d [%s]  planned   %s\n", d.start_line,
                  d.end_line, analysis::par_kind_name(d.kind),
                  d.pragma.c_str());
    } else {
      std::printf("  line %d..%d [%s]  refused   (%s)\n", d.start_line,
                  d.end_line, analysis::par_kind_name(d.kind),
                  d.reason.c_str());
    }
  }
  if (result.plan.empty()) {
    std::printf("\nno loop planned; program left sequential\n");
    return 0;
  }

  // Best-of-3 timed equivalence run; equality must hold every time.
  transform::EquivalenceReport best;
  for (int rep = 0; rep < 3; ++rep) {
    const auto r = transform::run_equivalence(m, "kernel", args, result.plan,
                                              threads);
    if (!r.ran || !r.equal) {
      std::printf("\nEQUIVALENCE FAILED: %s\n", r.detail.c_str());
      return 1;
    }
    if (rep == 0) {
      best = r;
    } else {
      best.seq_seconds = std::min(best.seq_seconds, r.seq_seconds);
      best.par_seconds = std::min(best.par_seconds, r.par_seconds);
    }
  }
  const double speedup =
      best.par_seconds > 0.0 ? best.seq_seconds / best.par_seconds : 0.0;
  std::printf("\nequivalence: OK (%llu sharded loop instance%s, outputs match"
              " at %u thread%s)\n",
              static_cast<unsigned long long>(best.parallel_loops),
              best.parallel_loops == 1 ? "" : "s", threads,
              threads == 1 ? "" : "s");
  std::printf("%-18s %14s %14s %9s\n", "", "sequential", "parallel",
              "speedup");
  std::printf("%-18s %14llu %14llu %8.2fx\n", "interpreted steps",
              static_cast<unsigned long long>(best.seq_steps),
              static_cast<unsigned long long>(best.par_steps),
              best.par_steps
                  ? static_cast<double>(best.seq_steps) /
                        static_cast<double>(best.par_steps)
                  : 0.0);
  std::printf("%-18s %14.3f %14.3f %8.2fx\n", "wall time (ms)",
              best.seq_seconds * 1e3, best.par_seconds * 1e3, speedup);

  std::printf("\nannotated source:\n%s",
              transform::annotate_source(source, result).c_str());
  return 0;
}

int cmd_variants(const std::string& source) {
  std::printf("%-18s %10s %8s %8s\n", "pipeline", "instrs", "blocks",
              "loops");
  for (const auto& pipeline : transform::variant_pipelines()) {
    ir::Module m = frontend::compile(source, pipeline.name);
    transform::run_pipeline(m, pipeline);
    std::size_t instrs = 0, blocks = 0, loops = 0;
    for (const auto& fn : m.functions) {
      for (const auto& bb : fn->blocks) instrs += bb.instrs.size();
      blocks += fn->blocks.size();
      loops += fn->loops.size();
    }
    std::printf("%-18s %10zu %8zu %8zu\n", pipeline.name.c_str(), instrs,
                blocks, loops);
  }
  return 0;
}

struct TrainOptions {
  int corpus_loops = 90;
  std::size_t epochs = 4;
  std::uint64_t seed = 1;
  std::size_t threads = 0;
  std::string checkpoint_dir;
  std::size_t checkpoint_every = 1;
  bool resume = false;
};

/// Flipped by the SIGINT/SIGTERM handler; the trainer polls it at batch
/// boundaries (landing a final checkpoint), the dataset builder between
/// pipeline items, and the serve daemon's main loop — all exit 130.
std::atomic<bool> g_stop{false};

/// Flipped by SIGHUP while serving; the daemon's main loop consumes it and
/// hot-reloads the startup checkpoint.
std::atomic<bool> g_reload{false};

extern "C" void handle_stop_signal(int) {
  // Async-signal-safe: only the atomic store.
  g_stop.store(true, std::memory_order_relaxed);
}

extern "C" void handle_reload_signal(int) {
  g_reload.store(true, std::memory_order_relaxed);
}

/// Scaled-down end-to-end flow (the classify_loops example at demo size):
/// build a generated corpus, train one MV-GNN on it, and classify every
/// for-loop of the input program. Exercises every instrumented subsystem —
/// profiler, PEG/walks, GEMM, thread pool, trainer — so a --trace-out of
/// this command shows the whole pipeline. The input is featurized before
/// training, so a program that does not compile fails before any epoch.
int cmd_train(const std::string& source, const TrainOptions& topts,
              cache::Cache* cache) {
  obs::log_info("building training corpus",
                {{"loops", std::to_string(topts.corpus_loops)}});
  // The serving recipe, so `mvgnn serve --corpus N` rebuilds exactly the
  // normalizer and feature widths this checkpoint is trained against.
  const serve::ServingContext ctx =
      serve::build_serving_context(topts.corpus_loops, cache);
  // ctx.feat_opts: the training recipe without dependence noise (the
  // user's own run is not noisy).
  const auto samples = data::featurize_source(source, ctx.ds, ctx.feat_opts);
  core::Featurizer feats(ctx.ds, ctx.norm);
  core::TrainConfig tc;
  tc.epochs = topts.epochs;
  tc.seed = topts.seed;
  tc.threads = topts.threads;
  tc.verbose = true;
  if (!topts.checkpoint_dir.empty()) {
    std::filesystem::create_directories(topts.checkpoint_dir);
    tc.checkpoint_dir = topts.checkpoint_dir;
    tc.checkpoint_every = topts.checkpoint_every;
    tc.stop_requested = &g_stop;
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    if (topts.resume) {
      tc.resume_from = core::latest_checkpoint(topts.checkpoint_dir);
      if (tc.resume_from.empty()) {
        obs::log_warn("no checkpoint to resume from; starting fresh",
                      {{"dir", topts.checkpoint_dir}});
      }
    }
  }
  obs::log_info("training MV-GNN",
                {{"train_samples", std::to_string(ctx.train.size())},
                 {"epochs", std::to_string(tc.epochs)},
                 {"seed", std::to_string(tc.seed)},
                 {"threads", std::to_string(tc.threads)}});
  core::MvGnnTrainer trainer(feats, ctx.model_cfg, tc);
  trainer.fit(ctx.train, ctx.val);
  if (trainer.interrupted()) {
    obs::log_warn("training interrupted; checkpoint written",
                  {{"dir", topts.checkpoint_dir}});
    return 130;
  }

  // ---- inference on the user program ------------------------------------
  std::printf("\nloop classification for the input program:\n");
  std::printf("%6s | %-14s | %-11s | %s\n", "line", "MV-GNN", "node/struct",
              "expert oracle");
  std::vector<core::SampleInput> inputs;
  std::vector<const core::SampleInput*> ptrs;
  inputs.reserve(samples.size());
  for (const auto& s : samples) {
    inputs.push_back(core::build_input(s, ctx.ds, ctx.norm));
    ptrs.push_back(&inputs.back());
  }
  const auto preds = core::predict(trainer.model(), ptrs, ptrs.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const data::GraphSample& s = samples[i];
    const core::ViewPrediction& p = preds[i];
    std::printf("%6d | %-14s | %3s / %-3s | %s\n", s.loop_line,
                p.fused ? "PARALLELIZABLE" : "sequential",
                p.node_view ? "par" : "seq", p.struct_view ? "par" : "seq",
                s.label ? "parallelizable" : "sequential");
  }
  return 0;
}

/// Builds the generated-corpus dataset and saves it to `out`. Two runs with
/// the same --corpus/--seed produce byte-identical files whether the stage
/// cache is off, cold, or warm — the CI cache-identity check builds twice
/// against one --cache-dir and compares the bytes.
int cmd_dataset(const std::string& out, const TrainOptions& topts,
                cache::Cache* cache) {
  data::DatasetOptions opts;
  opts.seed = topts.seed;
  opts.cache = cache;
  opts.stop_requested = &g_stop;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  obs::log_info("building dataset",
                {{"loops", std::to_string(topts.corpus_loops)},
                 {"out", out},
                 {"cached", cache ? "yes" : "no"}});
  std::size_t skipped = 0;
  data::BuildReport build_report;
  const data::Dataset ds = data::build_dataset(
      data::build_generated_corpus(topts.corpus_loops, 2024), opts, &skipped,
      &build_report);
  if (build_report.interrupted) {
    // Cooperative stop: in-flight items finished, nothing was half-written.
    // Flush what the build learned, then exit with the interrupt code.
    obs::log_warn("dataset build interrupted; no dataset written",
                  {{"out", out},
                   {"quarantined",
                    std::to_string(build_report.quarantined.size())}});
    return 130;
  }
  data::save_dataset(ds, out);
  std::printf("wrote %s: %zu samples, static_dim=%u, aw_vocab=%u\n",
              out.c_str(), ds.samples.size(), ds.static_dim, ds.aw_vocab);
  if (cache) {
    const cache::Stats st = cache->stats();
    std::printf("cache: %llu hits, %llu misses (%.0f%% hit ratio)\n",
                static_cast<unsigned long long>(st.hits),
                static_cast<unsigned long long>(st.misses),
                100.0 * st.hit_ratio());
  }
  return 0;
}

/// Long-running inference daemon (docs/serving.md): rebuild the train-time
/// featurization context, load the checkpoint, serve until SIGINT/SIGTERM
/// (graceful drain), hot-reloading the checkpoint on SIGHUP.
int cmd_serve(const TrainOptions& topts, const serve::ServerConfig& cfg,
              cache::Cache* cache) {
  if (cfg.checkpoint.empty()) {
    std::fprintf(stderr, "mvgnn: serve needs --checkpoint <file.mvck>\n");
    return 2;
  }
  obs::log_info("building serving context",
                {{"corpus", std::to_string(topts.corpus_loops)},
                 {"cached", cache ? "yes" : "no"}});
  serve::Server server(
      serve::build_serving_context(topts.corpus_loops, cache), cfg);
  server.start();
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGHUP, handle_reload_signal);
  // Parseable readiness line for scripts and the CI smoke test.
  std::printf("mvgnn serve: listening on 127.0.0.1:%d\n", server.port());
  std::fflush(stdout);
  while (!g_stop.load(std::memory_order_relaxed)) {
    if (g_reload.exchange(false, std::memory_order_relaxed)) {
      try {
        server.reload("");
      } catch (const std::exception& e) {
        // Rejected reload already logged + counted; the old model serves.
        obs::log_warn("serve: SIGHUP reload failed", {{"error", e.what()}});
      }
    }
    struct timespec ts {0, 100'000'000};  // 100ms signal-poll tick
    nanosleep(&ts, nullptr);
  }
  obs::log_info("serve: stop signal received; draining");
  server.stop();
  return 0;
}

int cmd_cache(const std::string& sub, cache::Cache* cache) {
  if (!cache || cache->config().dir.empty()) {
    std::fprintf(stderr, "mvgnn: `cache %s` needs --cache-dir\n", sub.c_str());
    return usage();
  }
  cache::Cache& c = *cache;
  if (sub == "clear") {
    c.clear();
    std::printf("cache cleared (%s)\n", c.config().dir.c_str());
    return 0;
  }
  if (sub != "stats") {
    std::fprintf(stderr, "mvgnn: unknown cache subcommand `%s`\n",
                 sub.c_str());
    return usage();
  }
  const cache::Stats st = c.stats();
  std::printf("dir           : %s\n", c.config().dir.c_str());
  std::printf("mem budget    : %zu bytes\n", c.config().mem_budget_bytes);
  std::printf("mem entries   : %llu (%llu bytes)\n",
              static_cast<unsigned long long>(st.mem_entries),
              static_cast<unsigned long long>(st.mem_bytes));
  std::printf("disk entries  : %llu (%llu bytes)\n",
              static_cast<unsigned long long>(st.disk_entries),
              static_cast<unsigned long long>(st.disk_bytes));
  std::printf("hits/misses   : %llu / %llu\n",
              static_cast<unsigned long long>(st.hits),
              static_cast<unsigned long long>(st.misses));
  std::printf("evictions     : %llu\n",
              static_cast<unsigned long long>(st.evictions));
  std::printf("corrupt       : %llu\n",
              static_cast<unsigned long long>(st.corrupt));
  std::printf("write failures: %llu\n",
              static_cast<unsigned long long>(st.write_failures));
  return 0;
}

/// Offline aggregation of a recorded run: `mvgnn report <trace> [<metrics>]`.
/// The trace is required; the metrics snapshot (from --metrics-out) adds the
/// cache/pool utilization section.
int cmd_report(const std::string& trace_path, const std::string& metrics_path,
               obs::ReportFormat fmt) {
  const obs::ParsedTrace trace = obs::parse_chrome_trace(read_file(trace_path));
  obs::MetricsSnapshot metrics;
  bool have_metrics = false;
  if (!metrics_path.empty()) {
    metrics = obs::parse_metrics_json(read_file(metrics_path));
    have_metrics = true;
  }
  const obs::Report r =
      obs::build_report(trace.events, have_metrics ? &metrics : nullptr);
  std::fputs(obs::render_report(r, fmt).c_str(), stdout);
  return 0;
}

/// Single exit path for every way the process ends (success, failure,
/// interrupt): stop the background sampler (its final row lands before the
/// file closes), flush the metrics snapshot and trace — both exporters go
/// through io::atomic_write_file, so a crash mid-export never leaves a
/// torn file — and print the --report summary. Returns the final exit code.
int finalize_run(const std::string& metrics_out, const std::string& trace_out,
                 obs::MetricsSampler* sampler, bool report,
                 obs::ReportFormat report_fmt, int rc) {
  if (sampler != nullptr) {
    sampler->stop();
    obs::log_info("wrote metrics series",
                  {{"rows", std::to_string(sampler->rows_written())}});
  }
  if (!metrics_out.empty()) {
    if (obs::Registry::global().write_json(metrics_out)) {
      obs::log_info("wrote metrics snapshot", {{"path", metrics_out}});
    } else {
      obs::log_error("cannot write metrics snapshot", {{"path", metrics_out}});
      rc = rc ? rc : 1;
    }
  }
  if (!trace_out.empty()) {
    if (obs::TraceRecorder::global().write_chrome_json(trace_out)) {
      obs::log_info("wrote Chrome trace", {{"path", trace_out}});
    } else {
      obs::log_error("cannot write trace", {{"path", trace_out}});
      rc = rc ? rc : 1;
    }
  }
  if (report) {
    const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
    const obs::Report r =
        obs::build_report(obs::TraceRecorder::global().events(), &snap);
    std::fputs(obs::render_report(r, report_fmt).c_str(), stdout);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_out, trace_out, command, file, file2;
  std::string cache_dir;
  std::string series_out;
  std::uint64_t sample_ms = 0;  // 0 = not given; default applied at start
  bool report = false;
  obs::ReportFormat report_fmt = obs::ReportFormat::Text;
  std::size_t cache_mem_mb = 0;
  bool cache_requested = false;
  TrainOptions topts;
  serve::ServerConfig scfg;
  scfg.port = 7077;  // ServerConfig's own default 0 picks an ephemeral port
  bool quiet = false;

  auto flag_value = [&](int& a, const char* flag) -> const char* {
    if (a + 1 >= argc) {
      std::fprintf(stderr, "mvgnn: %s needs a value\n", flag);
      std::exit(2);
    }
    return argv[++a];
  };
  for (int a = 1; a < argc; ++a) {
    const char* arg = argv[a];
    if (std::strcmp(arg, "--metrics-out") == 0) {
      metrics_out = flag_value(a, arg);
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      trace_out = flag_value(a, arg);
    } else if (std::strcmp(arg, "--metrics-series-out") == 0) {
      series_out = flag_value(a, arg);
    } else if (std::strcmp(arg, "--metrics-sample-ms") == 0) {
      sample_ms = static_cast<std::uint64_t>(std::atoll(flag_value(a, arg)));
    } else if (std::strcmp(arg, "--report") == 0) {
      report = true;
    } else if (std::strcmp(arg, "--report-format") == 0) {
      const char* f = flag_value(a, arg);
      if (std::strcmp(f, "text") == 0) {
        report_fmt = obs::ReportFormat::Text;
      } else if (std::strcmp(f, "md") == 0 ||
                 std::strcmp(f, "markdown") == 0) {
        report_fmt = obs::ReportFormat::Markdown;
      } else if (std::strcmp(f, "json") == 0) {
        report_fmt = obs::ReportFormat::Json;
      } else {
        std::fprintf(stderr, "mvgnn: unknown report format `%s`\n", f);
        return usage();
      }
    } else if (std::strcmp(arg, "--force-backend") == 0 ||
               std::strncmp(arg, "--force-backend=", 16) == 0) {
      const char* name =
          arg[15] == '=' ? arg + 16 : flag_value(a, "--force-backend");
      if (!tensor::backend::force(name)) {
        std::fprintf(stderr,
                     "mvgnn: unknown or unavailable backend `%s`; compiled in:",
                     name);
        for (const auto* b : tensor::backend::all()) {
          std::fprintf(stderr, " %s%s", b->name(),
                       b->usable() ? "" : " (cpu unsupported)");
        }
        std::fprintf(stderr, "\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--quiet") == 0 || std::strcmp(arg, "-q") == 0) {
      quiet = true;
    } else if (std::strcmp(arg, "--cache-dir") == 0) {
      cache_dir = flag_value(a, arg);
      cache_requested = true;
    } else if (std::strcmp(arg, "--cache-mem-mb") == 0) {
      cache_mem_mb = static_cast<std::size_t>(std::atoll(flag_value(a, arg)));
      cache_requested = true;
    } else if (std::strcmp(arg, "--corpus") == 0) {
      topts.corpus_loops = std::atoi(flag_value(a, arg));
    } else if (std::strcmp(arg, "--epochs") == 0) {
      topts.epochs = static_cast<std::size_t>(std::atoi(flag_value(a, arg)));
    } else if (std::strcmp(arg, "--seed") == 0) {
      topts.seed = static_cast<std::uint64_t>(std::atoll(flag_value(a, arg)));
    } else if (std::strcmp(arg, "--threads") == 0) {
      topts.threads = static_cast<std::size_t>(std::atoll(flag_value(a, arg)));
    } else if (std::strcmp(arg, "--checkpoint-dir") == 0) {
      topts.checkpoint_dir = flag_value(a, arg);
    } else if (std::strcmp(arg, "--checkpoint-every") == 0) {
      topts.checkpoint_every =
          static_cast<std::size_t>(std::atoll(flag_value(a, arg)));
    } else if (std::strcmp(arg, "--resume") == 0) {
      topts.resume = true;
    } else if (std::strcmp(arg, "--port") == 0) {
      scfg.port = std::atoi(flag_value(a, arg));
    } else if (std::strcmp(arg, "--checkpoint") == 0) {
      scfg.checkpoint = flag_value(a, arg);
    } else if (std::strcmp(arg, "--batch-max") == 0) {
      scfg.batch_max_samples =
          static_cast<std::size_t>(std::atoll(flag_value(a, arg)));
    } else if (std::strcmp(arg, "--batch-linger-ms") == 0) {
      scfg.batch_linger_ms =
          static_cast<std::uint64_t>(std::atoll(flag_value(a, arg)));
    } else if (std::strcmp(arg, "--queue-depth") == 0) {
      scfg.max_queue_depth =
          static_cast<std::size_t>(std::atoll(flag_value(a, arg)));
    } else if (std::strcmp(arg, "--deadline-ms") == 0) {
      scfg.default_deadline_ms =
          static_cast<std::uint64_t>(std::atoll(flag_value(a, arg)));
    } else if (std::strcmp(arg, "--max-request-bytes") == 0) {
      scfg.max_request_bytes =
          static_cast<std::size_t>(std::atoll(flag_value(a, arg)));
    } else if (std::strcmp(arg, "--serve-fuel") == 0) {
      scfg.interp.max_steps =
          static_cast<std::uint64_t>(std::atoll(flag_value(a, arg)));
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      return usage();
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "mvgnn: unknown flag %s\n", arg);
      return usage();
    } else if (command.empty()) {
      command = arg;
    } else if (file.empty()) {
      file = arg;
    } else if (file2.empty() && command == "report") {
      file2 = arg;  // optional metrics snapshot for `mvgnn report`
    } else {
      return usage();
    }
  }
  // Every command takes a <file> argument except `serve`, which is
  // configured entirely by flags.
  if (command.empty() || (file.empty() && command != "serve")) return usage();

  if (quiet) obs::Logger::global().set_level(obs::LogLevel::Warn);
  if (!trace_out.empty() || report) obs::TraceRecorder::global().enable();
  // The stage cache the dataset builds go through; none unless
  // --cache-dir or --cache-mem-mb asks for one.
  std::optional<cache::Cache> cache;
  if (cache_requested) {
    cache::Config ccfg;
    ccfg.dir = cache_dir;
    if (cache_mem_mb > 0) ccfg.mem_budget_bytes = cache_mem_mb << 20;
    cache.emplace(std::move(ccfg));
  }
  cache::Cache* cache_p = cache ? &*cache : nullptr;

  // `report` is pure offline aggregation: no sampler, no recorder needed.
  if (command == "report") {
    try {
      return cmd_report(file, file2, report_fmt);
    } catch (const std::exception& e) {
      obs::log_error(std::string("mvgnn report: ") + e.what());
      return 1;
    }
  }

  std::optional<obs::MetricsSampler> sampler;
  if (!series_out.empty()) {
    obs::MetricsSampler::Options sopts;
    sopts.interval_ms = sample_ms != 0 ? sample_ms : 200;
    sopts.path = series_out;
    sampler.emplace(std::move(sopts));
    if (!sampler->start()) sampler.reset();  // start() already logged why
  } else if (sample_ms != 0) {
    obs::log_warn("--metrics-sample-ms has no effect without "
                  "--metrics-series-out; ignoring");
  }
  obs::MetricsSampler* sampler_p = sampler ? &*sampler : nullptr;

  int rc = 0;
  try {
    if (command == "cache") {
      return finalize_run(metrics_out, trace_out, sampler_p, report,
                          report_fmt, cmd_cache(file, cache_p));
    }
    if (command == "dataset") {
      return finalize_run(metrics_out, trace_out, sampler_p, report,
                          report_fmt, cmd_dataset(file, topts, cache_p));
    }
    if (command == "serve") {
      return finalize_run(metrics_out, trace_out, sampler_p, report,
                          report_fmt, cmd_serve(topts, scfg, cache_p));
    }
    const std::string source = read_file(file);
    if (command == "variants") {
      rc = cmd_variants(source);
    } else if (command == "train") {
      rc = cmd_train(source, topts, cache_p);
    } else {
      const ir::Module m = frontend::compile(source, file);
      if (command == "ir") rc = cmd_ir(m);
      else if (command == "cus") rc = cmd_cus(m);
      else if (command == "profile") rc = cmd_profile(m);
      else if (command == "peg") rc = cmd_peg(m);
      else if (command == "suggest") rc = cmd_suggest(m);
      else if (command == "parallelize")
        rc = cmd_parallelize(
            m, source,
            topts.threads ? static_cast<std::uint32_t>(topts.threads) : 2u);
      else return usage();
    }
  } catch (const std::exception& e) {
    obs::log_error(std::string("mvgnn: ") + e.what());
    rc = 1;
  }

  return finalize_run(metrics_out, trace_out, sampler_p, report, report_fmt,
                      rc);
}
