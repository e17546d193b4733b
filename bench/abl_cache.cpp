// Ablation: stage-boundary cache — cold vs warm build_dataset wall-clock.
//
// Three measurements on the combined benchmark + generated corpus (with the
// six IR-variant pipelines on, so compile/profile dominates):
//  1. off:  cache disabled (the pre-cache path), best of --reps.
//  2. cold: disk tier emptied before every rep, so each rep pays the full
//     pipeline plus the cache writes.
//  3. warm: everything served from the populated disk tier; only the
//     deterministic corpus-global replay (vocabulary growth + sample
//     assembly) remains.
//
// Acceptance: warm >= 5x faster than cold, and the three datasets are
// byte-for-byte identical. Results go to stdout and, through BenchReport,
// to a schema-v1 JSON snapshot that tools/bench_compare gates in CI.
//
//   --smoke      tiny corpus, 1 rep, relaxed acceptance (warm >= 1.5x) —
//                for CI, where the ratio metrics still regress visibly but
//                the absolute times are too small for the full 5x bar
//   --loops <n>  generated-corpus size (default 700; smoke default 60)
//   --reps <n>   repetitions, best-of (default 3; smoke default 1)
//   --out <p>    snapshot path (default BENCH_cache.json)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>

#include "bench/common.hpp"
#include "cache/cache.hpp"
#include "data/serialize.hpp"

namespace {

using namespace mvgnn;
namespace fs = std::filesystem;

double secs_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string dataset_bytes(const data::Dataset& ds) {
  std::ostringstream os;
  data::save_dataset(ds, os);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int loops = 0, reps = 0;  // 0 = pick the mode default below
  std::string out = "BENCH_cache.json";
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[a], "--loops") == 0 && a + 1 < argc) {
      loops = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--reps") == 0 && a + 1 < argc) {
      reps = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--out") == 0 && a + 1 < argc) {
      out = argv[++a];
    } else {
      std::fprintf(stderr,
                   "usage: abl_cache [--smoke] [--loops n] [--reps n] "
                   "[--out path]\n");
      return 2;
    }
  }
  if (loops <= 0) loops = smoke ? 60 : 700;
  if (reps <= 0) reps = smoke ? 1 : 3;
  const double min_speedup = smoke ? 1.5 : 5.0;

  const auto programs = bench::paper_corpus(loops, 123);
  data::DatasetOptions opts;
  opts.seed = 123;
  opts.use_ir_variants = true;

  const fs::path dir = fs::temp_directory_path() / "mvgnn_bench_abl_cache";
  fs::remove_all(dir);

  // ---- off: the pre-cache path ------------------------------------------
  auto t0 = std::chrono::steady_clock::now();
  const data::Dataset ds_off = data::build_dataset(programs, opts);
  double off_s = secs_since(t0);
  for (int r = 1; r < reps; ++r) {
    t0 = std::chrono::steady_clock::now();
    (void)data::build_dataset(programs, opts);
    off_s = std::min(off_s, secs_since(t0));
  }
  const std::string off_bytes = dataset_bytes(ds_off);
  std::printf("cache off : %zu samples, best of %d: %.3f s\n",
              ds_off.samples.size(), reps, off_s);

  // ---- cold: empty disk tier every rep ----------------------------------
  cache::Cache c(cache::Config{dir.string(), 512ull << 20});
  opts.cache = &c;
  double cold_s = 0.0;
  std::string cold_bytes;
  for (int r = 0; r < reps; ++r) {
    c.clear();
    t0 = std::chrono::steady_clock::now();
    const data::Dataset ds_cold = data::build_dataset(programs, opts);
    const double t = secs_since(t0);
    cold_s = (r == 0) ? t : std::min(cold_s, t);
    cold_bytes = dataset_bytes(ds_cold);
  }
  std::printf("cache cold: best of %d: %.3f s (writes included)\n", reps,
              cold_s);

  // ---- warm: the populated tier (memory already hot from the last cold
  // rep; a disk-only first rep would only be slower, and best-of keeps the
  // hottest anyway) --------------------------------------------------------
  double warm_s = 0.0;
  std::string warm_bytes;
  for (int r = 0; r < reps; ++r) {
    t0 = std::chrono::steady_clock::now();
    const data::Dataset ds_warm = data::build_dataset(programs, opts);
    const double t = secs_since(t0);
    warm_s = (r == 0) ? t : std::min(warm_s, t);
    warm_bytes = dataset_bytes(ds_warm);
  }
  const cache::Stats st = c.stats();
  std::printf("cache warm: best of %d: %.3f s\n", reps, warm_s);
  std::printf("cache     : %llu hits / %llu misses (%.1f%% hit ratio), "
              "%llu disk entries (%.1f MiB)\n",
              static_cast<unsigned long long>(st.hits),
              static_cast<unsigned long long>(st.misses),
              100.0 * st.hit_ratio(),
              static_cast<unsigned long long>(st.disk_entries),
              static_cast<double>(st.disk_bytes) / (1 << 20));

  const bool identical = off_bytes == cold_bytes && cold_bytes == warm_bytes;
  const double speedup = cold_s / warm_s;
  std::printf("\nbytes identical off/cold/warm: %s\n",
              identical ? "yes" : "NO");
  std::printf("warm speedup vs cold: %.2fx (acceptance: >= %.1fx)\n", speedup,
              min_speedup);

  obs::BenchReport report("abl_cache");
  report.config("loops", loops);
  report.config("reps", reps);
  report.config("smoke", smoke ? 1 : 0);
  report.config("samples", static_cast<double>(ds_off.samples.size()));
  report.metric("off_s", off_s, obs::MetricGoal::Lower, "s");
  report.metric("cold_s", cold_s, obs::MetricGoal::Lower, "s");
  report.metric("warm_s", warm_s, obs::MetricGoal::Lower, "s");
  report.metric("warm_speedup_vs_cold", speedup, obs::MetricGoal::Higher, "x");
  report.metric("hit_ratio", st.hit_ratio(), obs::MetricGoal::Higher);
  report.metric("bytes_identical", identical ? 1.0 : 0.0,
                obs::MetricGoal::Higher);
  report.metric("disk_entries", static_cast<double>(st.disk_entries));
  report.metric("disk_mib", static_cast<double>(st.disk_bytes) / (1 << 20),
                obs::MetricGoal::None, "MiB");
  if (report.write(out)) std::printf("wrote %s\n", out.c_str());

  fs::remove_all(dir);
  return (identical && speedup >= min_speedup) ? 0 : 1;
}
