// dataset_cold / dataset_warm: data::build_dataset over the abl_cache corpus
// (Table II corpus plus generated loops, all six IR variants) through a
// cache::Cache.
//
// dataset_cold builds into a new memory-only cache. The disk tier fsyncs
// every entry, and on a shared disk that made cold builds swing by 40% from
// run to run; the memory tier keeps that environment noise out of the
// profiler-heavy build this workload is about.
//
// dataset_warm is what a re-run of `mvgnn dataset --cache-dir` pays: each
// rep opens a new cache::Cache on a directory a cold build filled once,
// before set-up, so it starts with an empty memory tier and reads, checks
// and decodes every entry from the disk tier, then replays the
// corpus-global embedding.
//
// Set-up is the same for both: the corpus and a cache-off reference build
// that every timed build must reproduce byte for byte (cache off == cold
// == warm). Without the reference build a warm set-up would be only the
// corpus generation, a few milliseconds that swung by 2x from run to run
// with the state of the allocator.
#include "workload.hpp"

#include <unistd.h>

#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "cache/cache.hpp"
#include "data/dataset.hpp"
#include "data/serialize.hpp"
#include "obs/trace.hpp"
#include "transform/passes.hpp"

namespace mvgnn::bench_e2e {
namespace {

namespace fs = std::filesystem;

/// Room for every entry of one cold build, so the cold build measures the
/// compute and write path rather than evictions.
constexpr std::size_t kColdCacheBudget = 1ull << 30;

std::string dataset_bytes(const data::Dataset& ds) {
  std::ostringstream os;
  data::save_dataset(ds, os);
  return os.str();
}

class DatasetWorkload final : public Workload {
 public:
  explicit DatasetWorkload(bool warm) : warm_(warm) {}
  ~DatasetWorkload() override {
    if (!cache_dir_.empty()) {
      std::error_code ec;
      fs::remove_all(cache_dir_, ec);
    }
  }

  /// dataset_warm: the first `mvgnn dataset --cache-dir` run, which fills
  /// the directory (at the CLI's default memory budget).
  void prepare(const Options& opts) override {
    if (!warm_) return;
    make_inputs(opts);
    cache_dir_ = (fs::path(opts.work_dir) /
                  ("dataset-cache-" + std::to_string(::getpid())))
                     .string();
    fs::remove_all(cache_dir_);
    fs::create_directories(cache_dir_);
    const cache::Config cfg{cache_dir_};
    Phase check;
    disk_bytes_ = build(check, "bench.build_fill", &cfg).disk_bytes;
    if (check.failed != 0) throw std::runtime_error(check.problems.front());
  }

  void setup(const Options& opts) override {
    make_inputs(opts);
    reference_.clear();
    Phase check;
    build(check, "bench.build_reference", nullptr);
    if (check.failed != 0) throw std::runtime_error(check.problems.front());
  }

  Phase run(double seconds) override {
    Phase ph;
    const cache::Config cfg =
        warm_ ? cache::Config{cache_dir_} : cache::Config{"", kColdCacheBudget};
    const char* span = warm_ ? "bench.build_warm" : "bench.build_cold";
    cache::Stats timed;  // hits and misses summed over the timed builds
    run_reps(seconds, warm_ ? 6 : 3, [&](int rep) {
      if (warm_ && rep == 0) {  // warm-up (files enter the page cache)
        Phase warmup;
        build(warmup, span, &cfg);
        ph.add_checks(std::move(warmup));
        return;
      }
      const cache::Stats s = build(ph, span, &cfg);
      timed.hits += s.hits;
      timed.misses += s.misses;
      timed.mem_bytes = s.mem_bytes;
    });
    const double ratio = timed.hit_ratio();
    ph.layer["cache.hit_ratio"] = ratio;
    ph.layer["cache.mem_mib"] = static_cast<double>(timed.mem_bytes) / (1 << 20);
    if (warm_) {
      ph.layer["cache.disk_mib"] = static_cast<double>(disk_bytes_) / (1 << 20);
      if (ratio != 1.0) {
        ph.fail("dataset_warm: cache hit ratio " + std::to_string(ratio) +
                " (must be 1.0)");
      }
    }
    return ph;
  }

 private:
  void make_inputs(const Options& opts) {
    programs_ = data::build_benchmark_corpus(opts.seed);
    auto gen = data::build_generated_corpus(opts.smoke ? 40 : 700,
                                            opts.seed ^ 0x9E97ULL);
    programs_.insert(programs_.end(), std::make_move_iterator(gen.begin()),
                     std::make_move_iterator(gen.end()));
    if (opts.smoke) programs_.resize(60);
    opts_ = data::DatasetOptions{};
    opts_.seed = opts.seed;
    opts_.use_ir_variants = true;
    items_ = programs_.size() * transform::variant_pipelines().size();
  }

  /// One build, through a new cache on `*cfg` (opened inside the timed
  /// region, as a new process opens it) or with no cache; returns that
  /// cache's statistics. Records rate and latency, counts a quarantined
  /// item as a failed operation and a byte difference from the reference
  /// as a failed build. The first build after the reference was cleared
  /// becomes the reference.
  cache::Stats build(Phase& ph, const char* span_name,
                     const cache::Config* cfg) {
    const Clock::time_point t0 = Clock::now();
    std::optional<cache::Cache> c;
    if (cfg != nullptr) c.emplace(*cfg);
    opts_.cache = c ? &*c : nullptr;
    data::BuildReport report;
    data::Dataset ds;
    {
      obs::ScopedSpan span(span_name);
      ds = data::build_dataset(programs_, opts_, nullptr, &report);
    }
    const double s = seconds_since(t0);
    opts_.cache = nullptr;
    ph.rep_rate.push_back(static_cast<double>(items_) / s);
    ph.op_ms.push_back(s * 1e3);
    ph.attempted += 1;
    const std::string bytes = dataset_bytes(ds);
    bool ok = report.quarantined.empty();
    for (const data::QuarantineEntry& q : report.quarantined) {
      ph.fail("quarantined " + q.kernel + "/" + q.variant + " at " + q.stage +
              ": " + q.error);
    }
    if (reference_.empty()) {
      reference_ = bytes;
    } else if (bytes != reference_) {
      ok = false;
      ph.fail(std::string(span_name) +
              ": dataset bytes differ from the reference build");
    }
    if (!ok) ph.failed += 1;
    return c ? c->stats() : cache::Stats{};
  }

  bool warm_;
  std::vector<data::ProgramSpec> programs_;
  data::DatasetOptions opts_;
  std::size_t items_ = 0;
  std::string cache_dir_;  // warm only: filled in prepare()
  std::uint64_t disk_bytes_ = 0;
  std::string reference_;
};

}  // namespace

std::unique_ptr<Workload> make_dataset_cold() {
  return std::make_unique<DatasetWorkload>(false);
}
std::unique_ptr<Workload> make_dataset_warm() {
  return std::make_unique<DatasetWorkload>(true);
}

}  // namespace mvgnn::bench_e2e
