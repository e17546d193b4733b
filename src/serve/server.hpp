// `mvgnn serve` — a fault-tolerant batched inference daemon (docs/serving.md).
//
// Accepts line-delimited JSON requests over TCP (serve/protocol.hpp), each
// carrying one MiniC program, and answers with per-loop parallelizability
// verdicts from a trained MV-GNN checkpoint. The interesting parts:
//
//  * Deadline-aware dynamic batching: connection threads compile, profile
//    and featurize requests concurrently, then hand the featurized samples
//    to a single batcher thread that drains a bounded queue into one
//    block-diagonal core::GraphBatch per flush (linger-or-full policy) and
//    runs one forward_batch. A request whose deadline expires while queued
//    is answered with a typed `deadline` error instead of stale results,
//    and admission rejects early when the smoothed batch latency says the
//    deadline cannot be met. A bounded hot-program LRU keeps featurized
//    inputs for recently seen sources, so a repeated program skips the
//    compile/profile/featurize pipeline and goes straight to the queue.
//  * Admission control: a bounded queue depth plus an in-flight source-byte
//    budget. Requests beyond either budget are shed with a typed `shed`
//    error before any featurization work is spent; per-request size and
//    interpreter fuel caps bound what one request can cost. Compile,
//    profile and featurize failures are quarantined per request — they
//    answer a typed error and never take the daemon down.
//  * Hot checkpoint reload: a `{"cmd":"reload"}` control line (or SIGHUP
//    via the CLI) loads and CRC-validates the new .mvck off to the side,
//    then atomically swaps the model pointer. In-flight batches finish on
//    the model they started with — one batch never mixes models, which is
//    why every response carries `model_version` and `batch_id`. A corrupt
//    or shape-mismatched checkpoint is rejected with `reload_failed` and
//    the old model keeps serving.
//  * Graceful drain: stop() closes the listener, lets every in-flight
//    request finish and flush its response, then retires the batcher.
//    Requests that arrive during the drain get `shutting_down`.
//
// Fault sites (docs/robustness.md): serve.accept, serve.read, serve.batch,
// serve.reload.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/mvgnn.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "obs/stop_token.hpp"
#include "profiler/interp.hpp"
#include "serve/protocol.hpp"

namespace mvgnn::cache {
class Cache;
}

namespace mvgnn::serve {

/// Everything checkpoint weights alone cannot provide: the frozen
/// vocabularies, inst2vec table and normalizer the model was trained
/// against. `mvgnn train` builds its training set through the same
/// function, so a checkpoint produced by `mvgnn train --corpus N` serves
/// correctly under `mvgnn serve --corpus N` (a mismatched corpus changes
/// feature widths and the checkpoint loader rejects the shapes).
struct ServingContext {
  data::Dataset ds;
  /// The training split (oversampled to balance) the normalizer was fit
  /// on, and the held-out validation split.
  std::vector<std::size_t> train;
  std::vector<std::size_t> val;
  core::Normalizer norm;
  core::MvGnnConfig model_cfg;
  /// featurize_program options for incoming requests: the training recipe
  /// minus dependence noise (a live request's own profile is not noisy).
  data::DatasetOptions feat_opts;
};

/// Builds the training and featurization context for `corpus_loops`: corpus
/// seed 2024, dataset seed 5, split 0.85/seed 5, balanced oversampling of
/// the training split, normalizer fit on it. The one recipe behind both
/// `mvgnn train` and `mvgnn serve`. `cache` feeds the stage cache so a warm
/// --cache-dir makes startup cheap; requests never go through it
/// (`feat_opts.cache` is null), the hot-program LRU serves repeats.
[[nodiscard]] ServingContext build_serving_context(int corpus_loops,
                                                   cache::Cache* cache);

/// One loaded, validated model generation. Immutable after load; the server
/// hot-swaps a shared_ptr to the current generation and batches pin the
/// generation they started with.
struct Model {
  std::unique_ptr<core::MvGnn> net;
  std::uint64_t version = 0;  ///< monotonically increasing reload counter
  std::string path;
  core::CheckpointMeta meta;
};

/// Loads and CRC-validates `path` against the context's model shape.
/// Honors the "serve.reload" fault site. Throws std::runtime_error (with
/// the failing byte offset) on corruption or shape mismatch — the caller
/// decides whether that is fatal (startup) or answered as `reload_failed`
/// (hot reload).
[[nodiscard]] std::shared_ptr<const Model> load_model(
    const ServingContext& ctx, const std::string& path,
    std::uint64_t version);

/// Smoothed flush-latency estimate (EWMA, alpha = 1/4) feeding early
/// deadline rejection. Armed by an explicit flag, not by a zero sentinel:
/// a genuinely sub-ns-rounded flush measures 0 and must keep early
/// rejection enabled — the first measured flush arms it permanently.
/// Writer is the batcher thread; readers are connection threads (relaxed
/// atomics, the estimate is advisory).
class LatencyEwma {
 public:
  void record(std::uint64_t sample_ns) {
    const std::uint64_t prev = value_.load(std::memory_order_relaxed);
    const bool was_armed = armed_.load(std::memory_order_relaxed);
    value_.store(was_armed ? (3 * prev + sample_ns) / 4 : sample_ns,
                 std::memory_order_relaxed);
    if (!was_armed) armed_.store(true, std::memory_order_relaxed);
  }
  /// True once any flush has been measured — even one that rounded to 0.
  [[nodiscard]] bool armed() const {
    return armed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value_ns() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_ = {0};
  std::atomic<bool> armed_ = {false};
};

struct ServerConfig {
  /// 0 = pick an ephemeral port; Server::port() reports the bound one.
  int port = 0;
  /// Startup checkpoint; also the default target of a bare
  /// `{"cmd":"reload"}` / SIGHUP reload.
  std::string checkpoint;
  /// Admission: queued-request cap (requests admitted but not yet answered
  /// by the batcher).
  std::size_t max_queue_depth = 128;
  /// Per-request line cap; longer lines are answered `oversized` and the
  /// remainder of the line is discarded so the stream stays framed.
  std::size_t max_request_bytes = 1u << 20;
  /// Batch flush policy: flush when this many loop samples are pending...
  std::size_t batch_max_samples = 32;
  /// ...or when the oldest admitted request has waited this long.
  std::uint64_t batch_linger_ms = 5;
  /// Applied when a request omits `deadline_ms`. 0 = no deadline.
  std::uint64_t default_deadline_ms = 10'000;
  /// Per-request interpreter fuel/memory/depth caps (PR 4 limits): a
  /// pathological program traps and is answered `profile`, never hangs the
  /// daemon. Default is a tenth of the dataset-build budget.
  profiler::InterpOptions interp{.max_steps = 20'000'000,
                                 .max_call_depth = 256,
                                 .max_mem_cells = 1ull << 22};
};

class Server {
 public:
  /// Binds the listen socket and loads the startup checkpoint. Throws on
  /// bind failure or an unloadable checkpoint — startup is the one moment a
  /// bad checkpoint is fatal.
  Server(ServingContext ctx, ServerConfig cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the accept and batcher threads. Call once.
  void start();

  /// Graceful drain: stop accepting, let in-flight requests finish and
  /// flush their responses, retire the batcher. Idempotent.
  void stop();

  /// The bound TCP port (resolves port 0 to the kernel's pick).
  [[nodiscard]] int port() const { return port_; }

  /// Loads `path` (empty = the startup checkpoint path) and swaps it in.
  /// Returns the new version on success; throws on a rejected checkpoint —
  /// the current model keeps serving either way.
  std::uint64_t reload(const std::string& path);

  /// Current model generation (for tests and the stats command).
  [[nodiscard]] std::uint64_t model_version() const;

 private:
  /// The featurized form of one program source: immutable once built, shared
  /// between the hot-program cache and any request in flight that uses it.
  struct Prepared {
    std::vector<core::SampleInput> inputs;  // one per for-loop
    std::vector<int> loop_lines;
  };

  /// One admitted request waiting for (or being processed by) the batcher.
  struct Pending {
    std::shared_ptr<const Prepared> prog;
    std::string id;
    std::size_t bytes = 0;  // admission accounting (source size)
    std::uint64_t enqueue_ns = 0;
    std::uint64_t deadline_ns = 0;  // 0 = none; absolute steady-clock ns
    std::promise<std::string> response;
  };

  void accept_loop();
  void connection_loop(int fd);
  void batcher_loop();

  /// Processes one framed request line; returns the response line.
  std::string handle_line(const std::string& line);
  std::string handle_request(const Request& req);
  std::string handle_control(const ControlCommand& ctl);

  /// Reserves queue and byte budget; false = shed.
  bool try_admit(std::size_t bytes);
  void release(std::size_t bytes);

  /// Open connections beyond this are answered `shed` and closed.
  static constexpr std::size_t kMaxConnections = 64;
  /// Admission: total source bytes admitted but not yet answered.
  static constexpr std::size_t kMaxInflightBytes = std::size_t{8} << 20;

  /// Hot-program cache (LRU by program source): featurized inputs for the
  /// kProgramCacheEntries most recent distinct sources, so a repeated
  /// program skips the compile/profile/featurize pipeline entirely. Only
  /// successful featurizations are cached — errors always re-run the
  /// pipeline.
  static constexpr std::size_t kProgramCacheEntries = 64;
  [[nodiscard]] std::shared_ptr<const Prepared> program_cache_get(
      const std::string& source);
  void program_cache_put(const std::string& source,
                         std::shared_ptr<const Prepared> prog);

  /// Flushes one batch: everything queued, up to batch_max_samples loop
  /// samples (at least one request). Expired requests are answered
  /// `deadline` instead of being forwarded.
  void run_batch(std::vector<std::unique_ptr<Pending>> batch);

  ServingContext ctx_;
  ServerConfig cfg_;
  int listen_fd_ = -1;
  int port_ = 0;

  // Current model generation; swapped under model_mu_, read by taking a
  // shared_ptr copy so a batch in flight keeps its generation alive.
  // reload_mu_ serializes whole reloads (load + validate can be slow and
  // must not hold model_mu_); next_version_ is guarded by it.
  mutable std::mutex model_mu_;
  std::mutex reload_mu_;
  std::shared_ptr<const Model> model_;
  std::uint64_t next_version_ = 1;

  // Batch queue (admitted requests) + admission accounting.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<Pending>> queue_;
  std::size_t queued_samples_ = 0;
  bool queue_closed_ = false;
  std::atomic<std::size_t> inflight_ = {0};        // admitted, unanswered
  std::atomic<std::size_t> inflight_bytes_ = {0};

  // Hot-program cache: source → featurized inputs, LRU-evicted at
  // kProgramCacheEntries.
  std::mutex prog_mu_;
  std::list<std::pair<std::string, std::shared_ptr<const Prepared>>>
      prog_lru_;
  std::unordered_map<
      std::string,
      std::list<std::pair<std::string,
                          std::shared_ptr<const Prepared>>>::iterator>
      prog_map_;
  /// Smoothed per-flush batch latency for early deadline rejection.
  LatencyEwma ewma_batch_;

  obs::StopToken stop_;  // shared stop signal: accept + connection loops
  std::thread accept_thread_;
  std::thread batcher_thread_;
  struct Conn {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<std::size_t> open_conns_ = {0};
  std::atomic<std::uint64_t> next_batch_id_ = {1};
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace mvgnn::serve
