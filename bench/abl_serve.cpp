// Ablation: `mvgnn serve` dynamic batching — throughput and tail latency of
// the inference daemon under concurrent load (docs/serving.md).
//
// Self-hosted mode (default) trains a 1-epoch checkpoint, starts an
// in-process serve::Server on an ephemeral loopback port and drives it with
// --conns client threads, each sending --requests back-to-back requests for
// a 12-loop program (one request = 12 batch samples, the shape of a real
// whole-translation-unit analysis request). A --malformed-pct slice of the
// stream is garbage lines, exercising the typed-error path under load. Two
// phases at the same thread count:
//  1. batched: the shipping flush policy — the batcher flushes a full wave
//     (12 x conns samples) into forward chunks of batch_max_samples.
//  2. batch1:  batch_max_samples forced to 1 (one sample per forward) —
//     the unamortized per-sample baseline.
//
// Acceptance: every request answered (no connection resets, malformed lines
// included), and batched QPS >= 2x batch1 QPS in full mode. Results go to a
// schema-v1 BenchReport snapshot that tools/bench_compare gates in CI.
//
//   --smoke            small load, relaxed acceptance (>= 1.1x) for CI
//   --conns <n>        client connections (default 8; smoke 4)
//   --requests <n>     requests per connection (default 150; smoke 25)
//   --malformed-pct <p> percent of garbage lines (default 5)
//   --loops <n>        serving-context corpus size (default 30)
//   --out <p>          snapshot path (default BENCH_serve.json)
//   --connect <h:p>    drive an already-running daemon instead (one batched
//                      phase; no speedup metric, no snapshot gate)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.hpp"
#include "core/checkpoint.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "obs/bench_report.hpp"
#include "parallel/rng.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "tensor/optim.hpp"

namespace {

using namespace mvgnn;
namespace fs = std::filesystem;

// Twelve small loops (DOALL/reduction/stencil mix): one request is 12 batch
// samples, so the load is forward-heavy the way a real analysis request for
// a whole translation unit is — many loops per submitted program.
const char* kProgram = R"(
const int N = 16;
float kernel(float[] a, float[] b, float[] c) {
  for (int i = 0; i < N; i += 1) { a[i] = a[i] + 1.0; }
  for (int i = 0; i < N; i += 1) { b[i] = b[i] * 2.0 + a[i]; }
  for (int i = 0; i < N; i += 1) { c[i] = a[i] + b[i]; }
  float s0 = 0.0;
  for (int i = 0; i < N; i += 1) { s0 = s0 + a[i] * b[i]; }
  for (int i = 1; i < N; i += 1) { a[i] = a[i - 1] + c[i]; }
  for (int i = 0; i < N; i += 1) { b[i] = b[i] - c[i] * 0.5; }
  float s1 = 0.0;
  for (int i = 0; i < N; i += 1) { s1 = s1 + c[i]; }
  for (int i = 0; i < N; i += 1) { c[i] = c[i] * c[i]; }
  for (int i = 1; i < N; i += 1) { b[i] = b[i] + b[i - 1]; }
  for (int i = 0; i < N; i += 1) { a[i] = a[i] + s0 * 0.25; }
  float s2 = 0.0;
  for (int i = 0; i < N; i += 1) { s2 = s2 + a[i] - b[i]; }
  for (int i = 0; i < N; i += 1) { c[i] = c[i] + s1 + s2; }
  return s0 + s1 + s2;
}
)";
constexpr std::size_t kLoopsPerRequest = 12;

/// Minimal blocking line client; read_line() == "" means EOF/error, which
/// while a response is owed counts as a connection reset.
struct Client {
  int fd = -1;
  std::string buf;

  Client(const std::string& host, int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return;
    timeval tv{60, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      fd = -1;
    }
  }
  ~Client() {
    if (fd >= 0) ::close(fd);
  }

  bool send_line(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  std::string read_line() {
    for (;;) {
      const std::size_t nl = buf.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        return line;
      }
      char tmp[4096];
      const ssize_t n = ::recv(fd, tmp, sizeof tmp, 0);
      if (n <= 0) return "";
      buf.append(tmp, static_cast<std::size_t>(n));
    }
  }
};

struct PhaseResult {
  double wall_s = 0.0;
  std::size_t ok = 0;
  std::size_t typed_errors = 0;  // answered malformed/etc. lines
  std::size_t resets = 0;        // EOF while a response was owed
  std::vector<double> latency_us;

  [[nodiscard]] double qps() const {
    return wall_s > 0 ? static_cast<double>(ok) / wall_s : 0.0;
  }
  [[nodiscard]] double pct(double q) const {
    if (latency_us.empty()) return 0.0;
    std::vector<double> s = latency_us;
    std::sort(s.begin(), s.end());
    const auto idx = std::min(
        s.size() - 1, static_cast<std::size_t>(q * static_cast<double>(
                                                       s.size())));
    return s[idx];
  }
};

/// Drives `conns` connections of `requests` lines each against host:port.
/// Every `malformed_every`-th line is garbage (0 = never) and must still be
/// answered with a typed error.
PhaseResult run_phase(const std::string& host, int port, int conns,
                      int requests, int malformed_every) {
  std::atomic<int> ready{0};
  std::atomic<std::size_t> ok{0}, typed{0}, resets{0};
  std::vector<std::vector<double>> lats(static_cast<std::size_t>(conns));
  std::vector<std::thread> threads;
  const auto wall0 = std::chrono::steady_clock::now();
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      Client cl(host, port);
      if (cl.fd < 0) {
        resets.fetch_add(static_cast<std::size_t>(requests));
        return;
      }
      ready.fetch_add(1);
      while (ready.load() < conns) std::this_thread::yield();
      for (int i = 0; i < requests; ++i) {
        const bool garbage =
            malformed_every > 0 && (i + 1) % malformed_every == 0;
        const std::string line =
            garbage ? std::string("{\"id\": \"g\", \"source\": 12 zz")
                    : "{\"id\": \"c" + std::to_string(c) + "-" +
                          std::to_string(i) + "\", \"source\": \"" +
                          serve::json_escape(kProgram) +
                          "\", \"deadline_ms\": 0}";
        const auto t0 = std::chrono::steady_clock::now();
        if (!cl.send_line(line)) {
          resets.fetch_add(1);
          return;
        }
        const std::string resp = cl.read_line();
        if (resp.empty()) {
          resets.fetch_add(1);
          return;
        }
        if (garbage) {
          typed.fetch_add(1);
          continue;
        }
        if (resp.find("\"ok\": true") == std::string::npos) {
          typed.fetch_add(1);
          continue;
        }
        ok.fetch_add(1);
        lats[static_cast<std::size_t>(c)].push_back(
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - t0)
                .count());
      }
    });
  }
  for (auto& t : threads) t.join();
  PhaseResult r;
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           wall0)
                 .count();
  r.ok = ok.load();
  r.typed_errors = typed.load();
  r.resets = resets.load();
  for (auto& l : lats) {
    r.latency_us.insert(r.latency_us.end(), l.begin(), l.end());
  }
  return r;
}

void print_phase(const char* name, const PhaseResult& r) {
  std::printf("%-8s: %6zu ok, %4zu typed errors, %zu resets, %.2fs wall, "
              "%8.1f qps, p50 %7.0fus, p99 %7.0fus\n",
              name, r.ok, r.typed_errors, r.resets, r.wall_s, r.qps(),
              r.pct(0.50), r.pct(0.99));
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int conns = 0, requests = 0, loops = 30, malformed_pct = 5;
  std::string out = "BENCH_serve.json";
  std::string connect;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[a], "--conns") == 0 && a + 1 < argc) {
      conns = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--requests") == 0 && a + 1 < argc) {
      requests = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--malformed-pct") == 0 && a + 1 < argc) {
      malformed_pct = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--loops") == 0 && a + 1 < argc) {
      loops = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--out") == 0 && a + 1 < argc) {
      out = argv[++a];
    } else if (std::strcmp(argv[a], "--connect") == 0 && a + 1 < argc) {
      connect = argv[++a];
    } else {
      std::fprintf(stderr,
                   "usage: abl_serve [--smoke] [--conns n] [--requests n] "
                   "[--malformed-pct p] [--loops n] [--out path] "
                   "[--connect host:port]\n");
      return 2;
    }
  }
  if (conns <= 0) conns = smoke ? 4 : 8;
  if (requests <= 0) requests = smoke ? 25 : 150;
  const int malformed_every =
      malformed_pct > 0 ? std::max(2, 100 / malformed_pct) : 0;
  const double min_speedup = smoke ? 1.1 : 2.0;

  // ---- external-daemon mode ---------------------------------------------
  if (!connect.empty()) {
    const std::size_t colon = connect.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "abl_serve: --connect wants host:port\n");
      return 2;
    }
    const std::string host = connect.substr(0, colon);
    const int port = std::atoi(connect.c_str() + colon + 1);
    const PhaseResult r =
        run_phase(host, port, conns, requests, malformed_every);
    print_phase("connect", r);
    const std::size_t expected = static_cast<std::size_t>(conns) *
                                 static_cast<std::size_t>(requests);
    const bool all_answered = r.ok + r.typed_errors == expected;
    std::printf("answered %zu/%zu, resets %zu\n", r.ok + r.typed_errors,
                expected, r.resets);
    return (r.resets == 0 && all_answered) ? 0 : 1;
  }

  // ---- self-hosted: context + 1-epoch checkpoint ------------------------
  // The stage cache plays the role a warm --cache-dir does for a real
  // daemon: repeat featurizations are near-free, so the two phases measure
  // the batcher rather than the (identical) per-request pipeline work.
  const fs::path dir = fs::temp_directory_path() / "mvgnn_bench_abl_serve";
  fs::remove_all(dir);
  fs::create_directories(dir);
  cache::Cache stage_cache(
      cache::Config{(dir / "cache").string(), 256ull << 20});
  std::printf("building serving context (corpus %d) ...\n", loops);
  serve::ServingContext ctx =
      serve::build_serving_context(loops, &stage_cache);
  core::Featurizer feats(ctx.ds, ctx.norm);
  core::TrainConfig tc;
  tc.epochs = 1;
  core::MvGnnTrainer trainer(feats, ctx.model_cfg, tc);
  trainer.fit(ctx.train, {});
  ag::Adam opt(1e-3f);
  opt.add_params(trainer.model_mutable().parameters());
  core::CheckpointMeta meta;
  meta.epoch = 1;
  meta.rng_state = par::Rng(7).state();
  const std::string ckpt = (dir / "ckpt-1.mvck").string();
  core::save_checkpoint(ckpt, meta, trainer.model(), opt);

  auto serve_phase = [&](std::size_t batch_max, std::uint64_t linger_ms) {
    serve::ServerConfig cfg;
    cfg.checkpoint = ckpt;
    cfg.batch_max_samples = batch_max;
    cfg.batch_linger_ms = linger_ms;
    cfg.max_queue_depth = 256;
    serve::Server server(ctx, cfg);
    server.start();
    const PhaseResult r = run_phase("127.0.0.1", server.port(), conns,
                                    requests, malformed_every);
    server.stop();
    return r;
  };

  // Closed-loop load (one outstanding request per connection) flushes best
  // when a full wave fills the batch: batch_max = kLoopsPerRequest x conns,
  // linger as the straggler backstop.
  const std::size_t wave = kLoopsPerRequest * static_cast<std::size_t>(conns);

  // Warm-up pass: populates the stage cache and the tensor arenas.
  (void)serve_phase(wave, 2);

  const PhaseResult batched = serve_phase(wave, 2);
  print_phase("batched", batched);
  const PhaseResult batch1 = serve_phase(1, 0);  // one request per forward
  print_phase("batch1", batch1);

  const std::size_t expected =
      static_cast<std::size_t>(conns) * static_cast<std::size_t>(requests);
  const bool all_answered =
      batched.ok + batched.typed_errors == expected &&
      batch1.ok + batch1.typed_errors == expected;
  const std::size_t resets = batched.resets + batch1.resets;
  const double speedup =
      batch1.qps() > 0 ? batched.qps() / batch1.qps() : 0.0;
  std::printf("\nbatched speedup vs batch1: %.2fx (acceptance: >= %.1fx), "
              "resets %zu, all answered: %s\n",
              speedup, min_speedup, resets, all_answered ? "yes" : "NO");

  obs::BenchReport report("abl_serve");
  report.config("conns", conns);
  report.config("requests", requests);
  report.config("malformed_pct", malformed_pct);
  report.config("loops", loops);
  report.config("smoke", smoke ? 1 : 0);
  report.metric("qps_batched", batched.qps(), obs::MetricGoal::Higher,
                "req/s");
  report.metric("p50_us_batched", batched.pct(0.50), obs::MetricGoal::Lower,
                "us");
  report.metric("p99_us_batched", batched.pct(0.99), obs::MetricGoal::Lower,
                "us");
  report.metric("qps_batch1", batch1.qps(), obs::MetricGoal::Higher, "req/s");
  report.metric("p50_us_batch1", batch1.pct(0.50), obs::MetricGoal::Lower,
                "us");
  report.metric("p99_us_batch1", batch1.pct(0.99), obs::MetricGoal::Lower,
                "us");
  report.metric("qps_speedup_batched", speedup, obs::MetricGoal::Higher, "x");
  report.metric("all_answered", all_answered ? 1.0 : 0.0,
                obs::MetricGoal::Higher);
  report.metric("resets", static_cast<double>(resets),
                obs::MetricGoal::Lower);
  if (report.write(out)) std::printf("wrote %s\n", out.c_str());

  fs::remove_all(dir);
  return (all_answered && resets == 0 && speedup >= min_speedup) ? 0 : 1;
}
