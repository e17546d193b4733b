// Robustness matrix for the `mvgnn serve` daemon (docs/serving.md): wire
// protocol, admission control / shedding, deadlines, fault injection on the
// serve.* sites, hot checkpoint reload under load, and graceful drain.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.hpp"
#include "core/checkpoint.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "fault/fault.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "parallel/rng.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "tensor/optim.hpp"

namespace mvgnn {
namespace {

// A 3-loop program (DOALL nest + reduction), the standard multi-loop
// request: one request contributes 3 samples to a batch.
const char* kMatvec = R"(
const int N = 24;
float kernel(float[] A, float[] x, float[] y) {
  for (int i = 0; i < N; i += 1) {
    float acc = 0.0;
    for (int j = 0; j < N; j += 1) {
      acc = acc + A[i * N + j] * x[j];
    }
    y[i] = acc;
  }
  float norm = 0.0;
  for (int i = 0; i < N; i += 1) {
    norm = norm + y[i] * y[i];
  }
  return sqrt(norm);
}
)";

const char* kNoLoops = "float kernel(float x) { return x + 1.0; }";

std::string request_line(const std::string& id, const std::string& source,
                         std::int64_t deadline_ms = -1) {
  std::string line = "{\"id\": \"" + serve::json_escape(id) +
                     "\", \"source\": \"" + serve::json_escape(source) + "\"";
  if (deadline_ms >= 0) {
    line += ", \"deadline_ms\": " + std::to_string(deadline_ms);
  }
  line += "}";
  return line;
}

/// Minimal blocking line-protocol client. read_line() returns "" on EOF or
/// error — which is exactly the "connection reset while awaiting a
/// response" signal the drain tests assert never happens.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    timeval tv{30, 0};  // a hung daemon should fail tests, not freeze them
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  bool send_raw(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  std::string read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char tmp[4096];
      const ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
      if (n <= 0) return "";
      buf_.append(tmp, static_cast<std::size_t>(n));
    }
  }

  std::string rpc(const std::string& line) {
    if (!send_raw(line + "\n")) return "";
    return read_line();
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

obs::json::Value parse(const std::string& line) {
  return obs::json::parse(line);
}

bool is_ok(const obs::json::Value& v) {
  const obs::json::Value* ok = v.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

std::string error_code(const obs::json::Value& v) {
  const obs::json::Value* err = v.find("error");
  return err != nullptr ? err->str_or("code", "") : "";
}

/// One serving context + trained checkpoint, built once and shared by every
/// test (context build + 1-epoch training dominate the suite's runtime).
struct Env {
  serve::ServingContext ctx;
  std::string dir;
  std::string ckpt;
};

const Env& env() {
  static const Env* e = [] {
    auto* env = new Env;
    env->dir = (std::filesystem::temp_directory_path() / "mvgnn_serve_test")
                   .string();
    std::filesystem::create_directories(env->dir);
    env->ctx = serve::build_serving_context(16, nullptr);
    core::Featurizer feats(env->ctx.ds, env->ctx.norm);
    core::TrainConfig tc;
    tc.epochs = 1;
    core::MvGnnTrainer trainer(feats, env->ctx.model_cfg, tc);
    trainer.fit(env->ctx.train, {});
    ag::Adam opt(1e-3f);
    opt.add_params(trainer.model_mutable().parameters());
    core::CheckpointMeta meta;
    meta.epoch = 1;
    meta.rng_state = par::Rng(7).state();
    env->ckpt = env->dir + "/ckpt-1.mvck";
    core::save_checkpoint(env->ckpt, meta, trainer.model(), opt);
    return env;
  }();
  return *e;
}

std::unique_ptr<serve::Server> make_server(serve::ServerConfig cfg) {
  cfg.port = 0;  // ephemeral; Server::port() reports the bound one
  if (cfg.checkpoint.empty()) cfg.checkpoint = env().ckpt;
  auto server = std::make_unique<serve::Server>(env().ctx, cfg);
  server->start();
  return server;
}

// ---------------------------------------------------------------------------
// Wire protocol (no sockets)
// ---------------------------------------------------------------------------

TEST(ServeProtocol, ParsesRequestsControlsAndRejections) {
  auto req = serve::parse_line(
      "{\"id\": \"r1\", \"source\": \"float kernel() {}\", "
      "\"deadline_ms\": 250}");
  ASSERT_TRUE(req.request.has_value());
  EXPECT_EQ(req.request->id, "r1");
  EXPECT_EQ(req.request->deadline_ms, 250u);

  auto defaulted = serve::parse_line("{\"source\": \"x\"}");
  ASSERT_TRUE(defaulted.request.has_value());
  EXPECT_EQ(defaulted.request->deadline_ms, serve::Request::kUseDefault);

  auto numeric_id = serve::parse_line("{\"id\": 7, \"source\": \"x\"}");
  ASSERT_TRUE(numeric_id.request.has_value());
  EXPECT_EQ(numeric_id.request->id, "7");

  auto ctl = serve::parse_line(
      "{\"cmd\": \"reload\", \"checkpoint\": \"m.mvck\"}");
  ASSERT_TRUE(ctl.control.has_value());
  EXPECT_EQ(ctl.control->cmd, "reload");
  EXPECT_EQ(ctl.control->checkpoint, "m.mvck");

  auto missing = serve::parse_line("{\"id\": \"r2\"}");
  EXPECT_FALSE(missing.request.has_value());
  EXPECT_EQ(missing.code, serve::ErrorCode::BadRequest);
  EXPECT_EQ(missing.id, "r2");  // rejections still echo the id

  auto bad_deadline =
      serve::parse_line("{\"source\": \"x\", \"deadline_ms\": -5}");
  EXPECT_EQ(bad_deadline.code, serve::ErrorCode::BadRequest);

  auto torn = serve::parse_line("{\"id\": \"r3\", \"source\": ");
  EXPECT_EQ(torn.code, serve::ErrorCode::Malformed);
  ASSERT_TRUE(torn.offset.has_value());  // parse stop position, in bytes
  EXPECT_GT(*torn.offset, 0u);

  auto scalar = serve::parse_line("42");
  EXPECT_EQ(scalar.code, serve::ErrorCode::BadRequest);
}

TEST(ServeProtocol, RenderedResponsesParseBack) {
  const std::string ok = serve::render_ok(
      "a\"b", {{7, 1, 1, 0}, {9, 0, 0, 1}}, 3, 17, 9, 1234);
  const auto v = parse(ok);
  EXPECT_TRUE(is_ok(v));
  EXPECT_EQ(v.str_or("id", ""), "a\"b");
  EXPECT_EQ(v.num_or("model_version", 0), 3);
  EXPECT_EQ(v.num_or("batch_id", 0), 17);
  const auto& loops = v.find("loops")->as_array();
  ASSERT_EQ(loops.size(), 2u);
  EXPECT_EQ(loops[0].str_or("verdict", ""), "parallelizable");
  EXPECT_EQ(loops[1].str_or("verdict", ""), "sequential");

  const std::string err = serve::render_error(
      "r1", serve::ErrorCode::Malformed, "broke\nat", 42);
  const auto ev = parse(err);
  EXPECT_FALSE(is_ok(ev));
  EXPECT_EQ(error_code(ev), "malformed");
  EXPECT_EQ(ev.find("error")->num_or("offset", 0), 42);
  EXPECT_EQ(ev.find("error")->str_or("message", ""), "broke\nat");
}

// ---------------------------------------------------------------------------
// Startup and the basic round trip
// ---------------------------------------------------------------------------

// `mvgnn train` trains on ctx.train and serves through ctx.norm, so the
// normalizer must be the one fit on exactly that split.
TEST(Serve, ContextCarriesTheSplitItsNormalizerWasFitOn) {
  const serve::ServingContext& ctx = env().ctx;
  ASSERT_FALSE(ctx.train.empty());
  ASSERT_FALSE(ctx.val.empty());
  for (const std::size_t i : ctx.val) {
    ASSERT_LT(i, ctx.ds.samples.size());
    EXPECT_EQ(std::count(ctx.train.begin(), ctx.train.end(), i), 0) << i;
  }
  const core::Normalizer refit = core::Normalizer::fit(ctx.ds, ctx.train);
  EXPECT_EQ(refit.mean, ctx.norm.mean);
  EXPECT_EQ(refit.stdev, ctx.norm.stdev);
}

TEST(Serve, StartupRejectsCorruptCheckpoint) {
  const std::string bad = env().dir + "/corrupt-startup.mvck";
  {
    std::ofstream out(bad, std::ios::binary);
    out << "MVCKgarbage that is definitely not a checkpoint";
  }
  serve::ServerConfig cfg;
  cfg.checkpoint = bad;
  EXPECT_THROW(serve::Server(env().ctx, cfg), std::runtime_error);
}

TEST(Serve, RoundTripPingAndVerdicts) {
  auto server = make_server({});
  Client c(server->port());
  ASSERT_TRUE(c.connected());

  const auto pong = parse(c.rpc("{\"cmd\": \"ping\"}"));
  EXPECT_TRUE(is_ok(pong));
  EXPECT_EQ(pong.num_or("model_version", 0), 1);

  const auto resp = parse(c.rpc(request_line("r1", kMatvec)));
  ASSERT_TRUE(is_ok(resp)) << resp.str_or("error", "");
  EXPECT_EQ(resp.str_or("id", ""), "r1");
  EXPECT_EQ(resp.num_or("model_version", 0), 1);
  const auto& loops = resp.find("loops")->as_array();
  ASSERT_EQ(loops.size(), 3u);  // matvec has exactly 3 for-loops
  for (const auto& l : loops) {
    EXPECT_GT(l.num_or("line", 0), 0);
    const std::string verdict = l.str_or("verdict", "");
    EXPECT_TRUE(verdict == "parallelizable" || verdict == "sequential");
  }

  const auto stats = parse(c.rpc("{\"cmd\": \"stats\"}"));
  ASSERT_TRUE(is_ok(stats));
  EXPECT_GE(stats.find("stats")->num_or("ok_total", 0), 1);
}

TEST(Serve, HotProgramCacheServesRepeatsWithIdenticalVerdicts) {
  auto server = make_server({});
  Client c(server->port());
  ASSERT_TRUE(c.connected());

  obs::Counter& hits =
      obs::Registry::global().counter("serve.program_cache_hits_total");
  const std::uint64_t before = hits.value();

  const auto first = parse(c.rpc(request_line("h1", kMatvec)));
  ASSERT_TRUE(is_ok(first));
  const auto repeat = parse(c.rpc(request_line("h2", kMatvec)));
  ASSERT_TRUE(is_ok(repeat));
  // The repeat skipped the featurize pipeline but must answer identically.
  EXPECT_GE(hits.value(), before + 1);
  const auto& a = first.find("loops")->as_array();
  const auto& b = repeat.find("loops")->as_array();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].num_or("line", -1), b[i].num_or("line", -2));
    EXPECT_EQ(a[i].str_or("verdict", "x"), b[i].str_or("verdict", "y"));
  }
}

TEST(Serve, RequestsNeverWriteIntoTheStageCache) {
  // The context is built through a disk-backed stage cache (as under
  // `mvgnn serve --cache-dir`); the requests that follow must leave it
  // untouched — repeats are the hot-program LRU's job.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("mvgnn_serve_stage_cache_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  cache::Cache stage_cache(cache::Config{dir.string(), 64ull << 20});
  serve::ServerConfig cfg;
  cfg.checkpoint = env().ckpt;
  serve::Server server(serve::build_serving_context(16, &stage_cache), cfg);
  server.start();
  const auto disk_files = [&] {
    std::size_t n = 0;
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      n += e.is_regular_file() ? 1 : 0;
    }
    return n;
  };
  const cache::Stats before = stage_cache.stats();
  const std::size_t files_before = disk_files();
  ASSERT_GT(files_before, 0u);

  Client c(server.port());
  ASSERT_TRUE(c.connected());
  std::string src = kMatvec;
  for (int n = 20; n < 23; ++n) {  // three distinct programs
    src.replace(src.find("N = ") + 4, 2, std::to_string(n));
    ASSERT_TRUE(is_ok(parse(c.rpc(request_line("s" + std::to_string(n),
                                               src)))));
  }
  const cache::Stats after = stage_cache.stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.mem_entries, before.mem_entries);
  EXPECT_EQ(after.disk_entries, before.disk_entries);
  EXPECT_EQ(disk_files(), files_before);
  server.stop();
  fs::remove_all(dir);
}

TEST(Serve, TypedRequestErrorsNeverKillTheDaemon) {
  serve::ServerConfig cfg;
  cfg.max_request_bytes = 2048;
  cfg.interp.max_steps = 500;  // matvec needs far more fuel than this
  auto server = make_server(cfg);
  Client c(server->port());
  ASSERT_TRUE(c.connected());

  // Malformed JSON answers with the parse byte offset.
  const auto malformed = parse(c.rpc("{\"id\": \"m\", \"source\": 12 zz"));
  EXPECT_EQ(error_code(malformed), "malformed");
  EXPECT_GT(malformed.find("error")->num_or("offset", 0), 0);

  // Valid JSON, invalid request.
  EXPECT_EQ(error_code(parse(c.rpc("{\"id\": \"n\"}"))), "bad_request");
  EXPECT_EQ(error_code(parse(c.rpc("{\"cmd\": \"frobnicate\"}"))),
            "bad_request");

  // Programs that fail the frontend / run out of interpreter fuel.
  EXPECT_EQ(error_code(parse(c.rpc(request_line("c", "int kernel( {")))),
            "compile");
  EXPECT_EQ(error_code(parse(c.rpc(
                request_line("k", "float notkernel() { return 1.0; }")))),
            "compile");
  EXPECT_EQ(error_code(parse(c.rpc(request_line("f", kMatvec)))), "profile");

  // Oversized framed line: answered, stream stays framed.
  const std::string big = request_line("big", std::string(4096, 'x'));
  EXPECT_EQ(error_code(parse(c.rpc(big))), "oversized");

  // Oversized unframed line: answered mid-line, the tail is discarded.
  ASSERT_TRUE(c.send_raw(std::string(8192, 'y')));
  EXPECT_EQ(error_code(parse(c.read_line())), "oversized");
  ASSERT_TRUE(c.send_raw("tail-of-oversized-line\n"));

  // The same connection still serves valid work afterwards.
  const auto ok = parse(c.rpc(request_line("z", kNoLoops)));
  EXPECT_TRUE(is_ok(ok));
  EXPECT_EQ(ok.find("loops")->as_array().size(), 0u);
}

// ---------------------------------------------------------------------------
// Admission control and deadlines
// ---------------------------------------------------------------------------

TEST(Serve, ShedsBeyondQueueDepthUnderOverload) {
  serve::ServerConfig cfg;
  cfg.max_queue_depth = 2;
  cfg.batch_linger_ms = 500;  // hold the 2 admitted slots for the window
  cfg.batch_max_samples = 64;
  auto server = make_server(cfg);

  constexpr int kClients = 6;
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Client>(server->port()));
    ASSERT_TRUE(clients.back()->connected());
  }
  std::atomic<int> ready{0};
  std::atomic<int> ok_count{0}, shed_count{0}, other{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      const auto resp =
          parse(clients[i]->rpc(request_line("r" + std::to_string(i),
                                             kMatvec)));
      if (is_ok(resp)) {
        ok_count.fetch_add(1);
      } else if (error_code(resp) == "shed") {
        shed_count.fetch_add(1);
      } else {
        other.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Exactly the queue depth is admitted; everyone else is shed before any
  // featurization work is spent on them.
  EXPECT_EQ(ok_count.load(), 2);
  EXPECT_EQ(shed_count.load(), 4);
  EXPECT_EQ(other.load(), 0);
}

TEST(Serve, DeadlineExpiresMidQueue) {
  serve::ServerConfig cfg;
  cfg.batch_linger_ms = 300;  // the queue wait that outlives the deadline
  auto server = make_server(cfg);
  Client c(server->port());
  ASSERT_TRUE(c.connected());
  const auto resp = parse(c.rpc(request_line("d", kMatvec, 1)));
  EXPECT_EQ(error_code(resp), "deadline");
  // The daemon keeps serving; without a deadline the same program passes.
  EXPECT_TRUE(is_ok(parse(c.rpc(request_line("d2", kMatvec, 0)))));
}

TEST(Serve, RejectsUnmeetableDeadlineEarly) {
  serve::ServerConfig cfg;
  cfg.batch_linger_ms = 200;
  auto server = make_server(cfg);
  Client c(server->port());
  ASSERT_TRUE(c.connected());
  // Prime the smoothed batch latency with one successful request.
  ASSERT_TRUE(is_ok(parse(c.rpc(request_line("p", kMatvec, 0)))));
  // Now a 1ms deadline is provably unmeetable (linger alone is 200ms):
  // rejected at admission, before featurization.
  const auto resp = parse(c.rpc(request_line("q", kMatvec, 1)));
  EXPECT_EQ(error_code(resp), "deadline");
  EXPECT_NE(resp.find("error")->str_or("message", "").find("cannot be met"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Fault injection on the serve.* sites
// ---------------------------------------------------------------------------

TEST(Serve, InjectedBatchFaultAnswersTypedErrorAndRecovers) {
  auto server = make_server({});
  Client c(server->port());
  ASSERT_TRUE(c.connected());
  fault::arm("serve.batch", 1);
  const auto failed = parse(c.rpc(request_line("r1", kMatvec)));
  fault::disarm_all();
  EXPECT_EQ(error_code(failed), "batch_failed");
  // The site fires once; the daemon and the connection keep serving.
  EXPECT_TRUE(is_ok(parse(c.rpc(request_line("r2", kMatvec)))));
}

TEST(Serve, InjectedReadFaultDropsOnlyThatConnection) {
  auto server = make_server({});
  Client victim(server->port());
  ASSERT_TRUE(victim.connected());
  fault::arm("serve.read", 1);
  victim.send_raw("{\"cmd\": \"ping\"}\n");
  EXPECT_EQ(victim.read_line(), "");  // connection killed by the fault
  fault::disarm_all();
  Client fresh(server->port());
  ASSERT_TRUE(fresh.connected());
  EXPECT_TRUE(is_ok(parse(fresh.rpc("{\"cmd\": \"ping\"}"))));
}

TEST(Serve, InjectedAcceptFaultDropsOnlyThatConnection) {
  auto server = make_server({});
  fault::arm("serve.accept", 1);
  Client dropped(server->port());
  if (dropped.connected()) {
    dropped.send_raw("{\"cmd\": \"ping\"}\n");
    EXPECT_EQ(dropped.read_line(), "");  // accepted then dropped
  }
  fault::disarm_all();
  Client fresh(server->port());
  ASSERT_TRUE(fresh.connected());
  EXPECT_TRUE(is_ok(parse(fresh.rpc("{\"cmd\": \"ping\"}"))));
}

// ---------------------------------------------------------------------------
// Hot checkpoint reload
// ---------------------------------------------------------------------------

TEST(Serve, CorruptOrFaultedReloadKeepsOldModelServing) {
  auto server = make_server({});
  Client c(server->port());
  ASSERT_TRUE(c.connected());

  // Corrupt file: flip bytes in a copy of the good checkpoint so the CRC
  // footer rejects it.
  const std::string bad = env().dir + "/corrupt-reload.mvck";
  {
    std::ifstream in(env().ckpt, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    for (std::size_t i = bytes.size() / 2; i < bytes.size() / 2 + 8; ++i) {
      bytes[i] = static_cast<char>(~bytes[i]);
    }
    std::ofstream out(bad, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto rejected = parse(
      c.rpc("{\"cmd\": \"reload\", \"checkpoint\": \"" + bad + "\"}"));
  EXPECT_EQ(error_code(rejected), "reload_failed");
  EXPECT_EQ(server->model_version(), 1u);

  // Injected fault in the loader: same containment.
  fault::arm("serve.reload", 1);
  const auto faulted = parse(c.rpc("{\"cmd\": \"reload\"}"));
  fault::disarm_all();
  EXPECT_EQ(error_code(faulted), "reload_failed");
  EXPECT_EQ(server->model_version(), 1u);

  // The old model is still serving, and a valid reload still works.
  EXPECT_TRUE(is_ok(parse(c.rpc(request_line("r", kMatvec)))));
  const auto reloaded = parse(c.rpc("{\"cmd\": \"reload\"}"));
  EXPECT_TRUE(is_ok(reloaded));
  EXPECT_EQ(reloaded.num_or("model_version", 0), 2);
  EXPECT_EQ(server->model_version(), 2u);
}

TEST(Serve, ReloadUnderLoadNeverMixesModelsInOneBatch) {
  serve::ServerConfig cfg;
  cfg.batch_linger_ms = 10;
  auto server = make_server(cfg);

  std::atomic<bool> stop{false};
  std::mutex mu;
  std::vector<std::string> responses;
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      Client c(server->port());
      ASSERT_TRUE(c.connected());
      int i = 0;
      while (!stop.load()) {
        const std::string resp = c.rpc(
            request_line("w" + std::to_string(w) + "-" + std::to_string(i++),
                         kMatvec, 0));
        ASSERT_NE(resp, "");  // no dropped requests during reloads
        std::lock_guard<std::mutex> lk(mu);
        responses.push_back(resp);
      }
    });
  }
  for (int r = 0; r < 3; ++r) {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    EXPECT_NO_THROW(server->reload(""));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  stop.store(true);
  for (auto& t : workers) t.join();

  // Every response is a verdict; within one batch_id there is exactly one
  // model_version (a reload mid-flush only affects the next batch).
  std::map<std::uint64_t, std::set<std::uint64_t>> versions_by_batch;
  std::set<std::uint64_t> versions;
  for (const auto& line : responses) {
    const auto v = parse(line);
    ASSERT_TRUE(is_ok(v)) << line;
    const auto batch = static_cast<std::uint64_t>(v.num_or("batch_id", 0));
    const auto ver = static_cast<std::uint64_t>(v.num_or("model_version", 0));
    versions_by_batch[batch].insert(ver);
    versions.insert(ver);
  }
  ASSERT_GT(responses.size(), 0u);
  for (const auto& [batch, vers] : versions_by_batch) {
    EXPECT_EQ(vers.size(), 1u) << "batch " << batch << " mixed models";
  }
  EXPECT_GE(versions.size(), 2u);  // the reloads actually took effect
  EXPECT_EQ(server->model_version(), 4u);
}

// ---------------------------------------------------------------------------
// Batching consistency and graceful drain
// ---------------------------------------------------------------------------

TEST(Serve, BatchedVerdictsMatchSoloVerdicts) {
  serve::ServerConfig cfg;
  cfg.batch_linger_ms = 100;  // wide window so concurrent requests co-batch
  auto server = make_server(cfg);

  constexpr int kClients = 5;
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Client>(server->port()));
    ASSERT_TRUE(clients.back()->connected());
  }
  std::atomic<int> ready{0};
  std::vector<std::string> verdicts(kClients);
  std::vector<std::uint64_t> batch_ids(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      const auto v = parse(clients[i]->rpc(
          request_line("c" + std::to_string(i), kMatvec, 0)));
      ASSERT_TRUE(is_ok(v));
      std::string sig;
      for (const auto& l : v.find("loops")->as_array()) {
        sig += l.str_or("verdict", "") + "|" + l.str_or("node_view", "") +
               "|" + l.str_or("struct_view", "") + ";";
      }
      verdicts[i] = sig;
      batch_ids[i] = static_cast<std::uint64_t>(v.num_or("batch_id", 0));
    });
  }
  for (auto& t : threads) t.join();
  // The concurrent copies actually co-batched (same flush) ...
  EXPECT_EQ(std::set<std::uint64_t>(batch_ids.begin(), batch_ids.end()).size(),
            1u);
  // ... and a solo (batch-of-one-request) run agrees with all of them.
  const auto solo = parse(clients[0]->rpc(request_line("solo", kMatvec, 0)));
  ASSERT_TRUE(is_ok(solo));
  std::string solo_sig;
  for (const auto& l : solo.find("loops")->as_array()) {
    solo_sig += l.str_or("verdict", "") + "|" + l.str_or("node_view", "") +
                "|" + l.str_or("struct_view", "") + ";";
  }
  for (int i = 0; i < kClients; ++i) EXPECT_EQ(verdicts[i], solo_sig);
}

/// A 12-loop translation unit, the size of the benchmark's analyze
/// requests: two loops each of map, in-place update, dot and max reduction,
/// prefix recurrence and 3-point stencil.
const char* kTwelveLoopUnit = R"(
const int N = 2048;
float kernel(float[] a, float[] b, float[] c) {
  for (int i = 0; i < N; i += 1) { a[i] = b[i] * 0.5 + c[i]; }
  for (int i = 0; i < N; i += 1) { b[i] = b[i] * 1.25 + 1.0; }
  float s2 = 0.0;
  for (int i = 0; i < N; i += 1) { s2 = s2 + a[i] * c[i]; }
  float s3 = 0.0;
  for (int i = 0; i < N; i += 1) { s3 = fmax(s3, b[i] * 0.75); }
  for (int i = 1; i < N; i += 1) { c[i] = c[i - 1] + a[i] * 0.25; }
  for (int i = 1; i < N - 1; i += 1) { a[i] = 0.3 * b[i - 1] + 0.5 * b[i] + 0.2 * b[i + 1]; }
  for (int i = 0; i < N; i += 1) { c[i] = a[i] * 1.5 + c[i]; }
  for (int i = 0; i < N; i += 1) { a[i] = a[i] * 0.75 + 1.0; }
  float s8 = 0.0;
  for (int i = 0; i < N; i += 1) { s8 = s8 + b[i] * b[i]; }
  float s9 = 0.0;
  for (int i = 0; i < N; i += 1) { s9 = fmax(s9, c[i] * 1.75); }
  for (int i = 1; i < N; i += 1) { b[i] = b[i - 1] + c[i] * 0.5; }
  for (int i = 1; i < N - 1; i += 1) { c[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1]; }
  return s2 + s3 + s8 + s9;
}
)";

TEST(Serve, FullBatchForwardStaysOnTheCallingThread) {
  // The batcher's forward of one full flush (32 samples of 12-loop units)
  // is below the kernels' fan-out rule in every GEMM and spmm, so it never
  // waits on the pool that the connection threads keep busy.
  const serve::ServingContext& ctx = env().ctx;
  const auto model = serve::load_model(ctx, env().ckpt, 1);
  const auto samples =
      data::featurize_source(kTwelveLoopUnit, ctx.ds, ctx.feat_opts);
  ASSERT_EQ(samples.size(), 12u);
  std::vector<core::SampleInput> inputs;
  for (const auto& s : samples) {
    inputs.push_back(core::build_input(s, ctx.ds, ctx.norm));
  }
  std::vector<const core::SampleInput*> batch;
  for (std::size_t i = 0; i < 32; ++i) batch.push_back(&inputs[i % 12]);

  obs::Registry& reg = obs::Registry::global();
  const auto read = [&](const char* name) {
    return reg.counter(name).value();
  };
  const std::uint64_t gemms = read("gemm.calls_total");
  const std::uint64_t spmms = read("tensor.spmm_total");
  const std::uint64_t gemm_fan = read("gemm.parallel_calls_total");
  const std::uint64_t spmm_fan = read("tensor.spmm_parallel_total");
  const auto preds = core::predict(*model->net, batch, 32);
  ASSERT_EQ(preds.size(), 32u);
  EXPECT_GT(read("gemm.calls_total"), gemms);
  EXPECT_GT(read("tensor.spmm_total"), spmms);
  EXPECT_EQ(read("gemm.parallel_calls_total"), gemm_fan);
  EXPECT_EQ(read("tensor.spmm_parallel_total"), spmm_fan);
}

TEST(Serve, GracefulDrainAnswersEveryInFlightRequest) {
  serve::ServerConfig cfg;
  cfg.batch_linger_ms = 30;
  auto server = make_server(cfg);

  std::atomic<int> resets{0};
  std::atomic<int> answered{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      Client c(server->port());
      if (!c.connected()) return;
      for (int i = 0; i < 1000; ++i) {
        if (!c.send_raw(request_line("w" + std::to_string(w), kMatvec, 0) +
                        "\n")) {
          break;  // connection closed between requests: clean drain
        }
        const std::string resp = c.read_line();
        if (resp.empty()) {
          // EOF while a response was owed — the one thing drain must
          // never do.
          resets.fetch_add(1);
          break;
        }
        answered.fetch_add(1);
        const auto v = parse(resp);
        if (!is_ok(v) && error_code(v) == "shutting_down") break;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  server->stop();  // blocks until drained
  for (auto& t : workers) t.join();
  EXPECT_EQ(resets.load(), 0);
  EXPECT_GT(answered.load(), 0);
}


TEST(Serve, ZeroLatencyFlushPermanentlyArmsEarlyRejection) {
  // Regression: the early-deadline-rejection estimate used `ewma == 0` as
  // its "no estimate yet" sentinel, so a genuinely sub-ns-rounded flush
  // disarmed it again. The first measured flush must arm it for good.
  serve::LatencyEwma ewma;
  EXPECT_FALSE(ewma.armed());
  EXPECT_EQ(ewma.value_ns(), 0u);

  ewma.record(0);  // a fast flush whose latency rounded down to zero
  EXPECT_TRUE(ewma.armed());
  EXPECT_EQ(ewma.value_ns(), 0u);

  ewma.record(1000);  // blends, never resets
  EXPECT_TRUE(ewma.armed());
  EXPECT_EQ(ewma.value_ns(), 250u);  // (3*0 + 1000) / 4

  ewma.record(1000);
  EXPECT_TRUE(ewma.armed());
  EXPECT_EQ(ewma.value_ns(), 437u);  // (3*250 + 1000) / 4
}

}  // namespace
}  // namespace mvgnn
