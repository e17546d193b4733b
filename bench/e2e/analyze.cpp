// analyze_unseen / analyze_repeat: MiniC source -> per-loop verdicts through
// an in-process serve::Server on loopback, at the shipping ServerConfig.
//
// Load is a closed loop: kConns connections (one per core of the 4-core
// machine the suite is sized for), one outstanding request each, because
// the callers this path serves (CI jobs, editor plugins) wait for a verdict
// before they send the next program.
// Every unit is a 12-loop translation unit: with 1-2-loop programs both
// workloads measured only the 5 ms batch linger.
#include "workload.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iterator>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/checkpoint.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/rng.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace mvgnn::bench_e2e {
namespace {

namespace fs = std::filesystem;

constexpr int kConns = 4;
constexpr int kLoopsPerUnit = 12;
/// Loop trip counts, one per unit in turn, so every aligned block of five
/// units holds each once and the pipeline work of a rep depends neither on
/// the seed nor on which units it sends. Profiling time grows with N, so
/// request latencies form one cluster per size; with an odd number of
/// equally common sizes the median falls inside the middle cluster rather
/// than between two, where it would flip from run to run.
constexpr int kSizes[] = {256, 512, 1024, 1536, 2048};
/// `mvgnn train` defaults: the checkpoint every serving example starts from.
constexpr int kCorpusLoops = 90;
constexpr std::size_t kTrainEpochs = 4;

/// One translation unit of `n`-element loops over three 4096-element
/// arrays: two loops of each of the six kinds abl_serve's kProgram mixes
/// (map, in-place update, dot and max reduction, prefix recurrence, 3-point
/// stencil), in a seeded order. Seeded array choices and coefficients make
/// every unit distinct while every unit does the same kinds of work.
std::string make_unit(int n, par::Rng& rng) {
  static constexpr const char* kArr[] = {"a", "b", "c"};
  std::vector<int> kinds;
  for (int k = 0; k < kLoopsPerUnit / 2; ++k) kinds.insert(kinds.end(), {k, k});
  std::shuffle(kinds.begin(), kinds.end(), rng.engine());
  std::string src = "const int N = " + std::to_string(n) + ";\n" +
                    "float kernel(float[] a, float[] b, float[] c) {\n";
  std::string ret = "0.0";
  auto coef = [&] {
    return std::to_string(0.25 + static_cast<double>(rng.uniform_u64(64)) /
                                     32.0);
  };
  for (int l = 0; l < kLoopsPerUnit; ++l) {
    const std::string x = kArr[rng.uniform_u64(3)];
    const std::string y = kArr[rng.uniform_u64(3)];
    const std::string s = "s" + std::to_string(l);
    switch (kinds[static_cast<std::size_t>(l)]) {
      case 0:  // map
        src += "  for (int i = 0; i < N; i += 1) { " + x + "[i] = " + y +
               "[i] * " + coef() + " + c[i]; }\n";
        break;
      case 1:  // in-place update
        src += "  for (int i = 0; i < N; i += 1) { " + x + "[i] = " + x +
               "[i] * " + coef() + " + 1.0; }\n";
        break;
      case 2:  // dot reduction
        src += "  float " + s + " = 0.0;\n  for (int i = 0; i < N; i += 1) { " +
               s + " = " + s + " + " + x + "[i] * " + y + "[i]; }\n";
        ret += " + " + s;
        break;
      case 3:  // max reduction
        src += "  float " + s + " = 0.0;\n  for (int i = 0; i < N; i += 1) { " +
               s + " = fmax(" + s + ", " + x + "[i] * " + coef() + "); }\n";
        ret += " + " + s;
        break;
      case 4:  // prefix recurrence
        src += "  for (int i = 1; i < N; i += 1) { " + x + "[i] = " + x +
               "[i - 1] + " + y + "[i] * " + coef() + "; }\n";
        break;
      default:  // 3-point stencil
        src += "  for (int i = 1; i < N - 1; i += 1) { " + x + "[i] = " +
               coef() + " * " + y + "[i - 1] + 0.5 * " + y + "[i] + " +
               coef() + " * " + y + "[i + 1]; }\n";
        break;
    }
  }
  return src + "  return " + ret + ";\n}\n";
}

/// Minimal blocking line client. read_line() == "" means the connection
/// closed or failed while a response was owed.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    timeval tv{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  bool send_line(const std::string& line) {
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n =
          ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
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
      char tmp[8192];
      const ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
      if (n <= 0) return "";
      buf_.append(tmp, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

struct Unit {
  std::string request;  // the framed request line
  /// Solo-path verdicts, one per loop; empty when this unit is unchecked.
  std::vector<serve::LoopVerdict> reference;
};

/// Checks one response line; returns "" when it is a correct answer.
std::string check_response(const std::string& line, const Unit& unit) {
  obs::json::Value doc;
  try {
    doc = obs::json::parse(line);
  } catch (const std::exception& e) {
    return std::string("unparsable response: ") + e.what();
  }
  const obs::json::Value* ok = doc.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    return "error response: " + line.substr(0, 200);
  }
  const obs::json::Value* loops = doc.find("loops");
  if (loops == nullptr || !loops->is_array() ||
      loops->as_array().size() != kLoopsPerUnit) {
    return "response without 12 loop verdicts";
  }
  for (std::size_t i = 0; i < unit.reference.size(); ++i) {
    const obs::json::Value& got = loops->as_array()[i];
    const serve::LoopVerdict& want = unit.reference[i];
    if (got.num_or("line", -1) != want.line ||
        got.str_or("verdict", "") !=
            (want.fused ? "parallelizable" : "sequential") ||
        got.str_or("node_view", "") != (want.node_view ? "par" : "seq") ||
        got.str_or("struct_view", "") != (want.struct_view ? "par" : "seq")) {
      return "verdict differs from the solo reference at line " +
             std::to_string(want.line);
    }
  }
  return "";
}

class AnalyzeWorkload final : public Workload {
 public:
  /// unseen: distinct programs, each rep on a fresh Server, so every
  /// request misses every cache. repeat: a few programs cycled on one Server
  /// whose hot-program cache holds all of them.
  explicit AnalyzeWorkload(bool unseen) : unseen_(unseen) {}
  ~AnalyzeWorkload() override {
    if (!ckpt_.empty()) {
      std::error_code ec;
      fs::remove(ckpt_, ec);
    }
  }

  /// The checkpoint comes from `mvgnn train`, a separate command, so its
  /// training is not part of the daemon's set-up.
  void prepare(const Options& opts) override {
    ctx_ = serve::build_serving_context(kCorpusLoops, nullptr);
    train_checkpoint(opts);
  }

  /// What `mvgnn serve` pays before its first answer (the serving context
  /// and the checkpoint load), plus the units and their solo reference
  /// verdicts.
  void setup(const Options& opts) override {
    server_.reset();
    ctx_ = serve::build_serving_context(kCorpusLoops, nullptr);

    // unseen: 300 units, each rep sends the next 100 (about half a second).
    // repeat: 20 units, fewer than the 64 hot-program entries, 1,000
    // requests a rep. Both counts are multiples of the five sizes.
    const std::size_t n_units = unseen_ ? (opts.smoke ? 40 : 300) : 20;
    requests_per_rep_ =
        unseen_ ? (opts.smoke ? 20 : 100) : (opts.smoke ? 200 : 1000);
    // Every 21st unseen unit (and every repeat unit) is checked against
    // verdicts from the solo path: load_model -> featurize_program ->
    // build_input -> MvGnn::forward. 21 is coprime to the five sizes, so
    // the checked units cover each size equally and the set-up's work does
    // not depend on the seed.
    const std::size_t ref_stride = unseen_ ? 21 : 1;
    par::Rng rng(opts.seed ^ (unseen_ ? 0xA11A'0001ULL : 0xA11A'0002ULL));
    std::set<std::string> seen;
    const auto model = serve::load_model(ctx_, ckpt_, 1);
    par::Rng fwd_rng(7);
    units_.clear();
    while (units_.size() < n_units) {
      std::string src =
          make_unit(kSizes[units_.size() % std::size(kSizes)], rng);
      if (!seen.insert(src).second) continue;
      Unit u;
      u.request = "{\"id\": \"u" + std::to_string(units_.size()) +
                  "\", \"source\": \"" + serve::json_escape(src) + "\"}\n";
      if (units_.size() % ref_stride == 0) {
        u.reference = solo_verdicts(*model, src, fwd_rng);
      }
      units_.push_back(std::move(u));
    }
    if (!unseen_) server_ = start_server();
  }

  Phase run(double seconds) override {
    Phase ph;
    obs::Counter& hits =
        obs::Registry::global().counter("serve.program_cache_hits_total");
    obs::Counter& reqs = obs::Registry::global().counter("serve.requests_total");
    std::uint64_t hits0 = hits.value(), reqs0 = reqs.value();
    // The repeat daemon keeps its connections for the whole run. An unseen
    // rep sends the next block of units to a fresh daemon over new
    // connections, so no request finds its program in any cache.
    Clients clients;
    if (!unseen_) clients = connect(*server_);
    run_reps(seconds, unseen_ ? 3 : 4, [&](int rep) {
      if (unseen_) {
        const std::unique_ptr<serve::Server> fresh = start_server();
        Clients conns = connect(*fresh);
        const std::size_t first =
            static_cast<std::size_t>(rep) * requests_per_rep_ % units_.size();
        drive(conns, first, ph);
        conns.clear();
        fresh->stop();
      } else if (rep == 0) {  // warm-up: fills the hot-program cache
        Phase warm;
        drive(clients, 0, warm);
        ph.add_checks(std::move(warm));
        hits0 = hits.value();
        reqs0 = reqs.value();
      } else {
        drive(clients, 0, ph);
      }
    });
    const double req = static_cast<double>(reqs.value() - reqs0);
    const double ratio =
        req > 0 ? static_cast<double>(hits.value() - hits0) / req : 0.0;
    ph.layer["serve.hot_hit_ratio"] = ratio;
    ph.layer["serve.latency_p99_ms"] = quantile(ph.op_ms, 0.99);
    if (unseen_ && ratio != 0.0) {
      ph.fail("analyze_unseen: hot-program cache answered " +
              std::to_string(ratio) + " of requests (must be 0)");
    }
    if (!unseen_ && ratio < 0.99) {
      ph.fail("analyze_repeat: hot-program hit ratio " +
              std::to_string(ratio) + " < 0.99");
    }
    return ph;
  }

 private:
  /// The `mvgnn train --corpus 90 --epochs 4` recipe, on the data-parallel
  /// trainer path (bit-identical for every thread count >= 1).
  void train_checkpoint(const Options& opts) {
    auto [train_raw, val] = data::split_by_kernel(ctx_.ds, 0.85, 5);
    const std::vector<std::size_t> train =
        data::oversample_balance(ctx_.ds, train_raw, 5);
    const core::Featurizer feats(ctx_.ds, ctx_.norm);
    core::TrainConfig tc;
    tc.epochs = opts.smoke ? 1 : kTrainEpochs;
    tc.seed = 1;
    tc.threads = 4;
    core::MvGnnTrainer trainer(feats, ctx_.model_cfg, tc);
    trainer.fit(train, {});
    ag::Adam opt(tc.lr);
    opt.add_params(trainer.model_mutable().parameters());
    core::CheckpointMeta meta;
    meta.epoch = tc.epochs;
    meta.rng_state = par::Rng(tc.seed).state();
    fs::create_directories(opts.work_dir);
    ckpt_ = (fs::path(opts.work_dir) /
             ("analyze-" + std::to_string(::getpid()) + ".mvck"))
                .string();
    core::save_checkpoint(ckpt_, meta, trainer.model(), opt);
  }

  std::vector<serve::LoopVerdict> solo_verdicts(const serve::Model& model,
                                                const std::string& src,
                                                par::Rng& rng) const {
    data::ProgramSpec spec;
    spec.suite = "Serve";
    spec.app = "request";
    spec.kernel.name = "request";
    spec.kernel.source = src;
    // The daemon's argument recipe: 4096-element arrays seeded 1, 2, 3.
    for (std::uint64_t a = 1; a <= 3; ++a) {
      spec.kernel.args.push_back(profiler::ArgInit::of_array(4096, a));
    }
    data::DatasetOptions fo = ctx_.feat_opts;
    fo.interp = serve::ServerConfig{}.interp;
    std::vector<serve::LoopVerdict> out;
    for (const data::GraphSample& s :
         data::featurize_program(spec, ctx_.ds, fo)) {
      const core::SampleInput in = core::build_input(s, ctx_.ds, ctx_.norm);
      const core::MvGnn::Output o = model.net->forward(in, false, rng);
      auto argmax = [](const ag::Tensor& t) {
        return t.at(0, 1) > t.at(0, 0) ? 1 : 0;
      };
      out.push_back({s.loop_line, argmax(o.logits), argmax(o.node_logits),
                     argmax(o.struct_logits)});
    }
    if (out.size() != kLoopsPerUnit) {
      throw std::runtime_error("generated unit does not have 12 loops");
    }
    return out;
  }

  [[nodiscard]] std::unique_ptr<serve::Server> start_server() const {
    serve::ServerConfig cfg;  // shipping defaults
    cfg.checkpoint = ckpt_;
    auto s = std::make_unique<serve::Server>(ctx_, cfg);
    s->start();
    return s;
  }

  using Clients = std::vector<std::unique_ptr<Client>>;

  static Clients connect(const serve::Server& server) {
    Clients clients;
    for (int c = 0; c < kConns; ++c) {
      clients.push_back(std::make_unique<Client>(server.port()));
    }
    return clients;
  }

  /// One repetition: requests_per_rep_ requests for the units from `first`
  /// on (cycling) over the kConns closed-loop connections. Responses are
  /// checked after the rep's clock stops, so the load generator does not
  /// compete with the daemon for cores while it is timed.
  void drive(Clients& clients, std::size_t first, Phase& ph) const {
    struct Sent {
      std::size_t unit;
      double ms;
      std::string response;  // "" = reset with a response owed
    };
    std::vector<std::vector<Sent>> per_conn(kConns);
    std::atomic<std::size_t> next{0};
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kConns);
    for (int c = 0; c < kConns; ++c) {
      threads.emplace_back([&, c] {
        std::vector<Sent>& sent = per_conn[static_cast<std::size_t>(c)];
        Client& cl = *clients[static_cast<std::size_t>(c)];
        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        if (!cl.connected()) return;
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= requests_per_rep_) break;
          const std::size_t u = (first + i) % units_.size();
          std::string resp;
          const Clock::time_point t0 = Clock::now();
          {
            obs::ScopedSpan span("bench.request");
            if (cl.send_line(units_[u].request)) resp = cl.read_line();
          }
          sent.push_back({u, seconds_since(t0) * 1e3, std::move(resp)});
          if (sent.back().response.empty()) break;
        }
      });
    }
    while (ready.load() < kConns) std::this_thread::yield();
    const Clock::time_point t0 = Clock::now();
    go.store(true);
    for (auto& t : threads) t.join();
    const double wall = seconds_since(t0);

    std::size_t ok = 0;
    for (int c = 0; c < kConns; ++c) {
      if (!clients[static_cast<std::size_t>(c)]->connected()) {
        ++ph.attempted;
        ++ph.failed;
        ph.fail("cannot connect to the daemon");
      }
      for (const Sent& s : per_conn[static_cast<std::size_t>(c)]) {
        ++ph.attempted;
        const std::string bad =
            s.response.empty() ? "connection reset with a response owed"
                               : check_response(s.response, units_[s.unit]);
        if (!bad.empty()) {
          ++ph.failed;
          ph.fail(bad);
          continue;
        }
        ++ok;
        ph.op_ms.push_back(s.ms);
      }
    }
    ph.rep_rate.push_back(static_cast<double>(ok) / wall);
  }

  bool unseen_;
  serve::ServingContext ctx_;
  std::string ckpt_;
  std::vector<Unit> units_;
  std::size_t requests_per_rep_ = 0;
  std::unique_ptr<serve::Server> server_;  // repeat only
};

}  // namespace

std::unique_ptr<Workload> make_analyze_unseen() {
  return std::make_unique<AnalyzeWorkload>(true);
}
std::unique_ptr<Workload> make_analyze_repeat() {
  return std::make_unique<AnalyzeWorkload>(false);
}

}  // namespace mvgnn::bench_e2e
