#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "data/corpus.hpp"
#include "fault/fault.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipe/stage.hpp"

namespace mvgnn::serve {

namespace {

/// All serve instruments, fetched once (registration is mutex-protected;
/// the hot path must not re-look-up by name per request).
struct Metrics {
  obs::Counter& requests = reg().counter("serve.requests_total");
  obs::Counter& ok = reg().counter("serve.ok_total");
  obs::Counter& errors = reg().counter("serve.errors_total");
  obs::Counter& shed = reg().counter("serve.shed_total");
  obs::Counter& deadline = reg().counter("serve.deadline_expired_total");
  obs::Counter& malformed = reg().counter("serve.malformed_total");
  obs::Counter& oversized = reg().counter("serve.oversized_total");
  obs::Counter& batches = reg().counter("serve.batches_total");
  obs::Counter& batch_failures = reg().counter("serve.batch_failures_total");
  obs::Counter& reloads = reg().counter("serve.reloads_total");
  obs::Counter& reload_failures =
      reg().counter("serve.reload_failures_total");
  obs::Counter& connections_total = reg().counter("serve.connections_total");
  obs::Counter& faults = reg().counter("serve.injected_faults_total");
  obs::Counter& program_cache_hits =
      reg().counter("serve.program_cache_hits_total");
  obs::Gauge& queue_depth = reg().gauge("serve.queue_depth");
  obs::Gauge& inflight_bytes = reg().gauge("serve.inflight_bytes");
  obs::Gauge& connections = reg().gauge("serve.connections");
  obs::Gauge& model_version = reg().gauge("serve.model_version");
  obs::Histogram& batch_size = reg().histogram(
      "serve.batch_size", obs::Histogram::exponential_bounds(1, 200));
  obs::Histogram& batch_forward_us = reg().histogram(
      "serve.batch_forward_us", obs::Histogram::exponential_bounds(100, 1e7));
  obs::Histogram& request_latency_us =
      reg().histogram("serve.request_latency_us",
                      obs::Histogram::exponential_bounds(100, 1e8));

  static obs::Registry& reg() { return obs::Registry::global(); }
  static Metrics& get() {
    static Metrics m;
    return m;
  }
};

/// Writes all of `data` to `fd`; false on a connection error. MSG_NOSIGNAL
/// keeps a peer that hung up from killing the daemon with SIGPIPE.
bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

ServingContext build_serving_context(int corpus_loops, cache::Cache* cache) {
  OBS_SPAN("serve.build_context");
  ServingContext ctx;
  data::DatasetOptions opts;
  opts.seed = 5;
  opts.cache = cache;
  ctx.ds = data::build_dataset(
      data::build_generated_corpus(corpus_loops, 2024), opts);
  auto [train_raw, val] = data::split_by_kernel(ctx.ds, 0.85, 5);
  ctx.train = data::oversample_balance(ctx.ds, train_raw, 5);
  ctx.val = std::move(val);
  ctx.norm = core::Normalizer::fit(ctx.ds, ctx.train);
  ctx.model_cfg = core::default_config(ctx.ds);
  ctx.feat_opts = opts;
  ctx.feat_opts.dep_noise = 0.0;  // a live request's own run is not noisy
  // The hot-program LRU serves repeated requests; writing every distinct
  // request into the stage cache would only grow its disk tier.
  ctx.feat_opts.cache = nullptr;
  return ctx;
}

std::shared_ptr<const Model> load_model(const ServingContext& ctx,
                                        const std::string& path,
                                        std::uint64_t version) {
  OBS_SPAN("serve.reload");
  fault::check("serve.reload");
  auto m = std::make_shared<Model>();
  // The init Rng only seeds weights that load_checkpoint overwrites; any
  // fixed seed gives a correctly shaped parameter set to restore into.
  par::Rng init_rng(1);
  m->net = std::make_unique<core::MvGnn>(ctx.model_cfg, init_rng);
  // The checkpoint footer carries Adam state; restoring through a throwaway
  // optimizer validates the full file (CRC + shapes) even though serving
  // never steps it.
  ag::Adam opt(1e-3f);
  opt.add_params(m->net->parameters());
  m->meta = core::load_checkpoint(path, *m->net, opt);
  m->version = version;
  m->path = path;
  return m;
}

Server::Server(ServingContext ctx, ServerConfig cfg)
    : ctx_(std::move(ctx)), cfg_(std::move(cfg)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("serve: cannot create socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(listen_fd_);
    throw std::runtime_error("serve: cannot bind port " +
                             std::to_string(cfg_.port) + ": " +
                             std::strerror(err));
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    throw std::runtime_error(std::string("serve: listen failed: ") +
                             std::strerror(err));
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  // Startup is the one moment a bad checkpoint is fatal: there is no older
  // generation to keep serving.
  model_ = load_model(ctx_, cfg_.checkpoint, next_version_);
  next_version_ = 2;
  Metrics::get().model_version.set(1.0);
  obs::log_info("serve: model loaded",
                {{"checkpoint", cfg_.checkpoint},
                 {"epoch", std::to_string(model_->meta.epoch)},
                 {"port", std::to_string(port_)}});
}

Server::~Server() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Server::start() {
  if (started_) return;
  started_ = true;
  batcher_thread_ = std::thread([this] { batcher_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stop_.request_stop();
  // Unblock accept(); the loop re-checks the token and exits.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Connection threads only exit between requests, so every request that
  // was read gets its response written before the socket closes. No new
  // threads can appear: the accept loop is gone.
  for (auto& c : conns_) {
    if (c->thread.joinable()) c->thread.join();
  }
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    queue_closed_ = true;
  }
  queue_cv_.notify_all();
  if (batcher_thread_.joinable()) batcher_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  obs::log_info("serve: drained and stopped");
}

std::uint64_t Server::model_version() const {
  std::lock_guard<std::mutex> lk(model_mu_);
  return model_->version;
}

std::uint64_t Server::reload(const std::string& path) {
  Metrics& m = Metrics::get();
  std::lock_guard<std::mutex> rl(reload_mu_);
  const std::string target = path.empty() ? cfg_.checkpoint : path;
  const std::uint64_t version = next_version_;
  std::shared_ptr<const Model> fresh;
  try {
    fresh = load_model(ctx_, target, version);
  } catch (const std::exception& e) {
    m.reload_failures.add();
    obs::log_warn("serve: reload rejected; old model keeps serving",
                  {{"checkpoint", target}, {"error", e.what()}});
    throw;
  }
  {
    std::lock_guard<std::mutex> lk(model_mu_);
    model_ = std::move(fresh);
  }
  next_version_ = version + 1;
  m.reloads.add();
  m.model_version.set(static_cast<double>(version));
  obs::log_info("serve: checkpoint reloaded",
                {{"checkpoint", target}, {"version", std::to_string(version)}});
  return version;
}

bool Server::try_admit(std::size_t bytes) {
  Metrics& m = Metrics::get();
  // Optimistic reserve, undo on overshoot: the common case takes two
  // relaxed RMWs and no lock.
  const std::size_t depth = inflight_.fetch_add(1) + 1;
  const std::size_t total = inflight_bytes_.fetch_add(bytes) + bytes;
  if (depth > cfg_.max_queue_depth || total > kMaxInflightBytes) {
    inflight_.fetch_sub(1);
    inflight_bytes_.fetch_sub(bytes);
    return false;
  }
  m.queue_depth.set(static_cast<double>(depth));
  m.inflight_bytes.set(static_cast<double>(total));
  return true;
}

void Server::release(std::size_t bytes) {
  Metrics& m = Metrics::get();
  m.queue_depth.set(static_cast<double>(inflight_.fetch_sub(1) - 1));
  m.inflight_bytes.set(
      static_cast<double>(inflight_bytes_.fetch_sub(bytes) - bytes));
}

std::shared_ptr<const Server::Prepared> Server::program_cache_get(
    const std::string& source) {
  std::lock_guard<std::mutex> lk(prog_mu_);
  const auto it = prog_map_.find(source);
  if (it == prog_map_.end()) return nullptr;
  prog_lru_.splice(prog_lru_.begin(), prog_lru_, it->second);
  return it->second->second;
}

void Server::program_cache_put(const std::string& source,
                               std::shared_ptr<const Prepared> prog) {
  std::lock_guard<std::mutex> lk(prog_mu_);
  if (prog_map_.count(source) != 0) return;  // raced with another conn
  prog_lru_.emplace_front(source, std::move(prog));
  prog_map_[source] = prog_lru_.begin();
  while (prog_lru_.size() > kProgramCacheEntries) {
    prog_map_.erase(prog_lru_.back().first);
    prog_lru_.pop_back();
  }
}

void Server::accept_loop() {
  Metrics& m = Metrics::get();
  while (!stop_.stop_requested()) {
    sockaddr_in peer{};
    socklen_t len = sizeof peer;
    const int fd =
        ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) {
      if (stop_.stop_requested()) break;
      if (errno == EINTR) continue;
      // Transient accept failure (fd pressure etc.): log and keep serving.
      obs::log_warn("serve: accept failed",
                    {{"error", std::strerror(errno)}});
      stop_.wait_for_stop(std::chrono::milliseconds(10));
      continue;
    }
    if (fault::enabled() && fault::hit("serve.accept")) {
      m.faults.add();
      obs::log_warn("serve: injected fault at serve.accept; "
                    "dropping connection");
      ::close(fd);
      continue;
    }
    if (open_conns_.load() >= kMaxConnections) {
      m.shed.add();
      send_all(fd, render_error("", ErrorCode::Shed,
                                "connection limit reached") +
                       "\n");
      ::close(fd);
      continue;
    }
    std::lock_guard<std::mutex> lk(conns_mu_);
    // Reap finished connection threads so the list stays bounded by the
    // concurrent-connection count, not the lifetime total.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->done.load() && (*it)->thread.joinable()) {
        (*it)->thread.join();
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    auto conn = std::make_unique<Conn>();
    Conn* cp = conn.get();
    open_conns_.fetch_add(1);
    conn->thread = std::thread([this, fd, cp] {
      connection_loop(fd);
      open_conns_.fetch_sub(1);
      Metrics::get().connections.set(static_cast<double>(open_conns_.load()));
      cp->done.store(true);
    });
    conns_.push_back(std::move(conn));
  }
}

void Server::connection_loop(int fd) {
  Metrics& m = Metrics::get();
  m.connections_total.add();
  m.connections.set(static_cast<double>(open_conns_.load()));
  std::string buf;
  bool discarding = false;  // inside an oversized, already-answered line
  char tmp[4096];
  bool alive = true;
  // Once stop is requested the connection keeps answering (requests get
  // `shutting_down` from handle_request) until the client closes or a grace
  // period expires — closing at the first stop tick would reset a request
  // the client had already put on the wire.
  std::uint64_t drain_deadline_ns = 0;
  while (alive) {
    if (stop_.stop_requested()) {
      if (drain_deadline_ns == 0) {
        drain_deadline_ns = obs::now_ns() + 1'000'000'000ull;
      } else if (obs::now_ns() >= drain_deadline_ns) {
        break;
      }
    }
    std::size_t nl;
    while (alive && (nl = buf.find('\n')) != std::string::npos) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (discarding) {  // tail of a line answered `oversized` earlier
        discarding = false;
        continue;
      }
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      std::string resp;
      if (line.size() > cfg_.max_request_bytes) {
        m.oversized.add();
        m.errors.add();
        resp = render_error(
            "", ErrorCode::Oversized,
            "request line of " + std::to_string(line.size()) +
                " bytes exceeds the " +
                std::to_string(cfg_.max_request_bytes) + " byte cap");
      } else {
        resp = handle_line(line);
      }
      resp += '\n';
      if (!send_all(fd, resp)) alive = false;
    }
    if (!alive) break;
    if (discarding) {
      buf.clear();  // still inside the oversized line; drop and keep reading
    } else if (buf.size() > cfg_.max_request_bytes) {
      // Unframed oversized line: answer immediately, then discard input
      // until the next newline so the stream stays framed.
      discarding = true;
      buf.clear();
      m.oversized.add();
      m.errors.add();
      if (!send_all(fd, render_error(
                            "", ErrorCode::Oversized,
                            "request line exceeds the " +
                                std::to_string(cfg_.max_request_bytes) +
                                " byte cap") +
                            "\n")) {
        break;
      }
    }
    pollfd p{fd, POLLIN, 0};
    const int pr = ::poll(&p, 1, 100);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) continue;  // tick: re-check the stop token
    if (fault::enabled() && fault::hit("serve.read")) {
      m.faults.add();
      obs::log_warn("serve: injected fault at serve.read; "
                    "closing connection");
      break;
    }
    const ssize_t n = ::recv(fd, tmp, sizeof tmp, 0);
    if (n <= 0) break;  // EOF between requests is the clean close
    buf.append(tmp, static_cast<std::size_t>(n));
  }
  ::close(fd);
}

std::string Server::handle_line(const std::string& line) {
  OBS_SPAN("serve.request");
  Metrics& m = Metrics::get();
  const ParsedLine p = parse_line(line);
  if (p.request) return handle_request(*p.request);
  if (p.control) return handle_control(*p.control);
  m.errors.add();
  if (p.code == ErrorCode::Malformed) m.malformed.add();
  return render_error(p.id, p.code, p.error, p.offset);
}

std::string Server::handle_request(const Request& req) {
  Metrics& m = Metrics::get();
  m.requests.add();
  const std::uint64_t t0 = obs::now_ns();
  std::uint64_t deadline_ns = 0;
  const std::uint64_t deadline_ms = req.deadline_ms == Request::kUseDefault
                                        ? cfg_.default_deadline_ms
                                        : req.deadline_ms;
  if (deadline_ms != 0) deadline_ns = t0 + deadline_ms * 1'000'000ull;

  if (stop_.stop_requested()) {
    m.errors.add();
    return render_error(req.id, ErrorCode::ShuttingDown,
                        "server is draining");
  }
  if (!try_admit(req.source.size())) {
    m.shed.add();
    m.errors.add();
    return render_error(req.id, ErrorCode::Shed,
                        "queue full (" + std::to_string(inflight_.load()) +
                            " in flight); retry with backoff");
  }
  // Early deadline rejection: if the smoothed batch latency already says
  // this deadline cannot be met, answer now instead of burning featurize
  // work on a result nobody will accept.
  const std::uint64_t ewma = ewma_batch_.value_ns();
  if (deadline_ns != 0 && ewma_batch_.armed() &&
      deadline_ns < t0 + cfg_.batch_linger_ms * 1'000'000ull + ewma) {
    release(req.source.size());
    m.deadline.add();
    m.errors.add();
    return render_error(req.id, ErrorCode::DeadlineExpired,
                        "deadline_ms=" + std::to_string(deadline_ms) +
                            " cannot be met (smoothed batch latency " +
                            std::to_string(ewma / 1000) + "us)");
  }

  auto pending = std::make_unique<Pending>();
  pending->id = req.id;
  pending->bytes = req.source.size();
  pending->enqueue_ns = t0;
  pending->deadline_ns = deadline_ns;
  pending->prog = program_cache_get(req.source);
  if (pending->prog != nullptr) {
    m.program_cache_hits.add();
  } else {
    try {
      OBS_SPAN("serve.featurize");
      data::DatasetOptions opts = ctx_.feat_opts;
      opts.interp = cfg_.interp;  // per-request fuel/memory/depth caps
      const auto samples = data::featurize_source(req.source, ctx_.ds, opts);
      auto prepared = std::make_shared<Prepared>();
      prepared->inputs.reserve(samples.size());
      for (const auto& s : samples) {
        prepared->inputs.push_back(core::build_input(s, ctx_.ds, ctx_.norm));
        prepared->loop_lines.push_back(s.loop_line);
      }
      pending->prog = prepared;
      program_cache_put(req.source, std::move(prepared));
    } catch (const pipe::StageError& e) {
      // featurize_source wraps stage failures; map the stage back to the
      // request-level error class (fuel exhaustion is a Profile failure,
      // not a generic featurize one; a missing `kernel` a Lower one).
      release(pending->bytes);
      m.errors.add();
      ErrorCode code = ErrorCode::Featurize;
      if (e.stage == pipe::Stage::Parse || e.stage == pipe::Stage::Lower) {
        code = ErrorCode::Compile;
      } else if (e.stage == pipe::Stage::Profile) {
        code = ErrorCode::Profile;
      }
      return render_error(req.id, code, e.what());
    } catch (const std::exception& e) {
      release(pending->bytes);
      m.errors.add();
      return render_error(req.id, ErrorCode::Featurize, e.what());
    }
  }

  if (pending->prog->inputs.empty()) {
    // A program with no for-loops is a valid (if pointless) request.
    release(pending->bytes);
    m.ok.add();
    const std::uint64_t latency_us = (obs::now_ns() - t0) / 1000;
    m.request_latency_us.observe(static_cast<double>(latency_us));
    return render_ok(req.id, {}, model_version(), 0, 0, latency_us);
  }

  std::future<std::string> response = pending->response.get_future();
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    if (queue_closed_) {
      release(pending->bytes);
      m.errors.add();
      return render_error(req.id, ErrorCode::ShuttingDown,
                          "server is draining");
    }
    queued_samples_ += pending->prog->inputs.size();
    queue_.push_back(std::move(pending));
  }
  queue_cv_.notify_one();
  try {
    return response.get();
  } catch (const std::exception& e) {
    // Broken promise — only possible if the batcher died, which it is
    // designed never to do. Answer rather than hang the connection.
    m.errors.add();
    return render_error(req.id, ErrorCode::BatchFailed, e.what());
  }
}

std::string Server::handle_control(const ControlCommand& ctl) {
  Metrics& m = Metrics::get();
  if (ctl.cmd == "ping") {
    return "{\"ok\": true, \"pong\": true, \"model_version\": " +
           std::to_string(model_version()) + "}";
  }
  if (ctl.cmd == "stats") {
    std::string out = "{\"ok\": true, \"stats\": {";
    out += "\"model_version\": " + std::to_string(model_version());
    out += ", \"queue_depth\": " + std::to_string(inflight_.load());
    out += ", \"inflight_bytes\": " + std::to_string(inflight_bytes_.load());
    out += ", \"connections\": " + std::to_string(open_conns_.load());
    out += ", \"requests_total\": " + std::to_string(m.requests.value());
    out += ", \"ok_total\": " + std::to_string(m.ok.value());
    out += ", \"shed_total\": " + std::to_string(m.shed.value());
    out += ", \"deadline_expired_total\": " + std::to_string(m.deadline.value());
    out += ", \"batches_total\": " + std::to_string(m.batches.value());
    out += ", \"reloads_total\": " + std::to_string(m.reloads.value());
    out += ", \"reload_failures_total\": " +
           std::to_string(m.reload_failures.value());
    out += "}}";
    return out;
  }
  if (ctl.cmd == "reload") {
    try {
      const std::uint64_t v = reload(ctl.checkpoint);
      return "{\"ok\": true, \"reloaded\": true, \"model_version\": " +
             std::to_string(v) + "}";
    } catch (const std::exception& e) {
      m.errors.add();
      return render_error("", ErrorCode::ReloadFailed, e.what());
    }
  }
  m.errors.add();
  return render_error("", ErrorCode::BadRequest,
                      "unknown control command `" + ctl.cmd + "`");
}

void Server::batcher_loop() {
  const std::uint64_t linger_ns = cfg_.batch_linger_ms * 1'000'000ull;
  for (;;) {
    std::vector<std::unique_ptr<Pending>> batch;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [&] { return queue_closed_ || !queue_.empty(); });
      if (queue_.empty() && queue_closed_) break;
      // Linger: wait for more work unless the batch is already full or the
      // server is draining (drain flushes immediately).
      while (!queue_closed_ && queued_samples_ < cfg_.batch_max_samples) {
        const std::uint64_t oldest = queue_.front()->enqueue_ns;
        const std::uint64_t now = obs::now_ns();
        if (now >= oldest + linger_ns) break;
        queue_cv_.wait_for(lk,
                           std::chrono::nanoseconds(oldest + linger_ns - now));
      }
      std::size_t samples = 0;
      while (!queue_.empty()) {
        const std::size_t n = queue_.front()->prog->inputs.size();
        if (!batch.empty() && samples + n > cfg_.batch_max_samples) break;
        samples += n;
        queued_samples_ -= n;
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    if (!batch.empty()) run_batch(std::move(batch));
  }
}

void Server::run_batch(std::vector<std::unique_ptr<Pending>> batch) {
  Metrics& m = Metrics::get();
  const std::uint64_t now = obs::now_ns();

  // Expired requests get a typed error, not stale-late results.
  std::vector<std::unique_ptr<Pending>> live;
  live.reserve(batch.size());
  for (auto& p : batch) {
    if (p->deadline_ns != 0 && p->deadline_ns < now) {
      m.deadline.add();
      m.errors.add();
      p->response.set_value(render_error(
          p->id, ErrorCode::DeadlineExpired,
          "deadline expired after " +
              std::to_string((now - p->enqueue_ns) / 1'000'000ull) +
              "ms in queue"));
      release(p->bytes);
    } else {
      live.push_back(std::move(p));
    }
  }
  if (live.empty()) return;

  // Pin the model generation for the whole batch: a reload that lands
  // mid-flush only affects the *next* batch, so one batch never mixes
  // model versions (asserted by tests via model_version + batch_id).
  std::shared_ptr<const Model> model;
  {
    std::lock_guard<std::mutex> lk(model_mu_);
    model = model_;
  }
  const std::uint64_t batch_id = next_batch_id_.fetch_add(1);

  std::vector<const core::SampleInput*> ptrs;
  for (const auto& p : live) {
    for (const auto& in : p->prog->inputs) ptrs.push_back(&in);
  }
  OBS_SPAN("serve.batch");
  // One flush may carry more samples than `batch_max_samples` (a single
  // request's loops are never split across flushes), so predict() chunks
  // the forward at that cap: it bounds peak tensor size even for a
  // pathological many-loop request.
  std::vector<core::ViewPrediction> preds;
  const std::uint64_t fwd0 = obs::now_ns();
  try {
    fault::check("serve.batch");
    preds = core::predict(*model->net, ptrs, cfg_.batch_max_samples);
  } catch (const std::exception& e) {
    // The whole flush failed (fault injection or an internal error). Every
    // request gets a typed answer; the daemon keeps serving.
    m.batch_failures.add();
    if (dynamic_cast<const fault::InjectedFault*>(&e) != nullptr) {
      m.faults.add();
    }
    obs::log_warn("serve: batch forward failed", {{"error", e.what()}});
    for (auto& p : live) {
      m.errors.add();
      p->response.set_value(
          render_error(p->id, ErrorCode::BatchFailed, e.what()));
      release(p->bytes);
    }
    return;
  }
  const std::uint64_t fwd_ns = obs::now_ns() - fwd0;
  m.batches.add();
  m.batch_size.observe(static_cast<double>(ptrs.size()));
  m.batch_forward_us.observe(static_cast<double>(fwd_ns / 1000));
  // EWMA of the flush latency feeds early deadline rejection; the first
  // measured flush arms it permanently (see LatencyEwma).
  ewma_batch_.record(fwd_ns);

  std::size_t row = 0;
  const std::uint64_t done = obs::now_ns();
  for (auto& p : live) {
    std::vector<LoopVerdict> verdicts;
    verdicts.reserve(p->prog->inputs.size());
    for (std::size_t i = 0; i < p->prog->inputs.size(); ++i, ++row) {
      verdicts.push_back({p->prog->loop_lines[i], preds[row].fused,
                          preds[row].node_view, preds[row].struct_view});
    }
    const std::uint64_t latency_us = (done - p->enqueue_ns) / 1000;
    m.ok.add();
    m.request_latency_us.observe(static_cast<double>(latency_us));
    p->response.set_value(render_ok(p->id, verdicts, model->version,
                                    batch_id, ptrs.size(), latency_us));
    release(p->bytes);
  }
}

}  // namespace mvgnn::serve
