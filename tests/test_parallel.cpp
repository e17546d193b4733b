// Parallel-runtime tests: TaskGroup scoping (per-group waits and error
// delivery, help-while-wait, nested parallel_for), Rng state restore
// hygiene, the gradient sink and the GradAccumulator fixed-tree reduction,
// the fused merge-and-Adam step, and the data-parallel trainer's
// determinism matrix — identical weights and curves for --threads 1/2/8, a
// pinned weight digest, plus kill-and-resume under --threads 4.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "data/kernels.hpp"
#include "fault/fault.hpp"
#include "io/codec.hpp"
#include "nn/module.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/rng.hpp"
#include "parallel/task_group.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "tensor/optim.hpp"

namespace {

using namespace mvgnn;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// TaskGroup semantics
// ---------------------------------------------------------------------------

TEST(TaskGroup, RunsTasksAndWaitReturnsAfterAll) {
  par::ThreadPool pool(2);
  par::TaskGroup group(pool);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    group.run([&done] { done.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(done.load(), 16);

  // The group is reusable after a wait.
  group.run([&done] { done.fetch_add(1); });
  group.wait();
  EXPECT_EQ(done.load(), 17);
}

/// Regression for the pool-global wait/error scoping bug: caller B used to
/// stall on caller A's tasks and could receive A's exception from the
/// shared `first_error_` slot. With groups, A's failure is delivered to A
/// and only A, and B's wait covers B's tasks and only B's.
TEST(TaskGroup, TwoConcurrentCallersGetTheirOwnErrorsAndWaits) {
  par::ThreadPool pool(2);

  // Gate A's failing task so it reliably overlaps B's wait.
  std::mutex mu;
  std::condition_variable cv;
  bool release_a = false;

  par::TaskGroup a(pool);
  a.run([&] {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return release_a; });
    throw std::runtime_error("caller A's private failure");
  });

  par::TaskGroup b(pool);
  std::atomic<int> b_done{0};
  for (int i = 0; i < 8; ++i) {
    b.run([&b_done] { b_done.fetch_add(1); });
  }
  // B's wait must complete while A's task is still blocked — and must not
  // surface A's exception, which has not even been thrown yet.
  EXPECT_NO_THROW(b.wait());
  EXPECT_EQ(b_done.load(), 8);

  {
    std::lock_guard lock(mu);
    release_a = true;
  }
  cv.notify_all();
  EXPECT_THROW(a.wait(), std::runtime_error);
  // After the rethrow the group is clean again.
  a.run([] {});
  EXPECT_NO_THROW(a.wait());
}

/// Regression: a pool task running parallel_for on its own pool used to
/// deadlock — the inner pool-global wait() could never observe quiescence
/// while the outer task it was called from counted as in-flight. With
/// per-fan-out groups and help-while-wait the nesting completes.
TEST(TaskGroup, NestedParallelForCompletes) {
  par::ThreadPool pool(2);
  std::atomic<int> cells{0};
  par::parallel_for(
      0, 8,
      [&](std::size_t) {
        par::parallel_for(
            0, 8, [&](std::size_t) { cells.fetch_add(1); }, pool,
            /*grain=*/1);
      },
      pool, /*grain=*/1);
  EXPECT_EQ(cells.load(), 64);
}

/// On a single-worker pool the worker is occupied by the outer task, so the
/// inner group's tasks can only ever run on the thread blocked in wait() —
/// observing completion proves help-while-wait executes queued tasks.
TEST(TaskGroup, WaiterHelpsWhenAllWorkersAreBusy) {
  auto& helped = obs::Registry::global().counter("pool.helped_tasks_total");
  const std::uint64_t before = helped.value();
  par::ThreadPool pool(1);
  par::TaskGroup outer(pool);
  std::atomic<int> inner_done{0};
  std::atomic<bool> outer_started{false};
  outer.run([&] {
    outer_started.store(true);
    par::TaskGroup inner(pool);
    for (int i = 0; i < 4; ++i) {
      inner.run([&inner_done] { inner_done.fetch_add(1); });
    }
    inner.wait();
  });
  // outer.wait() may run a queued outer task on this thread, which would
  // leave the worker idle to take inner tasks; wait until the worker holds
  // it.
  while (!outer_started.load()) std::this_thread::yield();
  outer.wait();
  EXPECT_EQ(inner_done.load(), 4);
  EXPECT_GE(helped.value(), before + 4);
}

TEST(TaskGroup, NestedTaskFailurePropagatesThroughTheOuterGroup) {
  par::ThreadPool pool(2);
  EXPECT_THROW(
      par::parallel_for(
          0, 4,
          [&](std::size_t i) {
            par::parallel_for(
                0, 4,
                [&](std::size_t j) {
                  if (i == 2 && j == 3) throw std::runtime_error("inner boom");
                },
                pool, /*grain=*/1);
          },
          pool, /*grain=*/1),
      std::runtime_error);
}

TEST(TaskGroup, DestructionDropsQueuedTasksWithoutTerminating) {
  par::ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  std::atomic<int> first_done{0};
  std::atomic<int> queued_ran{0};
  std::thread releaser;
  {
    par::TaskGroup group(pool);
    group.run([&] {
      std::unique_lock lock(mu);
      started = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
      first_done.fetch_add(1);
    });
    {
      // The sole worker is provably inside the first task before anything
      // else is queued: the four tasks below can only ever sit in the queue.
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return started; });
    }
    for (int i = 0; i < 4; ++i) {
      group.run([&queued_ran] { queued_ran.fetch_add(1); });
    }
    // Unblock the first task only after ~TaskGroup has begun (it discards
    // the queued tasks at entry, then waits out the running one). The sleep
    // only needs to outlast the dtor's queue sweep, not any real work.
    releaser = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      std::lock_guard lock(mu);
      release = true;
      cv.notify_all();
    });
    // No wait(): destruction drops the queued tasks, waits for the running
    // one, and must not throw or crash.
  }
  releaser.join();
  EXPECT_EQ(first_done.load(), 1);
  EXPECT_EQ(queued_ran.load(), 0);
}

// ---------------------------------------------------------------------------
// Rng restore hygiene
// ---------------------------------------------------------------------------

TEST(Rng, RestoreRejectsMalformedStatesAndLeavesEngineUntouched) {
  par::Rng rng(1234);
  (void)rng.uniform();
  const std::string good = rng.state();

  par::Rng probe(99);
  EXPECT_FALSE(probe.restore(""));
  EXPECT_FALSE(probe.restore("not a state"));
  EXPECT_FALSE(probe.restore("123"));  // truncated: engine only, no base
  EXPECT_FALSE(probe.restore(good + " trailing-garbage"));

  // Every failed restore above left `probe` exactly on its original
  // trajectory: it still produces the same draws as a fresh Rng(99).
  par::Rng fresh(99);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(probe.uniform_u64(1u << 20), fresh.uniform_u64(1u << 20));
  }

  EXPECT_TRUE(probe.restore(good));
  par::Rng cont(1234);
  (void)cont.uniform();
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(probe.uniform_u64(1u << 20), cont.uniform_u64(1u << 20));
  }
}

TEST(Checkpoint, LoadRejectsMalformedRngFieldWithOffset) {
  // Encode a checkpoint whose RNG field is structurally intact (length and
  // CRC check out) but semantically garbage. The loader must flag it as
  // corruption at the field's byte offset rather than handing the trainer
  // an Rng whose engine state is unspecified.
  par::Rng rng(7);
  struct TwoTensorModel : nn::Module {
    std::vector<ag::Tensor> ps;
    [[nodiscard]] std::vector<ag::Tensor> parameters() const override {
      return ps;
    }
  } model;
  model.ps = {ag::Tensor::randn({5, 3}, rng), ag::Tensor::randn({3, 2}, rng)};
  ag::Adam opt(1e-3f);
  opt.add_params(model.ps);

  core::CheckpointMeta meta;
  meta.epoch = 1;
  meta.step = 1;
  meta.rng_state = "certainly not an engine dump";
  const std::string bytes = core::encode_checkpoint(meta, model, opt);

  std::istringstream is(bytes);
  try {
    (void)core::load_checkpoint(is, model, opt);
    FAIL() << "malformed RNG state must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::strstr(e.what(), "malformed RNG state"), nullptr)
        << e.what();
    EXPECT_NE(std::strstr(e.what(), "offset"), nullptr) << e.what();
  }
}

// ---------------------------------------------------------------------------
// GradAccumulator / tree_merge
// ---------------------------------------------------------------------------

/// Writes `v` into the parameter's gradient buffer (the optimizer-side
/// idiom: grad() exposes the node's storage).
void set_grad(const ag::Tensor& p, const std::vector<float>& v) {
  auto& g = const_cast<std::vector<float>&>(p.grad());
  ASSERT_EQ(g.size(), v.size());
  g = v;
}

/// Runs backward of sum_k sum(params[k] * values[k]) with `acc` as the
/// gradient sink, so acc's buffer k receives values[k] exactly.
void backward_into(ag::GradAccumulator& acc,
                   const std::vector<ag::Tensor>& params,
                   const std::vector<std::vector<float>>& values) {
  ag::Tensor loss;
  for (std::size_t k = 0; k < params.size(); ++k) {
    const ag::Tensor c = ag::Tensor::from_data(params[k].shape(), values[k]);
    const ag::Tensor term = ag::sum(ag::mul(params[k], c));
    loss = loss.defined() ? ag::add(loss, term) : term;
  }
  const ag::ScopedGradSink sink(acc);
  loss.backward();
}

bool all_zero(const std::vector<float>& v) {
  for (const float x : v) {
    if (x != 0.0f) return false;
  }
  return true;
}

TEST(GradAccumulator, AccumulateScalesAndMergeAdds) {
  par::Rng rng(3);
  std::vector<ag::Tensor> params = {ag::Tensor::randn({2, 2}, rng)};
  const std::vector<std::vector<float>> g = {{1.0f, 2.0f, 3.0f, 4.0f}};

  std::vector<ag::GradAccumulator> shards;
  shards.emplace_back(params);
  backward_into(shards[0], params, g);
  EXPECT_EQ(shards[0].grads()[0], g[0]);
  backward_into(shards[0], params, g);  // accumulates, not overwrites
  EXPECT_EQ(shards[0].grads()[0],
            (std::vector<float>{2.0f, 4.0f, 6.0f, 8.0f}));
  shards[0].scale(0.5f);
  EXPECT_EQ(shards[0].grads()[0], g[0]);
  // The sink took every gradient: the parameter's own buffer is untouched.
  EXPECT_TRUE(all_zero(params[0].grad()));

  shards.emplace_back(params);
  backward_into(shards[1], params, g);
  ag::tree_merge(shards);
  EXPECT_EQ(shards[0].grads()[0],
            (std::vector<float>{2.0f, 4.0f, 6.0f, 8.0f}));

  shards[0].zero();
  EXPECT_TRUE(all_zero(shards[0].grads()[0]));
}

/// Five shard values chosen so float rounding distinguishes association
/// orders.
const std::vector<float> kTreeVals = {1e8f, 1.0f, -1e8f, 1.5f, 0.25f};

TEST(GradAccumulator, TreeMergeUsesAFixedPairingOrder) {
  // The reduction must equal the documented pairing ((s0+s1)+(s2+s3))+s4
  // bit for bit.
  par::Rng rng(4);
  std::vector<ag::Tensor> params = {ag::Tensor::randn({1, 1}, rng)};

  std::vector<ag::GradAccumulator> shards;
  for (const float v : kTreeVals) {
    shards.emplace_back(params);
    backward_into(shards.back(), params, {{v}});
  }
  ag::tree_merge(shards);

  const std::vector<float>& vals = kTreeVals;
  const float expected = ((vals[0] + vals[1]) + (vals[2] + vals[3])) + vals[4];
  EXPECT_EQ(shards[0].grads()[0][0], expected);
}

TEST(GradAccumulator, StepMergedEqualsTreeMergeThenAdamStep) {
  // Sizes 1, 7 and 1003 sit inside one range; the last spans three.
  const std::vector<std::size_t> sizes = {
      1, 7, 1003, 2 * ag::Adam::kMergedStepRange + 5};
  for (const std::size_t width : {1u, 4u}) {
    par::Rng rng(5);
    std::vector<ag::Tensor> ref_params, fused_params;
    for (const std::size_t n : sizes) {
      ref_params.push_back(ag::Tensor::randn({n, 1}, rng));
      const float* v = ref_params.back().data();
      fused_params.push_back(ag::Tensor::from_data(
          {n, 1}, std::vector<float>(v, v + n), /*requires_grad=*/true));
    }
    ag::Adam ref(0.01f, 0.9f, 0.999f, 1e-8f, 0.01f);
    ref.add_params(ref_params);
    ag::Adam fused(0.01f, 0.9f, 0.999f, 1e-8f, 0.01f);
    fused.add_params(fused_params);

    for (int step = 0; step < 3; ++step) {
      std::vector<ag::GradAccumulator> ref_shards, fused_shards;
      for (std::size_t s = 0; s < kTreeVals.size(); ++s) {
        std::vector<std::vector<float>> g;
        for (const std::size_t n : sizes) {
          g.emplace_back(n);
          for (std::size_t i = 0; i < n; ++i) {
            g.back()[i] = kTreeVals[(s + i + step) % kTreeVals.size()];
          }
        }
        ref_shards.push_back(ref.make_accumulator());
        backward_into(ref_shards.back(), ref_params, g);
        fused_shards.push_back(fused.make_accumulator());
        backward_into(fused_shards.back(), fused_params, g);
      }
      ag::tree_merge(ref_shards);
      for (std::size_t k = 0; k < sizes.size(); ++k) {
        set_grad(ref_params[k], ref_shards[0].grads()[k]);
      }
      ref.step();
      fused.step_merged(fused_shards, width);

      for (std::size_t k = 0; k < sizes.size(); ++k) {
        EXPECT_EQ(std::memcmp(ref_params[k].data(), fused_params[k].data(),
                              sizes[k] * sizeof(float)),
                  0)
            << "width " << width << ", step " << step << ", size "
            << sizes[k];
        EXPECT_TRUE(all_zero(fused_params[k].grad()));
      }
    }
    std::ostringstream ref_state, fused_state;
    ref.save_state(ref_state);
    fused.save_state(fused_state);
    EXPECT_EQ(ref_state.str(), fused_state.str()) << "width " << width;
  }
}

TEST(GradSink, NestedGuardsRestoreInLifoOrder) {
  par::Rng rng(6);
  const std::vector<ag::Tensor> params = {ag::Tensor::randn({1, 1}, rng)};
  ag::GradAccumulator a(params), b(params);
  EXPECT_EQ(ag::current_grad_sink(), nullptr);
  {
    const ag::ScopedGradSink outer(a);
    EXPECT_EQ(ag::current_grad_sink(), &a);
    {
      const ag::ScopedGradSink inner(b);
      EXPECT_EQ(ag::current_grad_sink(), &b);
    }
    EXPECT_EQ(ag::current_grad_sink(), &a);
  }
  EXPECT_EQ(ag::current_grad_sink(), nullptr);
}

TEST(GradSink, GuardUnwoundByAnExceptionRestoresThePreviousSink) {
  par::Rng rng(7);
  const std::vector<ag::Tensor> params = {ag::Tensor::randn({1, 1}, rng)};
  ag::GradAccumulator a(params), b(params);
  const ag::ScopedGradSink outer(a);
  try {
    const ag::ScopedGradSink inner(b);
    throw std::runtime_error("shard failed");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(ag::current_grad_sink(), &a);
}

TEST(GradSink, LeavesTheSinkDoesNotKnowKeepTheirOwnGradient) {
  par::Rng rng(8);
  const std::vector<ag::Tensor> params = {ag::Tensor::randn({1, 2}, rng)};
  const ag::Tensor other = ag::Tensor::randn({1, 2}, rng);
  ag::GradAccumulator acc(params);
  {
    const ag::ScopedGradSink sink(acc);
    ag::sum(ag::add(ag::scale(params[0], 2.0f), ag::scale(other, 3.0f)))
        .backward();
  }
  EXPECT_EQ(acc.grads()[0], (std::vector<float>{2.0f, 2.0f}));
  EXPECT_TRUE(all_zero(params[0].grad()));
  EXPECT_EQ(other.grad(), (std::vector<float>{3.0f, 3.0f}));
}

// ---------------------------------------------------------------------------
// Data-parallel trainer determinism
// ---------------------------------------------------------------------------

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("mvgnn_par_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
};

struct FaultGuard {
  ~FaultGuard() { fault::disarm_all(); }
};

/// Two instances of each generator pattern: ~12 samples, so a train split
/// of 9 gives every epoch multiple optimizer steps AND every full
/// mini-batch of 8 several kDpShardRows-sized shards — the partition the
/// determinism claims below are actually about.
data::Dataset tiny_dataset(std::uint64_t seed) {
  par::Rng rng(seed);
  std::vector<data::ProgramSpec> programs;
  int i = 0;
  for (int rep = 0; rep < 2; ++rep) {
    for (const auto p :
         {data::Pattern::VecMap, data::Pattern::ReduceSum,
          data::Pattern::Recurrence, data::Pattern::EarlyExit,
          data::Pattern::PrivTemp, data::Pattern::StencilCopy}) {
      data::ProgramSpec ps;
      ps.suite = "T";
      ps.app = "t";
      ps.pattern = p;
      ps.kernel = data::generate_kernel(p, "dp_k" + std::to_string(i++), rng);
      programs.push_back(std::move(ps));
    }
  }
  data::DatasetOptions opts;
  opts.seed = 13;
  opts.walk.gamma = 8;
  return data::build_dataset(programs, opts);
}

struct TrainSetup {
  data::Dataset ds;
  core::Normalizer norm;
  std::unique_ptr<core::Featurizer> feats;
  std::vector<std::size_t> train, test;

  explicit TrainSetup(std::uint64_t seed) : ds(tiny_dataset(seed)) {
    for (std::size_t i = 0; i < ds.samples.size(); ++i) {
      (i % 4 == 3 ? test : train).push_back(i);
    }
    norm = core::Normalizer::fit(ds, train);
    feats = std::make_unique<core::Featurizer>(ds, norm);
  }

  [[nodiscard]] core::TrainConfig config(std::size_t threads) const {
    core::TrainConfig tc;
    tc.epochs = 3;
    tc.seed = 9;
    // Big enough relative to kDpShardRows (4) that a mini-batch splits
    // into several shards — the partition the determinism claim is about.
    tc.batch_size = 8;
    tc.threads = threads;
    return tc;
  }

  struct Run {
    std::vector<core::EpochStat> curve;
    std::string weights;
  };

  /// Trains a fresh model of the given kind: MV-GNN, or the Static GNN
  /// baseline (a single-view Dgcnn) that trains through the same loop.
  template <class Model = core::MvGnn>
  [[nodiscard]] Run run(const core::TrainConfig& tc) const {
    typename Model::Config cfg;
    if constexpr (std::is_same_v<Model, core::Dgcnn>) {
      cfg = core::default_config(*feats).node_view;
    } else {
      cfg = core::default_config(*feats);
    }
    core::Trainer<Model> trainer(*feats, cfg, tc);
    Run r;
    r.curve = trainer.fit(train, test);
    std::ostringstream os(std::ios::binary);
    nn::save_weights(trainer.model(), os);
    r.weights = std::move(os).str();
    return r;
  }
};

void expect_identical_curves(const std::vector<core::EpochStat>& a,
                             const std::vector<core::EpochStat>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(core::EpochStat)), 0)
        << "epoch " << i << ": " << a[i].loss << " vs " << b[i].loss;
  }
}

template <class Model>
void expect_thread_count_matrix_identical(const TrainSetup& setup) {
  const TrainSetup::Run t0 = setup.run<Model>(setup.config(0));
  const TrainSetup::Run t1 = setup.run<Model>(setup.config(1));
  const TrainSetup::Run t2 = setup.run<Model>(setup.config(2));
  const TrainSetup::Run t8 = setup.run<Model>(setup.config(8));

  ASSERT_EQ(t1.curve.size(), 3u);
  expect_identical_curves(t1.curve, t0.curve);
  expect_identical_curves(t1.curve, t2.curve);
  expect_identical_curves(t1.curve, t8.curve);

  ASSERT_FALSE(t1.weights.empty());
  EXPECT_EQ(t1.weights, t0.weights) << "threads=0 diverged from threads=1";
  EXPECT_EQ(t1.weights, t2.weights) << "threads=2 diverged from threads=1";
  EXPECT_EQ(t1.weights, t8.weights) << "threads=8 diverged from threads=1";
}

TEST(DataParallel, ThreadCountMatrixIsBitIdentical) {
  const TrainSetup setup(41);
  {
    SCOPED_TRACE("MV-GNN");
    expect_thread_count_matrix_identical<core::MvGnn>(setup);
  }
  {
    SCOPED_TRACE("Static GNN");
    expect_thread_count_matrix_identical<core::Dgcnn>(setup);
  }
}

// The thread-count matrix above compares runs of one build with each other,
// so a change to the step that moved every width's floats the same way
// would pass it. This pins the trained weights themselves. A digest of
// floats is a fact about one build: GCC contracts a*b+c into FMA only from
// -O2 up, and -march=native picks the vector width. It was recorded with
// GCC 12 at -O2 -march=native on an AVX-512 x86-64 host (the default
// RelWithDebInfo build, with the AVX2 gemm backend the dispatcher picks
// there); any other build skips it.
TEST(DataParallel, WeightsMatchPinnedDigest) {
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12 && \
    defined(__OPTIMIZE__) && defined(__AVX512F__) && defined(__FMA__)
  if (std::getenv("MVGNN_BACKEND") != nullptr) {
    GTEST_SKIP() << "MVGNN_BACKEND overrides the gemm backend the digest "
                    "was recorded with";
  }
  const TrainSetup setup(41);
  for (const std::size_t threads : {1u, 4u}) {
    const TrainSetup::Run run = setup.run(setup.config(threads));
    EXPECT_EQ(run.weights.size(), 114704u) << "threads=" << threads;
    EXPECT_EQ(io::crc32(run.weights.data(), run.weights.size()), 0x0FE0A0E0u)
        << "threads=" << threads;
  }
#else
  GTEST_SKIP() << "the digest is recorded for GCC 12, -O2, -march=native "
                  "with AVX-512 and FMA";
#endif
}

TEST(DataParallel, TrainingAdvancesTheShardCounter) {
  auto& shards = obs::Registry::global().counter("trainer.shards_total");
  const std::uint64_t before = shards.value();
  const TrainSetup setup(42);
  (void)setup.run(setup.config(2));
  EXPECT_GT(shards.value(), before);
}

/// A plain forward and backward on the trained model must still fill every
/// parameter's own gradient: no step may leave a gradient sink installed on
/// the calling thread or on a pool worker.
TEST(DataParallel, MasterModelBackwardFillsParameterGradsAfterFit) {
  const TrainSetup setup(44);
  core::MvGnnTrainer trainer(*setup.feats, core::default_config(*setup.feats),
                             setup.config(4));
  (void)trainer.fit(setup.train, setup.test);
  const core::MvGnn& model = trainer.model();
  const core::SampleInput& in = setup.feats->get(setup.train[0]);

  auto check_backward = [&](const char* where) {
    EXPECT_EQ(ag::current_grad_sink(), nullptr) << where;
    const std::vector<ag::Tensor> params = model.parameters();
    for (ag::Tensor p : params) p.zero_grad();
    par::Rng rng(1);
    const auto out = model.forward(in, /*training=*/false, rng);
    const std::vector<int> label = {in.label};
    ag::add(ag::cross_entropy_logits(out.logits, label),
            ag::add(ag::cross_entropy_logits(out.node_logits, label),
                    ag::cross_entropy_logits(out.struct_logits, label)))
        .backward();
    for (std::size_t k = 0; k < params.size(); ++k) {
      EXPECT_FALSE(all_zero(params[k].grad()))
          << where << ": parameter " << k << " got no gradient";
    }
  };
  check_backward("calling thread");

  // One task per worker, serialized: the model's gradients are shared.
  std::mutex mu;
  par::TaskGroup group(par::ThreadPool::global());
  for (std::size_t t = 0; t <= par::ThreadPool::global().size(); ++t) {
    group.run([&] {
      const std::lock_guard lock(mu);
      check_backward("pool task");
    });
  }
  group.wait();
}

template <class Model>
void expect_kill_and_resume_matches(const TrainSetup& setup,
                                    const std::string& dir) {
  // Reference: the uninterrupted single-thread run.
  const TrainSetup::Run full = setup.run<Model>(setup.config(1));

  // A four-thread run dies mid-epoch-1 (the fault fires before the second
  // optimizer step of that epoch), leaving the epoch-1 checkpoint.
  core::TrainConfig crash_tc = setup.config(4);
  crash_tc.checkpoint_dir = dir;
  const std::size_t steps_per_epoch =
      (setup.train.size() + crash_tc.batch_size - 1) / crash_tc.batch_size;
  fault::arm("trainer.step", steps_per_epoch + 2);
  EXPECT_THROW((void)setup.run<Model>(crash_tc), fault::InjectedFault);
  fault::disarm_all();

  core::TrainConfig resume_tc = setup.config(4);
  resume_tc.checkpoint_dir = dir;
  resume_tc.resume_from = core::latest_checkpoint(dir);
  ASSERT_EQ(resume_tc.resume_from, core::checkpoint_path(dir, 1));
  const TrainSetup::Run tail = setup.run<Model>(resume_tc);

  expect_identical_curves(full.curve, tail.curve);
  EXPECT_EQ(full.weights, tail.weights);
}

TEST(DataParallel, KillAndResumeAtFourThreadsMatchesSingleThreadCurve) {
  FaultGuard guard;
  const TrainSetup setup(43);
  {
    SCOPED_TRACE("MV-GNN");
    TempDir dir("dp_resume");
    expect_kill_and_resume_matches<core::MvGnn>(setup, dir.str());
  }
  {
    SCOPED_TRACE("Static GNN");
    TempDir dir("dp_resume_static");
    expect_kill_and_resume_matches<core::Dgcnn>(setup, dir.str());
  }
}

}  // namespace
