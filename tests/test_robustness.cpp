// Fault-tolerance tests: fault-injection layer semantics, atomic file
// writes, checkpoint round-trip and kill-and-resume trajectory equality,
// corruption/truncation matrices for both binary loaders, and quarantine of
// pathological corpus programs (infinite loop, OOM allocator, parse error,
// sema error, runtime trap), and the interpreter's trap/fuel limit on every
// entry point.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "cache/cache.hpp"
#include "core/checkpoint.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "data/serialize.hpp"
#include "fault/fault.hpp"
#include "frontend/lower.hpp"
#include "io/atomic_file.hpp"
#include "io/codec.hpp"
#include "obs/metrics.hpp"
#include "parallel/rng.hpp"
#include "profiler/dep_recorder.hpp"
#include "profiler/par_exec.hpp"
#include "tensor/optim.hpp"

namespace {

using namespace mvgnn;
namespace fs = std::filesystem;

/// Fresh scratch directory per test; removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("mvgnn_test_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
};

/// Every test leaves the fault layer clean for the next one.
struct FaultGuard {
  ~FaultGuard() { fault::disarm_all(); }
};

// ---------------------------------------------------------------------------
// Fault layer
// ---------------------------------------------------------------------------

TEST(Fault, FiresOnExactlyTheNthHit) {
  FaultGuard guard;
  fault::arm("test.site", 3);
  EXPECT_TRUE(fault::enabled());
  EXPECT_FALSE(fault::hit("test.site"));
  EXPECT_FALSE(fault::hit("test.site"));
  EXPECT_TRUE(fault::hit("test.site"));   // 3rd hit fires
  EXPECT_FALSE(fault::hit("test.site"));  // and only the 3rd
  EXPECT_EQ(fault::hit_count("test.site"), 4u);
}

TEST(Fault, CheckThrowsInjectedFault) {
  FaultGuard guard;
  fault::arm("test.check", 1);
  EXPECT_THROW(fault::check("test.check"), fault::InjectedFault);
  fault::check("test.check");  // already fired; no-op
  fault::check("test.never_armed");
}

TEST(Fault, DisarmAllClearsEverything) {
  FaultGuard guard;
  fault::arm("test.a", 1);
  fault::disarm_all();
  EXPECT_FALSE(fault::hit("test.a"));
  EXPECT_EQ(fault::armed_nth("test.a"), std::nullopt);
}

// ---------------------------------------------------------------------------
// Atomic writes
// ---------------------------------------------------------------------------

TEST(AtomicWrite, WritesThroughATempFile) {
  TempDir dir("atomic");
  const std::string target = dir.str() + "/out.txt";
  io::atomic_write_file(target, [](std::ostream& os) { os << "payload"; });
  std::ifstream in(target);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "payload");
  EXPECT_FALSE(fs::exists(target + ".tmp"));
}

TEST(AtomicWrite, InjectedCrashLeavesNoTornFile) {
  FaultGuard guard;
  TempDir dir("atomic_crash");
  const std::string target = dir.str() + "/out.txt";
  // Survivor content must be untouched by the failed overwrite.
  io::atomic_write_file(target, [](std::ostream& os) { os << "old"; });
  fault::arm("io.write", 1);
  EXPECT_THROW(io::atomic_write_file(
                   target, [](std::ostream& os) { os << "new"; }),
               fault::InjectedFault);
  std::ifstream in(target);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "old");
  EXPECT_FALSE(fs::exists(target + ".tmp"));
}

// ---------------------------------------------------------------------------
// Rng and optimizer state round trips
// ---------------------------------------------------------------------------

TEST(Checkpoint, RngStateRoundTripContinuesTheSequence) {
  par::Rng a(42);
  (void)a.uniform();
  (void)a.normal();
  par::Rng b(7);
  ASSERT_TRUE(b.restore(a.state()));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_u64(1u << 30), b.uniform_u64(1u << 30));
  }
  EXPECT_FALSE(b.restore("not a state"));
}

TEST(Checkpoint, AdamStateRoundTripsExactly) {
  par::Rng rng(5);
  std::vector<ag::Tensor> params = {ag::Tensor::randn({3, 4}, rng),
                                    ag::Tensor::randn({4, 2}, rng)};
  ag::Adam a(1e-3f);
  a.add_params(params);
  a.step();
  a.step();
  io::ByteWriter w;
  a.save_state(w);
  const std::string saved = w.take();

  ag::Adam b(1e-3f);
  b.add_params(params);
  io::ByteReader in(saved, "Adam::load_state");
  b.load_state(in);
  b.save_state(w);
  EXPECT_EQ(saved, w.take());

  // Mismatched registration is rejected.
  ag::Adam c(1e-3f);
  c.add_params({params[0]});
  io::ByteReader in2(saved, "Adam::load_state");
  EXPECT_THROW(c.load_state(in2), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Checkpoint round trip + kill-and-resume
// ---------------------------------------------------------------------------

data::Dataset tiny_dataset(std::uint64_t seed) {
  par::Rng rng(seed);
  std::vector<data::ProgramSpec> programs;
  int i = 0;
  for (const auto p :
       {data::Pattern::VecMap, data::Pattern::ReduceSum,
        data::Pattern::Recurrence, data::Pattern::EarlyExit,
        data::Pattern::PrivTemp, data::Pattern::StencilCopy}) {
    data::ProgramSpec ps;
    ps.suite = "T";
    ps.app = "t";
    ps.pattern = p;
    ps.kernel = data::generate_kernel(p, "ck_k" + std::to_string(i++), rng);
    programs.push_back(std::move(ps));
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

  [[nodiscard]] core::TrainConfig config() const {
    core::TrainConfig tc;
    tc.epochs = 3;
    tc.seed = 9;
    tc.batch_size = 2;
    return tc;
  }

  std::vector<core::EpochStat> run(const core::TrainConfig& tc) const {
    core::MvGnnTrainer trainer(*feats, core::default_config(*feats), tc);
    return trainer.fit(train, test);
  }
};

void expect_identical_curves(const std::vector<core::EpochStat>& a,
                             const std::vector<core::EpochStat>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bit-identical, not approximately equal: resume must replay the
    // uninterrupted arithmetic exactly.
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(core::EpochStat)), 0)
        << "epoch " << i << ": " << a[i].loss << " vs " << b[i].loss;
  }
}

TEST(Checkpoint, ResumeReproducesTheUninterruptedTrajectory) {
  FaultGuard guard;
  const TrainSetup setup(21);
  TempDir dir_a("ck_base"), dir_b("ck_resume");

  core::TrainConfig tc = setup.config();
  tc.checkpoint_dir = dir_a.str();
  const auto full = setup.run(tc);
  ASSERT_EQ(full.size(), 3u);
  EXPECT_TRUE(fs::exists(core::checkpoint_path(dir_a.str(), 3)));

  // Same config, but the process "dies" when it tries to persist the
  // epoch-2 checkpoint — leaving only ckpt-1 behind.
  core::TrainConfig crash_tc = setup.config();
  crash_tc.checkpoint_dir = dir_b.str();
  fault::arm("ckpt.write", 2);
  EXPECT_THROW(setup.run(crash_tc), fault::InjectedFault);
  fault::disarm_all();

  core::TrainConfig tc2 = setup.config();
  tc2.checkpoint_dir = dir_b.str();
  tc2.resume_from = core::latest_checkpoint(dir_b.str());
  ASSERT_EQ(tc2.resume_from, core::checkpoint_path(dir_b.str(), 1));
  const auto tail = setup.run(tc2);

  expect_identical_curves(full, tail);
}

TEST(Checkpoint, FinalEpochIsCheckpointedAtAnyInterval) {
  // checkpoint_every 0 (final only) and 3 (does not divide 4) must both
  // leave ckpt-4 behind, loadable, and resuming from it returns the full
  // curve.
  const TrainSetup setup(24);
  core::TrainConfig base = setup.config();
  base.epochs = 4;
  const auto full = setup.run(base);
  ASSERT_EQ(full.size(), 4u);

  for (const std::size_t every : {std::size_t{0}, std::size_t{3}}) {
    SCOPED_TRACE("checkpoint_every " + std::to_string(every));
    TempDir dir("ck_every" + std::to_string(every));
    core::TrainConfig tc = base;
    tc.checkpoint_dir = dir.str();
    tc.checkpoint_every = every;
    expect_identical_curves(full, setup.run(tc));
    const std::string final_ckpt = core::checkpoint_path(dir.str(), 4);
    ASSERT_EQ(core::latest_checkpoint(dir.str()), final_ckpt);
    EXPECT_EQ(fs::exists(core::checkpoint_path(dir.str(), 3)), every == 3);
    EXPECT_FALSE(fs::exists(core::checkpoint_path(dir.str(), 1)));

    core::MvGnnTrainer blank(*setup.feats, core::default_config(*setup.feats),
                             base);
    ag::Adam opt(base.lr);
    opt.add_params(blank.model().parameters());
    const core::CheckpointMeta meta =
        core::load_checkpoint(final_ckpt, blank.model_mutable(), opt);
    EXPECT_EQ(meta.epoch, 4u);
    expect_identical_curves(full, meta.curve);

    core::TrainConfig resume_tc = base;
    resume_tc.resume_from = final_ckpt;
    expect_identical_curves(full, setup.run(resume_tc));
    if (every == 3) {
      resume_tc.resume_from = core::checkpoint_path(dir.str(), 3);
      expect_identical_curves(full, setup.run(resume_tc));
    }
  }
}

TEST(Checkpoint, InjectedKillMidEpochResumesBitIdentically) {
  FaultGuard guard;
  const TrainSetup setup(22);
  TempDir dir_a("kill_base"), dir_b("kill_crash");

  core::TrainConfig tc = setup.config();
  tc.checkpoint_dir = dir_a.str();
  const auto full = setup.run(tc);

  // "kill -9" stand-in: the trainer dies before an optimizer step in the
  // middle of epoch 1; only the periodic epoch-boundary checkpoints remain.
  core::TrainConfig crash_tc = setup.config();
  crash_tc.checkpoint_dir = dir_b.str();
  const std::size_t steps_per_epoch =
      (setup.train.size() + crash_tc.batch_size - 1) / crash_tc.batch_size;
  fault::arm("trainer.step", steps_per_epoch + 2);  // epoch 1, 2nd batch
  EXPECT_THROW(setup.run(crash_tc), fault::InjectedFault);
  fault::disarm_all();

  core::TrainConfig resume_tc = setup.config();
  resume_tc.checkpoint_dir = dir_b.str();
  resume_tc.resume_from = core::latest_checkpoint(dir_b.str());
  ASSERT_EQ(resume_tc.resume_from, core::checkpoint_path(dir_b.str(), 1));
  const auto tail = setup.run(resume_tc);

  expect_identical_curves(full, tail);
}

TEST(Checkpoint, StopFlagWritesSnapshotAndResumes) {
  const TrainSetup setup(23);
  TempDir dir_a("stop_base"), dir_b("stop_int");

  core::TrainConfig tc = setup.config();
  tc.checkpoint_dir = dir_a.str();
  const auto full = setup.run(tc);

  // The flag is already set, so the very first batch poll interrupts:
  // fit() persists the epoch-0 snapshot and reports interrupted().
  std::atomic<bool> stop{true};
  core::TrainConfig int_tc = setup.config();
  int_tc.checkpoint_dir = dir_b.str();
  int_tc.stop_requested = &stop;
  core::MvGnnTrainer trainer(*setup.feats, core::default_config(*setup.feats),
                             int_tc);
  const auto partial = trainer.fit(setup.train, setup.test);
  EXPECT_TRUE(trainer.interrupted());
  EXPECT_TRUE(partial.empty());
  ASSERT_EQ(core::latest_checkpoint(dir_b.str()),
            core::checkpoint_path(dir_b.str(), 0));

  core::TrainConfig resume_tc = setup.config();
  resume_tc.checkpoint_dir = dir_b.str();
  resume_tc.resume_from = core::latest_checkpoint(dir_b.str());
  const auto tail = setup.run(resume_tc);
  expect_identical_curves(full, tail);
}

// ---------------------------------------------------------------------------
// Corruption / truncation matrix
// ---------------------------------------------------------------------------

/// Flips one byte at each probe offset and truncates at each probe length;
/// `reload` must throw std::runtime_error (with an offset in the message)
/// for every damaged copy.
void corruption_matrix(const std::string& bytes,
                       const std::function<void(const std::string&)>& reload) {
  const std::size_t probes[] = {0,
                                2,
                                9,
                                bytes.size() / 3,
                                bytes.size() / 2,
                                bytes.size() - 5,
                                bytes.size() - 1};
  for (const std::size_t at : probes) {
    std::string bad = bytes;
    bad[at] = static_cast<char>(bad[at] ^ 0xFF);
    try {
      reload(bad);
      FAIL() << "byte flip at " << at << " was not detected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::strlen(e.what()), 0u) << "flip at " << at;
    }
  }
  for (const std::size_t len : {std::size_t{0}, std::size_t{3},
                                bytes.size() / 4, bytes.size() / 2,
                                bytes.size() - 6, bytes.size() - 1}) {
    try {
      reload(bytes.substr(0, len));
      FAIL() << "truncation to " << len << " was not detected";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
          << "truncation to " << len << " lacks an offset: " << e.what();
    }
  }
}

TEST(Corruption, DatasetLoaderDetectsEveryDamagedCopy) {
  const data::Dataset ds = tiny_dataset(31);
  std::stringstream buf;
  data::save_dataset(ds, buf);
  corruption_matrix(buf.str(), [](const std::string& bytes) {
    std::stringstream in(bytes);
    (void)data::load_dataset(in);
  });
}

TEST(Corruption, DatasetLoaderRejectsAbsurdLengthsBeforeAllocating) {
  const data::Dataset ds = tiny_dataset(32);
  std::stringstream buf;
  data::save_dataset(ds, buf);
  std::string bytes = buf.str();
  // Overwrite the token-vocabulary count (the first u64 length field, right
  // after the inst2vec block) with 2^60. Its offset follows from the fixed
  // layout: 8-byte header, static_dim + aw_vocab, vocab/dim u32s, then
  // vocab*dim floats.
  std::uint32_t i2v_vocab = 0, i2v_dim = 0;
  std::memcpy(&i2v_vocab, bytes.data() + 16, sizeof i2v_vocab);
  std::memcpy(&i2v_dim, bytes.data() + 20, sizeof i2v_dim);
  const std::size_t count_off =
      24 + std::size_t{i2v_vocab} * i2v_dim * sizeof(float);
  ASSERT_LT(count_off + 8, bytes.size());
  const std::uint64_t absurd = 1ull << 60;
  std::memcpy(bytes.data() + count_off, &absurd, sizeof absurd);
  std::stringstream in(bytes);
  try {
    (void)data::load_dataset(in);
    FAIL() << "absurd length accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds cap"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
  // One flipped byte in the inst2vec vocabulary (byte 18) or dimension
  // (byte 22) leaves the field under its own cap but makes the table need
  // far more bytes than the file holds. That must fail before the table is
  // allocated (gigabytes, zero-filled), not after.
  for (const std::size_t flip : {std::size_t{18}, std::size_t{22}}) {
    std::string damaged = buf.str();
    damaged[flip] = static_cast<char>(damaged[flip] ^ 0xFF);
    std::stringstream flipped(damaged);
    try {
      (void)data::load_dataset(flipped);
      FAIL() << "flip at " << flip << " accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("exceeds"), std::string::npos) << what;
      EXPECT_NE(what.find("offset"), std::string::npos) << what;
    }
  }
}

TEST(Corruption, CheckpointLoaderDetectsEveryDamagedCopy) {
  par::Rng rng(6);
  struct TwoTensorModel : nn::Module {
    std::vector<ag::Tensor> ps;
    [[nodiscard]] std::vector<ag::Tensor> parameters() const override {
      return ps;
    }
  } model;
  model.ps = {ag::Tensor::randn({5, 3}, rng), ag::Tensor::randn({3, 2}, rng)};
  ag::Adam opt(1e-3f);
  opt.add_params(model.ps);
  opt.step();

  core::CheckpointMeta meta;
  meta.epoch = 2;
  meta.step = 17;
  meta.rng_state = rng.state();
  meta.curve = {{0.5, 0.6, 0.7}, {0.4, 0.8, 0.9}};
  const std::string bytes = core::encode_checkpoint(meta, model, opt);

  // Clean load round-trips first.
  {
    std::istringstream in(bytes);
    const auto back = core::load_checkpoint(in, model, opt);
    EXPECT_EQ(back.epoch, 2u);
    EXPECT_EQ(back.step, 17u);
    EXPECT_EQ(back.rng_state, meta.rng_state);
    ASSERT_EQ(back.curve.size(), 2u);
    EXPECT_EQ(back.curve[1].loss, 0.4);
  }
  corruption_matrix(bytes, [&](const std::string& damaged) {
    std::istringstream in(damaged);
    (void)core::load_checkpoint(in, model, opt);
  });
}

TEST(Corruption, TruncateFaultSiteDriesUpTheStream) {
  FaultGuard guard;
  const data::Dataset ds = tiny_dataset(33);
  std::stringstream buf;
  data::save_dataset(ds, buf);
  // The payload reader sees only 64 bytes before EOF, as if the file had
  // been cut mid-write — without touching any real file.
  fault::arm("io.read.truncate", 64);
  try {
    (void)data::load_dataset(buf);
    FAIL() << "truncated stream accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Pathological corpus quarantine
// ---------------------------------------------------------------------------

data::ProgramSpec bad_program(const std::string& name,
                              const std::string& source,
                              std::vector<profiler::ArgInit> args) {
  data::ProgramSpec ps;
  ps.suite = "Bad";
  ps.app = "bad";
  ps.kernel.name = name;
  ps.kernel.source = source;
  ps.kernel.args = std::move(args);
  return ps;
}

TEST(Quarantine, PathologicalProgramsAreSkippedNotFatal) {
  par::Rng rng(41);
  std::vector<data::ProgramSpec> programs;
  // Two healthy programs the dataset must still be built from.
  for (const auto p : {data::Pattern::VecMap, data::Pattern::ReduceSum}) {
    data::ProgramSpec ps;
    ps.suite = "T";
    ps.app = "t";
    ps.pattern = p;
    ps.kernel = data::generate_kernel(p, std::string("good_") +
                                             data::pattern_name(p), rng);
    programs.push_back(std::move(ps));
  }
  // 1. Infinite loop: runs until the fuel budget traps it.
  programs.push_back(bad_program(
      "bad_infinite",
      "void kernel(int n) {\n"
      "  while (n < 1000000000) { n = n - (n - n); }\n"
      "}\n",
      {profiler::ArgInit::of_int(1)}));
  // 2. OOM allocator: a local array far past the memory cap.
  programs.push_back(bad_program(
      "bad_oom",
      "const int M = 8388608;\n"
      "void kernel(int n) {\n"
      "  for (int i = 0; i < 2; i = i + 1) {\n"
      "    float t[M];\n"
      "    t[0] = 1.0;\n"
      "  }\n"
      "}\n",
      {profiler::ArgInit::of_int(1)}));
  // 3. Parse error.
  programs.push_back(
      bad_program("bad_parse", "this is not a MiniC program {", {}));
  // 4. Sema error: assignment to an undeclared variable.
  programs.push_back(bad_program("bad_sema",
                                 "void kernel(int n) {\n"
                                 "  undeclared = n;\n"
                                 "}\n",
                                 {profiler::ArgInit::of_int(1)}));
  // 5. Runtime trap: integer division by zero.
  programs.push_back(bad_program("bad_trap",
                                 "void kernel(int n) {\n"
                                 "  int z = n - n;\n"
                                 "  n = n / z;\n"
                                 "}\n",
                                 {profiler::ArgInit::of_int(7)}));

  data::DatasetOptions opts;
  opts.seed = 19;
  opts.walk.gamma = 8;
  opts.interp.max_steps = 2'000'000;     // fuel: traps the infinite loop
  opts.interp.max_mem_cells = 1u << 20;  // traps the 8M-cell allocation

  const auto& quarantined_counter =
      obs::Registry::global().counter("corpus.quarantined_total");
  const auto& fuel_counter =
      obs::Registry::global().counter("interp.fuel_exhausted_total");
  const auto& mem_counter =
      obs::Registry::global().counter("interp.mem_cap_exceeded_total");
  const std::uint64_t quarantined0 = quarantined_counter.value();
  const std::uint64_t fuel0 = fuel_counter.value();
  const std::uint64_t mem0 = mem_counter.value();

  std::size_t skipped = 0;
  data::BuildReport report;
  const data::Dataset ds =
      data::build_dataset(programs, opts, &skipped, &report);

  EXPECT_EQ(skipped, 5u);
  ASSERT_EQ(report.quarantined.size(), 5u);
  // The healthy programs still produced their samples.
  EXPECT_GT(ds.samples.size(), 0u);
  for (const auto& s : ds.samples) {
    EXPECT_EQ(s.kernel.rfind("good_", 0), 0u) << s.kernel;
  }
  // Every entry names its program, stage, and error.
  std::map<std::string, data::QuarantineEntry> by_kernel;
  for (const auto& q : report.quarantined) by_kernel[q.kernel] = q;
  ASSERT_EQ(by_kernel.count("bad_infinite"), 1u);
  EXPECT_EQ(by_kernel["bad_infinite"].stage, "profile");
  EXPECT_NE(by_kernel["bad_infinite"].error.find("fuel exhausted"),
            std::string::npos);
  ASSERT_EQ(by_kernel.count("bad_oom"), 1u);
  EXPECT_EQ(by_kernel["bad_oom"].stage, "profile");
  EXPECT_NE(by_kernel["bad_oom"].error.find("memory cap"), std::string::npos);
  ASSERT_EQ(by_kernel.count("bad_parse"), 1u);
  EXPECT_EQ(by_kernel["bad_parse"].stage, "compile");
  ASSERT_EQ(by_kernel.count("bad_sema"), 1u);
  EXPECT_EQ(by_kernel["bad_sema"].stage, "compile");
  ASSERT_EQ(by_kernel.count("bad_trap"), 1u);
  EXPECT_EQ(by_kernel["bad_trap"].stage, "profile");
  EXPECT_NE(by_kernel["bad_trap"].error.find("division by zero"),
            std::string::npos);
  // Observability counters moved with the quarantine.
  EXPECT_EQ(quarantined_counter.value() - quarantined0, 5u);
  EXPECT_EQ(fuel_counter.value() - fuel0, 1u);
  EXPECT_EQ(mem_counter.value() - mem0, 1u);
}

// ---------------------------------------------------------------------------
// Stage-boundary cache faults (docs/pipeline.md)
// ---------------------------------------------------------------------------

std::string dataset_bytes(const data::Dataset& ds) {
  std::ostringstream os;
  data::save_dataset(ds, os);
  return os.str();
}

TEST(CacheFault, InjectedReadCorruptionDegradesToRecompute) {
  FaultGuard guard;
  TempDir dir("cache_rot");
  const auto programs = data::build_generated_corpus(6, 77);
  data::DatasetOptions opts;
  opts.seed = 5;

  cache::Cache warmup(cache::Config{dir.str(), 64ull << 20});
  opts.cache = &warmup;
  const std::string want = dataset_bytes(data::build_dataset(programs, opts));

  // A fresh instance over the same directory reads from disk; the armed
  // fault corrupts the CRC of the first disk read. The build must treat it
  // as a miss — evict, recompute, repopulate — and still produce the exact
  // same bytes.
  cache::Cache c(cache::Config{dir.str(), 64ull << 20});
  opts.cache = &c;
  fault::arm("cache.read.corrupt", 1);
  std::size_t skipped = 0;
  const data::Dataset ds = data::build_dataset(programs, opts, &skipped);
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(dataset_bytes(ds), want);
  EXPECT_EQ(c.stats().corrupt, 1u);
  EXPECT_GE(c.stats().misses, 1u);
}

TEST(CacheFault, InjectedWriteFailureLeavesEntryUncachedNotFatal) {
  FaultGuard guard;
  TempDir dir("cache_wfail");
  const auto programs = data::build_generated_corpus(6, 77);
  data::DatasetOptions opts;
  opts.seed = 5;
  const std::string want = dataset_bytes(data::build_dataset(programs, opts));

  cache::Cache c(cache::Config{dir.str(), 64ull << 20});
  opts.cache = &c;
  fault::arm("cache.write", 1);
  std::size_t skipped = 0;
  const data::Dataset ds = data::build_dataset(programs, opts, &skipped);
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(dataset_bytes(ds), want);
  EXPECT_EQ(c.stats().write_failures, 1u);
  // The failed entry simply stayed uncached; everything else landed on disk.
  EXPECT_GT(c.stats().disk_entries, 0u);
}

TEST(Quarantine, CooperativeStopReturnsEmptyInterruptedBuild) {
  const auto programs = data::build_generated_corpus(6, 77);
  data::DatasetOptions opts;
  opts.seed = 5;

  // Flag already up (a SIGINT that landed before the build): no item
  // starts, the dataset comes back empty — a partial dataset would
  // silently change downstream vocabularies — and the report says
  // interrupted so `mvgnn dataset` exits 130 instead of writing it.
  std::atomic<bool> stop{true};
  opts.stop_requested = &stop;
  std::size_t skipped = 0;
  data::BuildReport report;
  const data::Dataset ds =
      data::build_dataset(programs, opts, &skipped, &report);
  EXPECT_TRUE(report.interrupted);
  EXPECT_TRUE(ds.samples.empty());

  // Flag down: the same options build normally.
  stop.store(false);
  data::BuildReport clean;
  const data::Dataset full =
      data::build_dataset(programs, opts, &skipped, &clean);
  EXPECT_FALSE(clean.interrupted);
  EXPECT_GT(full.samples.size(), 0u);
}

TEST(Quarantine, InterpreterTrapSiteFiresAtTheArmedStep) {
  FaultGuard guard;
  par::Rng rng(47);
  data::ProgramSpec ps;
  ps.suite = "T";
  ps.app = "t";
  ps.kernel = data::generate_kernel(data::Pattern::VecMap, "trap_k", rng);
  data::DatasetOptions opts;
  opts.seed = 23;
  opts.walk.gamma = 8;
  fault::arm("interp.trap", 100);
  std::size_t skipped = 0;
  data::BuildReport report;
  (void)data::build_dataset({ps}, opts, &skipped, &report);
  fault::disarm_all();
  ASSERT_EQ(skipped, 1u);
  EXPECT_NE(report.quarantined[0].error.find("injected trap"),
            std::string::npos);
}

// The injected trap shares the fuel compare: every entry point traps at the
// armed step, runs out of fuel past max_steps, and reports fuel when both
// limits fall on the same step.
TEST(InterpTrap, SharesTheFuelLimitOnEveryEntryPoint) {
  FaultGuard guard;
  const ir::Module m = frontend::compile(R"(
int kernel(int[] a) {
  int s = 0;
  for (int i = 0; i < 64; i += 1) {
    s = s + a[i];
  }
  return s;
}
)",
                                         "trap");
  const std::vector<profiler::ArgInit> args = {
      profiler::ArgInit::of_array(64)};
  using Entry = std::function<std::uint64_t(const profiler::ParRunOptions&)>;
  const std::pair<const char*, Entry> entries[] = {
      {"run",
       [&](const profiler::ParRunOptions& o) {
         profiler::ObjectTable objects;
         profiler::DepRecorder rec(objects);
         return profiler::run(m, "kernel", args, rec, objects, o).steps;
       }},
      {"run_capture",
       [&](const profiler::ParRunOptions& o) {
         return profiler::run_capture(m, "kernel", args, o).run.steps;
       }},
      {"run_parallel",
       [&](const profiler::ParRunOptions& o) {
         return profiler::run_parallel(m, "kernel", args, profiler::ParPlan{},
                                       o)
             .run.steps;
       }},
  };
  constexpr std::uint64_t kTrap = 100;
  auto error_of = [](const Entry& entry, const profiler::ParRunOptions& o) {
    try {
      entry(o);
    } catch (const profiler::InterpError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  for (const auto& [name, entry] : entries) {
    SCOPED_TRACE(name);
    profiler::ParRunOptions opts;  // one thread
    ASSERT_GT(entry(opts), kTrap);

    fault::arm("interp.trap", kTrap);
    EXPECT_NE(error_of(entry, opts).find("injected trap at step 100 "),
              std::string::npos);

    fault::disarm_all();
    opts.max_steps = kTrap - 1;
    EXPECT_NE(error_of(entry, opts).find("fuel exhausted: step budget 99 "),
              std::string::npos);

    fault::arm("interp.trap", kTrap);
    EXPECT_NE(error_of(entry, opts).find("fuel exhausted: step budget 99 "),
              std::string::npos);
    fault::disarm_all();
  }
}

}  // namespace
