// Grammar fuzzing: randomly generated (but by-construction fault-free)
// MiniC programs must flow through the ENTIRE pipeline — compile, verify,
// every transform pipeline, profile, PEG, sub-PEGs, features, oracle and
// tool classification — without crashes, faults, or verifier complaints.
//
// The generator constrains itself so runtime faults cannot occur: every
// array subscript is reduced modulo the array length, there is no division,
// loop bounds are small constants, and nesting is capped. Anything the
// pipeline then throws is a real bug.
//
// Loader fuzzing: the seven binary formats (stage-cache entry, item-feature
// blob, embedding blob, dataset file, checkpoint, weight record, Adam
// record) each have a hand-built input whose encoding is pinned by length
// and CRC32, so a layout change cannot slip through. Those encodings seed
// a deterministic mutation run: every damaged copy must either decode or
// throw std::runtime_error, never anything else (std::bad_alloc included),
// and no single allocation may exceed a 16 MiB malloc limit meanwhile.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <new>
#include <memory>
#include <sstream>
#include <typeinfo>

#include "analysis/tools.hpp"
#include "cache/cache.hpp"
#include "core/checkpoint.hpp"
#include "data/dataset.hpp"
#include "data/serialize.hpp"
#include "frontend/lower.hpp"
#include "graph/peg.hpp"
#include "io/codec.hpp"
#include "nn/module.hpp"
#include "parallel/rng.hpp"
#include "pipe/item.hpp"
#include "profiler/profile.hpp"
#include "tensor/optim.hpp"
#include "transform/passes.hpp"

namespace {

using namespace mvgnn;

/// Random MiniC program generator. Scalars: i/j loop variables, s/t floats.
/// Arrays: a, b (float, length N).
class Fuzzer {
 public:
  explicit Fuzzer(std::uint64_t seed) : rng_(seed) {}

  std::string program() {
    os_.str("");
    n_ = 8 + 4 * rng_.uniform_int(0, 4);
    os_ << "const int N = " << n_ << ";\n";
    os_ << "float kernel(float[] a, float[] b) {\n";
    os_ << "  float s = 0.0;\n";
    os_ << "  float t = 1.0;\n";
    const int stmts = 2 + static_cast<int>(rng_.uniform_int(0, 4));
    for (int k = 0; k < stmts; ++k) stmt(1, 0);
    os_ << "  return s + t + a[0] + b[0];\n";
    os_ << "}\n";
    return os_.str();
  }

 private:
  void indent(int depth) {
    for (int i = 0; i < depth; ++i) os_ << "  ";
  }

  /// An int expression that stays small and non-negative.
  std::string int_expr(int loop_depth) {
    switch (rng_.uniform_int(0, 3)) {
      case 0: return std::to_string(rng_.uniform_int(0, n_ - 1));
      case 1:
        if (loop_depth >= 1) return "i";
        return std::to_string(rng_.uniform_int(0, 3));
      case 2:
        if (loop_depth >= 2) return "j";
        if (loop_depth >= 1) return "i + 1";
        return "2";
      default:
        if (loop_depth >= 1) {
          return "i * " + std::to_string(1 + rng_.uniform_int(0, 3));
        }
        return std::to_string(rng_.uniform_int(0, 5));
    }
  }

  /// A guaranteed-in-bounds subscript.
  std::string index(int loop_depth) {
    return "(" + int_expr(loop_depth) + ") % N";
  }

  /// A float expression (no division).
  std::string float_expr(int loop_depth, int budget = 2) {
    if (budget <= 0 || rng_.bernoulli(0.3)) {
      switch (rng_.uniform_int(0, 3)) {
        case 0: return "s";
        case 1: return "t";
        case 2: {
          std::ostringstream w;
          w << (0.1 + rng_.uniform());
          return w.str();
        }
        default:
          return std::string(rng_.bernoulli(0.5) ? "a" : "b") + "[" +
                 index(loop_depth) + "]";
      }
    }
    const char* ops[] = {" + ", " - ", " * "};
    const std::string lhs = float_expr(loop_depth, budget - 1);
    const std::string rhs = float_expr(loop_depth, budget - 1);
    if (rng_.bernoulli(0.2)) return "fabs(" + lhs + ")";
    if (rng_.bernoulli(0.15)) return "fmax(" + lhs + ", " + rhs + ")";
    return "(" + lhs + ops[rng_.uniform_u64(3)] + rhs + ")";
  }

  void stmt(int depth, int loop_depth) {
    // Loops only shallowly (bounds the program size and keeps i/j scoping
    // trivially correct).
    const bool allow_for = depth <= 2 && loop_depth < 2;
    switch (rng_.uniform_int(0, allow_for ? 4 : 3)) {
      case 0: {  // scalar assignment
        indent(depth);
        os_ << (rng_.bernoulli(0.5) ? "s" : "t") << " = "
            << float_expr(loop_depth) << ";\n";
        return;
      }
      case 1: {  // array store
        indent(depth);
        os_ << (rng_.bernoulli(0.5) ? "a" : "b") << "[" << index(loop_depth)
            << "] = " << float_expr(loop_depth) << ";\n";
        return;
      }
      case 2: {  // if/else
        indent(depth);
        os_ << "if (" << float_expr(loop_depth, 1) << " > "
            << float_expr(loop_depth, 1) << ") {\n";
        stmt(depth + 1, loop_depth);
        indent(depth);
        if (rng_.bernoulli(0.5)) {
          os_ << "} else {\n";
          stmt(depth + 1, loop_depth);
          indent(depth);
        }
        os_ << "}\n";
        return;
      }
      case 3: {  // compound array update (reduction-shaped)
        indent(depth);
        os_ << (rng_.bernoulli(0.5) ? "a" : "b") << "[" << index(loop_depth)
            << "] += " << float_expr(loop_depth, 1) << ";\n";
        return;
      }
      default: {  // for loop (bounded nesting)
        const char* iv = loop_depth == 0 ? "i" : "j";
        const int trip = 2 + static_cast<int>(rng_.uniform_int(0, 6));
        indent(depth);
        os_ << "for (int " << iv << " = 0; " << iv << " < " << trip << "; "
            << iv << " += 1) {\n";
        const int body = 1 + static_cast<int>(rng_.uniform_int(0, 2));
        for (int k = 0; k < body; ++k) stmt(depth + 1, loop_depth + 1);
        indent(depth);
        os_ << "}\n";
        return;
      }
    }
  }

  par::Rng rng_;
  std::ostringstream os_;
  std::int64_t n_ = 16;
};

class FuzzPipeline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzPipeline, WholePipelineSurvivesRandomPrograms) {
  Fuzzer fuzz(GetParam());
  for (int round = 0; round < 8; ++round) {
    const std::string source = fuzz.program();
    SCOPED_TRACE(source);

    // Compile + verify.
    ir::Module m;
    ASSERT_NO_THROW(m = frontend::compile(source, "fuzz")) << source;

    // Every transform pipeline keeps it valid and semantics-stable.
    const std::vector<profiler::ArgInit> args = {
        profiler::ArgInit::of_array(64, 1), profiler::ArgInit::of_array(64, 2)};
    double reference = 0.0;
    ASSERT_NO_THROW(
        reference =
            profiler::run_capture(m, "kernel", args).run.return_value.f);
    for (const auto& pipeline : transform::variant_pipelines()) {
      ir::Module v = frontend::compile(source, pipeline.name);
      ASSERT_NO_THROW(transform::run_pipeline(v, pipeline)) << pipeline.name;
      double out = 0.0;
      ASSERT_NO_THROW(out = profiler::run_capture(v, "kernel", args).run
                                .return_value.f)
          << pipeline.name;
      EXPECT_DOUBLE_EQ(out, reference) << pipeline.name << "\n" << source;
    }

    // Full profile + graph + per-loop analyses.
    profiler::ProfileResult prof;
    ASSERT_NO_THROW(prof = profiler::profile(m, "kernel", args));
    const graph::Peg peg = graph::build_peg(m, prof);
    EXPECT_GE(peg.num_nodes(), 1u);
    for (const auto& loop : prof.loops) {
      const auto sub = graph::extract_sub_peg(peg, loop.fn, loop.loop);
      EXPECT_GE(sub.num_nodes(), 1u);
      EXPECT_NO_THROW(
          (void)analysis::oracle_classify(*loop.fn, loop.loop, prof.dep));
      EXPECT_NO_THROW((void)analysis::autopar_classify(*loop.fn, loop.loop));
      EXPECT_NO_THROW((void)analysis::pluto_classify(*loop.fn, loop.loop));
      EXPECT_NO_THROW(
          (void)analysis::discopop_classify(*loop.fn, loop.loop, prof.dep));
      EXPECT_NO_THROW(
          (void)analysis::oracle_pattern(*loop.fn, loop.loop, prof.dep));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace

// ---------------------------------------------------------------------------
// Binary formats: pinned encodings and seeded-mutation fuzzing
// ---------------------------------------------------------------------------

namespace {

/// A malloc limit in the style of libFuzzer's -malloc_limit_mb: while it is
/// on, any single allocation above kMallocLimit throws std::bad_alloc. A
/// decoder that sizes a buffer from an unchecked length then fails the fuzz
/// test even when the machine could have satisfied the request.
constexpr std::size_t kMallocLimit = 16u << 20;
std::atomic<bool> g_malloc_limit{false};

struct MallocLimit {
  MallocLimit() { g_malloc_limit = true; }
  ~MallocLimit() { g_malloc_limit = false; }
  MallocLimit(const MallocLimit&) = delete;
  MallocLimit& operator=(const MallocLimit&) = delete;
};

}  // namespace

// The replacements pair malloc with free; GCC cannot see that pairing
// through an inlined operator delete and would flag every delete.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (n > kMallocLimit && g_malloc_limit.load(std::memory_order_relaxed)) {
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace mvgnn;

/// Hand-built inputs for the seven binary formats. Every value is set by
/// hand (no pipeline run), so the pinned encodings move only when a layout
/// changes.
const std::string kPinCachePayload("pinned cache payload\n\0\1\xff", 24);

pipe::ItemFeatures pin_item() {
  pipe::ItemFeatures f;
  f.tokens = {"load f32", "fadd f32", "store f32"};
  f.context_pairs = {{0, 1}, {1, 2}, {2, 0}};
  pipe::RawSample s;
  s.n = 2;
  s.edges = {{0, 1}, {1, 0}};
  s.edge_kinds = {0, 1};
  s.node_kinds = {0, 2};
  s.node_token_ix = {{0, 1}, {2}};
  s.node_dynamic = {{0.5, 1.0, 1.5, 0.25, 2.0, 0.0, -1.0},
                    {3.0, 0.125, 0.0, 1.0, -2.5, 4.0, 8.0}};
  s.node_walks = {{{0, 1, 0}, {0, 1, 2}}, {{0, 0}}};
  s.loop_features = {1.0, 2.0, 3.0, 0.5, 0.0, 1.5, 2.5};
  s.token_seq_ix = {0, 1, 2, 1};
  s.label = 1;
  s.pattern_label = 2;
  s.tool_autopar = true;
  s.tool_discopop = true;
  s.loop_line = 12;
  f.samples = {s};
  return f;
}

embedding::EmbeddingTable pin_embedding() {
  embedding::EmbeddingTable t(3, 2);
  const float values[] = {0.5f, -1.25f, 3.0f, 0.125f, -0.0f, 7.5f};
  for (std::uint32_t id = 0; id < 3; ++id) {
    t.row(id)[0] = values[2 * id];
    t.row(id)[1] = values[2 * id + 1];
  }
  return t;
}

data::Dataset pin_dataset() {
  data::Dataset ds;
  ds.static_dim = 3;
  ds.aw_vocab = 2;
  ds.inst2vec = pin_embedding();
  ds.token_vocab.restore({{"fadd f32", 1}}, true);
  ds.aw_vocab_table.restore({{graph::AnonWalk{0, 1, 0}, 0}}, true);
  data::GraphSample s;
  s.n = 2;
  s.edges = {{0, 1}};
  s.edge_kinds = {1};
  s.node_static = {{1.0f, 0.0f, 0.5f}, {0.0f, 1.0f, 0.25f}};
  s.node_dynamic = {{0.5, 1.0, 1.5, 0.25, 2.0, 0.0, -1.0},
                    {3.0, 0.125, 0.0, 1.0, -2.5, 4.0, 8.0}};
  s.aw_dist = {{1.0f, 0.0f}, {0.5f, 0.5f}};
  s.loop_features = {1.0, 2.0, 3.0, 0.5, 0.0, 1.5, 2.5};
  s.token_seq = {1, 1};
  s.label = 1;
  s.pattern_label = 1;
  s.tool_pluto = true;
  s.suite = "PIN";
  s.app = "pin";
  s.kernel = "kernel";
  s.variant = "";
  s.loop_line = 3;
  ds.samples = {s};
  return ds;
}

/// A two-tensor model with hand-set weights and an Adam optimizer stepped
/// once on zero gradients (so every moment is exactly zero and t == 1).
struct PinModel : nn::Module {
  std::vector<ag::Tensor> ps = {
      ag::Tensor::from_data({2, 3}, {0.5f, -1.0f, 2.0f, 0.25f, 0.0f, -3.5f}),
      ag::Tensor::from_data({3, 1}, {1.5f, -0.125f, 4.0f})};
  [[nodiscard]] std::vector<ag::Tensor> parameters() const override {
    return ps;
  }
};

ag::Adam pin_adam(const PinModel& model) {
  ag::Adam opt(1e-3f);
  opt.add_params(model.ps);
  opt.step();
  return opt;
}

core::CheckpointMeta pin_meta() {
  core::CheckpointMeta meta;
  meta.epoch = 3;
  meta.step = 42;
  meta.rng_state = par::Rng(11).state();
  meta.curve = {{0.5, 0.75, 0.625}, {0.25, 0.875, 0.75}};
  return meta;
}

std::vector<float> weights_of(const nn::Module& m) {
  std::vector<float> out;
  for (const ag::Tensor& p : m.parameters()) {
    out.insert(out.end(), p.data(), p.data() + p.numel());
  }
  return out;
}

std::string dataset_bytes(const data::Dataset& ds) {
  std::ostringstream os;
  data::save_dataset(ds, os);
  return os.str();
}

/// One binary format: its pinned encoding and a decoder that throws on
/// damage. Decoders that restore into a model or optimizer share one
/// instance across calls; the shapes never change.
struct Format {
  const char* name;
  std::size_t pinned_size;
  std::uint32_t pinned_crc;
  std::string encoding;
  std::function<void(const std::string&)> decode;
};

/// Pins recorded from the layouts before the formats shared one codec.
std::vector<Format> formats() {
  auto model = std::make_shared<PinModel>();
  auto opt = std::make_shared<ag::Adam>(pin_adam(*model));
  std::ostringstream weights, adam;
  nn::save_weights(*model, weights);
  opt->save_state(adam);
  std::vector<Format> out;
  out.push_back({"cache entry", 44, 0xA8517FD8u,
                 cache::encode_entry(kPinCachePayload),
                 [](const std::string& b) { (void)cache::decode_entry(b); }});
  out.push_back({"item features", 416, 0x866484DEu,
                 pipe::serialize_features(pin_item()),
                 [](const std::string& b) {
                   (void)pipe::deserialize_features(b);
                 }});
  out.push_back({"embedding", 36, 0xDA1B4C71u,
                 data::serialize_embedding(pin_embedding()),
                 [](const std::string& b) {
                   (void)data::deserialize_embedding(b, 3, 2);
                 }});
  out.push_back({"dataset", 481, 0xDC8E63E3u, dataset_bytes(pin_dataset()),
                 [](const std::string& b) {
                   std::istringstream in(b);
                   (void)data::load_dataset(in);
                 }});
  out.push_back({"checkpoint", 6667, 0xAEEEC4C9u,
                 core::encode_checkpoint(pin_meta(), *model, *opt),
                 [model, opt](const std::string& b) {
                   std::istringstream in(b);
                   (void)core::load_checkpoint(in, *model, *opt);
                 }});
  out.push_back({"weights", 76, 0xFDD496BBu, weights.str(),
                 [model](const std::string& b) {
                   std::istringstream in(b);
                   nn::load_weights(*model, in);
                 }});
  out.push_back({"adam", 104, 0x5C2C61AFu, adam.str(),
                 [opt](const std::string& b) {
                   std::istringstream in(b);
                   opt->load_state(in);
                 }});
  return out;
}

TEST(FormatPin, EncodingsKeepTheirPinnedLengthAndCrc) {
  for (const Format& f : formats()) {
    EXPECT_EQ(f.encoding.size(), f.pinned_size) << f.name;
    EXPECT_EQ(io::crc32(f.encoding.data(), f.encoding.size()), f.pinned_crc)
        << f.name;
  }
}

TEST(FormatPin, EveryFormatRoundTrips) {
  EXPECT_EQ(cache::decode_entry(cache::encode_entry(kPinCachePayload)),
            kPinCachePayload);

  const pipe::ItemFeatures item = pin_item();
  const pipe::ItemFeatures item_back =
      pipe::deserialize_features(pipe::serialize_features(item));
  EXPECT_EQ(item_back.tokens, item.tokens);
  EXPECT_EQ(item_back.context_pairs, item.context_pairs);
  ASSERT_EQ(item_back.samples.size(), 1u);
  const pipe::RawSample& rs = item_back.samples[0];
  const pipe::RawSample& rs0 = item.samples[0];
  EXPECT_EQ(rs.n, rs0.n);
  EXPECT_EQ(rs.edges, rs0.edges);
  EXPECT_EQ(rs.edge_kinds, rs0.edge_kinds);
  EXPECT_EQ(rs.node_kinds, rs0.node_kinds);
  EXPECT_EQ(rs.node_token_ix, rs0.node_token_ix);
  EXPECT_EQ(rs.node_dynamic, rs0.node_dynamic);
  EXPECT_EQ(rs.node_walks, rs0.node_walks);
  EXPECT_EQ(rs.loop_features, rs0.loop_features);
  EXPECT_EQ(rs.token_seq_ix, rs0.token_seq_ix);
  EXPECT_EQ(rs.label, rs0.label);
  EXPECT_EQ(rs.pattern_label, rs0.pattern_label);
  EXPECT_EQ(rs.tool_autopar, rs0.tool_autopar);
  EXPECT_EQ(rs.tool_pluto, rs0.tool_pluto);
  EXPECT_EQ(rs.tool_discopop, rs0.tool_discopop);
  EXPECT_EQ(rs.loop_line, rs0.loop_line);

  const embedding::EmbeddingTable table = pin_embedding();
  const embedding::EmbeddingTable table_back =
      data::deserialize_embedding(data::serialize_embedding(table), 3, 2);
  for (std::uint32_t id = 0; id < 3; ++id) {
    EXPECT_TRUE(std::ranges::equal(table_back.row(id), table.row(id)));
  }

  const data::Dataset ds = pin_dataset();
  std::istringstream ds_in(dataset_bytes(ds));
  const data::Dataset ds_back = data::load_dataset(ds_in);
  EXPECT_EQ(dataset_bytes(ds_back), dataset_bytes(ds));
  EXPECT_EQ(ds_back.token_vocab.map(), ds.token_vocab.map());
  EXPECT_EQ(ds_back.aw_vocab_table.map(), ds.aw_vocab_table.map());
  ASSERT_EQ(ds_back.samples.size(), 1u);
  EXPECT_EQ(ds_back.samples[0].node_static, ds.samples[0].node_static);
  EXPECT_EQ(ds_back.samples[0].aw_dist, ds.samples[0].aw_dist);
  EXPECT_EQ(ds_back.samples[0].suite, ds.samples[0].suite);

  // Checkpoint, weight and Adam records restore into a zeroed model.
  const PinModel model;
  const ag::Adam opt = pin_adam(model);
  const core::CheckpointMeta meta = pin_meta();
  const std::string ckpt = core::encode_checkpoint(meta, model, opt);
  PinModel blank;
  for (ag::Tensor& p : blank.ps) p = ag::Tensor::zeros(p.shape());
  ag::Adam blank_opt(1e-3f);
  blank_opt.add_params(blank.ps);
  std::istringstream ckpt_in(ckpt);
  const core::CheckpointMeta meta_back =
      core::load_checkpoint(ckpt_in, blank, blank_opt);
  EXPECT_EQ(meta_back.epoch, meta.epoch);
  EXPECT_EQ(meta_back.step, meta.step);
  EXPECT_EQ(meta_back.rng_state, meta.rng_state);
  ASSERT_EQ(meta_back.curve.size(), meta.curve.size());
  EXPECT_EQ(meta_back.curve[1].test_acc, meta.curve[1].test_acc);
  EXPECT_EQ(weights_of(blank), weights_of(model));
  EXPECT_EQ(core::encode_checkpoint(meta_back, blank, blank_opt), ckpt);

  PinModel blank2;
  for (ag::Tensor& p : blank2.ps) p = ag::Tensor::zeros(p.shape());
  std::stringstream weights;
  nn::save_weights(model, weights);
  nn::load_weights(blank2, weights);
  EXPECT_EQ(weights_of(blank2), weights_of(model));

  std::stringstream adam;
  opt.save_state(adam);
  ag::Adam opt_back(1e-3f);
  opt_back.add_params(blank2.ps);
  opt_back.load_state(adam);
  std::ostringstream adam_again;
  opt_back.save_state(adam_again);
  EXPECT_EQ(adam_again.str(), adam.str());
}

TEST(FormatPin, WeightRecordsReadBackToBack) {
  // A stream of several weight records (an ensemble file) reads one record
  // per call: each load consumes exactly its own bytes.
  PinModel a;
  PinModel b;
  b.ps[0].data()[0] = 9.0f;
  std::stringstream both;
  nn::save_weights(a, both);
  nn::save_weights(b, both);
  PinModel back_a, back_b;
  nn::load_weights(back_a, both);
  nn::load_weights(back_b, both);
  EXPECT_EQ(weights_of(back_a), weights_of(a));
  EXPECT_EQ(weights_of(back_b), weights_of(b));
}

// Regression case from the mutation run below: an empty f32 row decoded
// into an empty span, whose null data pointer reached memcpy (UBSan).
TEST(LoaderFuzz, EmptyFloatRowsDecode) {
  data::Dataset ds = pin_dataset();
  ds.samples[0].node_static[1].clear();
  ds.samples[0].aw_dist[0].clear();
  std::istringstream in(dataset_bytes(ds));
  const data::Dataset back = data::load_dataset(in);
  EXPECT_TRUE(back.samples[0].node_static[1].empty());
  EXPECT_TRUE(back.samples[0].aw_dist[0].empty());
  EXPECT_EQ(dataset_bytes(back), dataset_bytes(ds));
}

/// Values an aligned u32/u64 field is overwritten with: all-ones, top bits,
/// and values at or near the loaders' caps (2^24 in both u32 halves hits
/// a two-field size like the inst2vec vocabulary x dimension).
constexpr std::uint64_t kHugeValues[] = {
    ~0ull,       1ull << 63, 1ull << 60, 0x0100'0000'0100'0000ull,
    1ull << 32,  0xFFFF'FFFFull, 1ull << 31, 1ull << 26,
    1ull << 24,  0x00FF'0000ull};

constexpr int kMutationsPerKind = 250;

/// A fixed, seeded set of damaged copies of `seed`: byte flips,
/// truncations, splices (a run of the seed copied over or into another
/// position) and aligned u32/u64 overwrites with huge values.
std::vector<std::string> mutations(const std::string& seed,
                                   std::uint64_t stream) {
  par::Rng rng(stream);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_u64(n));
  };
  std::vector<std::string> out;
  for (int i = 0; i < kMutationsPerKind; ++i) {
    std::string flip = seed;
    flip[pick(seed.size())] ^= static_cast<char>(1 + pick(255));
    out.push_back(std::move(flip));

    out.push_back(seed.substr(0, pick(seed.size())));

    const std::size_t from = pick(seed.size());
    const std::size_t to = pick(seed.size());
    const std::size_t len = 1 + pick(std::min<std::size_t>(64, seed.size() - from));
    const std::size_t resume = std::min(seed.size(), to + (i % 2 == 0 ? len : 0));
    out.push_back(seed.substr(0, to) + seed.substr(from, len) +
                  seed.substr(resume));

    const std::size_t width = rng.bernoulli(0.5) ? 4 : 8;
    const std::size_t at = width * pick(seed.size() / width);
    const std::uint64_t value = kHugeValues[pick(std::size(kHugeValues))];
    std::string big = seed;
    for (std::size_t b = 0; b < width; ++b) {
      big[at + b] = static_cast<char>(value >> (8 * b));
    }
    out.push_back(std::move(big));
  }
  return out;
}

TEST(LoaderFuzz, DamagedCopiesDecodeOrThrowRuntimeError) {
  std::uint64_t stream = 0;
  for (const Format& f : formats()) {
    const std::vector<std::string> damaged = mutations(f.encoding, ++stream);
    std::size_t rejected = 0;
    const MallocLimit limit;
    for (std::size_t i = 0; i < damaged.size(); ++i) {
      try {
        f.decode(damaged[i]);
      } catch (const std::runtime_error&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << f.name << " mutation " << i << " threw "
                      << typeid(e).name() << ": " << e.what();
      } catch (...) {
        ADD_FAILURE() << f.name << " mutation " << i
                      << " threw a non-std exception";
      }
    }
    // Every truncation at least must be caught.
    EXPECT_GE(rejected, static_cast<std::size_t>(kMutationsPerKind)) << f.name;
  }
}

}  // namespace
