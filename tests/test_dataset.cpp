// Corpus and dataset-construction tests: Table II loop populations, label
// sanity per pattern, split/balance invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <string_view>

#include "data/dataset.hpp"
#include "data/serialize.hpp"
#include "frontend/lower.hpp"
#include "obs/trace.hpp"
#include "pipe/item.hpp"
#include "transform/passes.hpp"

namespace {

using namespace mvgnn;
using data::Pattern;

data::Dataset small_dataset() {
  // A small but pattern-diverse corpus keeps this test fast.
  std::vector<data::ProgramSpec> programs;
  par::Rng rng(7);
  const Pattern pats[] = {
      Pattern::VecMap,         Pattern::ReduceSum,    Pattern::ReduceMax,
      Pattern::Recurrence,     Pattern::PrivTemp,     Pattern::PrivArrayTemp,
      Pattern::IndirectGather, Pattern::IndirectScatter,
      Pattern::EarlyExit,      Pattern::MatMulNest,   Pattern::Jacobi2D,
      Pattern::Seidel2D,       Pattern::CallMapPure,  Pattern::ColdPath,
      Pattern::DisjointCopy,   Pattern::ArrayAccumNest,
  };
  int i = 0;
  for (const Pattern p : pats) {
    data::ProgramSpec ps;
    ps.suite = "Test";
    ps.app = "t";
    ps.pattern = p;
    ps.kernel = data::generate_kernel(p, "t_k" + std::to_string(i++), rng);
    programs.push_back(std::move(ps));
  }
  data::DatasetOptions opts;
  opts.seed = 11;
  std::size_t skipped = 99;
  data::Dataset ds = data::build_dataset(programs, opts, &skipped);
  EXPECT_EQ(skipped, 0u);
  return ds;
}

TEST(Corpus, Table2LoopCountsMatchThePaper) {
  const auto programs = data::build_benchmark_corpus(123);
  std::map<std::string, int> loops;
  for (const auto& p : programs) loops[p.app] += p.kernel.for_loops;
  EXPECT_EQ(loops["BT"], 184);
  EXPECT_EQ(loops["SP"], 252);
  EXPECT_EQ(loops["LU"], 173);
  EXPECT_EQ(loops["IS"], 25);
  EXPECT_EQ(loops["EP"], 10);
  EXPECT_EQ(loops["CG"], 32);
  EXPECT_EQ(loops["MG"], 74);
  EXPECT_EQ(loops["FT"], 37);
  EXPECT_EQ(loops["2mm"], 17);
  EXPECT_EQ(loops["jacobi-2d"], 10);
  EXPECT_EQ(loops["syr2k"], 11);
  EXPECT_EQ(loops["trmm"], 9);
  EXPECT_EQ(loops["fib"], 2);
  EXPECT_EQ(loops["nqueens"], 4);
  int total = 0;
  for (const auto& [app, n] : loops) total += n;
  EXPECT_EQ(total, 840);
}

TEST(Corpus, EveryBenchmarkProgramCompilesAndProfiles) {
  const auto programs = data::build_benchmark_corpus(123);
  std::size_t skipped = 0;
  data::DatasetOptions opts;
  opts.walk.gamma = 8;  // keep this test fast
  const data::Dataset ds = data::build_dataset(programs, opts, &skipped);
  EXPECT_EQ(skipped, 0u);
  // Every for-loop became exactly one sample.
  EXPECT_EQ(ds.samples.size(), 840u);
}

TEST(Dataset, SampleShapesAreConsistent) {
  const data::Dataset ds = small_dataset();
  ASSERT_FALSE(ds.samples.empty());
  for (const auto& s : ds.samples) {
    EXPECT_GE(s.n, 1u);
    ASSERT_EQ(s.node_static.size(), s.n);
    ASSERT_EQ(s.node_dynamic.size(), s.n);
    ASSERT_EQ(s.aw_dist.size(), s.n);
    for (const auto& row : s.node_static) {
      EXPECT_EQ(row.size(), ds.static_dim);
    }
    for (const auto& row : s.aw_dist) {
      EXPECT_EQ(row.size(), ds.aw_vocab);
    }
    for (const auto& [a, b] : s.edges) {
      EXPECT_LT(a, s.n);
      EXPECT_LT(b, s.n);
    }
  }
}

TEST(Dataset, PatternLabelsMatchExpectations) {
  const data::Dataset ds = small_dataset();
  auto label_of = [&](const std::string& kernel_prefix, int loop_index) {
    int seen = 0;
    for (const auto& s : ds.samples) {
      if (s.kernel.rfind(kernel_prefix, 0) == 0) {
        if (seen++ == loop_index) return s.label;
      }
    }
    ADD_FAILURE() << "no sample for " << kernel_prefix;
    return -1;
  };
  EXPECT_EQ(label_of("t_k0", 0), 1);  // VecMap -> parallel
  EXPECT_EQ(label_of("t_k1", 0), 1);  // ReduceSum -> parallel (reduction)
  EXPECT_EQ(label_of("t_k2", 0), 1);  // ReduceMax -> parallel (expert)
  EXPECT_EQ(label_of("t_k3", 0), 0);  // Recurrence -> sequential
  EXPECT_EQ(label_of("t_k4", 0), 1);  // PrivTemp -> parallel
  EXPECT_EQ(label_of("t_k8", 0), 0);  // EarlyExit -> sequential
}

TEST(Dataset, BinaryLabelIsTheParallelPatterns) {
  // The binary label and the 3-way pattern label come from one oracle
  // verdict: parallel exactly when the pattern is DOALL or reduction.
  data::DatasetOptions opts;
  opts.seed = 5;
  opts.walk.gamma = 8;  // keep this test fast
  const data::Dataset ds =
      data::build_dataset(data::build_generated_corpus(120, 5), opts);
  ASSERT_FALSE(ds.samples.empty());
  std::set<int> patterns;
  for (const auto& s : ds.samples) {
    EXPECT_EQ(s.label, s.pattern_label != 0 ? 1 : 0)
        << s.kernel << " loop line " << s.loop_line;
    patterns.insert(s.pattern_label);
  }
  EXPECT_EQ(patterns, (std::set<int>{0, 1, 2}));
}

TEST(Dataset, ToolVerdictsShowTheCharacteristicGaps) {
  const data::Dataset ds = small_dataset();
  auto find = [&](const std::string& kernel, int loop_index) {
    int seen = 0;
    for (const auto& s : ds.samples) {
      if (s.kernel == kernel && seen++ == loop_index) return &s;
    }
    return static_cast<const data::GraphSample*>(nullptr);
  };
  // ReduceMax (t_k2): expert parallel, DiscoPoP misses min/max reductions.
  const auto* rmax = find("t_k2", 0);
  ASSERT_NE(rmax, nullptr);
  EXPECT_EQ(rmax->label, 1);
  EXPECT_FALSE(rmax->tool_discopop);
  // IndirectGather (t_k6): parallel; the indirection is read-only, so the
  // GCD-based tool can still prove it, but the polyhedral model cannot
  // represent the non-affine subscript at all.
  const auto* gather = find("t_k6", 0);
  ASSERT_NE(gather, nullptr);
  EXPECT_EQ(gather->label, 1);
  EXPECT_TRUE(gather->tool_discopop);
  EXPECT_TRUE(gather->tool_autopar);
  EXPECT_FALSE(gather->tool_pluto);
  // CallMapPure (t_k12): parallel, static tools give up at the call.
  const auto* call = find("t_k12", 0);
  ASSERT_NE(call, nullptr);
  EXPECT_EQ(call->label, 1);
  EXPECT_TRUE(call->tool_discopop);
  EXPECT_FALSE(call->tool_autopar);
}

TEST(Dataset, SplitKeepsKernelsDisjointAndBalanceWorks) {
  const data::Dataset ds = small_dataset();
  const auto [train, test] = data::split_by_kernel(ds, 0.75, 5);
  EXPECT_EQ(train.size() + test.size(), ds.samples.size());
  std::set<std::string> train_kernels, test_kernels;
  for (const auto i : train) train_kernels.insert(ds.samples[i].kernel);
  for (const auto i : test) test_kernels.insert(ds.samples[i].kernel);
  for (const auto& k : train_kernels) {
    EXPECT_EQ(test_kernels.count(k), 0u) << k << " appears on both sides";
  }
  const auto balanced = data::balance_classes(ds, train, 5);
  int pos = 0, neg = 0;
  for (const auto i : balanced) {
    (ds.samples[i].label ? pos : neg)++;
  }
  EXPECT_EQ(pos, neg);
}

TEST(Dataset, AwVocabGrowsInItemOrder) {
  // The replay resolves each item's distinct walks, item by item; the
  // vocabulary must grow exactly as resolving every walk in item -> sample
  // -> node -> walk order would grow it, and every AW view must be the
  // lround(share * gamma) copies of graph::aw_distribution, densified.
  par::Rng rng(29);
  std::vector<data::ProgramSpec> programs;
  int i = 0;
  for (const auto p : {data::Pattern::Jacobi2D, data::Pattern::ReduceSum,
                       data::Pattern::IndirectScatter}) {
    data::ProgramSpec ps;
    ps.suite = "T";
    ps.app = "t";
    ps.pattern = p;
    ps.kernel = data::generate_kernel(p, "aw_k" + std::to_string(i++), rng);
    programs.push_back(std::move(ps));
  }
  data::DatasetOptions opts;
  opts.seed = 23;
  opts.walk.gamma = 12;
  opts.use_ir_variants = true;
  std::size_t skipped = 99;
  const data::Dataset ds = data::build_dataset(programs, opts, &skipped);
  ASSERT_EQ(skipped, 0u);

  graph::AwVocab expected;
  std::vector<std::vector<std::vector<std::uint32_t>>> expected_ids;
  for (const data::ProgramSpec& ps : programs) {
    for (const auto& pipeline : transform::variant_pipelines()) {
      const pipe::ItemFeatures f =
          pipe::run_item(data::item_spec(ps, pipeline.name, opts),
                         data::pipeline_config(opts), nullptr);
      for (const pipe::RawSample& rs : f.samples) {
        auto& nodes = expected_ids.emplace_back();
        for (const auto& walks : rs.node_walks) {
          const auto dist = graph::aw_distribution(walks, expected, true);
          std::vector<std::uint32_t> ids;
          for (std::uint32_t id = 0; id < dist.size(); ++id) {
            const auto cnt = static_cast<std::uint32_t>(
                std::lround(dist[id] * opts.walk.gamma));
            for (std::uint32_t c = 0; c < cnt; ++c) ids.push_back(id);
          }
          nodes.push_back(ids);  // densified below, once the size is final
        }
      }
    }
  }
  EXPECT_EQ(ds.aw_vocab_table.map(), expected.map());
  ASSERT_EQ(ds.aw_vocab, expected.size());
  ASSERT_EQ(ds.samples.size(), expected_ids.size());
  for (std::size_t s = 0; s < ds.samples.size(); ++s) {
    ASSERT_EQ(ds.samples[s].aw_dist.size(), expected_ids[s].size());
    for (std::size_t k = 0; k < expected_ids[s].size(); ++k) {
      const auto& ids = expected_ids[s][k];
      std::vector<float> d(ds.aw_vocab, 0.0f);
      if (!ids.empty()) {
        const float inv = 1.0f / static_cast<float>(ids.size());
        for (const std::uint32_t id : ids) d[id] += inv;
      }
      EXPECT_EQ(ds.samples[s].aw_dist[k], d) << "sample " << s << " node " << k;
    }
  }

  std::stringstream a, b;
  data::save_dataset(ds, a);
  data::save_dataset(data::build_dataset(programs, opts), b);
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace

namespace serialize_tests {

using namespace mvgnn;

TEST(Serialize, DatasetRoundTripsExactly) {
  par::Rng rng(3);
  std::vector<data::ProgramSpec> programs;
  for (const auto p : {data::Pattern::ReduceSum, data::Pattern::OffsetStencil,
                       data::Pattern::MatMulNest}) {
    data::ProgramSpec ps;
    ps.suite = "T";
    ps.app = "t";
    ps.pattern = p;
    ps.kernel = data::generate_kernel(p, std::string("sk_") +
                                             data::pattern_name(p), rng);
    programs.push_back(std::move(ps));
  }
  data::DatasetOptions opts;
  opts.walk.gamma = 8;
  const data::Dataset ds = data::build_dataset(programs, opts);

  std::stringstream buf;
  data::save_dataset(ds, buf);
  const data::Dataset back = data::load_dataset(buf);

  EXPECT_EQ(back.static_dim, ds.static_dim);
  EXPECT_EQ(back.aw_vocab, ds.aw_vocab);
  EXPECT_EQ(back.token_vocab.size(), ds.token_vocab.size());
  EXPECT_EQ(back.aw_vocab_table.size(), ds.aw_vocab_table.size());
  ASSERT_EQ(back.samples.size(), ds.samples.size());
  for (std::size_t i = 0; i < ds.samples.size(); ++i) {
    const auto& a = ds.samples[i];
    const auto& b = back.samples[i];
    EXPECT_EQ(a.n, b.n);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_EQ(a.edge_kinds, b.edge_kinds);
    EXPECT_EQ(a.node_static, b.node_static);
    EXPECT_EQ(a.aw_dist, b.aw_dist);
    EXPECT_EQ(a.node_dynamic, b.node_dynamic);
    EXPECT_EQ(a.loop_features, b.loop_features);
    EXPECT_EQ(a.token_seq, b.token_seq);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.pattern_label, b.pattern_label);
    EXPECT_EQ(a.tool_autopar, b.tool_autopar);
    EXPECT_EQ(a.tool_pluto, b.tool_pluto);
    EXPECT_EQ(a.tool_discopop, b.tool_discopop);
    EXPECT_EQ(a.suite, b.suite);
    EXPECT_EQ(a.kernel, b.kernel);
    EXPECT_EQ(a.loop_line, b.loop_line);
  }
  // inst2vec rows survive bit-exactly.
  for (std::uint32_t v = 0; v < ds.inst2vec.vocab_size(); ++v) {
    const auto ra = ds.inst2vec.row(v);
    const auto rb = back.inst2vec.row(v);
    for (std::size_t d = 0; d < ra.size(); ++d) {
      EXPECT_EQ(ra[d], rb[d]);
    }
  }
}

TEST(Serialize, RejectsGarbageAndTruncation) {
  std::stringstream garbage("this is not a dataset");
  EXPECT_THROW((void)data::load_dataset(garbage), std::runtime_error);

  // Truncated valid stream.
  par::Rng rng(5);
  data::ProgramSpec ps;
  ps.suite = "T";
  ps.app = "t";
  ps.pattern = data::Pattern::VecMap;
  ps.kernel = data::generate_kernel(data::Pattern::VecMap, "sk_trunc", rng);
  data::DatasetOptions opts;
  opts.walk.gamma = 4;
  const data::Dataset ds = data::build_dataset({ps}, opts);
  std::stringstream buf;
  data::save_dataset(ds, buf);
  const std::string full = buf.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW((void)data::load_dataset(cut), std::runtime_error);
}

}  // namespace serialize_tests

namespace featurize_tests {

using namespace mvgnn;

TEST(Featurize, UnseenProgramMatchesReferenceWidths) {
  // Reference corpus.
  auto programs = data::build_generated_corpus(120, 33);
  data::DatasetOptions opts;
  opts.seed = 3;
  const data::Dataset ds = data::build_dataset(programs, opts);

  // A brand-new program (not in the corpus).
  par::Rng rng(99);
  data::ProgramSpec fresh;
  fresh.suite = "User";
  fresh.app = "user";
  fresh.pattern = data::Pattern::StencilCopy;
  fresh.kernel =
      data::generate_kernel(data::Pattern::StencilCopy, "fresh", rng);

  const auto samples = data::featurize_program(fresh, ds, opts);
  ASSERT_EQ(samples.size(), 1u);
  const auto& s = samples[0];
  EXPECT_EQ(s.label, 1);  // out-of-place stencil is parallel
  ASSERT_EQ(s.node_static.size(), s.n);
  for (const auto& row : s.node_static) {
    EXPECT_EQ(row.size(), ds.static_dim);
  }
  for (const auto& row : s.aw_dist) {
    EXPECT_EQ(row.size(), ds.aw_vocab);  // frozen vocab width
  }
  // Frozen vocabularies must not have grown.
  EXPECT_EQ(ds.aw_vocab_table.size(), ds.aw_vocab);
}

TEST(Featurize, UnseenWalksShareTheUnknownSlot) {
  // A reference too small to have seen the walks of a 2-D stencil nest:
  // several distinct walks resolve to slot 0 and must count as one id.
  par::Rng rng(8);
  data::ProgramSpec tiny;
  tiny.suite = "T";
  tiny.app = "t";
  tiny.kernel = data::generate_kernel(data::Pattern::VecMap, "uw_ref", rng);
  data::DatasetOptions opts;
  opts.seed = 6;
  opts.walk.gamma = 16;
  const data::Dataset ds = data::build_dataset({tiny}, opts);

  data::ProgramSpec fresh;
  fresh.suite = "User";
  fresh.app = "user";
  fresh.kernel = data::generate_kernel(data::Pattern::Seidel2D, "uw_new", rng);
  const auto samples = data::featurize_program(fresh, ds, opts);
  const pipe::ItemFeatures f =
      pipe::run_item(data::item_spec(fresh, "", opts),
                     data::pipeline_config(opts), nullptr);
  ASSERT_EQ(samples.size(), f.samples.size());
  graph::AwVocab frozen = ds.aw_vocab_table;
  bool saw_unknown = false;
  for (std::size_t s = 0; s < samples.size(); ++s) {
    const auto& node_walks = f.samples[s].node_walks;
    ASSERT_EQ(samples[s].aw_dist.size(), node_walks.size());
    for (std::size_t k = 0; k < node_walks.size(); ++k) {
      const auto dist = graph::aw_distribution(node_walks[k], frozen, false);
      std::vector<std::uint32_t> ids;
      for (std::uint32_t id = 0; id < dist.size(); ++id) {
        const auto cnt = static_cast<std::uint32_t>(
            std::lround(dist[id] * opts.walk.gamma));
        for (std::uint32_t c = 0; c < cnt; ++c) ids.push_back(id);
      }
      std::vector<float> d(ds.aw_vocab, 0.0f);
      if (!ids.empty()) {
        const float inv = 1.0f / static_cast<float>(ids.size());
        for (const std::uint32_t id : ids) d[id] += inv;
      }
      saw_unknown = saw_unknown || (!ids.empty() && ids.front() == 0);
      EXPECT_EQ(samples[s].aw_dist[k], d) << "sample " << s << " node " << k;
    }
  }
  EXPECT_TRUE(saw_unknown);
  EXPECT_EQ(frozen.size(), ds.aw_vocab);
}

TEST(Featurize, WorksAfterDatasetReload) {
  auto programs = data::build_generated_corpus(60, 44);
  data::DatasetOptions opts;
  opts.seed = 4;
  opts.walk.gamma = 8;
  const data::Dataset ds = data::build_dataset(programs, opts);
  std::stringstream buf;
  data::save_dataset(ds, buf);
  const data::Dataset back = data::load_dataset(buf);

  par::Rng rng(5);
  data::ProgramSpec fresh;
  fresh.suite = "User";
  fresh.app = "user";
  fresh.kernel = data::generate_kernel(data::Pattern::ReduceSum, "fr", rng);
  const auto a = data::featurize_program(fresh, ds, opts);
  const auto b = data::featurize_program(fresh, back, opts);
  ASSERT_EQ(a.size(), b.size());
  // Identical featurization from the reloaded dataset.
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node_static, b[i].node_static);
    EXPECT_EQ(a[i].aw_dist, b[i].aw_dist);
    EXPECT_EQ(a[i].label, b[i].label);
  }
}

TEST(Featurize, CorpusProgramReproducesItsBuildTimeSamples) {
  // Serve time must see exactly what training saw: one seeding rule for
  // build_dataset and featurize_program, with dependence noise on so the
  // noise stream is exercised too.
  par::Rng rng(21);
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
      ps.kernel = data::generate_kernel(p, "sb_k" + std::to_string(i++), rng);
      programs.push_back(std::move(ps));
    }
  }
  data::DatasetOptions opts;
  opts.seed = 17;
  opts.walk.gamma = 8;
  opts.dep_noise = 0.3;
  const data::Dataset ds = data::build_dataset(programs, opts);

  std::size_t next = 0;
  for (const data::ProgramSpec& ps : programs) {
    const auto served = data::featurize_program(ps, ds, opts);
    for (const data::GraphSample& s : served) {
      ASSERT_LT(next, ds.samples.size());
      const data::GraphSample& built = ds.samples[next++];
      SCOPED_TRACE(ps.kernel.name + " line " + std::to_string(s.loop_line));
      ASSERT_EQ(built.kernel, ps.kernel.name);
      EXPECT_EQ(s.edges, built.edges);
      EXPECT_EQ(s.edge_kinds, built.edge_kinds);
      EXPECT_EQ(s.node_static, built.node_static);
      EXPECT_EQ(s.node_dynamic, built.node_dynamic);
      EXPECT_EQ(s.aw_dist, built.aw_dist);
      EXPECT_EQ(s.loop_features, built.loop_features);
      EXPECT_EQ(s.label, built.label);
    }
  }
  EXPECT_EQ(next, ds.samples.size());
}

TEST(Featurize, SourceMatchesProgramWithDefaultArgs) {
  // featurize_source is featurize_program with profiler::default_args of
  // the entry, built after one parse and one lower of the source.
  const data::Dataset ds = small_dataset();
  const std::string source = R"(
float kernel(int n, float[] a, float[] b) {
  for (int i = 0; i < n; i += 1) {
    b[i] = a[i] * 2.0;
  }
  float s = 0.0;
  for (int i = 1; i < n; i += 1) {
    a[i] = a[i - 1] + b[i];
    s = s + a[i];
  }
  return s;
}
)";
  data::DatasetOptions opts;
  opts.seed = 11;

  auto& rec = obs::TraceRecorder::global();
  rec.clear();
  rec.enable();
  const auto got = data::featurize_source(source, ds, opts);
  rec.disable();
  std::size_t parses = 0, lowers = 0;
  for (const obs::SpanEvent& e : rec.events()) {
    parses += std::string_view(e.name) == "pipe.parse";
    lowers += std::string_view(e.name) == "pipe.lower";
  }
  rec.clear();
  EXPECT_EQ(parses, 1u);
  EXPECT_EQ(lowers, 1u);

  data::ProgramSpec program;
  program.kernel.name = "request";
  program.kernel.source = source;
  const ir::Module m = frontend::compile(source, "request");
  program.kernel.args = profiler::default_args(*m.find("kernel"));
  ASSERT_EQ(program.kernel.args.size(), 3u);
  EXPECT_EQ(program.kernel.args[1].fill_seed, 2u);
  const auto want = data::featurize_program(program, ds, opts);

  ASSERT_EQ(got.size(), 2u);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    EXPECT_EQ(got[i].n, want[i].n);
    EXPECT_EQ(got[i].edges, want[i].edges);
    EXPECT_EQ(got[i].edge_kinds, want[i].edge_kinds);
    EXPECT_EQ(got[i].node_static, want[i].node_static);
    EXPECT_EQ(got[i].node_dynamic, want[i].node_dynamic);
    EXPECT_EQ(got[i].aw_dist, want[i].aw_dist);
    EXPECT_EQ(got[i].loop_features, want[i].loop_features);
    EXPECT_EQ(got[i].token_seq, want[i].token_seq);
    EXPECT_EQ(got[i].label, want[i].label);
    EXPECT_EQ(got[i].pattern_label, want[i].pattern_label);
    EXPECT_EQ(got[i].tool_autopar, want[i].tool_autopar);
    EXPECT_EQ(got[i].tool_pluto, want[i].tool_pluto);
    EXPECT_EQ(got[i].tool_discopop, want[i].tool_discopop);
    EXPECT_EQ(got[i].kernel, want[i].kernel);
    EXPECT_EQ(got[i].loop_line, want[i].loop_line);
  }
}

}  // namespace featurize_tests
