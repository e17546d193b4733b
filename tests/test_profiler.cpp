// Dependence recorder precision: RAW/WAR/WAW kinds, loop-carried vs
// iteration-local classification, nested carriers, cross-instance behaviour,
// CU construction, Table I loop features, a differential check of the
// recorder against the reference hash-map implementation, and profiles of
// every generator family pinned as digests (EngineGolden).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>

#include "cache/key.hpp"
#include "data/kernels.hpp"
#include "frontend/lower.hpp"
#include "profiler/dep_recorder.hpp"
#include "profiler/profile.hpp"
#include "reference_dep_recorder.hpp"
#include "transform/passes.hpp"

namespace {

using namespace mvgnn;
using profiler::ArgInit;
using profiler::DepEdge;
using profiler::DepType;

profiler::ProfileResult prof(const char* src, std::vector<ArgInit> args) {
  // The module must outlive the profile (it holds Function pointers); keep
  // every test module alive for the process lifetime.
  static std::vector<std::unique_ptr<ir::Module>> keep;
  keep.push_back(std::make_unique<ir::Module>(frontend::compile(src, "t")));
  return profiler::profile(*keep.back(), "kernel", args);
}

/// Finds the first edge of `type` on an object named `obj`.
const DepEdge* find_edge(const profiler::ProfileResult& r, DepType type,
                         const std::string& obj) {
  for (const DepEdge& e : r.dep.edges) {
    if (e.type == type && r.dep.objects.object(e.object).name == obj) {
      return &e;
    }
  }
  return nullptr;
}

TEST(DepRecorder, ClassifiesCarriedRawOnRecurrence) {
  auto r = prof(R"(
const int N = 16;
void kernel(float[] a) {
  for (int i = 1; i < N; i += 1) {
    a[i] = a[i - 1] + 1.0;
  }
}
)",
                {ArgInit::of_array(16)});
  const DepEdge* raw = find_edge(r, DepType::RAW, "a");
  ASSERT_NE(raw, nullptr);
  EXPECT_TRUE(raw->loop_carried());
  EXPECT_EQ(raw->intra_count, 0u);
}

TEST(DepRecorder, SameIndexAccessIsIntraIterationOnly) {
  // a[i] read then written in the same iteration: the read-before-write
  // pair is a WAR dependence that must never be flagged loop-carried.
  auto r = prof(R"(
const int N = 16;
void kernel(float[] a) {
  for (int i = 0; i < N; i += 1) {
    a[i] = a[i] * 2.0;
  }
}
)",
                {ArgInit::of_array(16)});
  const DepEdge* war = find_edge(r, DepType::WAR, "a");
  ASSERT_NE(war, nullptr);
  EXPECT_FALSE(war->loop_carried());
  EXPECT_EQ(war->intra_count, 16u);
  // And a read-modify-write pair becomes an intra RAW once a store exists.
  auto r2 = prof(R"(
const int N = 16;
void kernel(float[] a) {
  for (int i = 0; i < N; i += 1) {
    a[i] = 1.0;
    a[i] = a[i] * 2.0;
  }
}
)",
                 {ArgInit::of_array(16)});
  const DepEdge* raw = find_edge(r2, DepType::RAW, "a");
  ASSERT_NE(raw, nullptr);
  EXPECT_FALSE(raw->loop_carried());
}

TEST(DepRecorder, AntiDependenceIsWarCarried) {
  auto r = prof(R"(
const int N = 16;
void kernel(float[] a) {
  for (int i = 0; i < N - 1; i += 1) {
    a[i] = a[i + 1] * 0.5;
  }
}
)",
                {ArgInit::of_array(16)});
  const DepEdge* war = find_edge(r, DepType::WAR, "a");
  ASSERT_NE(war, nullptr);
  EXPECT_TRUE(war->loop_carried());
  EXPECT_EQ(find_edge(r, DepType::RAW, "a"), nullptr);
}

TEST(DepRecorder, OutputDependenceIsWawCarried) {
  auto r = prof(R"(
const int N = 16;
void kernel(float[] a, float[] b) {
  for (int i = 0; i < N; i += 1) {
    a[0] = b[i];
  }
}
)",
                {ArgInit::of_array(16), ArgInit::of_array(16)});
  const DepEdge* waw = find_edge(r, DepType::WAW, "a");
  ASSERT_NE(waw, nullptr);
  EXPECT_TRUE(waw->loop_carried());
}

TEST(DepRecorder, NestedLoopsCarryAtTheRightLevel) {
  auto r = prof(R"(
const int N = 8;
void kernel(float[] a) {
  for (int i = 1; i < N; i += 1) {
    for (int j = 0; j < N; j += 1) {
      a[i * N + j] = a[(i - 1) * N + j] + 1.0;
    }
  }
}
)",
                {ArgInit::of_array(64)});
  // The i-1 -> i dependence must be carried by the OUTER loop (loop 0),
  // never by the inner one.
  const DepEdge* raw = find_edge(r, DepType::RAW, "a");
  ASSERT_NE(raw, nullptr);
  ASSERT_EQ(raw->carried.size(), 1u);
  EXPECT_EQ(raw->carried[0].first.loop, 0u);
}

TEST(DepRecorder, CrossInstanceIsNotCarried) {
  // Two back-to-back loops over the same array: deps between them are
  // loop-independent with respect to either loop.
  auto r = prof(R"(
const int N = 8;
void kernel(float[] a, float[] b) {
  for (int i = 0; i < N; i += 1) {
    a[i] = 1.5;
  }
  for (int j = 0; j < N; j += 1) {
    b[j] = a[j];
  }
}
)",
                {ArgInit::of_array(8), ArgInit::of_array(8)});
  const DepEdge* raw = find_edge(r, DepType::RAW, "a");
  ASSERT_NE(raw, nullptr);
  EXPECT_FALSE(raw->loop_carried());
  EXPECT_EQ(raw->intra_count, 8u);
}

TEST(DepRecorder, LoopRuntimeCountsBodiesAndInstances) {
  auto r = prof(R"(
const int N = 6;
void kernel(float[] a) {
  for (int i = 0; i < N; i += 1) {
    for (int j = 0; j < 4; j += 1) {
      a[j] = a[j] + 1.0;
    }
  }
}
)",
                {ArgInit::of_array(8)});
  ASSERT_EQ(r.loops.size(), 2u);
  EXPECT_EQ(r.loops[0].features.exec_times, 6u);     // outer iterations
  EXPECT_EQ(r.loops[1].features.exec_times, 24u);    // 6 instances x 4
  const auto rt =
      r.dep.loop_runtime.at(profiler::LoopRef{r.loops[1].fn, r.loops[1].loop});
  EXPECT_EQ(rt.instances, 6u);
}

TEST(DepRecorder, CalleeAccessesAttributeToCallerLoops) {
  auto r = prof(R"(
const int N = 8;
void bump(float[] acc) {
  acc[0] = acc[0] + 1.0;
}
void kernel(float[] acc) {
  for (int i = 0; i < N; i += 1) {
    bump(acc);
  }
}
)",
                {ArgInit::of_array(4)});
  // The accumulation happens inside bump(), yet it must show up as carried
  // by kernel's loop: the loop stack is not popped across calls.
  const DepEdge* raw = find_edge(r, DepType::RAW, "acc");
  ASSERT_NE(raw, nullptr);
  EXPECT_TRUE(raw->loop_carried());
}

TEST(DepRecorder, WriteInFirstLoopReadAfterItIsNotCarried) {
  // The root context (outside every loop) and a top-level loop's context
  // share a parent. A write in the first loop instance read after the loop,
  // at top level and inside a callee, is loop-independent.
  auto r = prof(R"(
float peek(float[] a) {
  return a[3];
}
float kernel(float[] a) {
  for (int i = 0; i < 8; i += 1) {
    a[i] = 2.0;
  }
  float x = a[5];
  return x + peek(a);
}
)",
                {ArgInit::of_array(8)});
  std::size_t raws = 0;
  for (const DepEdge& e : r.dep.edges) {
    if (e.type != DepType::RAW || r.dep.objects.object(e.object).name != "a") {
      continue;
    }
    ++raws;
    EXPECT_FALSE(e.loop_carried()) << "sink in @" << e.dst.fn->name;
    EXPECT_EQ(e.intra_count, e.total_count);
  }
  EXPECT_EQ(raws, 2u);  // the top-level read and the callee's read
  for (const auto& [loop, objs] : r.dep.loop_objects) {
    for (const auto& [obj, sum] : objs) {
      if (r.dep.objects.object(obj).name != "a") continue;
      EXPECT_FALSE(sum.carried_raw);
    }
  }
}

TEST(Cu, Figure4ExampleYieldsTwoCus) {
  // The paper's Fig. 4 shape: x's read-compute-write chain and y's chain
  // form two separate CUs.
  const ir::Module m = frontend::compile(R"(
void kernel(float a, float b, float[] out) {
  float x = a * 2.0;
  float y = b + 1.0;
  float u = x * x;
  float v = x + 3.0;
  x = u + v;
  float w = y * y;
  y = w + 2.0;
  out[0] = x;
  out[1] = y;
}
)",
                                         "t");
  const auto cus = profiler::build_cus(*m.find("kernel"));
  // Exactly the x-chain and the y-chain, as in the paper's figure.
  ASSERT_EQ(cus.size(), 2u);
  EXPECT_GT(cus[0].instrs.size(), 5u);
  EXPECT_GT(cus[1].instrs.size(), 5u);
  // The chains end at their respective output lines (10 for x, 11 for y).
  const int last0 = cus[0].end_line, last1 = cus[1].end_line;
  EXPECT_EQ(std::min(last0, last1), 10);
  EXPECT_EQ(std::max(last0, last1), 11);
}

TEST(Cu, MembersShareTheInnermostCommonLoop) {
  const ir::Module m = frontend::compile(R"(
const int N = 4;
void kernel(float[] a) {
  for (int i = 0; i < N; i += 1) {
    a[i] = a[i] * 2.0;
  }
}
)",
                                         "t");
  const auto cus = profiler::build_cus(*m.find("kernel"));
  bool loop_cu = false;
  for (const auto& cu : cus) {
    if (cu.loop != ir::kNoLoop) loop_cu = true;
  }
  EXPECT_TRUE(loop_cu);
}

TEST(LoopFeatures, InternalDepCountsOnlyCarriedNonInduction) {
  auto clean = prof(R"(
const int N = 16;
void kernel(float[] a, float[] b) {
  for (int i = 0; i < N; i += 1) {
    b[i] = a[i] * 2.0;
  }
}
)",
                    {ArgInit::of_array(16), ArgInit::of_array(16)});
  EXPECT_EQ(clean.loops[0].features.internal_dep, 0u);

  auto carried = prof(R"(
const int N = 16;
void kernel(float[] a) {
  for (int i = 1; i < N; i += 1) {
    a[i] = a[i - 1] + 1.0;
  }
}
)",
                      {ArgInit::of_array(16)});
  EXPECT_GT(carried.loops[0].features.internal_dep, 0u);
}

TEST(LoopFeatures, EspIsAtLeastOneAndCflPositive) {
  auto r = prof(R"(
const int N = 16;
void kernel(float[] a, float[] b) {
  for (int i = 0; i < N; i += 1) {
    b[i] = sqrt(fabs(a[i])) * 2.0 + 1.0;
  }
}
)",
                {ArgInit::of_array(16), ArgInit::of_array(16)});
  const auto& f = r.loops[0].features;
  EXPECT_GE(f.esp, 1.0);
  EXPECT_GT(f.cfl, 0.0);
  EXPECT_GT(f.n_inst, 0u);
}

TEST(Profiler, ObserverOverheadIsPureAddition) {
  // The unobserved run and the profiling run must execute the same dynamic
  // instruction count.
  const ir::Module m = frontend::compile(R"(
const int N = 32;
float kernel(float[] a) {
  float s = 0.0;
  for (int i = 0; i < N; i += 1) {
    s = s + a[i];
  }
  return s;
}
)",
                                         "t");
  std::vector<ArgInit> args = {ArgInit::of_array(32)};
  const auto plain = profiler::run_capture(m, "kernel", args).run;
  const auto full = profiler::profile(m, "kernel", args);
  EXPECT_EQ(plain.steps, full.run.steps);
}

// ---------------------------------------------------------------------------
// Differential check: DepRecorder against the reference recorder it
// replaced (tests/reference_dep_recorder.*). Every field of DepProfile must
// agree; `carried` is compared as a set because its order is unspecified.
// ---------------------------------------------------------------------------

bool same_summary(const profiler::ObjLoopSummary& a,
                  const profiler::ObjLoopSummary& b) {
  return a.carried_raw == b.carried_raw && a.carried_war == b.carried_war &&
         a.carried_waw == b.carried_waw &&
         a.carried_raw_pairs == b.carried_raw_pairs;
}

bool same_carried(const DepEdge& a, const DepEdge& b) {
  if (a.carried.size() != b.carried.size()) return false;
  return std::all_of(a.carried.begin(), a.carried.end(), [&](const auto& c) {
    return std::find(b.carried.begin(), b.carried.end(), c) != b.carried.end();
  });
}

/// Runs `kernel(args...)` of `m` once under each recorder and expects equal
/// profiles. Returns the number of dependence edges compared.
std::size_t expect_same_profile(const ir::Module& m,
                                const std::vector<ArgInit>& args,
                                const std::string& what) {
  SCOPED_TRACE(what);
  profiler::ObjectTable objects, ref_objects;
  profiler::DepRecorder rec(objects);
  profiler::reference::DepRecorder ref(ref_objects);
  const auto run = profiler::run(m, "kernel", args, rec, objects);
  const auto ref_run = profiler::run(m, "kernel", args, ref, ref_objects);
  EXPECT_EQ(run.steps, ref_run.steps);
  const profiler::DepProfile got = rec.finalize();
  const profiler::DepProfile want = ref.finalize();

  EXPECT_EQ(got.edges.size(), want.edges.size());
  for (std::size_t i = 0; i < std::min(got.edges.size(), want.edges.size());
       ++i) {
    const DepEdge& a = got.edges[i];
    const DepEdge& b = want.edges[i];
    EXPECT_TRUE(a.src == b.src && a.dst == b.dst && a.type == b.type)
        << "edge " << i;
    EXPECT_EQ(a.total_count, b.total_count) << "edge " << i;
    EXPECT_EQ(a.intra_count, b.intra_count) << "edge " << i;
    EXPECT_EQ(a.object, b.object) << "edge " << i;
    EXPECT_TRUE(same_carried(a, b)) << "edge " << i;
  }

  EXPECT_EQ(got.loop_runtime.size(), want.loop_runtime.size());
  for (const auto& [loop, rt] : want.loop_runtime) {
    const auto it = got.loop_runtime.find(loop);
    if (it == got.loop_runtime.end()) {
      ADD_FAILURE() << "missing runtime of loop " << loop.loop;
      continue;
    }
    EXPECT_EQ(it->second.instances, rt.instances) << "loop " << loop.loop;
    EXPECT_EQ(it->second.iterations, rt.iterations) << "loop " << loop.loop;
  }

  EXPECT_EQ(got.loop_objects.size(), want.loop_objects.size());
  for (const auto& [loop, objs] : want.loop_objects) {
    const auto it = got.loop_objects.find(loop);
    if (it == got.loop_objects.end()) {
      ADD_FAILURE() << "missing objects of loop " << loop.loop;
      continue;
    }
    EXPECT_EQ(it->second.size(), objs.size()) << "loop " << loop.loop;
    for (const auto& [obj, sum] : objs) {
      const auto jt = it->second.find(obj);
      if (jt == it->second.end()) {
        ADD_FAILURE() << "missing loop " << loop.loop << " obj " << obj;
        continue;
      }
      EXPECT_TRUE(same_summary(jt->second, sum))
          << "loop " << loop.loop << " obj " << obj;
    }
  }

  EXPECT_EQ(got.instr_counts, want.instr_counts);
  return want.edges.size();
}

constexpr std::uint64_t kMatrixSeeds[] = {11, 29};
constexpr int kFamilies = static_cast<int>(data::Pattern::Timestepped) + 1;
constexpr int kVariants = 6;

/// Calls `visit(module, args, seed_index, family, variant_index, what)` for
/// every generator family under every variant pipeline, at each seed of
/// kMatrixSeeds.
template <typename Visit>
void for_each_family_variant(Visit&& visit) {
  ASSERT_EQ(transform::variant_pipelines().size(),
            static_cast<std::size_t>(kVariants));
  for (std::size_t s = 0; s < std::size(kMatrixSeeds); ++s) {
    const std::uint64_t seed = kMatrixSeeds[s];
    for (int p = 0; p < kFamilies; ++p) {
      const auto pattern = static_cast<data::Pattern>(p);
      par::Rng rng(seed * 1000 + static_cast<std::uint64_t>(p));
      const data::GenKernel k = data::generate_kernel(pattern, "diff", rng);
      for (int v = 0; v < kVariants; ++v) {
        const auto& pipeline = transform::variant_pipelines()[v];
        ir::Module m = frontend::compile(k.source, k.name);
        transform::run_pipeline(m, pipeline);
        visit(m, k.args, s, p, v,
              std::string(data::pattern_name(pattern)) + " under " +
                  pipeline.name + " seed " + std::to_string(seed));
      }
    }
  }
}

TEST(DepRecorderDifferential, MatchesReferenceOnEveryFamilyAndVariant) {
  std::size_t edges = 0;
  for_each_family_variant([&](const ir::Module& m,
                              const std::vector<ArgInit>& args, std::size_t,
                              int, int, const std::string& what) {
    edges += expect_same_profile(m, args, what);
  });
  EXPECT_GT(edges, 0u);
}

TEST(DepRecorderDifferential, MatchesReferenceOnHandWrittenShapes) {
  struct Case {
    const char* name;
    const char* src;
    std::vector<ArgInit> args;
  };
  const Case cases[] = {
      {"three-deep nest carried by the outer loop", R"(
void kernel(float[] a) {
  for (int i = 1; i < 4; i += 1) {
    for (int j = 0; j < 4; j += 1) {
      for (int k = 0; k < 4; k += 1) {
        a[i * 16 + j * 4 + k] = a[(i - 1) * 16 + j * 4 + k] + 1.0;
      }
    }
  }
}
)",
       {ArgInit::of_array(64)}},
      {"back-to-back loops", R"(
void kernel(float[] a, float[] b) {
  for (int i = 0; i < 8; i += 1) {
    a[i] = 1.5;
  }
  for (int j = 0; j < 8; j += 1) {
    b[j] = a[j] + a[7 - j];
  }
}
)",
       {ArgInit::of_array(8), ArgInit::of_array(8)}},
      {"dependence through a callee", R"(
float bump(float[] acc, float v) {
  acc[0] = acc[0] + v;
  return acc[0];
}
void kernel(float[] acc, float[] a) {
  for (int i = 0; i < 8; i += 1) {
    for (int j = 0; j < 2; j += 1) {
      a[i] = bump(acc, a[i]);
    }
  }
}
)",
       {ArgInit::of_array(4), ArgInit::of_array(8)}},
      {"recursion with a loop in the recursive function", R"(
int walk(int[] a, int d) {
  if (d == 0) {
    return a[0];
  }
  int s = 0;
  for (int i = 0; i < 3; i += 1) {
    a[d] = a[d] + a[d - 1];
    s = s + walk(a, d - 1);
  }
  return s;
}
int kernel(int[] a) {
  return walk(a, 3);
}
)",
       {ArgInit::of_array(4)}},
      {"zero-trip loop", R"(
float kernel(float[] a, int n) {
  float s = 0.0;
  for (int i = 0; i < n; i += 1) {
    s = s + a[i];
  }
  for (int i = 0; i < 4; i += 1) {
    s = s + a[i];
  }
  return s;
}
)",
       {ArgInit::of_array(4), ArgInit::of_int(0)}},
  };
  for (const Case& c : cases) {
    const ir::Module m = frontend::compile(c.src, "hand");
    expect_same_profile(m, c.args, c.name);
  }

  // The nest's RAW on `a` has exactly one carrier, the outermost loop.
  auto r = prof(cases[0].src, cases[0].args);
  const DepEdge* raw = find_edge(r, DepType::RAW, "a");
  ASSERT_NE(raw, nullptr);
  ASSERT_EQ(raw->carried.size(), 1u);
  EXPECT_EQ(raw->carried[0].first.loop, 0u);
  EXPECT_EQ(raw->carried[0].second, 32u);  // rows 1 and 2 feed rows 2 and 3
}

TEST(DepRecorderDifferential, MatchesReferenceOnBenchmarkShapes) {
  // One analyze-shaped unit: the six loop kinds the serve benchmark
  // generates (map, in-place update, dot, max, prefix recurrence, 3-point
  // stencil), each once over distinct arrays and once over one array,
  // with N below the 4096-element arrays as in the daemon.
  const ir::Module unit = frontend::compile(R"(
const int N = 300;
float kernel(float[] a, float[] b, float[] c) {
  for (int i = 0; i < N; i += 1) { a[i] = b[i] * 1.5 + c[i]; }
  for (int i = 0; i < N; i += 1) { c[i] = c[i] * 0.5 + c[i]; }
  for (int i = 0; i < N; i += 1) { b[i] = b[i] * 0.75 + 1.0; }
  for (int i = 0; i < N; i += 1) { a[i] = a[i] * 1.125 + 1.0; }
  float s4 = 0.0;
  for (int i = 0; i < N; i += 1) { s4 = s4 + a[i] * c[i]; }
  float s5 = 0.0;
  for (int i = 0; i < N; i += 1) { s5 = s5 + b[i] * b[i]; }
  float s6 = 0.0;
  for (int i = 0; i < N; i += 1) { s6 = fmax(s6, b[i] * 1.25); }
  float s7 = 0.0;
  for (int i = 0; i < N; i += 1) { s7 = fmax(s7, c[i] * 0.5); }
  for (int i = 1; i < N; i += 1) { c[i] = c[i - 1] + a[i] * 0.5; }
  for (int i = 1; i < N; i += 1) { b[i] = b[i - 1] + b[i] * 0.25; }
  for (int i = 1; i < N - 1; i += 1) {
    a[i] = 0.25 * b[i - 1] + 0.5 * b[i] + 0.25 * b[i + 1];
  }
  for (int i = 1; i < N - 1; i += 1) {
    c[i] = 0.5 * c[i - 1] + 0.25 * c[i] + 0.75 * c[i + 1];
  }
  return s4 + s5 + s6 + s7;
}
)",
                                            "unit");
  EXPECT_GT(expect_same_profile(unit,
                                {ArgInit::of_array(4096, 1),
                                 ArgInit::of_array(4096, 2),
                                 ArgInit::of_array(4096, 3)},
                                "12-loop unit"),
            0u);

  // The seven kernels of the parallelize benchmark at N = 2^10 (matmul at
  // 16 x 16).
  struct Kernel {
    const char* name;
    const char* src;
    std::vector<ArgInit> args;
  };
  constexpr std::uint64_t n = 1 << 10;
  const Kernel kernels[] = {
      {"saxpy", R"(const int N = 1024;
float kernel(float[] a, float[] b) {
  for (int i = 0; i < N; i += 1) { a[i] = 2.5 * a[i] + b[i]; }
  return a[0];
})",
       {ArgInit::of_array(n, 1), ArgInit::of_array(n, 2)}},
      {"vec_map", R"(const int N = 1024;
int kernel(int[] a, int[] b, int[] c) {
  for (int i = 0; i < N; i += 1) { c[i] = a[i] * 3 + b[i]; }
  return c[0];
})",
       {ArgInit::of_array(n, 1), ArgInit::of_array(n, 2),
        ArgInit::of_array(n, 3)}},
      {"stencil", R"(const int N = 1024;
float kernel(float[] a, float[] b) {
  for (int i = 1; i < N - 1; i += 1) {
    b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
  }
  return b[1];
})",
       {ArgInit::of_array(n, 1), ArgInit::of_array(n, 2)}},
      {"dot_product", R"(const int N = 1024;
float kernel(float[] a, float[] b) {
  float s = 0.0;
  for (int i = 0; i < N; i += 1) { s = s + a[i] * b[i]; }
  return s;
})",
       {ArgInit::of_array(n, 1), ArgInit::of_array(n, 2)}},
      {"reduce_max", R"(const int N = 1024;
float kernel(float[] a) {
  float m = 0.0;
  for (int i = 0; i < N; i += 1) { m = fmax(m, a[i]); }
  return m;
})",
       {ArgInit::of_array(n, 1)}},
      {"histogram", R"(const int N = 1024;
float kernel(int[] bucket, float[] hist) {
  for (int i = 0; i < N; i += 1) { hist[bucket[i]] += 1.0; }
  return hist[0];
})",
       {ArgInit::of_array(n, 1), ArgInit::of_array(n, 2)}},
      {"matmul", R"(const int N = 16;
float kernel(float[] A, float[] B, float[] C) {
  for (int i = 0; i < N; i += 1) {
    for (int j = 0; j < N; j += 1) {
      float acc = 0.0;
      for (int k = 0; k < N; k += 1) {
        acc = acc + A[i * N + k] * B[k * N + j];
      }
      C[i * N + j] = acc;
    }
  }
  return C[0];
})",
       {ArgInit::of_array(256, 1), ArgInit::of_array(256, 2),
        ArgInit::of_array(256, 3)}},
  };
  for (const Kernel& k : kernels) {
    const ir::Module m = frontend::compile(k.src, k.name);
    EXPECT_GT(expect_same_profile(m, k.args, k.name), 0u);
  }
}

// ---------------------------------------------------------------------------
// Engine golden: profiles pinned as digests recorded with the tree-walk
// interpreter that preceded the micro-op engine. Any change to step counts,
// hook order or dependence attribution shows up as a digest mismatch.
// ---------------------------------------------------------------------------

/// Digest of the integer content of a profile: step count, the ordered
/// edges (with `carried` sorted), loop runtimes, loop-object summaries and
/// instruction counts. Functions are named by module index, so the digest
/// does not depend on where the module lives in memory.
std::uint64_t profile_digest(const ir::Module& m,
                             const profiler::ProfileResult& r) {
  auto fn_index = [&](const ir::Function* fn) {
    for (std::size_t i = 0; i < m.functions.size(); ++i) {
      if (m.functions[i].get() == fn) return static_cast<std::uint32_t>(i);
    }
    ADD_FAILURE() << "function outside the module";
    return ~0u;
  };
  auto loop_key = [&](const profiler::LoopRef& l) {
    return std::pair{fn_index(l.fn), l.loop};
  };
  cache::Hasher h;
  h.u64(r.run.steps);

  h.u64(r.dep.edges.size());
  for (const DepEdge& e : r.dep.edges) {
    h.u32(fn_index(e.src.fn)).u32(e.src.id);
    h.u32(fn_index(e.dst.fn)).u32(e.dst.id);
    h.u32(static_cast<std::uint32_t>(e.type));
    h.u64(e.total_count).u64(e.intra_count).u32(e.object);
    std::vector<std::tuple<std::uint32_t, ir::LoopId, std::uint64_t>> carried;
    for (const auto& [loop, n] : e.carried) {
      const auto [fn, id] = loop_key(loop);
      carried.emplace_back(fn, id, n);
    }
    std::sort(carried.begin(), carried.end());
    h.u64(carried.size());
    for (const auto& [fn, id, n] : carried) h.u32(fn).u32(id).u64(n);
  }

  std::map<std::pair<std::uint32_t, ir::LoopId>, profiler::LoopRuntime> rts;
  for (const auto& [loop, rt] : r.dep.loop_runtime) rts[loop_key(loop)] = rt;
  h.u64(rts.size());
  for (const auto& [key, rt] : rts) {
    h.u32(key.first).u32(key.second).u64(rt.instances).u64(rt.iterations);
  }

  std::map<std::pair<std::uint32_t, ir::LoopId>,
           std::map<std::uint32_t, const profiler::ObjLoopSummary*>>
      objs;
  for (const auto& [loop, per_obj] : r.dep.loop_objects) {
    auto& dst = objs[loop_key(loop)];
    for (const auto& [obj, sum] : per_obj) dst[obj] = &sum;
  }
  h.u64(objs.size());
  for (const auto& [key, per_obj] : objs) {
    h.u32(key.first).u32(key.second).u64(per_obj.size());
    for (const auto& [obj, sum] : per_obj) {
      h.u32(obj);
      h.u32(sum->carried_raw).u32(sum->carried_war).u32(sum->carried_waw);
      h.u64(sum->carried_raw_pairs.size());
      for (const auto& [src, dst] : sum->carried_raw_pairs) {
        h.u32(fn_index(src.fn)).u32(src.id).u32(fn_index(dst.fn)).u32(dst.id);
      }
    }
  }

  std::map<std::uint32_t, const std::vector<std::uint64_t>*> counts;
  for (const auto& [fn, c] : r.dep.instr_counts) counts[fn_index(fn)] = &c;
  h.u64(counts.size());
  for (const auto& [fn, c] : counts) {
    h.u32(fn).u64(c->size());
    for (const std::uint64_t n : *c) h.u64(n);
  }
  const cache::Key k = h.digest();
  return k.hi ^ k.lo;
}

/// profile_digest of `kernel` per [seed][family][variant] of the
/// for_each_family_variant matrix, recorded with the tree-walk interpreter.
/// Equal digests across variants mean the pipeline left that kernel's
/// profile unchanged.
constexpr std::uint64_t kGoldenDigests[std::size(kMatrixSeeds)][kFamilies]
                                      [kVariants] = {
    {
      // seed 11
      {0xea42899d0fd1dae2, 0xea42899d0fd1dae2, 0xea42899d0fd1dae2,
        0xea42899d0fd1dae2, 0xea42899d0fd1dae2, 0xea42899d0fd1dae2},  // vec_map
      {0xc41017633d3a1422, 0xc41017633d3a1422, 0xc41017633d3a1422,
        0xc41017633d3a1422, 0xc41017633d3a1422, 0xc41017633d3a1422},  // vec_scale
      {0x5d1d5d077e3daa8d, 0x5d1d5d077e3daa8d, 0x5d1d5d077e3daa8d,
        0x5d1d5d077e3daa8d, 0x5d1d5d077e3daa8d, 0x5d1d5d077e3daa8d},  // saxpy
      {0x86b81113da97c723, 0x86b81113da97c723, 0x86b81113da97c723,
        0xaa4d2632d81857d7, 0xaa4d2632d81857d7, 0xaa4d2632d81857d7},  // stencil_copy
      {0x66491da086587d69, 0x66491da086587d69, 0x66491da086587d69,
        0x66491da086587d69, 0x66491da086587d69, 0x66491da086587d69},  // reduce_sum
      {0x00cf4ca6c9910f4c, 0x00cf4ca6c9910f4c, 0x00cf4ca6c9910f4c,
        0x75da574eae5ad116, 0x75da574eae5ad116, 0x75da574eae5ad116},  // reduce_max
      {0xacc00b21d581aa5d, 0xacc00b21d581aa5d, 0xacc00b21d581aa5d,
        0xacc00b21d581aa5d, 0xacc00b21d581aa5d, 0xacc00b21d581aa5d},  // dot_product
      {0x71352dc600bfb857, 0x71352dc600bfb857, 0x71352dc600bfb857,
        0x71352dc600bfb857, 0x71352dc600bfb857, 0x71352dc600bfb857},  // priv_temp
      {0xcbf2e1f1fb416fda, 0xcbf2e1f1fb416fda, 0x770f592a215cbcbc,
        0x770f592a215cbcbc, 0x770f592a215cbcbc, 0x770f592a215cbcbc},  // priv_array_temp
      {0x3304126be96f9808, 0x3304126be96f9808, 0x3304126be96f9808,
        0x3304126be96f9808, 0x3304126be96f9808, 0x3304126be96f9808},  // recurrence
      {0xa6cc783e402203ca, 0xa6cc783e402203ca, 0xa6cc783e402203ca,
        0xa6cc783e402203ca, 0xa6cc783e402203ca, 0xa6cc783e402203ca},  // scalar_carried
      {0x08415747e0e66ec7, 0x08415747e0e66ec7, 0x0e4ff4c175a99342,
        0x19e9cacf2b078ec5, 0x19e9cacf2b078ec5, 0x19e9cacf2b078ec5},  // cond_update_max
      {0x5ab66bf48e669a33, 0x5ab66bf48e669a33, 0x76a1368b24833093,
        0x29e5d69aeaedcd96, 0x29e5d69aeaedcd96, 0x29e5d69aeaedcd96},  // early_exit
      {0xd85385bed312159d, 0xd85385bed312159d, 0xd85385bed312159d,
        0xd85385bed312159d, 0xd85385bed312159d, 0xd5483a96c03800b5},  // call_map_pure
      {0x960158ca2e5eb3fc, 0x960158ca2e5eb3fc, 0x960158ca2e5eb3fc,
        0x960158ca2e5eb3fc, 0x960158ca2e5eb3fc, 0xe5226e70e50e61fd},  // call_accum_shared
      {0x5fe8df2002744d70, 0x5fe8df2002744d70, 0x5fe8df2002744d70,
        0x5fe8df2002744d70, 0x5fe8df2002744d70, 0x5fe8df2002744d70},  // indirect_gather
      {0x90a0be9396d59cb5, 0x90a0be9396d59cb5, 0x90a0be9396d59cb5,
        0x90a0be9396d59cb5, 0x90a0be9396d59cb5, 0x90a0be9396d59cb5},  // indirect_histogram
      {0xf842ffa2efd4ec80, 0xf842ffa2efd4ec80, 0xf842ffa2efd4ec80,
        0xf842ffa2efd4ec80, 0xf842ffa2efd4ec80, 0xf842ffa2efd4ec80},  // indirect_scatter
      {0x55499d16296d6f0e, 0x55499d16296d6f0e, 0x55499d16296d6f0e,
        0x55499d16296d6f0e, 0x55499d16296d6f0e, 0x55499d16296d6f0e},  // disjoint_copy
      {0x7dc0fcb0543e44ac, 0x7dc0fcb0543e44ac, 0x204c2748a1300381,
        0x204c2748a1300381, 0x204c2748a1300381, 0x204c2748a1300381},  // matmul_nest
      {0x38022ef1b1ff247a, 0x38022ef1b1ff247a, 0x5ccb79af2fdb13d5,
        0x15567e8fe6ef0a17, 0x15567e8fe6ef0a17, 0x15567e8fe6ef0a17},  // jacobi2d
      {0x2d693b6e74fa51f4, 0x2d693b6e74fa51f4, 0x5e9ad0d9d1f5f237,
        0xdcd8887ded91155e, 0xdcd8887ded91155e, 0xdcd8887ded91155e},  // seidel2d
      {0xf93c05e18ef1d62f, 0xf93c05e18ef1d62f, 0x8433bfc2a4abc2ae,
        0x8433bfc2a4abc2ae, 0x8433bfc2a4abc2ae, 0x8433bfc2a4abc2ae},  // triangular
      {0x5d2d35b0d76a8c3b, 0x5d2d35b0d76a8c3b, 0x9e402250e9d8e462,
        0x9e402250e9d8e462, 0x9e402250e9d8e462, 0x9e402250e9d8e462},  // array_accum_nest
      {0xc5db9be88cb9251e, 0xc5db9be88cb9251e, 0xc674d5aadeae07f8,
        0xc674d5aadeae07f8, 0xc674d5aadeae07f8, 0xc674d5aadeae07f8},  // cold_path
      {0x97ed3105d32441ef, 0x97ed3105d32441ef, 0x018e1f79fe457a73,
        0x018e1f79fe457a73, 0x018e1f79fe457a73, 0x018e1f79fe457a73},  // while_wrapped
      {0x2afc574817365134, 0x2afc574817365134, 0x2afc574817365134,
        0x2afc574817365134, 0x2afc574817365134, 0x2afc574817365134},  // fib_driver
      {0xedb3b80db51c8ddb, 0xedb3b80db51c8ddb, 0x78d9936c38e6f226,
        0xef08e70c8004fb31, 0xef08e70c8004fb31, 0xef08e70c8004fb31},  // nqueens_style
      {0x1908304e3bb8d7c0, 0x1908304e3bb8d7c0, 0x1908304e3bb8d7c0,
        0x1908304e3bb8d7c0, 0x1908304e3bb8d7c0, 0x1908304e3bb8d7c0},  // checksum_only
      {0xcd7b196e02775d7a, 0xcd7b196e02775d7a, 0xcd7b196e02775d7a,
        0x9654395860b65223, 0xdd752b32fde40825, 0xdd752b32fde40825},  // offset_stencil
      {0x8bee2f646bcc177f, 0x8bee2f646bcc177f, 0x8bee2f646bcc177f,
        0x8bee2f646bcc177f, 0x8bee2f646bcc177f, 0x8bee2f646bcc177f},  // offset_recurrence
      {0x4016fa22617a6a64, 0x4016fa22617a6a64, 0x4016fa22617a6a64,
        0x61ecb654c219dc33, 0x61ecb654c219dc33, 0x61ecb654c219dc33},  // param_offset
      {0x5814cc848b3bf22b, 0x5814cc848b3bf22b, 0x1fdf8141414d593d,
        0x1fdf8141414d593d, 0x1fdf8141414d593d, 0x1fdf8141414d593d},  // spmv
      {0x46e633b13c990133, 0x46e633b13c990133, 0x065e620505e78a00,
        0x065e620505e78a00, 0x065e620505e78a00, 0x065e620505e78a00},  // transpose
      {0xd88a10d8a3b4ccda, 0xd88a10d8a3b4ccda, 0xe71254e0110b3e76,
        0xe71254e0110b3e76, 0xe71254e0110b3e76, 0xe71254e0110b3e76},  // separable_stencil
      {0x3b7f4497d85bb328, 0x3b7f4497d85bb328, 0x3b7f4497d85bb328,
        0xf7af3b01996f116c, 0xf7af3b01996f116c, 0xf7af3b01996f116c},  // pipeline3
      {0x2abd772007c14b6c, 0x2abd772007c14b6c, 0xe491808aa8703049,
        0xc370c810abd086a0, 0xc370c810abd086a0, 0xc370c810abd086a0},  // timestepped
    },
    {
      // seed 29
      {0xf718e22ff16fa689, 0xf718e22ff16fa689, 0xf718e22ff16fa689,
        0xf718e22ff16fa689, 0xf718e22ff16fa689, 0xf718e22ff16fa689},  // vec_map
      {0x36aa96869b6d3b1a, 0x36aa96869b6d3b1a, 0x36aa96869b6d3b1a,
        0x36aa96869b6d3b1a, 0x36aa96869b6d3b1a, 0x36aa96869b6d3b1a},  // vec_scale
      {0xd16e0ed1303c804f, 0xd16e0ed1303c804f, 0xd16e0ed1303c804f,
        0xd16e0ed1303c804f, 0xd16e0ed1303c804f, 0xd16e0ed1303c804f},  // saxpy
      {0x48e0e85cdffea053, 0x48e0e85cdffea053, 0x48e0e85cdffea053,
        0xca8bf05f78d6396b, 0xca8bf05f78d6396b, 0xca8bf05f78d6396b},  // stencil_copy
      {0xe02041797a712fa6, 0xe02041797a712fa6, 0xe02041797a712fa6,
        0xe02041797a712fa6, 0xe02041797a712fa6, 0xe02041797a712fa6},  // reduce_sum
      {0x00cf4ca6c9910f4c, 0x00cf4ca6c9910f4c, 0x00cf4ca6c9910f4c,
        0x75da574eae5ad116, 0x75da574eae5ad116, 0x75da574eae5ad116},  // reduce_max
      {0x0d0a423249edd5e7, 0x0d0a423249edd5e7, 0x0d0a423249edd5e7,
        0x0d0a423249edd5e7, 0x0d0a423249edd5e7, 0x0d0a423249edd5e7},  // dot_product
      {0x79a2c814267e751e, 0x79a2c814267e751e, 0x79a2c814267e751e,
        0x79a2c814267e751e, 0x79a2c814267e751e, 0x79a2c814267e751e},  // priv_temp
      {0x5c7558bef77bd51e, 0x5c7558bef77bd51e, 0x341aadb102f55823,
        0x341aadb102f55823, 0x341aadb102f55823, 0x341aadb102f55823},  // priv_array_temp
      {0x3150808d871f79a1, 0x3150808d871f79a1, 0x3150808d871f79a1,
        0x3150808d871f79a1, 0x3150808d871f79a1, 0x3150808d871f79a1},  // recurrence
      {0xcba42b9fc8e944ff, 0xcba42b9fc8e944ff, 0xcba42b9fc8e944ff,
        0xcba42b9fc8e944ff, 0xcba42b9fc8e944ff, 0xcba42b9fc8e944ff},  // scalar_carried
      {0x08415747e0e66ec7, 0x08415747e0e66ec7, 0x0e4ff4c175a99342,
        0x19e9cacf2b078ec5, 0x19e9cacf2b078ec5, 0x19e9cacf2b078ec5},  // cond_update_max
      {0x5ab66bf48e669a33, 0x5ab66bf48e669a33, 0x76a1368b24833093,
        0x29e5d69aeaedcd96, 0x29e5d69aeaedcd96, 0x29e5d69aeaedcd96},  // early_exit
      {0xe0fc033db5065f71, 0xe0fc033db5065f71, 0xe0fc033db5065f71,
        0xe0fc033db5065f71, 0xe0fc033db5065f71, 0x4e00fdec8fb17300},  // call_map_pure
      {0x3719f2f7f3b83170, 0x3719f2f7f3b83170, 0x3719f2f7f3b83170,
        0x3719f2f7f3b83170, 0x3719f2f7f3b83170, 0x8db2431bfe92060f},  // call_accum_shared
      {0x5fe8df2002744d70, 0x5fe8df2002744d70, 0x5fe8df2002744d70,
        0x5fe8df2002744d70, 0x5fe8df2002744d70, 0x5fe8df2002744d70},  // indirect_gather
      {0x45eb67ac48e33916, 0x45eb67ac48e33916, 0x45eb67ac48e33916,
        0x45eb67ac48e33916, 0x45eb67ac48e33916, 0x45eb67ac48e33916},  // indirect_histogram
      {0xfc3bcadd55878a80, 0xfc3bcadd55878a80, 0xfc3bcadd55878a80,
        0xfc3bcadd55878a80, 0xfc3bcadd55878a80, 0xfc3bcadd55878a80},  // indirect_scatter
      {0x2b61f832688ee540, 0x2b61f832688ee540, 0x2b61f832688ee540,
        0x2b61f832688ee540, 0x2b61f832688ee540, 0x2b61f832688ee540},  // disjoint_copy
      {0x956776cc29610b4e, 0x956776cc29610b4e, 0x02a497fc784f7c68,
        0x02a497fc784f7c68, 0x02a497fc784f7c68, 0x02a497fc784f7c68},  // matmul_nest
      {0x76718bce689dc934, 0x76718bce689dc934, 0xe8e78a69da5893f5,
        0x80490f69563c8249, 0x80490f69563c8249, 0x80490f69563c8249},  // jacobi2d
      {0xa153c61d544c04e6, 0xa153c61d544c04e6, 0x025e036808736694,
        0xd39840ce1cd55631, 0xd39840ce1cd55631, 0xd39840ce1cd55631},  // seidel2d
      {0x767b851b2487c56e, 0x767b851b2487c56e, 0x230037644c4d2aae,
        0x230037644c4d2aae, 0x230037644c4d2aae, 0x230037644c4d2aae},  // triangular
      {0x5d2d35b0d76a8c3b, 0x5d2d35b0d76a8c3b, 0x9e402250e9d8e462,
        0x9e402250e9d8e462, 0x9e402250e9d8e462, 0x9e402250e9d8e462},  // array_accum_nest
      {0x4eb6339c90d26b46, 0x4eb6339c90d26b46, 0xe6c1fff69d742e55,
        0xe6c1fff69d742e55, 0xe6c1fff69d742e55, 0xe6c1fff69d742e55},  // cold_path
      {0x65ad86091d71859a, 0x65ad86091d71859a, 0x8d707356f3c010a3,
        0x8d707356f3c010a3, 0x8d707356f3c010a3, 0x8d707356f3c010a3},  // while_wrapped
      {0x5988798ba763280f, 0x5988798ba763280f, 0x5988798ba763280f,
        0x5988798ba763280f, 0x5988798ba763280f, 0x5988798ba763280f},  // fib_driver
      {0xaad5c8b098b932aa, 0xaad5c8b098b932aa, 0x0bf1fb71ea172d72,
        0xead9557d217a3ca6, 0xead9557d217a3ca6, 0xead9557d217a3ca6},  // nqueens_style
      {0x698a8b4d93060af8, 0x698a8b4d93060af8, 0x698a8b4d93060af8,
        0x698a8b4d93060af8, 0x698a8b4d93060af8, 0x698a8b4d93060af8},  // checksum_only
      {0x2e1e9999ba5668ba, 0x2e1e9999ba5668ba, 0x2e1e9999ba5668ba,
        0x06a83208d82d1fcd, 0xbd54df5a2b8a3a76, 0xbd54df5a2b8a3a76},  // offset_stencil
      {0xdf7575b5e2c4f362, 0xdf7575b5e2c4f362, 0xdf7575b5e2c4f362,
        0xdf7575b5e2c4f362, 0x203a157a58e35ad7, 0x203a157a58e35ad7},  // offset_recurrence
      {0x00ae9c865474f013, 0x00ae9c865474f013, 0x00ae9c865474f013,
        0x40c9f7d4fbb9c200, 0x40c9f7d4fbb9c200, 0x40c9f7d4fbb9c200},  // param_offset
      {0x5814cc848b3bf22b, 0x5814cc848b3bf22b, 0x1fdf8141414d593d,
        0x1fdf8141414d593d, 0x1fdf8141414d593d, 0x1fdf8141414d593d},  // spmv
      {0xa82cdca6bb2a58ee, 0xa82cdca6bb2a58ee, 0xce0a3628c71482f0,
        0xce0a3628c71482f0, 0xce0a3628c71482f0, 0xce0a3628c71482f0},  // transpose
      {0xd88a10d8a3b4ccda, 0xd88a10d8a3b4ccda, 0xe71254e0110b3e76,
        0xe71254e0110b3e76, 0xe71254e0110b3e76, 0xe71254e0110b3e76},  // separable_stencil
      {0x1f6390d5f35c0500, 0x1f6390d5f35c0500, 0x1f6390d5f35c0500,
        0xb854cdcf009b9f5e, 0xb854cdcf009b9f5e, 0xb854cdcf009b9f5e},  // pipeline3
      {0x8296775844033b8c, 0x8296775844033b8c, 0x3c537aa29a2bf102,
        0x2d8419056e300e31, 0x2d8419056e300e31, 0x2d8419056e300e31},  // timestepped
    },
};

TEST(EngineGolden, ProfilesMatchPinnedDigests) {
  for_each_family_variant([](const ir::Module& m,
                             const std::vector<ArgInit>& args, std::size_t s,
                             int p, int v, const std::string& what) {
    const std::uint64_t got =
        profile_digest(m, profiler::profile(m, "kernel", args));
    if (got != kGoldenDigests[s][p][v]) {
      ADD_FAILURE() << what << ": digest " << std::hex << got
                    << " != pinned " << kGoldenDigests[s][p][v];
    }
  });
}

}  // namespace
