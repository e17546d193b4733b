// Dependence recorder precision: RAW/WAR/WAW kinds, loop-carried vs
// iteration-local classification, nested carriers, cross-instance behaviour,
// CU construction, Table I loop features, a differential check of the
// recorder against the reference hash-map implementation, and profiles of
// every generator family pinned as digests (EngineGolden).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

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
  EXPECT_FALSE(raw->intra);
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
  EXPECT_TRUE(war->intra);
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
  EXPECT_EQ(raw->carried[0].loop, 0u);
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
  EXPECT_TRUE(raw->intra);
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
    EXPECT_TRUE(e.intra);
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
    EXPECT_EQ(a.intra, b.intra) << "edge " << i;
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
  EXPECT_EQ(raw->carried[0].loop, 0u);
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
// Engine golden: profiles pinned as digests. The table was recorded from
// profiles whose full content, dynamic dependence counts included, matched
// the tree-walk interpreter that preceded the micro-op engine. Any change
// to step counts, hook order or dependence attribution shows up as a digest
// mismatch.
// ---------------------------------------------------------------------------

/// Digest of the integer content of a profile: step count, the ordered
/// edges (type, object, whether an instance was loop-independent, and the
/// sorted set of carrying loops), loop runtimes, loop-object summaries and
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
    h.u32(e.intra).u32(e.object);
    std::vector<std::pair<std::uint32_t, ir::LoopId>> carried;
    for (const profiler::LoopRef& loop : e.carried) {
      carried.push_back(loop_key(loop));
    }
    std::sort(carried.begin(), carried.end());
    h.u64(carried.size());
    for (const auto& [fn, id] : carried) h.u32(fn).u32(id);
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
/// for_each_family_variant matrix.
/// Equal digests across variants mean the pipeline left that kernel's
/// profile unchanged.
constexpr std::uint64_t kGoldenDigests[std::size(kMatrixSeeds)][kFamilies]
                                      [kVariants] = {
    {
      // seed 11
      {0x252a66257015709e, 0x252a66257015709e, 0x252a66257015709e,
        0x252a66257015709e, 0x252a66257015709e, 0x252a66257015709e},  // vec_map
      {0xdf201ec9776fc1fb, 0xdf201ec9776fc1fb, 0xdf201ec9776fc1fb,
        0xdf201ec9776fc1fb, 0xdf201ec9776fc1fb, 0xdf201ec9776fc1fb},  // vec_scale
      {0x84a1f5689fb0e200, 0x84a1f5689fb0e200, 0x84a1f5689fb0e200,
        0x84a1f5689fb0e200, 0x84a1f5689fb0e200, 0x84a1f5689fb0e200},  // saxpy
      {0x3ed00d07dfdee6c9, 0x3ed00d07dfdee6c9, 0x3ed00d07dfdee6c9,
        0x94063192e0a754eb, 0x94063192e0a754eb, 0x94063192e0a754eb},  // stencil_copy
      {0x7e8a6b2aa791c1fb, 0x7e8a6b2aa791c1fb, 0x7e8a6b2aa791c1fb,
        0x7e8a6b2aa791c1fb, 0x7e8a6b2aa791c1fb, 0x7e8a6b2aa791c1fb},  // reduce_sum
      {0x86a62f4331dc8093, 0x86a62f4331dc8093, 0x86a62f4331dc8093,
        0x6a699eec93f8f0f0, 0x6a699eec93f8f0f0, 0x6a699eec93f8f0f0},  // reduce_max
      {0x8500d96729c26d62, 0x8500d96729c26d62, 0x8500d96729c26d62,
        0x8500d96729c26d62, 0x8500d96729c26d62, 0x8500d96729c26d62},  // dot_product
      {0xad6d1118fc080eb2, 0xad6d1118fc080eb2, 0xad6d1118fc080eb2,
        0xad6d1118fc080eb2, 0xad6d1118fc080eb2, 0xad6d1118fc080eb2},  // priv_temp
      {0xa56243bf7c9c97dc, 0xa56243bf7c9c97dc, 0x33c864737dbef6db,
        0x33c864737dbef6db, 0x33c864737dbef6db, 0x33c864737dbef6db},  // priv_array_temp
      {0xb43d2b185c7ea64c, 0xb43d2b185c7ea64c, 0xb43d2b185c7ea64c,
        0xb43d2b185c7ea64c, 0xb43d2b185c7ea64c, 0xb43d2b185c7ea64c},  // recurrence
      {0xdc26752c0812b10d, 0xdc26752c0812b10d, 0xdc26752c0812b10d,
        0xdc26752c0812b10d, 0xdc26752c0812b10d, 0xdc26752c0812b10d},  // scalar_carried
      {0x10982cf3b1b87c9a, 0x10982cf3b1b87c9a, 0xd6bfbe438a1ceeb8,
        0xe54b20c51017653f, 0xe54b20c51017653f, 0xe54b20c51017653f},  // cond_update_max
      {0xd039e429f35a98df, 0xd039e429f35a98df, 0xf6646611f24e2948,
        0xb5053436abe05136, 0xb5053436abe05136, 0xb5053436abe05136},  // early_exit
      {0xa3bb2bd4670266c2, 0xa3bb2bd4670266c2, 0xa3bb2bd4670266c2,
        0xa3bb2bd4670266c2, 0xa3bb2bd4670266c2, 0xd98c91ff7a5229ff},  // call_map_pure
      {0x8b1176f152fca59d, 0x8b1176f152fca59d, 0x8b1176f152fca59d,
        0x8b1176f152fca59d, 0x8b1176f152fca59d, 0x4821f6174e8a4fac},  // call_accum_shared
      {0xf6cec7a55352a19b, 0xf6cec7a55352a19b, 0xf6cec7a55352a19b,
        0xf6cec7a55352a19b, 0xf6cec7a55352a19b, 0xf6cec7a55352a19b},  // indirect_gather
      {0xa6ad842d4f8432aa, 0xa6ad842d4f8432aa, 0xa6ad842d4f8432aa,
        0xa6ad842d4f8432aa, 0xa6ad842d4f8432aa, 0xa6ad842d4f8432aa},  // indirect_histogram
      {0xa0b5f05346034417, 0xa0b5f05346034417, 0xa0b5f05346034417,
        0xa0b5f05346034417, 0xa0b5f05346034417, 0xa0b5f05346034417},  // indirect_scatter
      {0xa2f5be447dfe0bad, 0xa2f5be447dfe0bad, 0xa2f5be447dfe0bad,
        0xa2f5be447dfe0bad, 0xa2f5be447dfe0bad, 0xa2f5be447dfe0bad},  // disjoint_copy
      {0x00cf8a2d731260b5, 0x00cf8a2d731260b5, 0xaab3dd2689852726,
        0xaab3dd2689852726, 0xaab3dd2689852726, 0xaab3dd2689852726},  // matmul_nest
      {0x6479288eddbd4a7a, 0x6479288eddbd4a7a, 0x996ff15766e63bc8,
        0x37c07c7640d767c0, 0x37c07c7640d767c0, 0x37c07c7640d767c0},  // jacobi2d
      {0xff80aa3c1e325d37, 0xff80aa3c1e325d37, 0x3c54d69e79721aa2,
        0x793f57c0cc6de2f7, 0x793f57c0cc6de2f7, 0x793f57c0cc6de2f7},  // seidel2d
      {0xd9cfccd0c851202d, 0xd9cfccd0c851202d, 0x8fca24d21afa6629,
        0x8fca24d21afa6629, 0x8fca24d21afa6629, 0x8fca24d21afa6629},  // triangular
      {0xcfa51f5b4ec1a606, 0xcfa51f5b4ec1a606, 0x27dcc35ae24ee0f0,
        0x27dcc35ae24ee0f0, 0x27dcc35ae24ee0f0, 0x27dcc35ae24ee0f0},  // array_accum_nest
      {0x3a99c45378aca499, 0x3a99c45378aca499, 0x33219bc7635c08f4,
        0x33219bc7635c08f4, 0x33219bc7635c08f4, 0x33219bc7635c08f4},  // cold_path
      {0xf253636178b14111, 0xf253636178b14111, 0x76dfe757e4b5f89a,
        0x76dfe757e4b5f89a, 0x76dfe757e4b5f89a, 0x76dfe757e4b5f89a},  // while_wrapped
      {0x868038892acf979e, 0x868038892acf979e, 0x868038892acf979e,
        0x868038892acf979e, 0x868038892acf979e, 0x868038892acf979e},  // fib_driver
      {0x413c2249721bf465, 0x413c2249721bf465, 0x8ba91f49cce5babc,
        0x38d5e780f0b531fa, 0x38d5e780f0b531fa, 0x38d5e780f0b531fa},  // nqueens_style
      {0xab0c7977cf2f8e0e, 0xab0c7977cf2f8e0e, 0xab0c7977cf2f8e0e,
        0xab0c7977cf2f8e0e, 0xab0c7977cf2f8e0e, 0xab0c7977cf2f8e0e},  // checksum_only
      {0xda57126c17d292e3, 0xda57126c17d292e3, 0xda57126c17d292e3,
        0x640a866d4142a55d, 0xf056136661685f83, 0xf056136661685f83},  // offset_stencil
      {0x2ddc21969af0187f, 0x2ddc21969af0187f, 0x2ddc21969af0187f,
        0x2ddc21969af0187f, 0x2ddc21969af0187f, 0x2ddc21969af0187f},  // offset_recurrence
      {0xdbda9c9e3840f34a, 0xdbda9c9e3840f34a, 0xdbda9c9e3840f34a,
        0x58c3c6983191cb94, 0x58c3c6983191cb94, 0x58c3c6983191cb94},  // param_offset
      {0x89c30f6b061a4fbe, 0x89c30f6b061a4fbe, 0x111493d6c0f81b16,
        0x111493d6c0f81b16, 0x111493d6c0f81b16, 0x111493d6c0f81b16},  // spmv
      {0xb6384bce143ac042, 0xb6384bce143ac042, 0xf5f6e5c71000d158,
        0xf5f6e5c71000d158, 0xf5f6e5c71000d158, 0xf5f6e5c71000d158},  // transpose
      {0x92d28cf8d6cb3e2e, 0x92d28cf8d6cb3e2e, 0xf5c598b8fd475ac2,
        0xf5c598b8fd475ac2, 0xf5c598b8fd475ac2, 0xf5c598b8fd475ac2},  // separable_stencil
      {0xa0ccad172831c369, 0xa0ccad172831c369, 0xa0ccad172831c369,
        0x9b5c973039b50c26, 0x9b5c973039b50c26, 0x9b5c973039b50c26},  // pipeline3
      {0x78a35471c293bf6c, 0x78a35471c293bf6c, 0x2e796237c590d13b,
        0x4cd7ff9c2a040f65, 0x4cd7ff9c2a040f65, 0x4cd7ff9c2a040f65},  // timestepped
    },
    {
      // seed 29
      {0xee1bb2615b03f00c, 0xee1bb2615b03f00c, 0xee1bb2615b03f00c,
        0xee1bb2615b03f00c, 0xee1bb2615b03f00c, 0xee1bb2615b03f00c},  // vec_map
      {0xb9286720ad280c6d, 0xb9286720ad280c6d, 0xb9286720ad280c6d,
        0xb9286720ad280c6d, 0xb9286720ad280c6d, 0xb9286720ad280c6d},  // vec_scale
      {0xdf7188152bd5e75c, 0xdf7188152bd5e75c, 0xdf7188152bd5e75c,
        0xdf7188152bd5e75c, 0xdf7188152bd5e75c, 0xdf7188152bd5e75c},  // saxpy
      {0xd94d676ed830f48d, 0xd94d676ed830f48d, 0xd94d676ed830f48d,
        0x8b2bd819ae4a435a, 0x8b2bd819ae4a435a, 0x8b2bd819ae4a435a},  // stencil_copy
      {0x5d32948829955466, 0x5d32948829955466, 0x5d32948829955466,
        0x5d32948829955466, 0x5d32948829955466, 0x5d32948829955466},  // reduce_sum
      {0x86a62f4331dc8093, 0x86a62f4331dc8093, 0x86a62f4331dc8093,
        0x6a699eec93f8f0f0, 0x6a699eec93f8f0f0, 0x6a699eec93f8f0f0},  // reduce_max
      {0x959f67aa9f9e005c, 0x959f67aa9f9e005c, 0x959f67aa9f9e005c,
        0x959f67aa9f9e005c, 0x959f67aa9f9e005c, 0x959f67aa9f9e005c},  // dot_product
      {0x9a69de6432506753, 0x9a69de6432506753, 0x9a69de6432506753,
        0x9a69de6432506753, 0x9a69de6432506753, 0x9a69de6432506753},  // priv_temp
      {0x3eecfb237d91d53e, 0x3eecfb237d91d53e, 0xbc1aaa5edb6f6713,
        0xbc1aaa5edb6f6713, 0xbc1aaa5edb6f6713, 0xbc1aaa5edb6f6713},  // priv_array_temp
      {0x9c4020cda0e2056d, 0x9c4020cda0e2056d, 0x9c4020cda0e2056d,
        0x9c4020cda0e2056d, 0x9c4020cda0e2056d, 0x9c4020cda0e2056d},  // recurrence
      {0x2b43fe22049ca9f8, 0x2b43fe22049ca9f8, 0x2b43fe22049ca9f8,
        0x2b43fe22049ca9f8, 0x2b43fe22049ca9f8, 0x2b43fe22049ca9f8},  // scalar_carried
      {0x10982cf3b1b87c9a, 0x10982cf3b1b87c9a, 0xd6bfbe438a1ceeb8,
        0xe54b20c51017653f, 0xe54b20c51017653f, 0xe54b20c51017653f},  // cond_update_max
      {0xd039e429f35a98df, 0xd039e429f35a98df, 0xf6646611f24e2948,
        0xb5053436abe05136, 0xb5053436abe05136, 0xb5053436abe05136},  // early_exit
      {0x8e740ccae1c95615, 0x8e740ccae1c95615, 0x8e740ccae1c95615,
        0x8e740ccae1c95615, 0x8e740ccae1c95615, 0x59db2cb7de1f51ac},  // call_map_pure
      {0x70c82a355ba8e652, 0x70c82a355ba8e652, 0x70c82a355ba8e652,
        0x70c82a355ba8e652, 0x70c82a355ba8e652, 0x0c0c1bbe84f7f8ef},  // call_accum_shared
      {0xf6cec7a55352a19b, 0xf6cec7a55352a19b, 0xf6cec7a55352a19b,
        0xf6cec7a55352a19b, 0xf6cec7a55352a19b, 0xf6cec7a55352a19b},  // indirect_gather
      {0x6e45c468432f7d14, 0x6e45c468432f7d14, 0x6e45c468432f7d14,
        0x6e45c468432f7d14, 0x6e45c468432f7d14, 0x6e45c468432f7d14},  // indirect_histogram
      {0x56ae1a59e43c8797, 0x56ae1a59e43c8797, 0x56ae1a59e43c8797,
        0x56ae1a59e43c8797, 0x56ae1a59e43c8797, 0x56ae1a59e43c8797},  // indirect_scatter
      {0x929d135990567e21, 0x929d135990567e21, 0x929d135990567e21,
        0x929d135990567e21, 0x929d135990567e21, 0x929d135990567e21},  // disjoint_copy
      {0x495011db059ee2c3, 0x495011db059ee2c3, 0x3101300f4b05cf9c,
        0x3101300f4b05cf9c, 0x3101300f4b05cf9c, 0x3101300f4b05cf9c},  // matmul_nest
      {0xbe85bc195a951ec7, 0xbe85bc195a951ec7, 0xb77626c4f1da7a6e,
        0xb63e5383ff718dde, 0xb63e5383ff718dde, 0xb63e5383ff718dde},  // jacobi2d
      {0xf1a2aaaee10e10af, 0xf1a2aaaee10e10af, 0x8c792d360dc663a7,
        0xc0d2d5dbf3bae5e5, 0xc0d2d5dbf3bae5e5, 0xc0d2d5dbf3bae5e5},  // seidel2d
      {0x5b57b11bb2fafe88, 0x5b57b11bb2fafe88, 0xba028b1cf7274af3,
        0xba028b1cf7274af3, 0xba028b1cf7274af3, 0xba028b1cf7274af3},  // triangular
      {0xcfa51f5b4ec1a606, 0xcfa51f5b4ec1a606, 0x27dcc35ae24ee0f0,
        0x27dcc35ae24ee0f0, 0x27dcc35ae24ee0f0, 0x27dcc35ae24ee0f0},  // array_accum_nest
      {0x88c5813726509195, 0x88c5813726509195, 0xf74ad586e268e224,
        0xf74ad586e268e224, 0xf74ad586e268e224, 0xf74ad586e268e224},  // cold_path
      {0xeb229d5cfa933c7d, 0xeb229d5cfa933c7d, 0xcd5c0db4505cc2a2,
        0xcd5c0db4505cc2a2, 0xcd5c0db4505cc2a2, 0xcd5c0db4505cc2a2},  // while_wrapped
      {0xe1772922dc74067f, 0xe1772922dc74067f, 0xe1772922dc74067f,
        0xe1772922dc74067f, 0xe1772922dc74067f, 0xe1772922dc74067f},  // fib_driver
      {0x1e18ffbb1ac7c8cc, 0x1e18ffbb1ac7c8cc, 0x8b26513e2708f001,
        0xcdad8f71814781b1, 0xcdad8f71814781b1, 0xcdad8f71814781b1},  // nqueens_style
      {0x5fb6f435eab2cc39, 0x5fb6f435eab2cc39, 0x5fb6f435eab2cc39,
        0x5fb6f435eab2cc39, 0x5fb6f435eab2cc39, 0x5fb6f435eab2cc39},  // checksum_only
      {0x34a8509743bb80b0, 0x34a8509743bb80b0, 0x34a8509743bb80b0,
        0x08e1e7bf63018a34, 0x3b9a52d2be051061, 0x3b9a52d2be051061},  // offset_stencil
      {0xf480b49fb5bad556, 0xf480b49fb5bad556, 0xf480b49fb5bad556,
        0xf480b49fb5bad556, 0x2ccf3f5122c74ac6, 0x2ccf3f5122c74ac6},  // offset_recurrence
      {0x1741329b75673763, 0x1741329b75673763, 0x1741329b75673763,
        0xb112fa5fd76e160c, 0xb112fa5fd76e160c, 0xb112fa5fd76e160c},  // param_offset
      {0x89c30f6b061a4fbe, 0x89c30f6b061a4fbe, 0x111493d6c0f81b16,
        0x111493d6c0f81b16, 0x111493d6c0f81b16, 0x111493d6c0f81b16},  // spmv
      {0x03ede5cc27a0cf97, 0x03ede5cc27a0cf97, 0xc203bfc5467b23ee,
        0xc203bfc5467b23ee, 0xc203bfc5467b23ee, 0xc203bfc5467b23ee},  // transpose
      {0x92d28cf8d6cb3e2e, 0x92d28cf8d6cb3e2e, 0xf5c598b8fd475ac2,
        0xf5c598b8fd475ac2, 0xf5c598b8fd475ac2, 0xf5c598b8fd475ac2},  // separable_stencil
      {0x7bfc96af391d8bae, 0x7bfc96af391d8bae, 0x7bfc96af391d8bae,
        0x6650c4119cb8ef82, 0x6650c4119cb8ef82, 0x6650c4119cb8ef82},  // pipeline3
      {0x83c1230f039b651a, 0x83c1230f039b651a, 0x7f8ed1200390cddd,
        0x19a1e97746d5e6d6, 0x19a1e97746d5e6d6, 0x19a1e97746d5e6d6},  // timestepped
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
