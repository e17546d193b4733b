// Dependence recorder precision: RAW/WAR/WAW kinds, loop-carried vs
// iteration-local classification, nested carriers, cross-instance behaviour,
// CU construction, Table I loop features, and a differential check of the
// recorder against the reference hash-map implementation.
#include <gtest/gtest.h>

#include <algorithm>

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
  // NullObserver and DepRecorder runs must execute the same dynamic
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
  profiler::NullObserver null_obs;
  const auto plain = profiler::run(m, "kernel", args, null_obs);
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

TEST(DepRecorderDifferential, MatchesReferenceOnEveryFamilyAndVariant) {
  std::size_t edges = 0;
  for (const std::uint64_t seed : {11u, 29u}) {
    for (int p = 0; p <= static_cast<int>(data::Pattern::Timestepped); ++p) {
      const auto pattern = static_cast<data::Pattern>(p);
      par::Rng rng(seed * 1000 + static_cast<std::uint64_t>(p));
      const data::GenKernel k = data::generate_kernel(pattern, "diff", rng);
      for (const auto& pipeline : transform::variant_pipelines()) {
        ir::Module m = frontend::compile(k.source, k.name);
        transform::run_pipeline(m, pipeline);
        edges += expect_same_profile(
            m, k.args,
            std::string(data::pattern_name(pattern)) + " under " +
                pipeline.name + " seed " + std::to_string(seed));
      }
    }
  }
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

}  // namespace
