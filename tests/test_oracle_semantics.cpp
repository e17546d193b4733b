// Experimental soundness check of the expert oracle: if a loop is labeled
// parallelizable, executing its iterations in REVERSE order must produce
// the same observable result (for reductions, the same up to floating-point
// re-association, so the reduction bodies here use exactly-representable
// arithmetic). If it is labeled sequential, the reversed twin is built so
// the result demonstrably differs.
//
// This tests the *semantics* of the label, not just the implementation: a
// DOALL/reduction label is precisely a claim of execution-order freedom.
#include <gtest/gtest.h>

#include "analysis/tools.hpp"
#include "frontend/lower.hpp"
#include "profiler/profile.hpp"

namespace {

using namespace mvgnn;
using profiler::ArgInit;

struct Twin {
  const char* forward;
  const char* reversed;
  std::vector<ArgInit> args;
};

double run_value(const char* src, const std::vector<ArgInit>& args) {
  const ir::Module m = frontend::compile(src, "t");
  return profiler::run_capture(m, "kernel", args).run.return_value.f;
}

bool forward_label(const char* src, const std::vector<ArgInit>& args) {
  static std::vector<std::unique_ptr<ir::Module>> keep;
  keep.push_back(std::make_unique<ir::Module>(frontend::compile(src, "t")));
  const auto prof = profiler::profile(*keep.back(), "kernel", args);
  return analysis::oracle_classify(*prof.loops[0].fn, prof.loops[0].loop,
                                   prof.dep)
      .parallel;
}

TEST(OracleSemantics, ParallelizableLoopsAreOrderFree) {
  // Exactly representable arithmetic (x2, +1, integers-as-floats) so even
  // the reduction result is bitwise order-independent.
  const Twin twins[] = {
      // DOALL map.
      {R"(
const int N = 32;
float kernel(float[] a, float[] b) {
  for (int i = 0; i < N; i += 1) {
    b[i] = a[i] * 2.0 + 1.0;
  }
  float s = 0.0;
  for (int j = 0; j < N; j += 1) {
    s = s + b[j];
  }
  return s;
}
)",
       R"(
const int N = 32;
float kernel(float[] a, float[] b) {
  for (int i = N - 1; i >= 0; i -= 1) {
    b[i] = a[i] * 2.0 + 1.0;
  }
  float s = 0.0;
  for (int j = 0; j < N; j += 1) {
    s = s + b[j];
  }
  return s;
}
)",
       {ArgInit::of_array(32, 1), ArgInit::of_array(32, 2)}},
      // Max reduction (order-free exactly).
      {R"(
const int N = 32;
float kernel(float[] a) {
  float s = -1000000.0;
  for (int i = 0; i < N; i += 1) {
    s = fmax(s, a[i]);
  }
  return s;
}
)",
       R"(
const int N = 32;
float kernel(float[] a) {
  float s = -1000000.0;
  for (int i = N - 1; i >= 0; i -= 1) {
    s = fmax(s, a[i]);
  }
  return s;
}
)",
       {ArgInit::of_array(32, 1)}},
      // Privatizable temporary.
      {R"(
const int N = 32;
float kernel(float[] a, float[] b) {
  float t = 0.0;
  for (int i = 0; i < N; i += 1) {
    t = a[i] * 2.0;
    b[i] = t + 1.0;
  }
  float s = 0.0;
  for (int j = 0; j < N; j += 1) {
    s = s + b[j];
  }
  return s;
}
)",
       R"(
const int N = 32;
float kernel(float[] a, float[] b) {
  float t = 0.0;
  for (int i = N - 1; i >= 0; i -= 1) {
    t = a[i] * 2.0;
    b[i] = t + 1.0;
  }
  float s = 0.0;
  for (int j = 0; j < N; j += 1) {
    s = s + b[j];
  }
  return s;
}
)",
       {ArgInit::of_array(32, 1), ArgInit::of_array(32, 2)}},
  };
  for (const Twin& t : twins) {
    ASSERT_TRUE(forward_label(t.forward, t.args));
    EXPECT_DOUBLE_EQ(run_value(t.forward, t.args),
                     run_value(t.reversed, t.args));
  }
}

TEST(OracleSemantics, SequentialLoopsAreOrderSensitive) {
  const Twin twins[] = {
      // Forward recurrence: reversing it changes the result.
      {R"(
const int N = 32;
float kernel(float[] a) {
  for (int i = 1; i < N; i += 1) {
    a[i] = a[i] + a[i - 1];
  }
  return a[N - 1];
}
)",
       R"(
const int N = 32;
float kernel(float[] a) {
  for (int i = N - 1; i >= 1; i -= 1) {
    a[i] = a[i] + a[i - 1];
  }
  return a[N - 1];
}
)",
       {ArgInit::of_array(32, 1)}},
      // Carried scalar chain.
      {R"(
const int N = 32;
float kernel(float[] a, float[] b) {
  float s = 0.0;
  for (int i = 0; i < N; i += 1) {
    s = s * 0.5 + a[i];
    b[i] = s;
  }
  return b[0] + b[N - 1];
}
)",
       R"(
const int N = 32;
float kernel(float[] a, float[] b) {
  float s = 0.0;
  for (int i = N - 1; i >= 0; i -= 1) {
    s = s * 0.5 + a[i];
    b[i] = s;
  }
  return b[0] + b[N - 1];
}
)",
       {ArgInit::of_array(32, 1), ArgInit::of_array(32, 2)}},
  };
  for (const Twin& t : twins) {
    ASSERT_FALSE(forward_label(t.forward, t.args));
    EXPECT_NE(run_value(t.forward, t.args), run_value(t.reversed, t.args));
  }
}

}  // namespace
