// Interpreter semantics: arithmetic, control flow, builtins, recursion,
// faults, deterministic argument synthesis, and the engine's frame layout
// and end-of-block sentinel across every entry point.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "frontend/lower.hpp"
#include "ir/builder.hpp"
#include "profiler/dep_recorder.hpp"
#include "profiler/interp.hpp"
#include "profiler/par_exec.hpp"

namespace {

using namespace mvgnn;
using profiler::ArgInit;
using profiler::InterpError;

double run_f(const std::string& body, std::vector<ArgInit> args = {}) {
  const ir::Module m = frontend::compile(body, "t");
  return profiler::run_capture(m, "kernel", args).run.return_value.f;
}

std::int64_t run_i(const std::string& body, std::vector<ArgInit> args = {}) {
  const ir::Module m = frontend::compile(body, "t");
  return profiler::run_capture(m, "kernel", args).run.return_value.i;
}

TEST(Interp, IntegerArithmetic) {
  EXPECT_EQ(run_i("int kernel() { return (7 + 3) * 2 - 5 / 2 % 2; }"),
            (7 + 3) * 2 - 5 / 2 % 2);
  EXPECT_EQ(run_i("int kernel() { return -4 % 3; }"), -4 % 3);
  EXPECT_EQ(run_i("int kernel() { return 3 < 5 && 2 >= 2; }"), 1);
  EXPECT_EQ(run_i("int kernel() { return !(1 == 1) || 0 != 0; }"), 0);
}

TEST(Interp, FloatArithmeticAndCasts) {
  EXPECT_DOUBLE_EQ(run_f("float kernel() { return 1.5 * 4.0 - 1.0; }"), 5.0);
  EXPECT_EQ(run_i("int kernel() { return (int) 3.9; }"), 3);
  EXPECT_DOUBLE_EQ(run_f("float kernel() { return (float) 7 / 2.0; }"), 3.5);
}

TEST(Interp, Builtins) {
  EXPECT_DOUBLE_EQ(run_f("float kernel() { return sqrt(16.0); }"), 4.0);
  EXPECT_DOUBLE_EQ(run_f("float kernel() { return fmax(1.0, -3.0); }"), 1.0);
  EXPECT_DOUBLE_EQ(run_f("float kernel() { return fmin(1.0, -3.0); }"), -3.0);
  EXPECT_DOUBLE_EQ(run_f("float kernel() { return fabs(-2.5); }"), 2.5);
  EXPECT_DOUBLE_EQ(run_f("float kernel() { return pow(2.0, 10.0); }"), 1024.0);
  EXPECT_EQ(run_i("int kernel() { return imax(3, 9) + imin(3, 9) + iabs(-4); }"),
            9 + 3 + 4);
}

TEST(Interp, LoopsComputeCorrectValues) {
  EXPECT_EQ(run_i(R"(
int kernel() {
  int s = 0;
  for (int i = 1; i <= 10; i += 1) {
    s += i;
  }
  return s;
}
)"),
            55);
  EXPECT_EQ(run_i(R"(
int kernel() {
  int s = 0;
  int i = 0;
  while (i < 5) {
    s = s + 2;
    i = i + 1;
  }
  return s;
}
)"),
            10);
}

TEST(Interp, BreakAndContinueSemantics) {
  EXPECT_EQ(run_i(R"(
int kernel() {
  int s = 0;
  for (int i = 0; i < 10; i += 1) {
    if (i == 3) {
      continue;
    }
    if (i == 6) {
      break;
    }
    s += i;
  }
  return s;
}
)"),
            0 + 1 + 2 + 4 + 5);
}

TEST(Interp, RecursionComputesFib) {
  EXPECT_EQ(run_i(R"(
int fib(int n) {
  if (n < 2) {
    return n;
  }
  return fib(n - 1) + fib(n - 2);
}
int kernel() { return fib(12); }
)"),
            144);
}

TEST(Interp, LocalArraysAreZeroInitialized) {
  EXPECT_DOUBLE_EQ(run_f(R"(
const int N = 8;
float kernel() {
  float t[N];
  float s = 1.0;
  for (int i = 0; i < N; i += 1) {
    s = s + t[i];
  }
  return s;
}
)"),
                   1.0);
}

TEST(Interp, MutableScalarParameters) {
  EXPECT_EQ(run_i(R"(
int kernel(int n) {
  n = n + 5;
  return n * 2;
}
)",
                  {ArgInit::of_int(10)}),
            30);
}

TEST(Interp, ArrayArgumentsReadAndWrite) {
  const ir::Module m = frontend::compile(R"(
const int N = 4;
float kernel(float[] a) {
  for (int i = 0; i < N; i += 1) {
    a[i] = (float) i;
  }
  return a[3];
}
)",
                                         "t");
  std::vector<ArgInit> args = {ArgInit::of_array(4)};
  EXPECT_DOUBLE_EQ(
      profiler::run_capture(m, "kernel", args).run.return_value.f, 3.0);
}

TEST(Interp, DeterministicArgumentFill) {
  const char* src = R"(
const int N = 16;
float kernel(float[] a) {
  float s = 0.0;
  for (int i = 0; i < N; i += 1) {
    s = s + a[i];
  }
  return s;
}
)";
  const double a = run_f(src, {ArgInit::of_array(16, 3)});
  const double b = run_f(src, {ArgInit::of_array(16, 3)});
  const double c = run_f(src, {ArgInit::of_array(16, 4)});
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Interp, IntArrayFillStaysInBounds) {
  // Indirect self-indexing: every idx element must be < N.
  EXPECT_NO_THROW(run_f(R"(
const int N = 32;
float kernel(int[] idx, float[] a) {
  float s = 0.0;
  for (int i = 0; i < N; i += 1) {
    s = s + a[idx[idx[i]]];
  }
  return s;
}
)",
                        {ArgInit::of_array(32, 1), ArgInit::of_array(32, 2)}));
}

TEST(Interp, FaultsAreReported) {
  EXPECT_THROW(run_i("int kernel() { return 1 / 0; }"), InterpError);
  EXPECT_THROW(run_i("int kernel() { return 1 % 0; }"), InterpError);
  EXPECT_THROW(run_f(R"(
float kernel(float[] a) { return a[99]; }
)",
                     {ArgInit::of_array(4)}),
               InterpError);
  EXPECT_THROW(run_f(R"(
float kernel(float[] a) { return a[-1]; }
)",
                     {ArgInit::of_array(4)}),
               InterpError);
}

TEST(Interp, StepBudgetStopsRunaway) {
  const ir::Module m = frontend::compile(R"(
int kernel() {
  int i = 0;
  while (0 == 0) {
    i = i + 1;
  }
  return i;
}
)",
                                         "t");
  profiler::InterpOptions opts;
  opts.max_steps = 10'000;
  EXPECT_THROW((void)profiler::run_capture(m, "kernel", {}, opts),
               InterpError);
}

TEST(Interp, CallDepthLimitStopsInfiniteRecursion) {
  const ir::Module m = frontend::compile(R"(
int rec(int n) { return rec(n + 1); }
int kernel() { return rec(0); }
)",
                                         "t");
  profiler::InterpOptions opts;
  opts.max_call_depth = 64;
  EXPECT_THROW((void)profiler::run_capture(m, "kernel", {}, opts),
               InterpError);
}

TEST(Interp, OverCapArrayArgumentsFailBeforeAllocating) {
  // The entry arrays are summed and checked against the cap before the
  // memory image is reserved. Sizes no vector can hold, or whose sum wraps,
  // fail as a memory-cap fault, not as an allocation error or an
  // out-of-bounds fill.
  const ir::Module m = frontend::compile(
      "float kernel(float[] a, float[] b) { return a[0] + b[0]; }", "t");
  profiler::InterpOptions opts;
  opts.max_mem_cells = 1u << 12;
  const std::vector<ArgInit> fits = {ArgInit::of_array(1u << 11),
                                     ArgInit::of_array(1u << 11)};
  EXPECT_NO_THROW((void)profiler::run_capture(m, "kernel", fits, opts));

  struct Case {
    std::vector<ArgInit> args;
    std::string error;
  };
  const std::uint64_t huge = std::numeric_limits<std::uint64_t>::max();
  const Case cases[] = {
      {{ArgInit::of_array(1u << 11), ArgInit::of_array((1u << 11) + 1)},
       "memory cap exceeded: 4097 cells > cap 4096"},
      {{ArgInit::of_array(std::uint64_t{1} << 62), ArgInit::of_array(1)},
       "memory cap exceeded"},
      {{ArgInit::of_array(2), ArgInit::of_array(huge)}, "memory cap exceeded"},
  };
  for (const Case& c : cases) {
    try {
      (void)profiler::run_capture(m, "kernel", c.args, opts);
      ADD_FAILURE() << "no fault for " << c.error;
    } catch (const InterpError& e) {
      EXPECT_EQ(std::string(e.what()).rfind(c.error, 0), 0u) << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "not a memory-cap fault: " << e.what();
    }
  }
}

/// The observed run that profiles: profiler::run on Engine<DepRecorder>.
profiler::RunResult run_recorded(const ir::Module& m, const std::string& entry,
                                 const std::vector<ArgInit>& args,
                                 const profiler::InterpOptions& opts = {}) {
  profiler::ObjectTable objects;
  profiler::DepRecorder rec(objects);
  return profiler::run(m, entry, args, rec, objects, opts);
}

// Every entry point of the micro-op engine: the recorder's observed run,
// unobserved capture, and a parallel run whose empty plan shards nothing.
template <typename Check>
void for_each_entry_point(const ir::Module& m, const std::string& entry,
                          const std::vector<ArgInit>& args, Check&& check) {
  check("run", [&] { return run_recorded(m, entry, args); });
  check("run_capture",
        [&] { return profiler::run_capture(m, entry, args).run; });
  check("run_parallel", [&] {
    profiler::ParPlan empty;
    profiler::ParRunOptions opts;
    opts.threads = 1;
    return profiler::run_parallel(m, entry, args, empty, opts).run;
  });
}

TEST(Interp, BlockWithoutTerminatorFallsOffAtEveryEntryPoint) {
  // Hand-built IR the verifier would reject: the entry block computes a
  // value and ends there. Running off it executes the block's sentinel.
  ir::Module m;
  m.name = "t";
  auto fn = std::make_unique<ir::Function>();
  fn->name = "f";
  fn->return_type = ir::TypeKind::Int;
  ir::IrBuilder b(*fn);
  b.set_insert(b.new_block("entry"));
  b.binop(ir::Opcode::Add, ir::TypeKind::Int, ir::Value::imm(std::int64_t{1}),
          ir::Value::imm(std::int64_t{2}));
  m.functions.push_back(std::move(fn));
  for_each_entry_point(m, "f", {}, [](const char* entry, auto&& go) {
    try {
      go();
      ADD_FAILURE() << entry << " ran off the block without a fault";
    } catch (const InterpError& e) {
      EXPECT_STREQ(e.what(), "fell off block in @f") << entry;
    }
  });
  // The sentinel is checked before the step count: with the budget ending
  // exactly on it, running off the block still wins over fuel exhaustion.
  profiler::InterpOptions one_step;
  one_step.max_steps = 1;
  try {
    (void)run_recorded(m, "f", {}, one_step);
    ADD_FAILURE() << "run ran off the block without a fault";
  } catch (const InterpError& e) {
    EXPECT_STREQ(e.what(), "fell off block in @f");
  }
  try {
    (void)profiler::run_capture(m, "f", {}, one_step);
    ADD_FAILURE() << "run_capture ran off the block without a fault";
  } catch (const InterpError& e) {
    EXPECT_STREQ(e.what(), "fell off block in @f");
  }
}

TEST(Interp, FrameSlotsAgreeAcrossEntryPoints) {
  // Immediates of both types, int/float scalar and array arguments, and a
  // user call whose operands mix an immediate, a register and arguments
  // (the spill path that reads IR operands instead of frame slots).
  const ir::Module m = frontend::compile(R"(
int helper(int x, float y, int[] b, int k) {
  return x * 2 + b[k] + (int) y;
}
int kernel(int n, float f, int[] a) {
  int s = 7;
  for (int i = 0; i < n; i += 1) {
    s = s + a[i] * 3 + helper(i, 2.5, a, n - 1 - i);
  }
  return s + (int) (f * 4.0) - 1;
}
)",
                                         "t");
  constexpr std::int64_t kN = 24;
  const std::vector<ArgInit> args = {ArgInit::of_int(kN),
                                     ArgInit::of_float(1.75),
                                     ArgInit::of_array(kN, 5)};
  // The expected value, recomputed from the (unmodified) array contents.
  const auto capture = profiler::run_capture(m, "kernel", args);
  const auto& a = capture.arg_arrays[2];
  ASSERT_EQ(a.size(), static_cast<std::size_t>(kN));
  std::int64_t expect = 7;
  for (std::int64_t i = 0; i < kN; ++i) {
    expect += a[i].i * 3 + (i * 2 + a[kN - 1 - i].i + 2);
  }
  expect += 7 - 1;
  EXPECT_EQ(capture.run.return_value.i, expect);

  for_each_entry_point(m, "kernel", args, [&](const char* entry, auto&& go) {
    const profiler::RunResult r = go();
    EXPECT_EQ(r.return_value.kind, profiler::RtVal::Kind::Int) << entry;
    EXPECT_EQ(r.return_value.i, expect) << entry;
    EXPECT_EQ(r.steps, capture.run.steps) << entry;
  });
}

TEST(Interp, MissingEntryAndArgMismatch) {
  const ir::Module m = frontend::compile("void f() {}", "t");
  EXPECT_THROW((void)profiler::run_capture(m, "kernel", {}), InterpError);
  std::vector<ArgInit> extra = {ArgInit::of_int(1)};
  EXPECT_THROW((void)profiler::run_capture(m, "f", extra), InterpError);
}

}  // namespace
