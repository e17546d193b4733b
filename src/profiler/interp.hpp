// IR interpreter with instrumentation hooks.
//
// Stands in for "compile with clang + run the DiscoPoP-instrumented binary":
// it executes MiniC IR directly and reports every memory access and loop
// event to an observer (observer.hpp). Determinism: given the same module,
// entry and argument seeds, a run is bit-reproducible.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/function.hpp"
#include "profiler/mem_object.hpp"
#include "profiler/observer.hpp"

namespace mvgnn::profiler {

/// Thrown on runtime faults: out-of-bounds index, division by zero, missing
/// entry function, step-budget exhaustion, call-depth overflow.
struct InterpError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// How to synthesize one entry-function argument.
struct ArgInit {
  std::int64_t int_val = 0;     // scalar int parameters
  double float_val = 0.0;       // scalar float parameters
  std::uint64_t array_size = 0; // element count for array parameters
  std::uint64_t fill_seed = 1;  // deterministic fill pattern for arrays

  static ArgInit of_int(std::int64_t v) { ArgInit a; a.int_val = v; return a; }
  static ArgInit of_float(double v) { ArgInit a; a.float_val = v; return a; }
  static ArgInit of_array(std::uint64_t n, std::uint64_t seed = 1) {
    ArgInit a;
    a.array_size = n;
    a.fill_seed = seed;
    return a;
  }
};

/// The one argument rule for an entry given as source alone (the CLI file
/// commands, the examples, the serve daemon): the parameter at position k
/// (from 0) gets 4096 cells filled with seed k + 1 if it is an array, 8 if
/// it is an int and 1.0 if it is a float. Corpus programs record their own
/// arguments instead.
[[nodiscard]] std::vector<ArgInit> default_args(const ir::Function& entry);

struct InterpOptions {
  /// Fuel: dynamic instruction budget. A pathological program (infinite
  /// loop, runaway recursion driver) traps with InterpError instead of
  /// hanging the profiler. Counted in `interp.fuel_exhausted_total`.
  std::uint64_t max_steps = 200'000'000;
  std::uint32_t max_call_depth = 4096;
  /// Memory cap in cells (one cell = one scalar/array element, 16 bytes).
  /// An OOM-allocator program traps instead of taking the build down with
  /// it. Default 1<<24 cells = 256 MiB. Counted in
  /// `interp.mem_cap_exceeded_total`.
  std::uint64_t max_mem_cells = 1ull << 24;
};

/// Runtime scalar or array-handle value.
struct RtVal {
  enum class Kind : std::uint8_t { Int, Float, ArrayRef } kind = Kind::Int;
  std::int64_t i = 0;
  double f = 0.0;
  Addr base = 0;           // ArrayRef
  std::uint64_t size = 0;  // ArrayRef element count
  ir::TypeKind elem = ir::TypeKind::Void;  // ArrayRef element type
};

/// Result of one interpreted run.
struct RunResult {
  RtVal return_value;
  std::uint64_t steps = 0;  // dynamic instruction count
};

/// One interpreter memory cell, holding both representations (the access
/// type decides which side is live). Public so runs can expose their final
/// argument-array contents for output-equality checks.
struct MemCell {
  std::int64_t i = 0;
  double f = 0.0;
};

/// A run plus its observable output memory: the final contents of every
/// array argument (scalar parameters get an empty vector). This is what the
/// parallelize pass compares between sequential and parallel execution.
struct CapturedRun {
  RunResult run;
  std::vector<std::vector<MemCell>> arg_arrays;
};

/// Executes `entry(args...)` of `m`, reporting events to `obs`. The object
/// table is an in/out parameter so callers can resolve the addresses the
/// observer saw, and fetch argument arrays after the run. Defined in
/// engine.hpp: the library instantiates it for DepRecorder (declared next to
/// the recorder); a test or bench with its own observer includes engine.hpp.
template <ExecObserver Obs>
RunResult run(const ir::Module& m, const std::string& entry,
              std::span<const ArgInit> args, Obs& obs, ObjectTable& objects,
              const InterpOptions& opts = {});

/// Unobserved sequential run that captures the final contents of the array
/// arguments — the reference side of the parallel-equivalence check and the
/// sequential baseline of the parallelize speedup table.
[[nodiscard]] CapturedRun run_capture(const ir::Module& m,
                                      const std::string& entry,
                                      std::span<const ArgInit> args,
                                      const InterpOptions& opts = {});

}  // namespace mvgnn::profiler
