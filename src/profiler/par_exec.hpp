// Parallel interpreter mode: executes a program whose DOALL / reduction
// loops have been rewritten (by transform::parallelize) into iteration-range
// shards that run concurrently on par::TaskGroup.
//
// Execution model. The master engine interprets the program normally until
// it reaches the LoopEnter of a planned loop in the entry function. There it
// evaluates the loop's trip count from the recorded bound recipe, splits the
// iteration space [0, trip) into a *fixed* number of shards (independent of
// the worker-thread count), and hands each shard a private execution
// context:
//   - privatized scalar slots (including the induction variable) live in a
//     per-shard overlay, copy-in / last-writer-wins copy-out;
//   - per-iteration temporary arrays get a private copy of the backing
//     range;
//   - reduction accumulators (scalar or array) start at the operator's
//     identity and are combined with the deterministic stride-doubling
//     tree-merge order (the ag::tree_merge pattern), then folded into the
//     shared cell once;
//   - Alloca/AllocArr executed inside a shard (loop-body locals, callee
//     frames) allocate from a shard-local arena, so shards never grow the
//     shared memory image.
// Everything else reads and writes the shared memory image directly — the
// planner guarantees those accesses are iteration-disjoint.
//
// Determinism contract (docs/parallelize.md): the shard count and the merge
// order are fixed, so a parallel run's outputs are bit-identical for every
// worker-thread count. Integer and min/max reductions are additionally
// bit-identical to the sequential run; float +/* reductions are
// re-associated (validated within tolerance by transform::run_equivalence).
//
// Master and shards run on the same micro-op engine as profiler::run and
// run_capture, instantiated with hooks that inline to nothing. An empty plan
// therefore executes exactly like run_capture, so the measured speedup of a
// plan is thread scaling alone. The master honours the `interp.trap` fault
// site through its fuel compare; shards never arm it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ir/function.hpp"
#include "profiler/interp.hpp"

namespace mvgnn::profiler {

/// Reduction operator a shard accumulates under (mirrors
/// analysis::ReductionOp; redeclared here so the profiler layer does not
/// depend on the analysis layer).
enum class ParReduceOp : std::uint8_t { Sum, Product, Min, Max };

/// How the master evaluates the loop bound at LoopEnter: the header
/// compare's right-hand operand, re-evaluated over loop-invariant slots,
/// integer arguments and immediates.
struct ParBound {
  ir::Value value;                      // cmp RHS in the header block
  ir::Opcode cmp = ir::Opcode::CmpLt;   // CmpLt/CmpLe (step>0), CmpGt/CmpGe
};

struct ParScalarReduction {
  ir::InstrId slot = ir::kNoInstr;  // Alloca of the accumulator
  ParReduceOp op = ParReduceOp::Sum;
  bool is_float = false;
};

/// Array identity shared by array reductions and privatized temp arrays:
/// either an entry-function array parameter or a local AllocArr register.
struct ParArrayRef {
  bool is_arg = false;
  std::uint32_t arg = 0;
  ir::InstrId alloca_id = ir::kNoInstr;
};

struct ParArrayReduction {
  ParArrayRef array;
  ParReduceOp op = ParReduceOp::Sum;
  bool is_float = false;
};

/// One planned loop of the entry function.
struct ParLoop {
  ir::LoopId loop = ir::kNoLoop;
  std::int64_t step = 1;  // immediate latch increment, never 0
  ParBound bound;
  /// Scalar Allocas privatized per shard (copy-in, last-storing-shard
  /// copy-out). Never contains the induction slot (handled separately) or a
  /// reduction accumulator.
  std::vector<ir::InstrId> private_slots;
  std::vector<ParScalarReduction> scalar_reductions;
  std::vector<ParArrayReduction> array_reductions;
  /// Per-iteration temporary arrays: private copy per shard, copy-out from
  /// the last shard that stored.
  std::vector<ParArrayRef> private_arrays;
};

/// A parallel execution plan for one entry function, produced by
/// transform::plan_parallel. Loops planned inside another planned loop are
/// legal but only the dynamically outermost one is sharded (shards execute
/// inner planned loops sequentially).
struct ParPlan {
  std::string fn;  // entry function name; all planned loops live in it
  std::vector<ParLoop> loops;

  [[nodiscard]] bool empty() const { return loops.empty(); }
};

struct ParRunOptions : InterpOptions {
  /// Worker tasks the shards fan out over: min(threads, kParShards) tasks
  /// on the global pool, task r running shards r, r + width, ... (<=1 runs
  /// them inline on the caller). Outputs are bit-identical for every value;
  /// the shard count is fixed by kParShards, not by this.
  std::uint32_t threads = 1;
};

/// Fixed shard count per parallel loop instance (the determinism anchor).
inline constexpr std::uint32_t kParShards = 8;

/// Result of a parallel-mode run: the captured run (return value, steps
/// and final array-argument memory, as from run_capture) plus the number of
/// sharded loop instances.
struct ParOutput : CapturedRun {
  /// Dynamic count of sharded loop instances (0 means the plan never
  /// intercepted — e.g. every planned loop had trip count 0).
  std::uint64_t parallel_loops = 0;
};

/// Executes `entry(args...)` in parallel mode under `plan`. Throws
/// InterpError on the same faults as profiler::run, plus plan/runtime
/// mismatches (e.g. a privatized slot whose Alloca never executed).
[[nodiscard]] ParOutput run_parallel(const ir::Module& m,
                                     const std::string& entry,
                                     std::span<const ArgInit> args,
                                     const ParPlan& plan,
                                     const ParRunOptions& opts = {});

}  // namespace mvgnn::profiler
