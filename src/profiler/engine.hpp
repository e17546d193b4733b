// The micro-op engine: one pre-decoded MiniC IR interpreter, templated on
// its observer. Internal header of src/profiler: engine.cpp instantiates it
// for the library, and a test or bench that observes a run with its own
// concrete observer includes this header to instantiate profiler::run on
// that type. The library holds two instantiations:
//
//   profiler::run (DepRecorder&)   Engine<DepRecorder>: the recorder's hooks
//                                  inline into the dispatch loop. This is
//                                  the run behind profiler::profile,
//                                  instantiated once in engine.cpp.
//   run_capture                    Engine<NoHooks>: the hooks inline to
//                                  nothing.
//   run_parallel                   Engine<NoHooks> as master, plus one shard
//                                  engine per iteration range of a planned
//                                  loop (see par_exec.hpp for the execution
//                                  model).
//
// Layout of the address space during a parallel section:
//
//   [0, high_water)            shared memory image, owned by the master
//   [kArenaBase * (s+1), ...)  shard s's private allocation arena
//
// The shared image never grows while shards run (shard Alloca/AllocArr go
// to the arena), so concurrent shards index a stable vector and the
// planner's iteration-disjointness guarantee makes their shared writes
// race-free. Privatized cells are resolved in the shard overlay before the
// shared image is consulted.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/task_group.hpp"
#include "profiler/par_exec.hpp"

namespace mvgnn::profiler {

namespace detail {

using ir::Function;
using ir::Instruction;
using ir::InstrId;
using ir::LoopId;
using ir::Opcode;
using ir::TypeKind;
using ir::Value;

using Cell = MemCell;

/// Shard arenas start far above any shared address (the shared image is
/// capped at max_mem_cells <= 2^24 cells in practice; anything at or above
/// kArenaBase is arena-resident by construction).
inline constexpr Addr kArenaBase = 1ull << 40;

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

inline Cell reduce_identity(ParReduceOp op) {
  Cell c;
  switch (op) {
    case ParReduceOp::Sum:
      c.i = 0;
      c.f = 0.0;
      break;
    case ParReduceOp::Product:
      c.i = 1;
      c.f = 1.0;
      break;
    case ParReduceOp::Min:
      c.i = std::numeric_limits<std::int64_t>::max();
      c.f = std::numeric_limits<double>::infinity();
      break;
    case ParReduceOp::Max:
      c.i = std::numeric_limits<std::int64_t>::min();
      c.f = -std::numeric_limits<double>::infinity();
      break;
  }
  return c;  // both sides are set; the access type picks one
}

inline void reduce_into(Cell& a, const Cell& b, ParReduceOp op,
                        bool is_float) {
  switch (op) {
    case ParReduceOp::Sum:
      if (is_float) a.f += b.f; else a.i += b.i;
      break;
    case ParReduceOp::Product:
      if (is_float) a.f *= b.f; else a.i *= b.i;
      break;
    case ParReduceOp::Min:
      if (is_float) a.f = std::fmin(a.f, b.f); else a.i = std::min(a.i, b.i);
      break;
    case ParReduceOp::Max:
      if (is_float) a.f = std::fmax(a.f, b.f); else a.i = std::max(a.i, b.i);
      break;
  }
}

/// Folds the shards' partials of `n` reduction cells into `dst`. Each cell
/// merges its kParShards partials in the stride-doubling tree order (the
/// ag::tree_merge order), then folds the result into the shared cell; the
/// operator is fixed per call, so the loop carries no switch.
template <ParReduceOp kOp, bool kFloat>
void merge_partials(Cell* dst, const Cell* const* parts, std::uint64_t n) {
  for (std::uint64_t j = 0; j < n; ++j) {
    Cell t[kParShards];
    for (std::uint32_t s = 0; s < kParShards; ++s) t[s] = parts[s][j];
    for (std::uint32_t stride = 1; stride < kParShards; stride *= 2) {
      for (std::uint32_t i = 0; i + stride < kParShards; i += 2 * stride) {
        reduce_into(t[i], t[i + stride], kOp, kFloat);
      }
    }
    reduce_into(dst[j], t[0], kOp, kFloat);
  }
}

inline void merge_partials(Cell* dst, const Cell* const* parts,
                           std::uint64_t n, ParReduceOp op, bool is_float) {
  switch (op) {
    case ParReduceOp::Sum:
      return is_float ? merge_partials<ParReduceOp::Sum, true>(dst, parts, n)
                      : merge_partials<ParReduceOp::Sum, false>(dst, parts, n);
    case ParReduceOp::Product:
      return is_float
                 ? merge_partials<ParReduceOp::Product, true>(dst, parts, n)
                 : merge_partials<ParReduceOp::Product, false>(dst, parts, n);
    case ParReduceOp::Min:
      return is_float ? merge_partials<ParReduceOp::Min, true>(dst, parts, n)
                      : merge_partials<ParReduceOp::Min, false>(dst, parts, n);
    case ParReduceOp::Max:
      return is_float ? merge_partials<ParReduceOp::Max, true>(dst, parts, n)
                      : merge_partials<ParReduceOp::Max, false>(dst, parts, n);
  }
}

// ---- pre-decoded program form --------------------------------------------
//
// The engine never executes ir::Instruction directly: each function is
// decoded once per run into one contiguous micro-op array with pre-resolved
// operands and callees. That removes the two dependent loads per step
// (block -> instr id -> arena slot), the heap hop into each instruction's
// operand vector, and the per-call builtin-name string compares.
//
// Operands are frame slots. A frame is laid out as
//
//   [0, arg_base)             instruction registers (indexed by InstrId)
//   [arg_base, const_base)    the call's arguments
//   [const_base, frame_size)  the function's constant pool
//
// so every value operand — register, argument or immediate — is one slot
// read, with no kind dispatch. Branch operands are code offsets. Every
// block ends in a kEndOfBlock sentinel, so the dispatch loop needs no
// bounds compare: running off a block executes the sentinel, which traps.

enum class BuiltinId : std::uint8_t {
  Sqrt, Exp, Log, Sin, Cos, Fabs, Pow, Fmin, Fmax, Imin, Imax, Iabs, None
};

/// Decode-only micro-op codes, numbered past the last ir::Opcode: the
/// sentinel closing every block, and the trap that replaces an instruction
/// whose operand names no value (executing it faults, as reading the
/// operand did before decode resolved it).
inline constexpr std::uint8_t kFirstEngineOp =
    static_cast<std::uint8_t>(Opcode::LoopExit) + 1;
inline constexpr Opcode kEndOfBlock = static_cast<Opcode>(kFirstEngineOp);
inline constexpr Opcode kBadOperand = static_cast<Opcode>(kFirstEngineOp + 1);

struct MicroOp {
  Opcode op = Opcode::Ret;
  TypeKind type = TypeKind::Void;
  std::uint8_t nops = 0;
  BuiltinId builtin = BuiltinId::None;
  InstrId id = 0;                  // result register (kEndOfBlock: slot 0)
  LoopId loop = ir::kNoLoop;       // loop markers only
  /// Frame slots of value operands; code offsets of branch targets. User
  /// calls leave them unset and spill through fn.instr(id).
  std::uint32_t ops[3] = {};
};

struct DecodedFn {
  const Function* fn = nullptr;
  /// Every block's micro-ops back to back, each closed by a kEndOfBlock.
  std::vector<MicroOp> code;
  std::vector<std::uint32_t> block_start;  // code offset, indexed by BlockId
  /// Pre-resolved user-call targets, indexed by InstrId (call sites only).
  std::vector<const DecodedFn*> callees;
  std::uint32_t arg_base = 0;    // == fn->instrs.size()
  std::uint32_t const_base = 0;  // == arg_base + fn->params.size()
  std::vector<RtVal> consts;     // copied to [const_base, ...) of each frame

  /// Slot count of one frame (at least 1: the sentinel writes no register
  /// but names slot 0).
  [[nodiscard]] std::size_t frame_size() const {
    return std::max<std::size_t>(1, const_base + consts.size());
  }
};

/// Every function of the module, decoded in module order (engine.cpp).
struct DecodedModule {
  std::vector<DecodedFn> fns;

  explicit DecodedModule(const ir::Module& m);

  [[nodiscard]] const DecodedFn* find(const Function* fn) const {
    for (const DecodedFn& d : fns) {
      if (d.fn == fn) return &d;
    }
    return nullptr;
  }
};

// ---- observer policies ---------------------------------------------------

/// Observer policy of unobserved runs: every hook inlines to nothing.
struct NoHooks {
  void on_instr(const Function&, InstrId) {}
  void on_block_end(const Function&, InstrId) {}
  void on_load(const Function&, InstrId, Addr) {}
  void on_store(const Function&, InstrId, Addr) {}
  void on_loop_enter(const Function&, LoopId) {}
  void on_loop_iter(const Function&, LoopId) {}
  void on_loop_exit(const Function&, LoopId) {}
};

// ---- per-shard execution context -----------------------------------------

struct PrivCell {
  Addr addr = 0;
  Cell cell;
  bool stored = false;
};

struct PrivRange {
  Addr base = 0;
  std::uint64_t size = 0;
  bool stored = false;
  std::vector<Cell> cells;  // copy-in of the shared range
};

struct RedCell {
  Addr addr = 0;
  ParReduceOp op = ParReduceOp::Sum;
  bool is_float = false;
  Cell acc;  // starts at the identity
};

struct RedRange {
  Addr base = 0;
  std::uint64_t size = 0;
  ParReduceOp op = ParReduceOp::Sum;
  bool is_float = false;
  std::vector<Cell> cells;  // the shard's partial, starting at the identity
};

struct ShardCtx {
  Addr iv_addr = 0;
  Cell iv;
  std::uint64_t quota = 0;   // iterations this shard owns
  std::uint64_t heads = 0;   // LoopHead count at shard depth 0
  std::size_t overlay = 0;   // total privatized/reduced targets (0 = none)
  std::vector<PrivCell> priv;
  std::vector<PrivRange> priv_ranges;
  std::vector<RedCell> reds;
  std::vector<RedRange> red_ranges;
  Addr arena_base = 0;
  std::vector<Cell> arena;
  std::uint64_t steps = 0;
};

// ---- the engine ----------------------------------------------------------

/// One instance is the master; shard instances share the master's memory
/// image through pointers and resolve privatized cells in their ShardCtx.
/// `Obs` receives every dynamic event: DepRecorder (or a test or bench
/// observer) for profiler::run, NoHooks for the unobserved runs.
template <ExecObserver Obs>
class Engine {
  static constexpr bool kObserved = !std::is_same_v<Obs, NoHooks>;

 public:
  /// Master. `plan` is null for sequential runs; `objects` receives every
  /// allocation so callers can resolve the addresses the observer saw.
  Engine(const ir::Module& m, Obs& obs, ObjectTable& objects,
         const ParRunOptions& opts, const ParPlan* plan)
      : m_(m), obs_(obs), opts_(opts), plan_(plan), objects_(&objects) {}

  // Shard: shares the master's memory image, intercepts nothing, and never
  // arms the injected trap.
  Engine(const Engine& master, ShardCtx& ctx, LoopId loop)
      : m_(master.m_),
        obs_(master.obs_),
        opts_(master.opts_),
        mem_(master.mem_),
        code_(master.code_),
        shard_(&ctx),
        shard_loop_(loop),
        step_limit_(fuel_limit()) {}

  RunResult run_entry(const std::string& entry,
                      std::span<const ArgInit> inits) {
    // Fault injection: the armed trap step joins the fuel limit, so the
    // step path keeps a single compare (out_of_steps picks the message).
    step_limit_ = std::min(fuel_limit(),
                           fault::armed_nth("interp.trap").value_or(
                               std::numeric_limits<std::uint64_t>::max()));
    const Function* fn = m_.find(entry);
    if (!fn) throw InterpError("entry function '" + entry + "' not found");
    if (inits.size() != fn->params.size()) {
      throw InterpError("argument count mismatch for '" + entry + "'");
    }
    entry_fn_ = fn;
    mem_ = &owned_mem_;
    reserve_mem(*fn, inits);
    auto code = std::make_shared<const DecodedModule>(m_);
    const DecodedFn& dfn = *code->find(fn);
    code_ = std::move(code);
    entry_args_.clear();
    entry_args_.reserve(inits.size());
    for (std::size_t i = 0; i < inits.size(); ++i) {
      entry_args_.push_back(make_arg(fn->params[i], inits[i]));
    }
    RunResult res;
    res.return_value = exec(dfn, entry_args_, 0);
    res.steps = steps_;
    return res;
  }

  /// Final contents of every entry array argument (empty for scalars).
  [[nodiscard]] std::vector<std::vector<Cell>> arg_arrays() const {
    std::vector<std::vector<Cell>> out;
    out.reserve(entry_args_.size());
    for (const RtVal& a : entry_args_) {
      std::vector<Cell> cells;
      if (a.kind == RtVal::Kind::ArrayRef) {
        cells.assign(
            owned_mem_.begin() + static_cast<std::ptrdiff_t>(a.base),
            owned_mem_.begin() + static_cast<std::ptrdiff_t>(a.base + a.size));
      }
      out.push_back(std::move(cells));
    }
    return out;
  }

  [[nodiscard]] std::uint64_t parallel_loops() const { return parallel_loops_; }

  /// Shard entry: runs iterations [k0, k0+quota) of the planned loop,
  /// starting at the header block with the context's private induction
  /// value. `frame` is a copy of the master's entry frame (arguments and
  /// constants included). Returns the shard's dynamic step count.
  std::uint64_t run_shard(const DecodedFn& dfn, std::vector<RtVal> frame,
                          ir::BlockId header) {
    shard_regs_ = std::move(frame);
    exec(dfn, {}, header, &shard_regs_);
    shard_->steps = steps_;
    return steps_;
  }

 private:
  /// First step count past the fuel budget (saturating).
  [[nodiscard]] std::uint64_t fuel_limit() const {
    return opts_.max_steps == std::numeric_limits<std::uint64_t>::max()
               ? opts_.max_steps
               : opts_.max_steps + 1;
  }

  /// The fault of a block's kEndOfBlock sentinel.
  [[noreturn]] static void fell_off(const Function& fn) {
    throw InterpError("fell off block in @" + fn.name);
  }

  /// Slow path of the step compare: the count reached the fuel budget or
  /// the injected trap. Fuel wins when both fall on the same step.
  [[noreturn]] void out_of_steps(const Function& fn) const {
    if (steps_ > opts_.max_steps) {
      obs::Registry::global().counter("interp.fuel_exhausted_total").add(1);
      throw InterpError("fuel exhausted: step budget " +
                        std::to_string(opts_.max_steps) + " exceeded in @" +
                        fn.name);
    }
    throw InterpError("injected trap at step " + std::to_string(steps_) +
                      " in @" + fn.name);
  }

  RtVal make_arg(const ir::Param& p, const ArgInit& init) {
    RtVal v;
    switch (p.type) {
      case TypeKind::Int:
        v.kind = RtVal::Kind::Int;
        v.i = init.int_val;
        return v;
      case TypeKind::Float:
        v.kind = RtVal::Kind::Float;
        v.f = init.float_val;
        return v;
      case TypeKind::ArrInt:
      case TypeKind::ArrFloat: {
        MemObject obj;
        obj.kind = ObjKind::ArgArray;
        obj.name = p.name;
        const Addr base = objects_->allocate(obj, init.array_size);
        ensure_mem();
        // Deterministic fill. Int arrays get in-range indices so indirect
        // subscripts (A[B[i]]) stay in bounds; float arrays get values in
        // [0.5, 1.5) to keep reductions numerically tame.
        for (std::uint64_t k = 0; k < init.array_size; ++k) {
          const std::uint64_t h = splitmix64(init.fill_seed * 0x9E37 + k);
          Cell& c = owned_mem_[base + k];
          if (p.type == TypeKind::ArrInt) {
            c.i = init.array_size
                      ? static_cast<std::int64_t>(h % init.array_size)
                      : 0;
          } else {
            c.f = 0.5 + static_cast<double>(h % (1u << 20)) / (1u << 20);
          }
        }
        v.kind = RtVal::Kind::ArrayRef;
        v.base = base;
        v.size = init.array_size;
        v.elem = ir::element_type(p.type);
        return v;
      }
      case TypeKind::Void:
        throw InterpError("void parameter");
    }
    return v;
  }

  void check_mem_cap(Addr cells) const {
    if (cells > opts_.max_mem_cells) {
      obs::Registry::global().counter("interp.mem_cap_exceeded_total").add(1);
      throw InterpError("memory cap exceeded: " + std::to_string(cells) +
                        " cells > cap " + std::to_string(opts_.max_mem_cells));
    }
  }

  /// Reserves the memory image once per run: the entry arrays as make_arg
  /// lays them out, checked against the cap first, plus 1024 cells for the
  /// program's own allocations (ensure_mem grows it past that).
  void reserve_mem(const Function& fn, std::span<const ArgInit> inits) {
    constexpr Addr kMax = std::numeric_limits<Addr>::max();
    Addr cells = objects_->high_water();
    for (std::size_t i = 0; i < inits.size(); ++i) {
      if (!ir::is_array(fn.params[i].type)) continue;
      const Addr n = std::max<Addr>(inits[i].array_size, 1);
      cells = n > kMax - cells ? kMax : cells + n;  // saturates
      check_mem_cap(cells);
    }
    owned_mem_.reserve(cells +
                       std::min<Addr>(1024, opts_.max_mem_cells - cells));
  }

  void ensure_mem() {
    const Addr hw = objects_->high_water();
    check_mem_cap(hw);
    if (owned_mem_.size() < hw) owned_mem_.resize(hw);
  }

  [[noreturn]] static void fault(const Function& fn, InstrId id,
                                 const std::string& msg) {
    throw InterpError("@" + fn.name + " line " +
                      std::to_string(fn.instr(id).loc.line) + ": " + msg);
  }

  /// Resolves an address. Shards consult their overlay first; `overlay ==
  /// 0` (pure DOALL over shared arrays) skips the scans. A store marks a
  /// privatized target so the master copies out from the last shard that
  /// stored.
  template <bool kStore>
  Cell& cell(Addr a) {
    if (shard_) {
      ShardCtx& c = *shard_;
      if (a >= c.arena_base) return c.arena[a - c.arena_base];
      if (a == c.iv_addr) return c.iv;
      if (c.overlay != 0) {
        for (PrivCell& p : c.priv) {
          if (p.addr == a) {
            if constexpr (kStore) p.stored = true;
            return p.cell;
          }
        }
        for (RedCell& r : c.reds) {
          if (r.addr == a) return r.acc;
        }
        for (RedRange& r : c.red_ranges) {
          if (a >= r.base && a < r.base + r.size) return r.cells[a - r.base];
        }
        for (PrivRange& r : c.priv_ranges) {
          if (a >= r.base && a < r.base + r.size) {
            if constexpr (kStore) r.stored = true;
            return r.cells[a - r.base];
          }
        }
      }
    }
    return (*mem_)[a];
  }

  /// Allocates `n` cells: shards use their private arena (the shared image
  /// must not grow while shards run), the master the shared object table.
  RtVal allocate(const Function& fn, InstrId id, std::uint64_t n,
                 ObjKind kind) {
    const Instruction& in = fn.instr(id);
    RtVal out;
    out.kind = RtVal::Kind::ArrayRef;
    out.size = n;
    out.elem = (in.op == Opcode::Alloca) ? in.type : ir::element_type(in.type);
    if (shard_) {
      ShardCtx& c = *shard_;
      if (c.arena.size() + n > opts_.max_mem_cells) {
        throw InterpError("memory cap exceeded in parallel shard");
      }
      out.base = c.arena_base + c.arena.size();
      c.arena.resize(c.arena.size() + std::max<std::uint64_t>(n, 1));
      return out;
    }
    MemObject obj;
    obj.kind = kind;
    obj.name = in.name;
    obj.fn = &fn;
    obj.alloca_id = id;
    out.base = objects_->allocate(obj, n);
    ensure_mem();
    for (std::uint64_t k = 0; k < n; ++k) owned_mem_[out.base + k] = Cell{};
    return out;
  }

  // ---- bound evaluation --------------------------------------------------

  /// Re-evaluates the (loop-invariant, planner-validated) bound expression
  /// at LoopEnter: immediates, integer arguments, loads of scalar slots and
  /// integer arithmetic over those. Walks the IR, not the decoded operands.
  std::int64_t eval_bound(const DecodedFn& dfn, const Value& v,
                          const std::vector<RtVal>& regs) {
    const Function& fn = *dfn.fn;
    switch (v.kind) {
      case Value::Kind::ImmInt:
        return v.imm_int;
      case Value::Kind::Arg:
        return regs[dfn.arg_base + v.arg].i;
      case Value::Kind::Reg: {
        const Instruction& in = fn.instr(v.reg);
        switch (in.op) {
          case Opcode::Load: {
            const Value& slot = in.operands[0];
            if (!slot.is_reg()) break;
            const RtVal& s = regs[slot.reg];
            if (s.kind != RtVal::Kind::ArrayRef) {
              throw InterpError("bound slot not materialized at LoopEnter");
            }
            return (*mem_)[s.base].i;
          }
          case Opcode::Add:
            return eval_bound(dfn, in.operands[0], regs) +
                   eval_bound(dfn, in.operands[1], regs);
          case Opcode::Sub:
            return eval_bound(dfn, in.operands[0], regs) -
                   eval_bound(dfn, in.operands[1], regs);
          case Opcode::Mul:
            return eval_bound(dfn, in.operands[0], regs) *
                   eval_bound(dfn, in.operands[1], regs);
          case Opcode::Neg:
            return -eval_bound(dfn, in.operands[0], regs);
          default:
            break;
        }
        break;
      }
      default:
        break;
    }
    throw InterpError("unsupported bound expression in parallel plan");
  }

  /// Exact trip count of `for (iv = lo; iv CMP bound; iv += step)`.
  static std::int64_t trip_count(std::int64_t lo, std::int64_t bound,
                                 Opcode cmp, std::int64_t step) {
    switch (cmp) {
      case Opcode::CmpLt:
        return bound > lo ? (bound - lo - 1) / step + 1 : 0;
      case Opcode::CmpLe:
        return bound >= lo ? (bound - lo) / step + 1 : 0;
      case Opcode::CmpGt:
        return lo > bound ? (lo - bound - 1) / (-step) + 1 : 0;
      case Opcode::CmpGe:
        return lo >= bound ? (lo - bound) / (-step) + 1 : 0;
      default:
        return 0;
    }
  }

  // ---- the parallel section ----------------------------------------------

  const ParLoop* planned(const Function& fn, LoopId l) const {
    if (!plan_ || &fn != entry_fn_) return nullptr;
    for (const ParLoop& pl : plan_->loops) {
      if (pl.loop == l) return &pl;
    }
    return nullptr;
  }

  /// Resolves a plan-level array reference against the live frame.
  RtVal resolve_array(const DecodedFn& dfn, const ParArrayRef& ref,
                      const std::vector<RtVal>& regs) {
    const RtVal v = regs[ref.is_arg ? dfn.arg_base + ref.arg : ref.alloca_id];
    if (v.kind != RtVal::Kind::ArrayRef) {
      throw InterpError("@" + dfn.fn->name +
                        ": planned array not materialized at LoopEnter");
    }
    return v;
  }

  /// Executes one instance of a planned loop as kParShards iteration-range
  /// shards. On return the shared image holds the merged result; the caller
  /// jumps to the loop's exit block.
  void parallel_loop(const DecodedFn& dfn, const ParLoop& pl,
                     const std::vector<RtVal>& regs) {
    const Function& fn = *dfn.fn;
    const ir::LoopInfo& loop = fn.loops[pl.loop];
    const RtVal ivr = regs[loop.induction_slot];
    if (ivr.kind != RtVal::Kind::ArrayRef) {
      throw InterpError("@" + fn.name +
                        ": induction slot not materialized at LoopEnter");
    }
    const Addr iv_addr = ivr.base;
    const std::int64_t lo = (*mem_)[iv_addr].i;
    const std::int64_t bound = eval_bound(dfn, pl.bound.value, regs);
    const std::int64_t trip = trip_count(lo, bound, pl.bound.cmp, pl.step);
    if (trip <= 0) return;  // zero-trip: the body never ran, iv stays lo
    ++parallel_loops_;

    // Resolve privatization targets once against the live frame.
    std::vector<std::pair<Addr, Cell>> priv_init;
    priv_init.reserve(pl.private_slots.size());
    for (const InstrId slot : pl.private_slots) {
      const RtVal s = regs[slot];
      if (s.kind != RtVal::Kind::ArrayRef) {
        throw InterpError("@" + fn.name +
                          ": privatized slot not materialized at LoopEnter");
      }
      priv_init.emplace_back(s.base, (*mem_)[s.base]);
    }
    std::vector<RedCell> red_init;
    for (const ParScalarReduction& r : pl.scalar_reductions) {
      const RtVal s = regs[r.slot];
      if (s.kind != RtVal::Kind::ArrayRef) {
        throw InterpError("@" + fn.name +
                          ": reduction slot not materialized at LoopEnter");
      }
      RedCell rc;
      rc.addr = s.base;
      rc.op = r.op;
      rc.is_float = r.is_float;
      rc.acc = reduce_identity(r.op);
      red_init.push_back(rc);
    }
    std::vector<RedRange> red_range_init;
    for (const ParArrayReduction& r : pl.array_reductions) {
      const RtVal a = resolve_array(dfn, r.array, regs);
      RedRange rr;
      rr.base = a.base;
      rr.size = a.size;
      rr.op = r.op;
      rr.is_float = r.is_float;
      red_range_init.push_back(std::move(rr));
    }
    std::vector<PrivRange> priv_range_init;
    for (const ParArrayRef& r : pl.private_arrays) {
      const RtVal a = resolve_array(dfn, r, regs);
      PrivRange pr;
      pr.base = a.base;
      pr.size = a.size;
      pr.cells.assign(
          mem_->begin() + static_cast<std::ptrdiff_t>(a.base),
          mem_->begin() + static_cast<std::ptrdiff_t>(a.base + a.size));
      priv_range_init.push_back(std::move(pr));
    }

    // Build the fixed shard set. Shard s owns [trip*s/S, trip*(s+1)/S).
    const std::uint32_t S = kParShards;
    std::vector<std::unique_ptr<ShardCtx>> shards(S);
    for (std::uint32_t s = 0; s < S; ++s) {
      auto ctx = std::make_unique<ShardCtx>();
      const std::int64_t k0 = trip * s / S;
      const std::int64_t k1 = trip * (s + 1) / S;
      ctx->quota = static_cast<std::uint64_t>(k1 - k0);
      ctx->iv_addr = iv_addr;
      ctx->iv.i = lo + k0 * pl.step;
      for (const auto& [addr, c] : priv_init) {
        ctx->priv.push_back(PrivCell{addr, c, false});
      }
      ctx->reds = red_init;
      ctx->red_ranges = red_range_init;
      // Partials are filled here, on the calling thread: filled by the pool
      // workers they would come from the workers' malloc arenas, which the
      // caller's later allocations cannot reuse.
      for (RedRange& r : ctx->red_ranges) {
        r.cells.assign(r.size, reduce_identity(r.op));
      }
      ctx->priv_ranges = priv_range_init;
      ctx->overlay = ctx->priv.size() + ctx->reds.size() +
                     ctx->red_ranges.size() + ctx->priv_ranges.size();
      ctx->arena_base = kArenaBase * (s + 1);
      shards[s] = std::move(ctx);
    }

    auto run_one = [&](std::uint32_t s) {
      if (shards[s]->quota == 0) return;
      Engine shard_engine(*this, *shards[s], pl.loop);
      shard_engine.run_shard(dfn, regs, loop.header);
    };
    // `threads` sets the fan-out width: worker r runs shards r, r + width,
    // ... The shard set and the merge below do not depend on it.
    const std::uint32_t width = std::clamp(opts_.threads, 1u, S);
    if (width == 1) {
      for (std::uint32_t s = 0; s < S; ++s) run_one(s);
    } else {
      par::TaskGroup group;
      for (std::uint32_t r = 0; r < width; ++r) {
        group.run([&run_one, r, width, S] {
          for (std::uint32_t s = r; s < S; s += width) run_one(s);
        });
      }
      group.wait();  // rethrows the first shard failure
    }
    obs::Registry::global()
        .counter("interp.parallel_shards_total")
        .add(S);

    // ---- deterministic merge (shard order is fixed, threads are not) ----
    for (const auto& ctx : shards) steps_ += ctx->steps;

    // Privatized scalars and temp arrays: ascending shard order, so the
    // last shard that stored wins — the shard owning the final iterations.
    for (const auto& ctx : shards) {
      for (std::size_t p = 0; p < ctx->priv.size(); ++p) {
        if (ctx->priv[p].stored) (*mem_)[ctx->priv[p].addr] = ctx->priv[p].cell;
      }
      for (const PrivRange& r : ctx->priv_ranges) {
        if (!r.stored) continue;
        std::copy(r.cells.begin(), r.cells.end(),
                  mem_->begin() + static_cast<std::ptrdiff_t>(r.base));
      }
    }

    // Reductions: every cell merges its shard partials in one fixed tree.
    const Cell* parts[kParShards];
    for (std::size_t r = 0; r < red_init.size(); ++r) {
      for (std::uint32_t s = 0; s < S; ++s) parts[s] = &shards[s]->reds[r].acc;
      merge_partials(mem_->data() + red_init[r].addr, parts, 1,
                     red_init[r].op, red_init[r].is_float);
    }
    for (std::size_t r = 0; r < red_range_init.size(); ++r) {
      for (std::uint32_t s = 0; s < S; ++s) {
        parts[s] = shards[s]->red_ranges[r].cells.data();
      }
      const RedRange& proto = red_range_init[r];
      merge_partials(mem_->data() + proto.base, parts, proto.size, proto.op,
                     proto.is_float);
    }

    // The induction variable ends where the sequential loop left it.
    (*mem_)[iv_addr].i = lo + trip * pl.step;
  }

  // ---- the dispatch loop ---------------------------------------------------

  /// Interprets `fn` from block `start`. `frame_regs` non-null reuses an
  /// existing frame (shard entry into the middle of the entry function);
  /// otherwise a fresh frame is created and `args` and the constant pool
  /// are copied into its tail.
  RtVal exec(const DecodedFn& dfn, std::span<const RtVal> args,
             ir::BlockId start, std::vector<RtVal>* frame_regs = nullptr) {
    const Function& fn = *dfn.fn;
    if (++depth_ > opts_.max_call_depth) {
      throw InterpError("call depth exceeded in @" + fn.name);
    }
    std::vector<RtVal> local_regs;
    if (!frame_regs) {
      local_regs.resize(dfn.frame_size());
      std::copy_n(args.begin(),
                  std::min<std::size_t>(args.size(),
                                        dfn.const_base - dfn.arg_base),
                  local_regs.begin() + dfn.arg_base);
      std::copy(dfn.consts.begin(), dfn.consts.end(),
                local_regs.begin() + dfn.const_base);
      frame_regs = &local_regs;
    }
    // The frame never resizes while this call runs, so its base and the
    // code base stay in registers.
    RtVal* const regs = frame_regs->data();
    const MicroOp* const code = dfn.code.data();
    const MicroOp* pc = code + dfn.block_start[start];
    RtVal ret;

    // Full resolution of an IR operand: the user-call spill path, whose
    // arguments decode leaves in the IR.
    auto operand = [&](const Value& v) -> RtVal {
      switch (v.kind) {
        case Value::Kind::Reg: return regs[v.reg];
        case Value::Kind::ImmInt: {
          RtVal r;
          r.kind = RtVal::Kind::Int;
          r.i = v.imm_int;
          return r;
        }
        case Value::Kind::ImmFloat: {
          RtVal r;
          r.kind = RtVal::Kind::Float;
          r.f = v.imm_float;
          return r;
        }
        case Value::Kind::Arg:
          if (dfn.arg_base + v.arg < dfn.const_base) {
            return regs[dfn.arg_base + v.arg];
          }
          break;
        default:
          break;
      }
      throw InterpError("bad operand kind at runtime");
    };
    // Decoded operands are frame slots: one read each. An immediate's slot
    // holds it on its own side only (typed IR never reads the other side,
    // which stays 0).
    auto as_int = [regs](std::uint32_t s) { return regs[s].i; };
    auto as_float = [regs](std::uint32_t s) { return regs[s].f; };
    // Runtime kind of a stored value (stores carry no result type).
    auto val_is_float = [regs](std::uint32_t s) {
      return regs[s].kind == RtVal::Kind::Float;
    };
    auto slot_base = [regs](std::uint32_t s) { return regs[s].base; };
    // Bounds-checked address of an indexed access's element.
    auto element = [&](const MicroOp& mop) -> Addr {
      const RtVal& arr = regs[mop.ops[0]];
      const std::int64_t idx = as_int(mop.ops[1]);
      if (idx < 0 || static_cast<std::uint64_t>(idx) >= arr.size) {
        fault(fn, mop.id,
              "index " + std::to_string(idx) + " out of bounds [0," +
                  std::to_string(arr.size) + ")");
      }
      return arr.base + static_cast<Addr>(idx);
    };
    // Typed memory access at a resolved address. The dispatch loop reports
    // the access to the observer before its effect, outside these lambdas:
    // with the recorder's hooks inside, GCC keeps them as calls.
    auto load = [&](RtVal& out, const MicroOp& mop, Addr a) {
      const Cell& c = cell<false>(a);
      if (mop.type == TypeKind::Float) {
        out.kind = RtVal::Kind::Float;
        out.f = c.f;
      } else {
        out.kind = RtVal::Kind::Int;
        out.i = c.i;
      }
    };
    auto store = [&](Addr a, std::uint32_t v) {
      Cell& c = cell<true>(a);
      if (val_is_float(v)) {
        c.f = as_float(v);
      } else {
        c.i = as_int(v);
      }
    };

    // The step counter stays in a register for the dispatch loop and is
    // flushed to the member at every exit (faults abort the run, so a stale
    // member there is harmless).
    std::uint64_t steps = steps_;
    const std::uint64_t step_limit = step_limit_;

    for (;;) {
      const MicroOp& mop = *pc++;
      // Running off a block traps before the step count would: the slow
      // path of the fuel compare checks for the sentinel first.
      if (++steps >= step_limit) {
        steps_ = steps;
        if (mop.op == kEndOfBlock) fell_off(fn);
        out_of_steps(fn);
      }
      if constexpr (kObserved) {
        // The sentinel is no instruction: the hooks must not see it.
        if (mop.op == kEndOfBlock) fell_off(fn);
      }
      obs_.on_instr(fn, mop.id);
      RtVal& out = regs[mop.id];

      switch (mop.op) {
        // ---- integer arithmetic ----
        case Opcode::Add: out.kind = RtVal::Kind::Int; out.i = as_int(mop.ops[0]) + as_int(mop.ops[1]); break;
        case Opcode::Sub: out.kind = RtVal::Kind::Int; out.i = as_int(mop.ops[0]) - as_int(mop.ops[1]); break;
        case Opcode::Mul: out.kind = RtVal::Kind::Int; out.i = as_int(mop.ops[0]) * as_int(mop.ops[1]); break;
        case Opcode::Div: {
          const std::int64_t d = as_int(mop.ops[1]);
          if (d == 0) fault(fn, mop.id, "integer division by zero");
          out.kind = RtVal::Kind::Int;
          out.i = as_int(mop.ops[0]) / d;
          break;
        }
        case Opcode::Rem: {
          const std::int64_t d = as_int(mop.ops[1]);
          if (d == 0) fault(fn, mop.id, "integer modulo by zero");
          out.kind = RtVal::Kind::Int;
          out.i = as_int(mop.ops[0]) % d;
          break;
        }
        case Opcode::Neg: out.kind = RtVal::Kind::Int; out.i = -as_int(mop.ops[0]); break;

        // ---- float arithmetic ----
        case Opcode::FAdd: out.kind = RtVal::Kind::Float; out.f = as_float(mop.ops[0]) + as_float(mop.ops[1]); break;
        case Opcode::FSub: out.kind = RtVal::Kind::Float; out.f = as_float(mop.ops[0]) - as_float(mop.ops[1]); break;
        case Opcode::FMul: out.kind = RtVal::Kind::Float; out.f = as_float(mop.ops[0]) * as_float(mop.ops[1]); break;
        case Opcode::FDiv: out.kind = RtVal::Kind::Float; out.f = as_float(mop.ops[0]) / as_float(mop.ops[1]); break;
        case Opcode::FNeg: out.kind = RtVal::Kind::Float; out.f = -as_float(mop.ops[0]); break;

        // ---- comparisons ----
        case Opcode::CmpEq: out.kind = RtVal::Kind::Int; out.i = as_int(mop.ops[0]) == as_int(mop.ops[1]); break;
        case Opcode::CmpNe: out.kind = RtVal::Kind::Int; out.i = as_int(mop.ops[0]) != as_int(mop.ops[1]); break;
        case Opcode::CmpLt: out.kind = RtVal::Kind::Int; out.i = as_int(mop.ops[0]) < as_int(mop.ops[1]); break;
        case Opcode::CmpLe: out.kind = RtVal::Kind::Int; out.i = as_int(mop.ops[0]) <= as_int(mop.ops[1]); break;
        case Opcode::CmpGt: out.kind = RtVal::Kind::Int; out.i = as_int(mop.ops[0]) > as_int(mop.ops[1]); break;
        case Opcode::CmpGe: out.kind = RtVal::Kind::Int; out.i = as_int(mop.ops[0]) >= as_int(mop.ops[1]); break;
        case Opcode::FCmpEq: out.kind = RtVal::Kind::Int; out.i = as_float(mop.ops[0]) == as_float(mop.ops[1]); break;
        case Opcode::FCmpNe: out.kind = RtVal::Kind::Int; out.i = as_float(mop.ops[0]) != as_float(mop.ops[1]); break;
        case Opcode::FCmpLt: out.kind = RtVal::Kind::Int; out.i = as_float(mop.ops[0]) < as_float(mop.ops[1]); break;
        case Opcode::FCmpLe: out.kind = RtVal::Kind::Int; out.i = as_float(mop.ops[0]) <= as_float(mop.ops[1]); break;
        case Opcode::FCmpGt: out.kind = RtVal::Kind::Int; out.i = as_float(mop.ops[0]) > as_float(mop.ops[1]); break;
        case Opcode::FCmpGe: out.kind = RtVal::Kind::Int; out.i = as_float(mop.ops[0]) >= as_float(mop.ops[1]); break;

        // ---- logic ----
        case Opcode::And: out.kind = RtVal::Kind::Int; out.i = (as_int(mop.ops[0]) != 0) && (as_int(mop.ops[1]) != 0); break;
        case Opcode::Or: out.kind = RtVal::Kind::Int; out.i = (as_int(mop.ops[0]) != 0) || (as_int(mop.ops[1]) != 0); break;
        case Opcode::Not: out.kind = RtVal::Kind::Int; out.i = as_int(mop.ops[0]) == 0; break;

        // ---- conversions ----
        case Opcode::IntToFloat: out.kind = RtVal::Kind::Float; out.f = static_cast<double>(as_int(mop.ops[0])); break;
        case Opcode::FloatToInt: out.kind = RtVal::Kind::Int; out.i = static_cast<std::int64_t>(as_float(mop.ops[0])); break;

        // ---- memory ----
        case Opcode::Alloca:
          out = allocate(fn, mop.id, 1, ObjKind::ScalarLocal);
          break;
        case Opcode::AllocArr: {
          const std::int64_t n = as_int(mop.ops[0]);
          if (n < 0) fault(fn, mop.id, "negative array size");
          out = allocate(fn, mop.id, static_cast<std::uint64_t>(n),
                         ObjKind::ArrayLocal);
          break;
        }
        case Opcode::Load: {
          const Addr a = slot_base(mop.ops[0]);
          obs_.on_load(fn, mop.id, a);
          load(out, mop, a);
          break;
        }
        case Opcode::Store: {
          const Addr a = slot_base(mop.ops[0]);
          obs_.on_store(fn, mop.id, a);
          store(a, mop.ops[1]);
          break;
        }
        case Opcode::LoadIdx: {
          const Addr a = element(mop);
          obs_.on_load(fn, mop.id, a);
          load(out, mop, a);
          break;
        }
        case Opcode::StoreIdx: {
          const Addr a = element(mop);
          obs_.on_store(fn, mop.id, a);
          store(a, mop.ops[2]);
          break;
        }

        // ---- control ----
        case Opcode::Br:
          obs_.on_block_end(fn, mop.id);
          pc = code + mop.ops[0];
          break;
        case Opcode::CondBr:
          obs_.on_block_end(fn, mop.id);
          pc = code + mop.ops[as_int(mop.ops[0]) != 0 ? 1 : 2];
          break;
        case Opcode::Ret:
          obs_.on_block_end(fn, mop.id);
          if (mop.nops != 0) ret = regs[mop.ops[0]];
          steps_ = steps;
          if (shard_ && depth_ == 1) {
            throw InterpError("parallel shard returned from @" + fn.name +
                              " (planned loop has an early exit)");
          }
          --depth_;
          return ret;

        // ---- calls ----
        case Opcode::Call: {
          if (mop.builtin != BuiltinId::None) {
            out = eval_builtin(mop, as_int, as_float);
          } else if (const DecodedFn* callee = dfn.callees[mop.id]) {
            const Instruction& in = fn.instr(mop.id);
            std::vector<RtVal> cargs;
            cargs.reserve(in.operands.size());
            for (const Value& v : in.operands) cargs.push_back(operand(v));
            steps_ = steps;
            out = exec(*callee, cargs, 0);
            steps = steps_;
          } else {
            fault(fn, mop.id,
                  "unknown function '" + fn.instr(mop.id).callee + "'");
          }
          break;
        }

        // ---- loop markers ----
        case Opcode::LoopEnter: {
          obs_.on_loop_enter(fn, mop.loop);
          if (const ParLoop* pl = planned(fn, mop.loop); pl && depth_ == 1) {
            steps_ = steps;
            parallel_loop(dfn, *pl, *frame_regs);
            steps = steps_;
            pc = code + dfn.block_start[fn.loops[mop.loop].exit];
          }
          break;
        }
        case Opcode::LoopHead:
          obs_.on_loop_iter(fn, mop.loop);
          if (shard_ && mop.loop == shard_loop_ && depth_ == 1) {
            if (++shard_->heads > shard_->quota) {
              steps_ = steps;
              --depth_;
              return ret;  // this shard's iteration range is exhausted
            }
          }
          break;
        case Opcode::LoopExit:
          obs_.on_loop_exit(fn, mop.loop);
          if (shard_ && mop.loop == shard_loop_ && depth_ == 1) {
            steps_ = steps;
            --depth_;
            return ret;  // natural loop exit inside the shard's range
          }
          break;

        // ---- decode-only micro-ops (past the last ir::Opcode) ----
        default:
          if (mop.op == kEndOfBlock) fell_off(fn);
          throw InterpError("bad operand kind at runtime");
      }
    }
  }

  template <typename IntFn, typename FloatFn>
  RtVal eval_builtin(const MicroOp& mop, IntFn&& iop, FloatFn&& fop) const {
    RtVal out;
    auto farg = [&](std::size_t i) { return fop(mop.ops[i]); };
    auto iarg = [&](std::size_t i) { return iop(mop.ops[i]); };
    out.kind = RtVal::Kind::Float;
    switch (mop.builtin) {
      case BuiltinId::Sqrt: out.f = std::sqrt(farg(0)); break;
      case BuiltinId::Exp: out.f = std::exp(farg(0)); break;
      case BuiltinId::Log: out.f = std::log(farg(0)); break;
      case BuiltinId::Sin: out.f = std::sin(farg(0)); break;
      case BuiltinId::Cos: out.f = std::cos(farg(0)); break;
      case BuiltinId::Fabs: out.f = std::fabs(farg(0)); break;
      case BuiltinId::Pow: out.f = std::pow(farg(0), farg(1)); break;
      case BuiltinId::Fmin: out.f = std::fmin(farg(0), farg(1)); break;
      case BuiltinId::Fmax: out.f = std::fmax(farg(0), farg(1)); break;
      case BuiltinId::Imin:
        out.kind = RtVal::Kind::Int;
        out.i = std::min(iarg(0), iarg(1));
        break;
      case BuiltinId::Imax:
        out.kind = RtVal::Kind::Int;
        out.i = std::max(iarg(0), iarg(1));
        break;
      case BuiltinId::Iabs:
        out.kind = RtVal::Kind::Int;
        out.i = std::llabs(iarg(0));
        break;
      case BuiltinId::None:
        throw InterpError("unreachable builtin dispatch");
    }
    return out;
  }

  const ir::Module& m_;
  Obs& obs_;
  const ParRunOptions opts_;
  const ParPlan* plan_ = nullptr;       // master only
  ObjectTable* objects_ = nullptr;      // master only
  const Function* entry_fn_ = nullptr;  // master only
  std::vector<Cell> owned_mem_;         // master only
  std::vector<Cell>* mem_ = nullptr;    // shared image (points at master's)
  std::shared_ptr<const DecodedModule> code_;  // built by the master
  ShardCtx* shard_ = nullptr;           // shard only
  LoopId shard_loop_ = ir::kNoLoop;     // shard only
  std::vector<RtVal> shard_regs_;       // shard only: entry-frame registers
  std::vector<RtVal> entry_args_;       // master only
  std::uint64_t steps_ = 0;
  /// min(max_steps + 1, armed trap step): the single per-step compare.
  std::uint64_t step_limit_ = 0;
  std::uint32_t depth_ = 0;
  std::uint64_t parallel_loops_ = 0;
};

/// The caps of a sequential run, as parallel-run options at one thread.
inline ParRunOptions sequential(const InterpOptions& opts) {
  ParRunOptions p;
  static_cast<InterpOptions&>(p) = opts;
  return p;
}

/// Counts one finished sequential run. Instructions are counted in the
/// engine's step counter and flushed here once per run, so the dispatch
/// loop never touches a shared atomic.
void count_sequential_run(std::uint64_t steps);

}  // namespace detail

template <ExecObserver Obs>
RunResult run(const ir::Module& m, const std::string& entry,
              std::span<const ArgInit> args, Obs& obs, ObjectTable& objects,
              const InterpOptions& opts) {
  OBS_SPAN("interp.run");
  const RunResult res =
      detail::Engine<Obs>(m, obs, objects, detail::sequential(opts), nullptr)
          .run_entry(entry, args);
  detail::count_sequential_run(res.steps);
  return res;
}

}  // namespace mvgnn::profiler
