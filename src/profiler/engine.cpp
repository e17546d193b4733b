// Out-of-line parts of the micro-op engine (engine.hpp): decode, the run
// counters, and the library's two instantiations, Engine<DepRecorder>
// behind profiler::run and Engine<NoHooks> behind run_capture and
// run_parallel; and the default argument rule.
#include "profiler/engine.hpp"

#include <bit>
#include <map>
#include <string_view>

#include "profiler/dep_recorder.hpp"

namespace mvgnn::profiler {

namespace detail {

namespace {

/// Builtin of a call target, or None for a user function. Names are listed
/// in BuiltinId order.
BuiltinId builtin_id(const std::string& name) {
  static constexpr std::string_view kNames[] = {
      "sqrt", "exp", "log", "sin", "cos", "fabs",
      "pow", "fmin", "fmax", "imin", "imax", "iabs"};
  for (std::size_t b = 0; b < std::size(kNames); ++b) {
    if (name == kNames[b]) return static_cast<BuiltinId>(b);
  }
  return BuiltinId::None;
}

enum class Role : std::uint8_t { Value, Block, Unread };

/// How the dispatch loop reads operand `k` of `mop`.
Role operand_role(const MicroOp& mop, std::size_t k) {
  switch (mop.op) {
    case Opcode::Br:
      return Role::Block;
    case Opcode::CondBr:
      return k == 0 ? Role::Value : Role::Block;
    case Opcode::Call:  // user calls spill through the IR operands
      return mop.builtin == BuiltinId::None ? Role::Unread : Role::Value;
    case Opcode::Alloca:
    case Opcode::LoopEnter:
    case Opcode::LoopHead:
    case Opcode::LoopExit:
      return Role::Unread;
    default:
      return Role::Value;
  }
}

const DecodedFn* find_by_name(const std::vector<DecodedFn>& fns,
                              const std::string& name) {
  for (const DecodedFn& d : fns) {
    if (d.fn->name == name) return &d;
  }
  return nullptr;
}

void decode(DecodedFn& d, const std::vector<DecodedFn>& fns) {
  const Function& fn = *d.fn;
  d.arg_base = static_cast<std::uint32_t>(fn.instrs.size());
  d.const_base = d.arg_base + static_cast<std::uint32_t>(fn.params.size());
  d.callees.assign(fn.instrs.size(), nullptr);
  d.block_start.resize(fn.blocks.size());
  std::size_t ncode = 0;
  for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
    d.block_start[b] = static_cast<std::uint32_t>(ncode);
    ncode += fn.blocks[b].instrs.size() + 1;
  }
  d.code.reserve(ncode);

  // One constant-pool slot per distinct immediate (kind and bit pattern).
  std::map<std::pair<bool, std::uint64_t>, std::uint32_t> pool;
  auto const_slot = [&](const Value& v) {
    const bool is_float = v.kind == Value::Kind::ImmFloat;
    const std::uint64_t bits =
        is_float ? std::bit_cast<std::uint64_t>(v.imm_float)
                 : static_cast<std::uint64_t>(v.imm_int);
    const auto [it, fresh] = pool.try_emplace(
        {is_float, bits}, d.const_base + static_cast<std::uint32_t>(
                                             d.consts.size()));
    if (fresh) {
      RtVal c;
      c.kind = is_float ? RtVal::Kind::Float : RtVal::Kind::Int;
      if (is_float) c.f = v.imm_float; else c.i = v.imm_int;
      d.consts.push_back(c);
    }
    return it->second;
  };
  // Frame slot of a value operand; false when it names no value.
  auto value_slot = [&](const Value& v, std::uint32_t& slot) {
    switch (v.kind) {
      case Value::Kind::Reg:
        slot = v.reg;
        return v.reg < d.arg_base;
      case Value::Kind::Arg:
        slot = d.arg_base + v.arg;
        return slot < d.const_base;
      case Value::Kind::ImmInt:
      case Value::Kind::ImmFloat:
        slot = const_slot(v);
        return true;
      default:
        return false;
    }
  };

  for (const ir::BasicBlock& bb : fn.blocks) {
    for (const InstrId id : bb.instrs) {
      const Instruction& in = fn.instr(id);
      MicroOp mop;
      mop.op = in.op;
      mop.type = in.type;
      mop.id = id;
      mop.loop = in.loop;
      mop.nops = static_cast<std::uint8_t>(
          std::min<std::size_t>(in.operands.size(), 3));
      if (in.op == Opcode::Call) {
        mop.builtin = builtin_id(in.callee);
        if (mop.builtin == BuiltinId::None) {
          d.callees[id] = find_by_name(fns, in.callee);
        }
      }
      bool ok = true;
      for (std::size_t k = 0; k < mop.nops && ok; ++k) {
        const Value& v = in.operands[k];
        switch (operand_role(mop, k)) {
          case Role::Value:
            ok = value_slot(v, mop.ops[k]);
            break;
          case Role::Block:
            ok = v.is_block() && v.block < fn.blocks.size();
            if (ok) mop.ops[k] = d.block_start[v.block];
            break;
          case Role::Unread:
            break;
        }
      }
      if (!ok) mop.op = kBadOperand;
      d.code.push_back(mop);
    }
    MicroOp end;
    end.op = kEndOfBlock;
    d.code.push_back(end);
  }
}

}  // namespace

DecodedModule::DecodedModule(const ir::Module& m) : fns(m.functions.size()) {
  for (std::size_t f = 0; f < fns.size(); ++f) fns[f].fn = m.functions[f].get();
  for (DecodedFn& d : fns) decode(d, fns);
}

void count_sequential_run(std::uint64_t steps) {
  struct InterpMetrics {
    obs::Counter& runs = obs::Registry::global().counter("interp.runs_total");
    obs::Counter& instrs =
        obs::Registry::global().counter("interp.instructions_total");
  };
  static InterpMetrics metrics;
  metrics.runs.add(1);
  metrics.instrs.add(steps);
}

namespace {

/// The unobserved run behind run_capture (no plan) and run_parallel.
ParOutput run_unobserved(const ir::Module& m, const std::string& entry,
                         std::span<const ArgInit> args, const ParPlan* plan,
                         const ParRunOptions& opts) {
  NoHooks hooks;
  ObjectTable objects;
  Engine<NoHooks> engine(m, hooks, objects, opts, plan);
  ParOutput out;
  out.run = engine.run_entry(entry, args);
  out.arg_arrays = engine.arg_arrays();
  out.parallel_loops = engine.parallel_loops();
  return out;
}

}  // namespace

}  // namespace detail

std::vector<ArgInit> default_args(const ir::Function& entry) {
  std::vector<ArgInit> args;
  for (const ir::Param& p : entry.params) {
    if (ir::is_array(p.type)) {
      args.push_back(ArgInit::of_array(4096, args.size() + 1));
    } else if (p.type == ir::TypeKind::Int) {
      args.push_back(ArgInit::of_int(8));
    } else {
      args.push_back(ArgInit::of_float(1.0));
    }
  }
  return args;
}

template RunResult run<DepRecorder>(const ir::Module&, const std::string&,
                                     std::span<const ArgInit>, DepRecorder&,
                                     ObjectTable&, const InterpOptions&);

CapturedRun run_capture(const ir::Module& m, const std::string& entry,
                        std::span<const ArgInit> args,
                        const InterpOptions& opts) {
  OBS_SPAN("interp.run");
  CapturedRun out = detail::run_unobserved(m, entry, args, nullptr,
                                          detail::sequential(opts));
  detail::count_sequential_run(out.run.steps);
  return out;
}

ParOutput run_parallel(const ir::Module& m, const std::string& entry,
                       std::span<const ArgInit> args, const ParPlan& plan,
                       const ParRunOptions& opts) {
  if (!plan.fn.empty() && plan.fn != entry) {
    throw InterpError("parallel plan targets '" + plan.fn +
                      "' but entry is '" + entry + "'");
  }
  OBS_SPAN("interp.run_parallel");
  ParOutput out = detail::run_unobserved(m, entry, args, &plan, opts);
  struct ParMetrics {
    obs::Counter& runs =
        obs::Registry::global().counter("interp.parallel_runs_total");
    obs::Counter& loops =
        obs::Registry::global().counter("interp.parallel_loops_total");
    obs::Counter& instrs =
        obs::Registry::global().counter("interp.instructions_total");
  };
  static ParMetrics metrics;
  metrics.runs.add(1);
  metrics.loops.add(out.parallel_loops);
  metrics.instrs.add(out.run.steps);
  return out;
}

}  // namespace mvgnn::profiler
