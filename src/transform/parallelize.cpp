#include "transform/parallelize.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <unordered_set>

#include "analysis/reduction.hpp"
#include "analysis/tools.hpp"

namespace mvgnn::transform {

namespace {

using analysis::ArrayKey;
using analysis::ParKind;
using analysis::ReductionChain;
using analysis::ReductionOp;
using ir::Function;
using ir::Instruction;
using ir::InstrId;
using ir::LoopId;
using ir::Opcode;
using ir::TypeKind;
using ir::Value;
using profiler::ParArrayRef;
using profiler::ParLoop;
using profiler::ParReduceOp;

ParReduceOp to_par_op(ReductionOp op) {
  switch (op) {
    case ReductionOp::Sum: return ParReduceOp::Sum;
    case ReductionOp::Product: return ParReduceOp::Product;
    case ReductionOp::Min: return ParReduceOp::Min;
    case ReductionOp::Max: return ParReduceOp::Max;
  }
  return ParReduceOp::Sum;
}

bool object_matches(const profiler::MemObject& o, const Function* fn,
                    const ArrayKey& key) {
  switch (key.kind) {
    case ArrayKey::Kind::Arg:
      return o.kind == profiler::ObjKind::ArgArray &&
             o.name == fn->params[key.arg].name;
    case ArrayKey::Kind::Local:
      return o.kind == profiler::ObjKind::ArrayLocal && o.fn == fn &&
             o.alloca_id == key.alloca_id;
    case ArrayKey::Kind::Unknown:
      return false;
  }
  return false;
}

/// Dynamic dependence evidence for one static array inside one loop, folded
/// over every runtime object the array materialized as.
struct DynEvidence {
  bool seen = false;
  bool carried_raw = false;
  bool carried_war = false;
  bool carried_waw = false;
};

DynEvidence dyn_evidence(const profiler::DepProfile& dep, const Function* fn,
                         LoopId l, const ArrayKey& key) {
  DynEvidence ev;
  const auto it = dep.loop_objects.find(profiler::LoopRef{fn, l});
  if (it == dep.loop_objects.end()) return ev;
  for (const auto& [obj_id, summary] : it->second) {
    if (!object_matches(dep.objects.object(obj_id), fn, key)) continue;
    ev.seen = true;
    ev.carried_raw |= summary.carried_raw;
    ev.carried_war |= summary.carried_war;
    ev.carried_waw |= summary.carried_waw;
  }
  return ev;
}

std::string array_name(const Function& fn, const ArrayKey& key) {
  if (key.kind == ArrayKey::Kind::Arg) return fn.params[key.arg].name;
  if (key.kind == ArrayKey::Kind::Local) return fn.instr(key.alloca_id).name;
  return "?";
}

/// Plans one suggested loop. Returns the empty string and fills `out` on
/// success; otherwise returns the refusal reason.
std::string plan_loop(const Function& fn, LoopId l,
                      const profiler::ProfileResult& prof, ParLoop& out) {
  const ir::LoopInfo& loop = fn.loops[l];
  const InstrId iv = loop.induction_slot;
  if (iv == ir::kNoInstr) return "no induction variable recorded";

  // The dependence profile is the authority: a suggestion whose label
  // contradicts it (e.g. an oracle-label override on a recurrence) is
  // refused here rather than miscompiled.
  if (analysis::oracle_pattern(fn, l, prof.dep) == ParKind::Sequential) {
    return "dependence profile contradicts the parallel label";
  }
  if (analysis::has_early_exit(fn, l)) {
    return "loop has an early exit (break/return)";
  }

  // Canonical shape: recoverable bounds and a single latch increment.
  const analysis::LoopBounds bounds = analysis::derive_bounds(fn, l);
  if (!bounds.known || bounds.step == 0) {
    return "loop bounds not statically recoverable";
  }
  out.loop = l;
  out.step = bounds.step;

  // Every store to the induction variable must be the latch increment.
  for (InstrId id = 0; id < fn.instrs.size(); ++id) {
    const Instruction& in = fn.instr(id);
    if (in.op != Opcode::Store || !in.operands[0].is_reg() ||
        in.operands[0].reg != iv ||
        !profiler::instr_in_loop(fn, id, l)) {
      continue;
    }
    const auto& latch = fn.block(loop.latch).instrs;
    if (std::find(latch.begin(), latch.end(), id) == latch.end()) {
      return "induction variable is modified inside the loop body";
    }
  }

  // Re-match the header compare to record the bound recipe the parallel
  // engine re-evaluates at LoopEnter.
  auto is_load_of_iv = [&](const Value& v) {
    return v.is_reg() && fn.instr(v.reg).op == Opcode::Load &&
           fn.instr(v.reg).operands[0].is_reg() &&
           fn.instr(v.reg).operands[0].reg == iv;
  };
  const ir::BasicBlock& header = fn.block(loop.header);
  const Instruction& term = fn.instr(header.instrs.back());
  if (term.op != Opcode::CondBr || !term.operands[0].is_reg()) {
    return "header does not end in a conditional branch";
  }
  if (!term.operands[2].is_block() || term.operands[2].block != loop.exit) {
    return "header branch does not fall through to the loop exit";
  }
  const Instruction& cmp = fn.instr(term.operands[0].reg);
  switch (cmp.op) {
    case Opcode::CmpLt:
    case Opcode::CmpLe:
      if (bounds.step < 0) return "bound direction contradicts the step";
      break;
    case Opcode::CmpGt:
    case Opcode::CmpGe:
      if (bounds.step > 0) return "bound direction contradicts the step";
      break;
    default:
      return "header compare is not an integer ordering";
  }
  if (!is_load_of_iv(cmp.operands[0])) {
    return "header compare is not 'iv OP bound'";
  }
  const analysis::AffineExpr bound_expr =
      analysis::analyze_affine(fn, l, cmp.operands[1]);
  if (!bound_expr.affine || !bound_expr.iv_coeffs.empty()) {
    return "loop bound is not loop-invariant affine";
  }
  out.bound.value = cmp.operands[1];
  out.bound.cmp = cmp.op;

  // Reduction chains. Mixed operators on one accumulator have no single
  // identity/merge, so they are refused.
  const std::vector<ReductionChain> chains = analysis::detect_reductions(fn, l);
  std::map<InstrId, ParReduceOp> scalar_red;  // slot -> op
  std::map<ArrayKey, ParReduceOp> array_red;
  for (const ReductionChain& c : chains) {
    if (c.is_array) {
      if (c.array.kind == ArrayKey::Kind::Unknown) {
        return "reduction on an unidentifiable array";
      }
      auto [it, fresh] = array_red.try_emplace(c.array, to_par_op(c.op));
      if (!fresh && it->second != to_par_op(c.op)) {
        return "mixed reduction operators on array '" +
               array_name(fn, c.array) + "'";
      }
    } else {
      auto [it, fresh] = scalar_red.try_emplace(c.scalar_slot, to_par_op(c.op));
      if (!fresh && it->second != to_par_op(c.op)) {
        return "mixed reduction operators on '" + fn.instr(c.scalar_slot).name +
               "'";
      }
    }
  }
  for (const auto& [slot, op] : scalar_red) {
    out.scalar_reductions.push_back(profiler::ParScalarReduction{
        slot, op, fn.instr(slot).type == TypeKind::Float});
  }
  auto array_ref = [&](const ArrayKey& key) {
    ParArrayRef r;
    r.is_arg = key.kind == ArrayKey::Kind::Arg;
    r.arg = key.arg;
    r.alloca_id = key.alloca_id;
    return r;
  };
  for (const auto& [key, op] : array_red) {
    const bool is_float = key.kind == ArrayKey::Kind::Arg
                              ? fn.params[key.arg].type == TypeKind::ArrFloat
                              : fn.instr(key.alloca_id).type == TypeKind::ArrFloat;
    out.array_reductions.push_back(
        profiler::ParArrayReduction{array_ref(key), op, is_float});
  }

  // Privatized scalars: every slot stored inside the loop whose Alloca
  // lives outside it, minus the induction variable and the accumulators.
  // (Slots alloca'd inside the loop are shard-arena locals automatically.)
  std::set<InstrId> stored_slots;
  for (InstrId id = 0; id < fn.instrs.size(); ++id) {
    const Instruction& in = fn.instr(id);
    if (in.op == Opcode::Store && in.operands[0].is_reg() &&
        profiler::instr_in_loop(fn, id, l)) {
      stored_slots.insert(in.operands[0].reg);
    }
  }
  for (const InstrId slot : stored_slots) {
    if (slot == iv || scalar_red.count(slot)) continue;
    if (profiler::instr_in_loop(fn, slot, l)) continue;
    out.private_slots.push_back(slot);
  }

  // Written arrays: classify each as reduction target (handled above),
  // iteration-disjoint shared, privatizable local temp — or refuse.
  const std::vector<analysis::ArrayAccess> accesses =
      analysis::collect_array_accesses(fn, l);
  struct ArrayUse {
    bool written = false;
    bool writes_disjoint = true;  // every write index affine, iv coeff != 0
  };
  std::map<ArrayKey, ArrayUse> uses;
  for (const analysis::ArrayAccess& a : accesses) {
    ArrayUse& u = uses[a.array];
    if (!a.is_write) continue;
    u.written = true;
    if (!a.index.affine || a.index.coeff_of(iv) == 0) {
      u.writes_disjoint = false;
    }
  }
  for (const auto& [key, use] : uses) {
    if (!use.written || array_red.count(key)) continue;
    if (key.kind == ArrayKey::Kind::Unknown) {
      return "write through an unidentifiable array reference";
    }
    if (key.kind == ArrayKey::Kind::Local &&
        profiler::instr_in_loop(fn, key.alloca_id, l)) {
      continue;  // allocated per iteration: shard-arena local
    }
    const DynEvidence ev = dyn_evidence(prof.dep, &fn, l, key);
    if (ev.carried_raw) {
      return "loop-carried flow dependence on array '" + array_name(fn, key) +
             "'";
    }
    const bool clean_dynamic = ev.seen && !ev.carried_war && !ev.carried_waw;
    if (use.writes_disjoint || (key.kind == ArrayKey::Kind::Arg && clean_dynamic)) {
      continue;  // iteration-disjoint writes: safe to share
    }
    if (key.kind == ArrayKey::Kind::Local) {
      // Per-iteration temp: private copy, last-storing-shard copy-out.
      out.private_arrays.push_back(array_ref(key));
      continue;
    }
    return "write pattern on array '" + array_name(fn, key) +
           "' is neither disjoint nor a reduction";
  }
  return "";
}

}  // namespace

ParallelPlanResult plan_parallel(
    const ir::Module& m, const std::string& entry,
    const std::vector<analysis::Suggestion>& suggestions,
    const profiler::ProfileResult& prof) {
  (void)m;
  ParallelPlanResult res;
  res.plan.fn = entry;
  for (const analysis::Suggestion& s : suggestions) {
    if (s.kind == ParKind::Sequential || !s.fn) continue;
    LoopDecision d;
    d.fn = s.fn;
    d.loop = s.loop;
    d.start_line = s.start_line;
    d.end_line = s.end_line;
    d.kind = s.kind;
    d.pragma = s.pragma;
    if (s.fn->name != entry) {
      d.reason = "loop is outside the entry function";
      res.decisions.push_back(std::move(d));
      continue;
    }
    ParLoop pl;
    d.reason = plan_loop(*s.fn, s.loop, prof, pl);
    d.planned = d.reason.empty();
    if (d.planned) res.plan.loops.push_back(std::move(pl));
    res.decisions.push_back(std::move(d));
  }
  return res;
}

namespace {

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool within_tol(double a, double b, double tol) {
  if (bits_equal(a, b)) return true;
  const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  return std::fabs(a - b) <= tol * scale;
}

/// "a vs b" at full precision: two doubles that differ print differently.
std::string float_diff(double a, double b) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << a << " vs " << b;
  return os.str();
}

}  // namespace

EquivalenceReport run_equivalence(const ir::Module& m, const std::string& entry,
                                  std::span<const profiler::ArgInit> args,
                                  const profiler::ParPlan& plan,
                                  std::uint32_t threads,
                                  const profiler::InterpOptions& opts,
                                  double float_tol) {
  using clock = std::chrono::steady_clock;
  EquivalenceReport rep;
  const Function* fn = m.find(entry);
  if (!fn) {
    rep.detail = "entry function '" + entry + "' not found";
    return rep;
  }

  profiler::CapturedRun seq;
  profiler::ParOutput par;
  try {
    const auto t0 = clock::now();
    seq = profiler::run_capture(m, entry, args, opts);
    const auto t1 = clock::now();
    profiler::ParRunOptions popts;
    static_cast<profiler::InterpOptions&>(popts) = opts;
    popts.threads = threads;
    par = profiler::run_parallel(m, entry, args, plan, popts);
    const auto t2 = clock::now();
    rep.seq_seconds = std::chrono::duration<double>(t1 - t0).count();
    rep.par_seconds = std::chrono::duration<double>(t2 - t1).count();
  } catch (const profiler::InterpError& e) {
    rep.detail = std::string("run faulted: ") + e.what();
    return rep;
  }
  rep.ran = true;
  rep.parallel_loops = par.parallel_loops;
  rep.seq_steps = seq.run.steps;
  rep.par_steps = par.run.steps;

  // Which outputs the shards re-associate: float +/* scalar reductions show
  // up in the return value, float +/* array reductions in that argument.
  bool ret_tolerant = false;
  std::set<std::uint32_t> tolerant_args;
  for (const ParLoop& pl : plan.loops) {
    for (const profiler::ParScalarReduction& r : pl.scalar_reductions) {
      if (r.is_float &&
          (r.op == ParReduceOp::Sum || r.op == ParReduceOp::Product)) {
        ret_tolerant = true;
      }
    }
    for (const profiler::ParArrayReduction& r : pl.array_reductions) {
      if (r.array.is_arg && r.is_float &&
          (r.op == ParReduceOp::Sum || r.op == ParReduceOp::Product)) {
        tolerant_args.insert(r.array.arg);
      }
    }
  }

  auto mismatch = [&](std::string d) {
    rep.equal = false;
    rep.detail = std::move(d);
  };
  rep.equal = true;

  for (std::size_t a = 0; a < fn->params.size(); ++a) {
    const TypeKind t = fn->params[a].type;
    if (t != TypeKind::ArrInt && t != TypeKind::ArrFloat) continue;
    const auto& s = seq.arg_arrays[a];
    const auto& p = par.arg_arrays[a];
    if (s.size() != p.size()) {
      mismatch("arg '" + fn->params[a].name + "': size " +
               std::to_string(s.size()) + " vs " + std::to_string(p.size()));
      return rep;
    }
    // Scan for the first differing element; only that one is formatted.
    const bool tol = tolerant_args.count(static_cast<std::uint32_t>(a)) > 0;
    std::size_t k = 0;
    if (t == TypeKind::ArrInt) {
      while (k < s.size() && s[k].i == p[k].i) ++k;
    } else if (tol) {
      while (k < s.size() && within_tol(s[k].f, p[k].f, float_tol)) ++k;
    } else {
      while (k < s.size() && bits_equal(s[k].f, p[k].f)) ++k;
    }
    if (k < s.size()) {
      mismatch("arg '" + fn->params[a].name + "'[" + std::to_string(k) +
               "]: " +
               (t == TypeKind::ArrInt
                    ? std::to_string(s[k].i) + " vs " + std::to_string(p[k].i)
                    : float_diff(s[k].f, p[k].f)));
      return rep;
    }
  }

  const profiler::RtVal& sr = seq.run.return_value;
  const profiler::RtVal& pr = par.run.return_value;
  if (sr.kind == profiler::RtVal::Kind::Int &&
      pr.kind == profiler::RtVal::Kind::Int) {
    if (sr.i != pr.i) {
      mismatch("return value: " + std::to_string(sr.i) + " vs " +
               std::to_string(pr.i));
    }
  } else if (sr.kind == profiler::RtVal::Kind::Float &&
             pr.kind == profiler::RtVal::Kind::Float) {
    const bool ok = ret_tolerant ? within_tol(sr.f, pr.f, float_tol)
                                 : bits_equal(sr.f, pr.f);
    if (!ok) {
      mismatch("return value: " + float_diff(sr.f, pr.f));
    }
  }
  return rep;
}

std::string annotate_source(const std::string& source,
                            const ParallelPlanResult& result) {
  std::vector<std::string> lines;
  std::string cur;
  for (const char c : source) {
    if (c == '\n') {
      lines.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) lines.push_back(std::move(cur));

  // (line, pragma), deduplicated, inserted bottom-up so earlier insertions
  // do not shift later line numbers.
  std::set<std::pair<int, std::string>> pragmas;
  for (const LoopDecision& d : result.decisions) {
    if (d.planned && d.start_line >= 1 && !d.pragma.empty()) {
      pragmas.emplace(d.start_line, d.pragma);
    }
  }
  for (auto it = pragmas.rbegin(); it != pragmas.rend(); ++it) {
    const std::size_t at =
        std::min<std::size_t>(static_cast<std::size_t>(it->first) - 1,
                              lines.size());
    std::string indent;
    if (at < lines.size()) {
      const std::string& l = lines[at];
      indent = l.substr(0, l.find_first_not_of(" \t"));
    }
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                 indent + it->second);
  }

  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

}  // namespace mvgnn::transform
