#include "analysis/affine.hpp"

#include <algorithm>

#include "frontend/sema.hpp"
#include "profiler/dep_graph.hpp"

namespace mvgnn::analysis {

namespace {

using ir::InstrId;
using ir::Instruction;
using ir::LoopId;
using ir::Opcode;
using ir::Value;

/// Symbol keys: scalar slots use their alloca id; integer arguments are
/// offset into a disjoint range.
std::uint64_t arg_symbol(std::uint32_t idx) {
  return (std::uint64_t{1} << 32) | idx;
}

/// Root (outermost) enclosing loop of `l`.
LoopId root_loop(const ir::Function& fn, LoopId l) {
  while (fn.loops[l].parent != ir::kNoLoop) l = fn.loops[l].parent;
  return l;
}

/// Is `slot` the induction slot of any loop in `fn`?
bool is_induction_slot(const ir::Function& fn, InstrId slot) {
  for (const ir::LoopInfo& loop : fn.loops) {
    if (loop.induction_slot == slot) return true;
  }
  return false;
}

/// Is `slot` stored anywhere inside the subtree of `scope`?
bool stored_in_loop(const ir::Function& fn, InstrId slot, LoopId scope) {
  for (InstrId id = 0; id < fn.instrs.size(); ++id) {
    const Instruction& in = fn.instr(id);
    if (in.op != Opcode::Store || !in.operands[0].is_reg() ||
        in.operands[0].reg != slot) {
      continue;
    }
    if (profiler::loop_contains(fn, scope, in.loop)) return true;
  }
  return false;
}

struct AffineBuilder {
  const ir::Function& fn;
  LoopId scope;  // outermost loop whose invariance defines "symbol"

  AffineExpr constant(std::int64_t c) const {
    AffineExpr e;
    e.affine = true;
    e.constant = c;
    return e;
  }
  static AffineExpr bad() { return AffineExpr{}; }

  static AffineExpr combine(const AffineExpr& a, const AffineExpr& b,
                            std::int64_t sign) {
    if (!a.affine || !b.affine) return bad();
    AffineExpr e = a;
    e.constant += sign * b.constant;
    for (const auto& [k, c] : b.iv_coeffs) e.iv_coeffs[k] += sign * c;
    for (const auto& [k, c] : b.symbols) e.symbols[k] += sign * c;
    std::erase_if(e.iv_coeffs, [](const auto& kv) { return kv.second == 0; });
    std::erase_if(e.symbols, [](const auto& kv) { return kv.second == 0; });
    return e;
  }

  static bool pure_constant(const AffineExpr& e) {
    return e.affine && e.iv_coeffs.empty() && e.symbols.empty();
  }

  static AffineExpr scaled(const AffineExpr& e, std::int64_t c) {
    AffineExpr r = e;
    r.constant *= c;
    for (auto& [k, v] : r.iv_coeffs) v *= c;
    for (auto& [k, v] : r.symbols) v *= c;
    if (c == 0) {
      r.iv_coeffs.clear();
      r.symbols.clear();
    }
    return r;
  }

  AffineExpr eval(const Value& v) const {
    switch (v.kind) {
      case Value::Kind::ImmInt:
        return constant(v.imm_int);
      case Value::Kind::Arg: {
        AffineExpr e;
        e.affine = true;
        e.symbols[arg_symbol(v.arg)] = 1;
        return e;
      }
      case Value::Kind::Reg:
        return eval_instr(fn.instr(v.reg));
      default:
        return bad();
    }
  }

  AffineExpr eval_instr(const Instruction& in) const {
    switch (in.op) {
      case Opcode::Load: {
        if (!in.operands[0].is_reg()) return bad();
        const InstrId slot = in.operands[0].reg;
        if (is_induction_slot(fn, slot)) {
          AffineExpr e;
          e.affine = true;
          e.iv_coeffs[slot] = 1;
          return e;
        }
        if (!stored_in_loop(fn, slot, scope)) {
          AffineExpr e;
          e.affine = true;
          e.symbols[slot] = 1;
          return e;
        }
        return bad();  // loop-varying scalar: not analyzable
      }
      case Opcode::Add:
        return combine(eval(in.operands[0]), eval(in.operands[1]), +1);
      case Opcode::Sub:
        return combine(eval(in.operands[0]), eval(in.operands[1]), -1);
      case Opcode::Neg:
        return scaled(eval(in.operands[0]), -1);
      case Opcode::Mul: {
        const AffineExpr a = eval(in.operands[0]);
        const AffineExpr b = eval(in.operands[1]);
        if (pure_constant(a)) return scaled(b, a.constant);
        if (pure_constant(b)) return scaled(a, b.constant);
        return bad();  // symbolic coefficient (e.g. i*n): non-affine
      }
      default:
        return bad();  // div/rem/float/indirect loads etc.
    }
  }
};

}  // namespace

ArrayKey array_of(const ir::Function& fn, const Value& base) {
  ArrayKey k;
  if (base.kind == Value::Kind::Arg) {
    k.kind = ArrayKey::Kind::Arg;
    k.arg = base.arg;
    return k;
  }
  if (base.is_reg() && fn.instr(base.reg).op == Opcode::AllocArr) {
    k.kind = ArrayKey::Kind::Local;
    k.alloca_id = base.reg;
    return k;
  }
  return k;  // Unknown
}

AffineExpr analyze_affine(const ir::Function& fn, LoopId l, const Value& v) {
  return AffineBuilder{fn, root_loop(fn, l)}.eval(v);
}

std::vector<ArrayAccess> collect_array_accesses(const ir::Function& fn,
                                                LoopId l) {
  std::vector<ArrayAccess> out;
  for (InstrId id = 0; id < fn.instrs.size(); ++id) {
    const Instruction& in = fn.instr(id);
    if (in.op != Opcode::LoadIdx && in.op != Opcode::StoreIdx) continue;
    if (!profiler::loop_contains(fn, l, in.loop)) continue;
    ArrayAccess a;
    a.instr = id;
    a.is_write = (in.op == Opcode::StoreIdx);
    a.array = array_of(fn, in.operands[0]);
    a.index = analyze_affine(fn, l, in.operands[1]);
    out.push_back(std::move(a));
  }
  return out;
}

LoopBounds derive_bounds(const ir::Function& fn, LoopId l) {
  LoopBounds b;
  const ir::LoopInfo& loop = fn.loops[l];
  const InstrId iv = loop.induction_slot;
  if (iv == ir::kNoInstr) return b;

  auto is_load_of_iv = [&](const Value& v) {
    return v.is_reg() && fn.instr(v.reg).op == Opcode::Load &&
           fn.instr(v.reg).operands[0].is_reg() &&
           fn.instr(v.reg).operands[0].reg == iv;
  };

  // --- step: Store(iv, iv +/- c) in the latch block ----------------------
  bool step_found = false;
  for (const InstrId id : fn.block(loop.latch).instrs) {
    const Instruction& in = fn.instr(id);
    if (in.op != Opcode::Store || !in.operands[0].is_reg() ||
        in.operands[0].reg != iv || !in.operands[1].is_reg()) {
      continue;
    }
    const Instruction& val = fn.instr(in.operands[1].reg);
    if (val.op == Opcode::Add || val.op == Opcode::Sub) {
      const Value& a = val.operands[0];
      const Value& c = val.operands[1];
      if (is_load_of_iv(a) && c.kind == Value::Kind::ImmInt) {
        b.step = (val.op == Opcode::Add) ? c.imm_int : -c.imm_int;
        step_found = true;
      } else if (val.op == Opcode::Add && is_load_of_iv(c) &&
                 a.kind == Value::Kind::ImmInt) {
        b.step = a.imm_int;
        step_found = true;
      }
    }
  }
  if (!step_found || b.step == 0) return b;

  // --- bound: compare feeding the header's CondBr ------------------------
  const ir::BasicBlock& header = fn.block(loop.header);
  const Instruction& term = fn.instr(header.instrs.back());
  if (term.op != Opcode::CondBr || !term.operands[0].is_reg()) return b;
  const Instruction& cmp = fn.instr(term.operands[0].reg);
  std::int64_t bound_adjust = 0;
  switch (cmp.op) {
    case Opcode::CmpLt: bound_adjust = 0; break;
    case Opcode::CmpLe: bound_adjust = 1; break;
    case Opcode::CmpGt: bound_adjust = 0; break;
    case Opcode::CmpGe: bound_adjust = -1; break;
    default: return b;
  }
  if (!is_load_of_iv(cmp.operands[0])) return b;  // only `iv OP bound` shape
  const AffineExpr bound = analyze_affine(fn, l, cmp.operands[1]);
  if (!bound.affine || !bound.iv_coeffs.empty()) return b;

  // --- init: last Store(iv, _) textually before the LoopEnter marker ----
  InstrId enter = ir::kNoInstr;
  for (const InstrId id : fn.block(loop.preheader).instrs) {
    if (fn.instr(id).op == Opcode::LoopEnter) enter = id;
  }
  if (enter == ir::kNoInstr) return b;
  AffineExpr init;
  for (InstrId id = 0; id < enter; ++id) {
    const Instruction& in = fn.instr(id);
    if (in.op == Opcode::Store && in.operands[0].is_reg() &&
        in.operands[0].reg == iv) {
      init = analyze_affine(fn, l, in.operands[1]);
    }
  }
  if (!init.affine || !init.iv_coeffs.empty()) return b;

  b.known = true;
  if (init.symbols.empty() && bound.symbols.empty() && b.step > 0 &&
      (cmp.op == Opcode::CmpLt || cmp.op == Opcode::CmpLe)) {
    b.constant_trip = true;
    b.lo = init.constant;
    b.hi = bound.constant + bound_adjust;
  }
  return b;
}

bool has_early_exit(const ir::Function& fn, LoopId l) {
  const ir::LoopInfo& loop = fn.loops[l];
  for (const ir::BasicBlock& bb : fn.blocks) {
    if (bb.id == loop.header) continue;  // the normal exit test
    for (const InstrId id : bb.instrs) {
      const Instruction& in = fn.instr(id);
      if (!profiler::loop_contains(fn, l, in.loop)) continue;
      if (in.op == Opcode::Ret) return true;
      if (in.op == Opcode::Br || in.op == Opcode::CondBr) {
        for (const Value& v : in.operands) {
          if (v.is_block() && v.block == loop.exit) return true;
        }
      }
    }
  }
  return false;
}

bool has_user_call(const ir::Function& fn, LoopId l) {
  for (InstrId id = 0; id < fn.instrs.size(); ++id) {
    const Instruction& in = fn.instr(id);
    if (in.op == Opcode::Call && !frontend::find_builtin(in.callee) &&
        profiler::loop_contains(fn, l, in.loop)) {
      return true;
    }
  }
  return false;
}

}  // namespace mvgnn::analysis
