#include "profiler/loop_stats.hpp"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <vector>

namespace mvgnn::profiler {

namespace {

bool countable(const ir::Instruction& in) {
  switch (in.op) {
    case ir::Opcode::LoopEnter:
    case ir::Opcode::LoopHead:
    case ir::Opcode::LoopExit:
      return false;
    default:
      return true;
  }
}

}  // namespace

LoopFeatures compute_loop_features(const ir::Function& fn, ir::LoopId l,
                                   const DepProfile& profile) {
  LoopFeatures out;

  // --- N_Inst: static instruction count of the loop subtree -------------
  std::vector<ir::InstrId> members;
  for (ir::InstrId id = 0; id < fn.instrs.size(); ++id) {
    if (!countable(fn.instr(id))) continue;
    if (instr_in_loop(fn, id, l)) members.push_back(id);
  }
  out.n_inst = members.size();

  // --- exec_times: total dynamic iterations ------------------------------
  if (const auto it = profile.loop_runtime.find(LoopRef{&fn, l});
      it != profile.loop_runtime.end()) {
    out.exec_times = it->second.iterations;
  }

  // --- Intra-iteration dependence DAG ------------------------------------
  // Dense renumbering of the loop's members.
  std::unordered_map<ir::InstrId, std::uint32_t> index;
  index.reserve(members.size());
  for (std::uint32_t i = 0; i < members.size(); ++i) index[members[i]] = i;

  std::vector<std::vector<std::uint32_t>> preds(members.size());
  auto add_edge = [&](ir::InstrId from, ir::InstrId to) {
    // Keep only edges consistent with program order (arena order is emission
    // order): this breaks spurious cycles in the aggregated memory deps.
    if (from >= to) return;
    const auto a = index.find(from);
    const auto b = index.find(to);
    if (a == index.end() || b == index.end()) return;
    preds[b->second].push_back(a->second);
  };

  for (const ir::InstrId id : members) {
    for (const ir::Value& v : fn.instr(id).operands) {
      if (v.is_reg()) add_edge(v.reg, id);
    }
  }
  for (const DepEdge& e : profile.edges) {
    if (e.src.fn != &fn || e.dst.fn != &fn || !e.intra) continue;
    add_edge(e.src.id, e.dst.id);
  }

  // Longest path (CFL) + per-level breadth; members are already in program
  // (and hence topological) order because add_edge enforces from < to.
  std::vector<std::uint32_t> depth(members.size(), 1);
  std::uint32_t cfl = members.empty() ? 0 : 1;
  for (std::uint32_t i = 0; i < members.size(); ++i) {
    for (const std::uint32_t p : preds[i]) {
      depth[i] = std::max(depth[i], depth[p] + 1);
    }
    cfl = std::max(cfl, depth[i]);
  }
  std::vector<std::uint32_t> level_count(cfl + 1, 0);
  std::uint32_t max_breadth = members.empty() ? 1 : 0;
  for (const std::uint32_t d : depth) {
    max_breadth = std::max(max_breadth, ++level_count[d]);
  }
  out.cfl = cfl;

  // --- ESP: Amdahl bound with P = max breadth ----------------------------
  const double n = std::max<double>(1.0, static_cast<double>(out.n_inst));
  const double serial_fraction = std::min(1.0, static_cast<double>(cfl) / n);
  const double p = std::max<std::uint32_t>(1, max_breadth);
  out.esp = 1.0 / (serial_fraction + (1.0 - serial_fraction) / p);

  // --- dependence direction counts ---------------------------------------
  // internal_dep counts the *loop-carried* dependences between the loop's
  // instructions: those are the ones that matter for parallelization, which
  // is how Fried et al.'s "dependency count between loop instructions" is
  // read here (an iteration-local def-use chain constrains nothing).
  // Induction-variable traffic (i = i + 1 and friends) is filtered out, as
  // DiscoPoP does: it is recomputed under any parallelization and would
  // otherwise make every loop look dependence-laden.
  auto is_induction_object = [&](std::uint32_t obj_id) {
    const MemObject& obj = profile.objects.object(obj_id);
    if (obj.kind != ObjKind::ScalarLocal || obj.fn == nullptr) return false;
    for (const ir::LoopInfo& loop : obj.fn->loops) {
      if (loop.induction_slot == obj.alloca_id) return true;
    }
    return false;
  };
  const LoopRef self{&fn, l};
  for (const DepEdge& e : profile.edges) {
    if (is_induction_object(e.object)) continue;
    const bool src_in =
        e.src.fn == &fn && instr_in_loop(fn, e.src.id, l);
    const bool dst_in =
        e.dst.fn == &fn && instr_in_loop(fn, e.dst.id, l);
    if (src_in && dst_in) {
      if (e.carried_by(self)) ++out.internal_dep;
    } else if (dst_in) {
      ++out.incoming_dep;
    } else if (src_in) {
      ++out.outgoing_dep;
    }
  }
  return out;
}

}  // namespace mvgnn::profiler
