#include "graph/peg.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <tuple>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mvgnn::graph {

namespace {

using profiler::CU;
using profiler::DepType;

struct LoopKey {
  const ir::Function* fn;
  ir::LoopId loop;
  friend bool operator==(const LoopKey&, const LoopKey&) = default;
};
struct LoopKeyHash {
  std::size_t operator()(const LoopKey& k) const {
    return std::hash<const void*>()(k.fn) * 31 ^ k.loop;
  }
};

}  // namespace

Peg build_peg(const ir::Module& m, const profiler::ProfileResult& profile) {
  OBS_SPAN("peg.build");
  Peg peg;
  peg.cus = profile.cus;

  std::unordered_map<const ir::Function*, std::uint32_t> fn_node;
  std::unordered_map<LoopKey, std::uint32_t, LoopKeyHash> loop_node;
  std::vector<std::uint32_t> cu_node(peg.cus.size());

  // Function nodes.
  for (const auto& fn : m.functions) {
    PegNode n;
    n.kind = NodeKind::Function;
    n.fn = fn.get();
    int lo = 0, hi = 0;
    for (const ir::Instruction& in : fn->instrs) {
      if (!in.loc.valid()) continue;
      if (lo == 0 || in.loc.line < lo) lo = in.loc.line;
      hi = std::max(hi, in.loc.line);
    }
    n.start_line = lo;
    n.end_line = hi;
    fn_node[fn.get()] = static_cast<std::uint32_t>(peg.nodes.size());
    peg.nodes.push_back(n);
  }

  // Loop nodes.
  for (const auto& fn : m.functions) {
    for (const ir::LoopInfo& l : fn->loops) {
      PegNode n;
      n.kind = NodeKind::Loop;
      n.fn = fn.get();
      n.loop = l.id;
      n.start_line = l.start_line;
      n.end_line = l.end_line;
      loop_node[LoopKey{fn.get(), l.id}] =
          static_cast<std::uint32_t>(peg.nodes.size());
      peg.nodes.push_back(n);
    }
  }

  // CU nodes.
  for (std::uint32_t i = 0; i < peg.cus.size(); ++i) {
    const CU& cu = peg.cus[i];
    PegNode n;
    n.kind = NodeKind::CU;
    n.fn = cu.fn;
    n.cu = i;
    n.loop = cu.loop;
    n.start_line = cu.start_line;
    n.end_line = cu.end_line;
    cu_node[i] = static_cast<std::uint32_t>(peg.nodes.size());
    peg.nodes.push_back(n);
  }

  // Hierarchy edges: function -> top-level loops and CUs; loop -> children.
  auto hierarchy = [&peg](std::uint32_t parent, std::uint32_t child) {
    peg.edges.push_back(
        {.src = parent, .dst = child, .kind = EdgeKind::Hierarchy});
  };
  for (const auto& fn : m.functions) {
    for (const ir::LoopInfo& l : fn->loops) {
      const std::uint32_t child = loop_node.at(LoopKey{fn.get(), l.id});
      if (l.parent == ir::kNoLoop) {
        hierarchy(fn_node.at(fn.get()), child);
      } else {
        hierarchy(loop_node.at(LoopKey{fn.get(), l.parent}), child);
      }
    }
  }
  for (std::uint32_t i = 0; i < peg.cus.size(); ++i) {
    const CU& cu = peg.cus[i];
    if (cu.loop == ir::kNoLoop) {
      hierarchy(fn_node.at(cu.fn), cu_node[i]);
    } else {
      hierarchy(loop_node.at(LoopKey{cu.fn, cu.loop}), cu_node[i]);
    }
  }

  // Dependence edges between CUs: one per (src CU, dst CU, type) that some
  // instruction-level dependence maps to.
  std::unordered_map<const ir::Function*, std::unordered_map<ir::InstrId, std::uint32_t>>
      instr_cu;
  for (std::uint32_t i = 0; i < peg.cus.size(); ++i) {
    for (const ir::InstrId id : peg.cus[i].instrs) {
      instr_cu[peg.cus[i].fn][id] = cu_node[i];
    }
  }
  std::set<std::tuple<std::uint32_t, std::uint32_t, DepType>> deps;
  for (const profiler::DepEdge& d : profile.dep.edges) {
    const auto fs = instr_cu.find(d.src.fn);
    const auto fd = instr_cu.find(d.dst.fn);
    if (fs == instr_cu.end() || fd == instr_cu.end()) continue;
    const auto is = fs->second.find(d.src.id);
    const auto idd = fd->second.find(d.dst.id);
    if (is == fs->second.end() || idd == fd->second.end()) continue;
    deps.emplace(is->second, idd->second, d.type);
  }
  for (const auto& [src, dst, type] : deps) {
    peg.edges.push_back(
        {.src = src, .dst = dst, .kind = EdgeKind::Dep, .dep = type});
  }

  struct PegMetrics {
    obs::Counter& builds = obs::Registry::global().counter("peg.builds_total");
    obs::Counter& nodes = obs::Registry::global().counter("peg.nodes_total");
    obs::Counter& edges = obs::Registry::global().counter("peg.edges_total");
  };
  static PegMetrics metrics;
  metrics.builds.add(1);
  metrics.nodes.add(peg.nodes.size());
  metrics.edges.add(peg.edges.size());
  return peg;
}

SubPeg extract_sub_peg(const Peg& peg, const ir::Function* fn, ir::LoopId l) {
  SubPeg sub;
  for (std::uint32_t i = 0; i < peg.nodes.size(); ++i) {
    const PegNode& n = peg.nodes[i];
    if (n.fn != fn) continue;
    bool inside = false;
    if (n.kind == NodeKind::Loop) {
      inside = profiler::loop_contains(*fn, l, n.loop);
      if (n.loop == l) sub.root = i;
    } else if (n.kind == NodeKind::CU) {
      inside = n.loop != ir::kNoLoop && profiler::loop_contains(*fn, l, n.loop);
    }
    if (inside) sub.nodes.push_back(i);
  }
  // Root loop first so downstream consumers can identify it.
  for (std::size_t k = 0; k < sub.nodes.size(); ++k) {
    if (sub.nodes[k] == sub.root) {
      std::swap(sub.nodes[0], sub.nodes[k]);
      break;
    }
  }
  std::unordered_map<std::uint32_t, std::uint32_t> local;
  for (std::uint32_t k = 0; k < sub.nodes.size(); ++k) local[sub.nodes[k]] = k;
  for (const PegEdge& e : peg.edges) {
    const auto a = local.find(e.src);
    const auto b = local.find(e.dst);
    if (a == local.end() || b == local.end()) continue;
    PegEdge le = e;
    le.src = a->second;
    le.dst = b->second;
    sub.edges.push_back(le);
  }
  return sub;
}

namespace {

std::string node_label(const Peg& peg, std::uint32_t id) {
  const PegNode& n = peg.nodes[id];
  std::ostringstream os;
  switch (n.kind) {
    case NodeKind::Function:
      os << "fn " << (n.fn ? n.fn->name : "?");
      break;
    case NodeKind::Loop:
      os << "loop L" << n.loop << "\\n" << n.start_line << ":" << n.end_line;
      break;
    case NodeKind::CU:
      os << "CU" << n.cu << "\\n" << n.start_line << ":" << n.end_line;
      break;
  }
  return os.str();
}

const char* edge_color(const PegEdge& e) {
  if (e.kind == EdgeKind::Hierarchy) return "gray";
  switch (e.dep) {
    case DepType::RAW: return "red";
    case DepType::WAR: return "blue";
    case DepType::WAW: return "orange";
  }
  return "black";
}

/// One DOT edge line; a dependence edge is labelled with its type.
void write_edge(std::ostream& os, const PegEdge& e) {
  os << "  n" << e.src << " -> n" << e.dst << " [color=" << edge_color(e);
  if (e.kind == EdgeKind::Dep) {
    os << ",label=\"" << profiler::dep_name(e.dep) << "\"";
  }
  os << "];\n";
}

}  // namespace

std::string to_dot(const Peg& peg, const std::string& title) {
  std::ostringstream os;
  os << "digraph \"" << title << "\" {\n  node [shape=box,fontsize=10];\n";
  for (std::uint32_t i = 0; i < peg.nodes.size(); ++i) {
    os << "  n" << i << " [label=\"" << node_label(peg, i) << "\"];\n";
  }
  for (const PegEdge& e : peg.edges) write_edge(os, e);
  os << "}\n";
  return os.str();
}

std::string to_dot(const Peg& peg, const SubPeg& sub, const std::string& title) {
  std::ostringstream os;
  os << "digraph \"" << title << "\" {\n  node [shape=box,fontsize=10];\n";
  for (std::uint32_t i = 0; i < sub.nodes.size(); ++i) {
    os << "  n" << i << " [label=\"" << node_label(peg, sub.nodes[i]) << "\""
       << (i == 0 ? ",style=bold,color=red" : "") << "];\n";
  }
  for (const PegEdge& e : sub.edges) write_edge(os, e);
  os << "}\n";
  return os.str();
}

}  // namespace mvgnn::graph
