// Program Execution Graph (PEG), the paper's section III-A representation.
//
// Vertices are CUs, loops, or functions; edges are data dependences between
// CUs (RAW/WAR/WAW, from the dynamic profile) plus hierarchy edges linking
// functions to their loops/CUs and loops to their children. Every `for`
// loop induces a sub-PEG (the loop node plus everything nested inside it),
// which is one classification sample.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "profiler/profile.hpp"

namespace mvgnn::graph {

enum class NodeKind : std::uint8_t { CU, Loop, Function };
enum class EdgeKind : std::uint8_t { Dep, Hierarchy };

struct PegNode {
  NodeKind kind = NodeKind::CU;
  const ir::Function* fn = nullptr;
  std::uint32_t cu = 0;                 // index into Peg::cus (Kind::CU)
  ir::LoopId loop = ir::kNoLoop;        // Kind::Loop
  int start_line = 0;                   // <ID, START, END> triple: the node
  int end_line = 0;                     //   id is its index in Peg::nodes
};

struct PegEdge {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  EdgeKind kind = EdgeKind::Dep;
  profiler::DepType dep = profiler::DepType::RAW;  // Kind::Dep only
};

struct Peg {
  std::vector<PegNode> nodes;
  std::vector<PegEdge> edges;
  std::vector<profiler::CU> cus;  // copied from the profile

  [[nodiscard]] std::size_t num_nodes() const { return nodes.size(); }
};

/// Builds the whole-program PEG from a profile. Dependence edges connect the
/// CUs containing the endpoint instructions (self-edges on one CU are kept —
/// they encode reduction-style read-modify-write patterns).
[[nodiscard]] Peg build_peg(const ir::Module& m,
                            const profiler::ProfileResult& profile);

/// The sub-PEG rooted at one loop: `nodes[i]` indexes into the parent PEG,
/// `edges` are pairs of *local* indices. nodes[0] is the loop node itself.
struct SubPeg {
  std::uint32_t root = 0;  // PEG node id of the loop
  std::vector<std::uint32_t> nodes;
  std::vector<PegEdge> edges;  // src/dst are local indices

  [[nodiscard]] std::size_t num_nodes() const { return nodes.size(); }
};

/// Extracts the sub-PEG of loop `l` in `fn`. Contains the loop node, all
/// loops/CUs nested inside it, and the induced edges.
[[nodiscard]] SubPeg extract_sub_peg(const Peg& peg, const ir::Function* fn,
                                     ir::LoopId l);

/// Graphviz DOT rendering (paper Fig. 5 visualization).
[[nodiscard]] std::string to_dot(const Peg& peg, const std::string& title);
[[nodiscard]] std::string to_dot(const Peg& peg, const SubPeg& sub,
                                 const std::string& title);

}  // namespace mvgnn::graph
