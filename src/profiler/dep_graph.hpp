// Aggregated dynamic data-dependence graph produced by one profiled run.
//
// Terminology follows the paper / DiscoPoP: a dependence instance is
// *carried* by loop L when source and sink execute in the same dynamic
// instance of L but in different iterations; the carrying loop is unique
// (the outermost level at which the iteration vectors diverge).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/function.hpp"
#include "profiler/mem_object.hpp"

namespace mvgnn::profiler {

enum class DepType : std::uint8_t { RAW, WAR, WAW };

[[nodiscard]] inline const char* dep_name(DepType t) {
  switch (t) {
    case DepType::RAW: return "RAW";
    case DepType::WAR: return "WAR";
    case DepType::WAW: return "WAW";
  }
  return "?";
}

/// A static instruction reference (function + arena index).
struct InstrRef {
  const ir::Function* fn = nullptr;
  ir::InstrId id = ir::kNoInstr;

  friend bool operator==(const InstrRef&, const InstrRef&) = default;
};

/// A static loop reference.
struct LoopRef {
  const ir::Function* fn = nullptr;
  ir::LoopId loop = ir::kNoLoop;

  friend bool operator==(const LoopRef&, const LoopRef&) = default;
};

struct InstrRefHash {
  std::size_t operator()(const InstrRef& r) const {
    return std::hash<const void*>()(r.fn) * 1315423911u ^ r.id;
  }
};
struct LoopRefHash {
  std::size_t operator()(const LoopRef& r) const {
    return std::hash<const void*>()(r.fn) * 2654435761u ^ r.loop;
  }
};

/// One aggregated static dependence edge: the (src, dst, type) triple, with
/// whether any of its dynamic instances was loop-independent and which loops
/// carried one. How many instances there were is not kept.
struct DepEdge {
  InstrRef src;  // earlier access (the dependence source)
  InstrRef dst;  // later access (the sink)
  DepType type = DepType::RAW;
  bool intra = false;  // an instance was loop-independent (or cross-instance)
  /// Loops that carried an instance, each once, in first-seen order.
  std::vector<LoopRef> carried;
  std::uint32_t object = 0;  // representative memory object id

  [[nodiscard]] bool carried_by(const LoopRef& l) const {
    return std::find(carried.begin(), carried.end(), l) != carried.end();
  }
  [[nodiscard]] bool loop_carried() const { return !carried.empty(); }
};

/// Per (loop, memory object) summary used by the label oracle and the
/// DiscoPoP-like classifier: which dependence kinds does loop L carry on
/// object O, and between which instruction pairs do the carried RAWs run.
struct ObjLoopSummary {
  bool carried_raw = false;
  bool carried_war = false;
  bool carried_waw = false;
  std::vector<std::pair<InstrRef, InstrRef>> carried_raw_pairs;  // deduped
};

struct LoopRuntime {
  std::uint64_t instances = 0;   // dynamic LoopEnter count
  std::uint64_t iterations = 0;  // dynamic LoopHead count
};

/// Full dependence profile of one run.
struct DepProfile {
  std::vector<DepEdge> edges;
  std::unordered_map<LoopRef, LoopRuntime, LoopRefHash> loop_runtime;
  std::unordered_map<LoopRef,
                     std::unordered_map<std::uint32_t, ObjLoopSummary>,
                     LoopRefHash>
      loop_objects;
  /// Per-function dynamic instruction execution counts (arena-indexed).
  std::unordered_map<const ir::Function*, std::vector<std::uint64_t>>
      instr_counts;
  ObjectTable objects;

  [[nodiscard]] std::uint64_t exec_count(const ir::Function* fn,
                                         ir::InstrId id) const {
    const auto it = instr_counts.find(fn);
    if (it == instr_counts.end()) return 0;
    return id < it->second.size() ? it->second[id] : 0;
  }
};

/// True if static loop `l` (in `fn`) contains the loop `inner` (reflexive).
[[nodiscard]] bool loop_contains(const ir::Function& fn, ir::LoopId l,
                                 ir::LoopId inner);

/// True if instruction `id` of `fn` lies statically inside loop `l`.
[[nodiscard]] bool instr_in_loop(const ir::Function& fn, ir::InstrId id,
                                 ir::LoopId l);

}  // namespace mvgnn::profiler
