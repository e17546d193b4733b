// Shadow-memory dependence recorder (DiscoPoP phase-1 equivalent).
//
// For every memory cell it remembers the last write and the last read per
// static instruction; each new access emits RAW/WAR/WAW dependences against
// those. Loop context is tracked as a stack of (loop instance, iteration)
// frames; the outermost level at which source and sink iteration vectors
// diverge is the carrying loop of the dependence instance.
//
// The per-access path does no hashing and no heap allocation in the steady
// state (docs/profiler.md, "Recorder layout"):
//  * static instructions and loops get dense ids (sites, loop slots) the
//    first time their function is seen;
//  * shadow memory is a two-level table of fixed-size chunks indexed by
//    address — ObjectTable addresses are dense and monotonic — whose 24-byte
//    cells cache their object id and hold the first reader inline;
//  * loop contexts are interned as a tree of (instance, iteration) nodes,
//    and each access stores one node id;
//  * aggregated edges live in per-sink lists keyed by (source, type).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "profiler/dep_graph.hpp"
#include "profiler/observer.hpp"

namespace mvgnn::profiler {

class DepRecorder final : public ExecObserver {
 public:
  /// `objects` must be the same table the interpreter allocates from.
  explicit DepRecorder(const ObjectTable& objects);

  void on_instr(const ir::Function& fn, ir::InstrId id) override;
  void on_load(const ir::Function& fn, ir::InstrId id, Addr addr) override;
  void on_store(const ir::Function& fn, ir::InstrId id, Addr addr) override;
  void on_loop_enter(const ir::Function& fn, ir::LoopId loop) override;
  void on_loop_iter(const ir::Function& fn, ir::LoopId loop) override;
  void on_loop_exit(const ir::Function& fn, ir::LoopId loop) override;

  /// Builds the aggregated profile. Call once, after the run; `objects` is
  /// copied into the result so the profile owns everything it references.
  [[nodiscard]] DepProfile finalize() const;

 private:
  using Site = std::uint32_t;    // dense id of one static instruction
  using NodeId = std::uint32_t;  // interned loop context; 0 = no loop
  static constexpr NodeId kNoNode = static_cast<NodeId>(-1);
  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  /// One loop context: one iteration of dynamic instance `instance` of loop
  /// slot `loop`, nested in context `parent`; `depth` counts its frames.
  struct Node {
    std::uint64_t instance;
    NodeId parent;
    std::uint32_t loop;
    std::uint32_t depth;
  };

  struct Frame {
    std::uint64_t instance;
    std::uint32_t loop;    // loop slot
    NodeId node;           // current iteration's context; kNoNode until used
    LoopRuntime* runtime;  // this loop's entry in loop_runtime_
  };

  /// One shadow cell; all-zero means untouched. Sites are stored +1 so that
  /// zero reads as "none".
  struct Cell {
    std::uint32_t obj;     // ObjectTable id + 1, filled on first touch
    Site write;            // last writer + 1
    NodeId write_node;
    Site read;             // first distinct reader since the write + 1
    NodeId read_node;
    std::uint32_t more;    // further readers: list head in readers_, 0 = none
  };
  static constexpr unsigned kChunkBits = 12;

  /// Overflow reader list entry (a pooled singly-linked list; index 0 is
  /// the null sentinel).
  struct Reader {
    Site site;
    NodeId node;
    std::uint32_t next;
  };

  struct Carried {
    std::uint32_t loop;  // loop slot
    std::uint64_t count = 0;
    // Summary of (loop, object) for the object last seen on this entry, so
    // loop_objects_ is consulted once per change of object, not per event.
    std::uint32_t obj = 0;
    ObjLoopSummary* summary = nullptr;
  };

  /// Aggregate of one (src, sink, type) edge, stored in its sink's list.
  struct EdgeStat {
    Site src = 0;
    DepType type = DepType::RAW;
    std::uint32_t object = 0;
    std::uint64_t total = 0;
    std::uint64_t intra = 0;
    std::vector<Carried> carried;
  };

  /// Where one function's sites and loop slots start.
  struct FnIds {
    Site site_base;
    std::uint32_t loop_base;
  };

  Site site_of(const ir::Function& fn, ir::InstrId id) {
    if (&fn != last_fn_) enter_function(fn);
    return site_base_ + id;
  }
  std::uint32_t loop_slot(const ir::Function& fn, ir::LoopId loop) {
    if (&fn != last_fn_) enter_function(fn);
    return loop_base_ + loop;
  }
  void enter_function(const ir::Function& fn);
  NodeId context();
  Cell& cell(Addr addr);
  void add_chunk(std::size_t chunk);
  std::uint32_t carrier(NodeId a, NodeId b) const;
  void record(Site src, NodeId src_node, Site dst, NodeId dst_node,
              DepType type, std::uint32_t obj);

  const ObjectTable& objects_;

  // Dense ids: sites_[s] / loops_[l] map back to the static references.
  std::unordered_map<const ir::Function*, FnIds> fns_;
  std::vector<InstrRef> sites_;
  std::vector<LoopRef> loops_;
  const ir::Function* last_fn_ = nullptr;
  Site site_base_ = 0;
  std::uint32_t loop_base_ = 0;

  std::vector<Frame> stack_;
  std::vector<Node> nodes_;
  NodeId cur_node_ = 0;
  std::uint64_t next_instance_ = 0;

  std::vector<std::unique_ptr<Cell[]>> chunks_;
  std::vector<Reader> readers_;
  std::uint32_t free_reader_ = 0;

  std::vector<std::vector<EdgeStat>> by_sink_;  // indexed by sink site
  std::vector<std::uint64_t> counts_;           // indexed by site
  std::vector<LoopRuntime*> loop_rt_;           // indexed by loop slot
  std::unordered_map<LoopRef, LoopRuntime, LoopRefHash> loop_runtime_;
  std::unordered_map<LoopRef, std::unordered_map<std::uint32_t, ObjLoopSummary>,
                     LoopRefHash>
      loop_objects_;
};

}  // namespace mvgnn::profiler
