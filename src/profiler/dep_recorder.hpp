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

#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "profiler/dep_graph.hpp"
#include "profiler/interp.hpp"

namespace mvgnn::profiler {

class DepRecorder final {
 public:
  /// `objects` must be the same table the interpreter allocates from.
  explicit DepRecorder(const ObjectTable& objects);

  // The ExecObserver hooks. They are defined below the class so that
  // Engine<DepRecorder> inlines them into its dispatch loop; only their rare
  // slow paths are calls into dep_recorder.cpp.
  void on_instr(const ir::Function& fn, ir::InstrId id);
  void on_load(const ir::Function& fn, ir::InstrId id, Addr addr);
  void on_store(const ir::Function& fn, ir::InstrId id, Addr addr);
  void on_loop_enter(const ir::Function& fn, ir::LoopId loop);
  void on_loop_iter(const ir::Function& fn, ir::LoopId loop);
  void on_loop_exit(const ir::Function& fn, ir::LoopId loop);

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
  /// Instances are numbered from 1, so no loop context shares the root's
  /// instance 0.
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
    std::uint32_t more;    // further readers: first block in blocks_, 0 = none
  };
  static constexpr unsigned kChunkBits = 10;

  /// Further readers of one cell, in pooled 64-byte blocks chained through
  /// `next`: a cell's chain holds its readers, newest block first; the free
  /// blocks form one more chain. Block 0 is the null sentinel.
  static constexpr std::uint32_t kBlockReaders = 7;
  struct ReaderBlock {
    std::uint32_t n;     // used entries
    std::uint32_t next;  // next block of the chain, 0 = none
    Site site[kBlockReaders];
    NodeId node[kBlockReaders];
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

  /// The edges of one sink site. Lookups start at `hint`, the entry after
  /// the last hit: a store meets its reader sites in the same order every
  /// iteration, so each lookup of its WAR flush hits at once.
  struct SinkEdges {
    std::vector<EdgeStat> edges;
    std::uint32_t hint = 0;
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
  NodeId context() {
    return cur_node_ != kNoNode ? cur_node_ : intern_context();
  }
  Cell& cell(Addr addr) {
    const std::size_t chunk = addr >> kChunkBits;
    if (chunk >= chunks_.size() || !chunks_[chunk]) add_chunk(chunk);
    Cell& c = chunks_[chunk][addr & ((Addr{1} << kChunkBits) - 1)];
    // Addresses are never reused, so a cell's object is fixed at first touch.
    if (c.obj == 0) c.obj = objects_.object_of(addr) + 1;
    return c;
  }
  std::uint32_t carrier(NodeId a, NodeId b) const;
  void record(Site src, NodeId src_node, Site dst, NodeId dst_node,
              DepType type, std::uint32_t obj);

  // Slow paths, out of line in dep_recorder.cpp.
  void enter_function(const ir::Function& fn);
  LoopRuntime* add_loop_runtime(std::uint32_t slot);
  NodeId intern_context();
  void add_chunk(std::size_t chunk);
  void add_reader(Cell& c, Site site, NodeId node);
  void flush_readers(Cell& c, Site site, NodeId node, std::uint32_t obj);
  EdgeStat& add_edge(SinkEdges& sink, Site src, DepType type);
  std::uint32_t carrier_walk(NodeId a, NodeId b) const;
  void record_carried(EdgeStat& stat, std::uint32_t loop, Site src, Site dst,
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
  std::uint64_t next_instance_ = 1;

  std::vector<std::unique_ptr<Cell[]>> chunks_;
  std::vector<ReaderBlock> blocks_;
  std::uint32_t free_block_ = 0;

  std::vector<SinkEdges> by_sink_;     // indexed by sink site
  std::vector<std::uint64_t> counts_;  // indexed by site
  std::vector<LoopRuntime*> loop_rt_;  // indexed by loop slot
  std::unordered_map<LoopRef, LoopRuntime, LoopRefHash> loop_runtime_;
  std::unordered_map<LoopRef, std::unordered_map<std::uint32_t, ObjLoopSummary>,
                     LoopRefHash>
      loop_objects_;
};

// ---- the per-event fast paths -------------------------------------------
//
// on_load, on_store, on_loop_enter and record() are always_inline: left to
// its heuristics, GCC keeps them as calls out of the engine's large
// dispatch function.

inline void DepRecorder::on_instr(const ir::Function& fn, ir::InstrId id) {
  ++counts_[site_of(fn, id)];
}

[[gnu::always_inline]] inline void DepRecorder::on_loop_enter(
    const ir::Function& fn, ir::LoopId loop) {
  const std::uint32_t slot = loop_slot(fn, loop);
  LoopRuntime* rt = loop_rt_[slot];
  if (rt == nullptr) rt = add_loop_runtime(slot);
  ++rt->instances;
  stack_.push_back({next_instance_++, slot, kNoNode, rt});
  cur_node_ = kNoNode;
}

inline void DepRecorder::on_loop_iter(const ir::Function& fn,
                                      ir::LoopId loop) {
  assert(!stack_.empty() &&
         (loops_[stack_.back().loop] == LoopRef{&fn, loop}));
  (void)fn;
  (void)loop;
  Frame& f = stack_.back();
  ++f.runtime->iterations;
  f.node = kNoNode;
  cur_node_ = kNoNode;
}

inline void DepRecorder::on_loop_exit(const ir::Function& fn,
                                      ir::LoopId loop) {
  assert(!stack_.empty() &&
         (loops_[stack_.back().loop] == LoopRef{&fn, loop}));
  (void)fn;
  (void)loop;
  stack_.pop_back();
  cur_node_ = stack_.empty() ? 0 : stack_.back().node;
}

[[gnu::always_inline]] inline void DepRecorder::on_load(
    const ir::Function& fn, ir::InstrId id, Addr addr) {
  const Site site = site_of(fn, id);
  const NodeId node = context();
  Cell& c = cell(addr);
  if (c.write != 0) {
    record(c.write - 1, c.write_node, site, node, DepType::RAW, c.obj - 1);
  }
  if (c.read == 0 || c.read == site + 1) {
    c.read = site + 1;
    c.read_node = node;
    return;
  }
  add_reader(c, site, node);
}

[[gnu::always_inline]] inline void DepRecorder::on_store(
    const ir::Function& fn, ir::InstrId id, Addr addr) {
  const Site site = site_of(fn, id);
  const NodeId node = context();
  Cell& c = cell(addr);
  const std::uint32_t obj = c.obj - 1;
  if (c.write != 0) {
    record(c.write - 1, c.write_node, site, node, DepType::WAW, obj);
  }
  if (c.read != 0) {
    record(c.read - 1, c.read_node, site, node, DepType::WAR, obj);
    if (c.more != 0) flush_readers(c, site, node, obj);
    c.read = 0;
  }
  c.write = site + 1;
  c.write_node = node;
}

inline std::uint32_t DepRecorder::carrier(NodeId a, NodeId b) const {
  // Carrying loop: outermost common instance whose iterations diverge.
  // Equal contexts are iteration-local. Siblings (one parent, one depth)
  // diverge right below that parent: the same instance means different
  // iterations of it. The depth check keeps the root (parent 0, depth 0)
  // out of the shortcut: a top-level context also has parent 0. Anything
  // else takes the walk.
  if (a == b) return kNoSlot;
  const Node& x = nodes_[a];
  const Node& y = nodes_[b];
  if (x.parent == y.parent && x.depth == y.depth) {
    return x.instance == y.instance ? x.loop : kNoSlot;
  }
  return carrier_walk(a, b);
}

[[gnu::always_inline]] inline void DepRecorder::record(
    Site src, NodeId src_node, Site dst, NodeId dst_node, DepType type,
    std::uint32_t obj) {
  SinkEdges& sink = by_sink_[dst];
  const std::size_t n = sink.edges.size();
  EdgeStat* stat = nullptr;
  for (std::size_t k = 0, i = sink.hint < n ? sink.hint : 0; k < n; ++k) {
    EdgeStat& e = sink.edges[i];
    if (e.src == src && e.type == type) {
      sink.hint = static_cast<std::uint32_t>(i + 1);
      stat = &e;
      break;
    }
    if (++i == n) i = 0;
  }
  if (stat == nullptr) stat = &add_edge(sink, src, type);
  ++stat->total;
  stat->object = obj;
  const std::uint32_t loop = carrier(src_node, dst_node);
  if (loop == kNoSlot) {
    ++stat->intra;
    return;
  }
  // Fast path: the edge's first carrying loop, already summarized for this
  // object.
  if (!stat->carried.empty()) {
    Carried& first = stat->carried.front();
    if (first.loop == loop && first.summary != nullptr && first.obj == obj) {
      ++first.count;
      return;
    }
  }
  record_carried(*stat, loop, src, dst, type, obj);
}

// The recorder stays a concrete type without a vtable: an overridable hook
// would turn every event into an indirect call again.
static_assert(ExecObserver<DepRecorder> &&
              !std::is_polymorphic_v<DepRecorder>);

// The one engine behind profiler::profile, instantiated in engine.cpp.
extern template RunResult run<DepRecorder>(const ir::Module&,
                                           const std::string&,
                                           std::span<const ArgInit>,
                                           DepRecorder&, ObjectTable&,
                                           const InterpOptions&);

}  // namespace mvgnn::profiler
