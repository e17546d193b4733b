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
//  * loop contexts are interned as a tree of 8-byte (instance, iteration)
//    nodes, and each access stores one node id;
//  * aggregated edges live in one flat pool, each sink's edges on a ring
//    that the sink's cursor enters at its last hit;
//  * instructions are counted once per executed block, at its terminator.
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
  // slow paths are calls into dep_recorder.cpp. Instructions are counted
  // per block in on_block_end; on_instr does nothing.
  void on_instr(const ir::Function&, ir::InstrId) {}
  void on_block_end(const ir::Function& fn, ir::InstrId terminator);
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

  using InstId = std::uint32_t;  // dynamic loop instance; 0 = the root's
  static constexpr InstId kNoInst = static_cast<InstId>(-1);

  /// One loop context: one iteration of loop instance `inst`, nested in
  /// context `parent`. The root, context 0, is its own parent and the only
  /// context of instance 0.
  struct Node {
    NodeId parent;
    InstId inst;
  };

  /// One dynamic loop instance that had an access: its loop slot, and the
  /// number of frames down to it (the depth of its contexts).
  struct Instance {
    std::uint32_t loop;
    std::uint32_t depth;
  };

  struct Frame {
    std::uint32_t loop;    // loop slot
    InstId inst;           // kNoInst until the instance's first context
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

  /// Further readers of one cell, in 32-byte blocks chained through
  /// `next` and filled in chain order. A store empties the blocks but
  /// leaves the chain on the cell, so a cell that several sites read
  /// between its writes (a loop's induction variable) allocates its blocks
  /// once, not once per write. Block 0 is the null sentinel.
  static constexpr std::uint32_t kBlockReaders = 3;
  struct ReaderBlock {
    std::uint32_t n;     // used entries
    std::uint32_t next;  // next block of the chain, 0 = none
    Site site[kBlockReaders];
    NodeId node[kBlockReaders];
  };
  static_assert(sizeof(ReaderBlock) == 32);

  struct Carried {
    std::uint32_t loop = kNoSlot;  // loop slot; kNoSlot = unused
    // Summary of (loop, object) for the object last seen on this entry, so
    // loop_objects_ is consulted once per change of object, not per event.
    std::uint32_t obj = 0;
    ObjLoopSummary* summary = nullptr;
  };

  /// Aggregate of one (src, dst, type) edge in the flat pool edges_. The
  /// edges of one sink form a ring through `next`. The first carrying loop
  /// sits inline.
  struct EdgeStat {
    Site src = 0;
    DepType type = DepType::RAW;
    bool intra = false;  // a loop-independent instance was seen
    std::uint32_t next = 0;  // next edge of the same sink
    Site dst = 0;
    std::uint32_t object = 0;
    Carried first;
    std::vector<Carried> more;  // further carrying loops, in first-seen order
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
  std::uint32_t edge(std::uint32_t last, std::uint32_t from, Site src,
                     Site dst, DepType type);
  void mark(std::uint32_t e, NodeId src_node, NodeId dst_node, DepType type,
            std::uint32_t obj);

  // Slow paths, out of line in dep_recorder.cpp.
  void enter_function(const ir::Function& fn);
  LoopRuntime* add_loop_runtime(std::uint32_t slot);
  NodeId intern_context();
  void add_chunk(std::size_t chunk);
  void add_reader(Cell& c, Site site, NodeId node);
  std::uint32_t flush_readers(const Cell& c, std::uint32_t last, Site site,
                              NodeId node, std::uint32_t obj);
  std::uint32_t add_edge(std::uint32_t last, Site src, Site dst,
                         DepType type);
  std::uint32_t carrier_walk(NodeId a, NodeId b) const;
  void record_carried(EdgeStat& stat, std::uint32_t loop, DepType type,
                      std::uint32_t obj);

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
  std::vector<Instance> insts_;
  NodeId cur_node_ = 0;
  // First context of the current outermost loop instance: an older source
  // context lies outside it, so no loop carries its dependence.
  NodeId outer_base_ = 0;

  std::vector<std::unique_ptr<Cell[]>> chunks_;
  std::vector<ReaderBlock> blocks_;

  std::vector<EdgeStat> edges_;        // edges_[0] is the null sentinel
  std::vector<std::uint32_t> sinks_;   // per sink site: edge of its last hit
  std::vector<std::uint64_t> counts_;  // per site: runs of its terminator
  std::vector<LoopRuntime*> loop_rt_;  // indexed by loop slot
  std::unordered_map<LoopRef, LoopRuntime, LoopRefHash> loop_runtime_;
  std::unordered_map<LoopRef, std::unordered_map<std::uint32_t, ObjLoopSummary>,
                     LoopRefHash>
      loop_objects_;
};

// ---- the per-event fast paths -------------------------------------------
//
// on_load, on_store, on_loop_enter, edge() and mark() are always_inline:
// left to its heuristics, GCC keeps them as calls out of the engine's large
// dispatch function.

inline void DepRecorder::on_block_end(const ir::Function& fn,
                                      ir::InstrId terminator) {
  ++counts_[site_of(fn, terminator)];
}

[[gnu::always_inline]] inline void DepRecorder::on_loop_enter(
    const ir::Function& fn, ir::LoopId loop) {
  const std::uint32_t slot = loop_slot(fn, loop);
  LoopRuntime* rt = loop_rt_[slot];
  if (rt == nullptr) rt = add_loop_runtime(slot);
  ++rt->instances;
  if (stack_.empty()) outer_base_ = static_cast<NodeId>(nodes_.size());
  stack_.push_back({slot, kNoInst, kNoNode, rt});
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
    // A load site meets the same writer again and again: search from the
    // last hit itself.
    std::uint32_t& last = sinks_[site];
    last = edge(last, last, c.write - 1, site, DepType::RAW);
    mark(last, c.write_node, node, DepType::RAW, c.obj - 1);
  }
  if (c.read == 0 || c.read == site + 1) {
    c.read = site + 1;
    c.read_node = node;
    return;
  }
  // A chain whose first block has room holds all its readers there.
  if (c.more != 0) {
    ReaderBlock& blk = blocks_[c.more];
    if (blk.n < kBlockReaders) {
      for (std::uint32_t i = 0; i < blk.n; ++i) {
        if (blk.site[i] == site) {
          blk.node[i] = node;
          return;
        }
      }
      blk.site[blk.n] = site;
      blk.node[blk.n] = node;
      ++blk.n;
      return;
    }
  }
  add_reader(c, site, node);
}

[[gnu::always_inline]] inline void DepRecorder::on_store(
    const ir::Function& fn, ir::InstrId id, Addr addr) {
  const Site site = site_of(fn, id);
  const NodeId node = context();
  Cell& c = cell(addr);
  const std::uint32_t obj = c.obj - 1;
  // One cursor serves the WAW, the inline WAR and the flushed readers. A
  // store meets its sources in the same order every time, so each search
  // starts at the edge after the previous hit.
  std::uint32_t last = sinks_[site];
  if (c.write != 0) {
    last = edge(last, edges_[last].next, c.write - 1, site, DepType::WAW);
    mark(last, c.write_node, node, DepType::WAW, obj);
  }
  if (c.read != 0) {
    last = edge(last, edges_[last].next, c.read - 1, site, DepType::WAR);
    mark(last, c.read_node, node, DepType::WAR, obj);
    if (c.more != 0) last = flush_readers(c, last, site, node, obj);
    c.read = 0;
  }
  sinks_[site] = last;
  c.write = site + 1;
  c.write_node = node;
}

inline std::uint32_t DepRecorder::carrier(NodeId a, NodeId b) const {
  // Carrying loop: outermost common instance whose iterations diverge.
  // Equal contexts are iteration-local. Siblings (one parent) diverge right
  // below that parent: the same instance means different iterations of
  // it, different instances mean unrelated loop executions. That includes
  // the root, which shares parent 0 with every top-level context but no
  // instance. Anything else takes the walk.
  if (a == b || a < outer_base_) return kNoSlot;
  const Node& x = nodes_[a];
  const Node& y = nodes_[b];
  if (x.parent == y.parent) {
    return x.inst == y.inst ? insts_[x.inst].loop : kNoSlot;
  }
  return carrier_walk(a, b);
}

/// The (src, type) edge on the ring of sink `dst`, searched from `from`
/// round the ring; `last` is the sink's cursor, after which a new edge is
/// linked in (0: the sink has no edge yet).
[[gnu::always_inline]] inline std::uint32_t DepRecorder::edge(
    std::uint32_t last, std::uint32_t from, Site src, Site dst,
    DepType type) {
  if (from != 0) {
    std::uint32_t e = from;
    do {
      const EdgeStat& stat = edges_[e];
      if (stat.src == src && stat.type == type) return e;
      e = stat.next;
    } while (e != from);
  }
  return add_edge(last, src, dst, type);
}

/// Marks edge `e` with one dynamic dependence: loop-independent, or carried
/// by the loop `carrier` finds.
[[gnu::always_inline]] inline void DepRecorder::mark(std::uint32_t e,
                                                     NodeId src_node,
                                                     NodeId dst_node,
                                                     DepType type,
                                                     std::uint32_t obj) {
  EdgeStat& stat = edges_[e];
  stat.object = obj;
  const std::uint32_t loop = carrier(src_node, dst_node);
  if (loop == kNoSlot) {
    stat.intra = true;
    return;
  }
  // Fast path: the edge's first carrying loop, already summarized for this
  // object.
  if (stat.first.loop == loop && stat.first.obj == obj) return;
  record_carried(stat, loop, type, obj);
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
