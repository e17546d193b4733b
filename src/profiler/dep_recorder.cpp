#include "profiler/dep_recorder.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace mvgnn::profiler {

bool loop_contains(const ir::Function& fn, ir::LoopId l, ir::LoopId inner) {
  while (inner != ir::kNoLoop) {
    if (inner == l) return true;
    inner = fn.loops[inner].parent;
  }
  return false;
}

bool instr_in_loop(const ir::Function& fn, ir::InstrId id, ir::LoopId l) {
  return loop_contains(fn, l, fn.instr(id).loop);
}

DepRecorder::DepRecorder(const ObjectTable& objects)
    : objects_(objects),
      nodes_{Node{0, 0}},            // context 0: outside every loop
      insts_{Instance{kNoSlot, 0}},  // instance 0: the root's
      blocks_(1),                    // block 0: chain terminator
      edges_(1) {}                   // edge 0: no edge

void DepRecorder::enter_function(const ir::Function& fn) {
  const auto [it, fresh] = fns_.try_emplace(
      &fn, FnIds{static_cast<Site>(sites_.size()),
                 static_cast<std::uint32_t>(loops_.size())});
  if (fresh) {
    for (ir::InstrId id = 0; id < fn.instrs.size(); ++id) {
      sites_.push_back({&fn, id});
    }
    for (ir::LoopId l = 0; l < fn.loops.size(); ++l) {
      loops_.push_back({&fn, l});
    }
    counts_.resize(sites_.size(), 0);
    sinks_.resize(sites_.size(), 0);
    loop_rt_.resize(loops_.size(), nullptr);
  }
  last_fn_ = &fn;
  site_base_ = it->second.site_base;
  loop_base_ = it->second.loop_base;
}

LoopRuntime* DepRecorder::add_loop_runtime(std::uint32_t slot) {
  return loop_rt_[slot] = &loop_runtime_[loops_[slot]];
}

DepRecorder::NodeId DepRecorder::intern_context() {
  // Frames that already have a context form a prefix of the stack: only a
  // frame's own iteration change (or its push) clears it, and that happens
  // at the top. Intern the missing suffix.
  std::size_t k = stack_.size();
  while (k > 0 && stack_[k - 1].node == kNoNode) --k;
  NodeId parent = k == 0 ? 0 : stack_[k - 1].node;
  for (; k < stack_.size(); ++k) {
    if (nodes_.size() >= kNoNode) {
      throw std::length_error("dependence recorder: loop context overflow");
    }
    Frame& f = stack_[k];
    if (f.inst == kNoInst) {
      f.inst = static_cast<InstId>(insts_.size());
      insts_.push_back({f.loop, static_cast<std::uint32_t>(k + 1)});
    }
    nodes_.push_back({parent, f.inst});
    parent = f.node = static_cast<NodeId>(nodes_.size() - 1);
  }
  return cur_node_ = parent;
}

void DepRecorder::add_chunk(std::size_t chunk) {
  if (chunk >= chunks_.size()) chunks_.resize(chunk + 1);
  chunks_[chunk] = std::make_unique<Cell[]>(std::size_t{1} << kChunkBits);
}

void DepRecorder::add_reader(Cell& c, Site site, NodeId node) {
  std::uint32_t b = c.more;
  std::uint32_t last = 0;
  for (; b != 0; last = b, b = blocks_[b].next) {
    ReaderBlock& blk = blocks_[b];
    for (std::uint32_t i = 0; i < blk.n; ++i) {
      if (blk.site[i] == site) {
        blk.node[i] = node;
        return;
      }
    }
    if (blk.n < kBlockReaders) break;  // the chain's readers end here
  }
  if (b == 0) {  // every block is full: link a new one at the end
    b = static_cast<std::uint32_t>(blocks_.size());
    blocks_.emplace_back();
    (last == 0 ? c.more : blocks_[last].next) = b;
  }
  ReaderBlock& blk = blocks_[b];
  blk.site[blk.n] = site;
  blk.node[blk.n] = node;
  ++blk.n;
}

std::uint32_t DepRecorder::flush_readers(const Cell& c, std::uint32_t last,
                                         Site site, NodeId node,
                                         std::uint32_t obj) {
  for (std::uint32_t b = c.more; b != 0; b = blocks_[b].next) {
    ReaderBlock& blk = blocks_[b];
    if (blk.n == 0) break;
    for (std::uint32_t i = 0; i < blk.n; ++i) {
      last = edge(last, edges_[last].next, blk.site[i], site, DepType::WAR);
      mark(last, blk.node[i], node, DepType::WAR, obj);
    }
    blk.n = 0;
  }
  return last;
}

std::uint32_t DepRecorder::add_edge(std::uint32_t last, Site src, Site dst,
                                    DepType type) {
  const auto e = static_cast<std::uint32_t>(edges_.size());
  EdgeStat& stat = edges_.emplace_back();
  stat.src = src;
  stat.type = type;
  stat.dst = dst;
  if (last == 0) {
    stat.next = e;  // a ring of one
  } else {
    stat.next = edges_[last].next;
    edges_[last].next = e;
  }
  return e;
}

std::uint32_t DepRecorder::carrier_walk(NodeId a, NodeId b) const {
  // Once instances diverge the accesses are in unrelated loop executions, so
  // nothing deeper can carry the dependence either. Equal contexts at one
  // depth imply equal contexts above it, so the outermost divergence is
  // where the two chains, levelled to the shallower depth, first meet.
  const Node* x = &nodes_[a];
  const Node* y = &nodes_[b];
  std::uint32_t dx = insts_[x->inst].depth;
  std::uint32_t dy = insts_[y->inst].depth;
  for (; dx > dy; --dx) x = &nodes_[x->parent];
  for (; dy > dx; --dy) y = &nodes_[y->parent];
  if (x == y) return kNoSlot;
  while (x->parent != y->parent) {
    x = &nodes_[x->parent];
    y = &nodes_[y->parent];
  }
  return x->inst == y->inst ? insts_[x->inst].loop : kNoSlot;
}

void DepRecorder::record_carried(EdgeStat& stat, std::uint32_t loop,
                                 DepType type, std::uint32_t obj) {
  Carried* ct = &stat.first;
  if (ct->loop != kNoSlot && ct->loop != loop) {
    const auto it =
        std::find_if(stat.more.begin(), stat.more.end(),
                     [&](const Carried& c) { return c.loop == loop; });
    ct = it != stat.more.end() ? &*it : &stat.more.emplace_back();
  }
  Carried& carried = *ct;
  carried.loop = loop;
  if (carried.summary != nullptr && carried.obj == obj) return;

  carried.obj = obj;
  carried.summary = &loop_objects_[loops_[loop]][obj];
  ObjLoopSummary& sum = *carried.summary;
  switch (type) {
    case DepType::RAW: {
      sum.carried_raw = true;
      const auto pair = std::make_pair(sites_[stat.src], sites_[stat.dst]);
      if (std::find(sum.carried_raw_pairs.begin(), sum.carried_raw_pairs.end(),
                    pair) == sum.carried_raw_pairs.end()) {
        sum.carried_raw_pairs.push_back(pair);
      }
      break;
    }
    case DepType::WAR: sum.carried_war = true; break;
    case DepType::WAW: sum.carried_waw = true; break;
  }
}

DepProfile DepRecorder::finalize() const {
  DepProfile p;
  p.edges.reserve(edges_.size() - 1);  // profiles are cached: keep them tight
  for (auto stat = edges_.begin() + 1; stat != edges_.end(); ++stat) {
    DepEdge e;
    e.src = sites_[stat->src];
    e.dst = sites_[stat->dst];
    e.type = stat->type;
    e.intra = stat->intra;
    e.object = stat->object;
    if (stat->first.loop != kNoSlot) {
      e.carried.reserve(1 + stat->more.size());
      e.carried.push_back(loops_[stat->first.loop]);
      for (const Carried& c : stat->more) e.carried.push_back(loops_[c.loop]);
    }
    p.edges.push_back(std::move(e));
  }
  // Deterministic order: by function pointer is unstable across runs of the
  // process, but (function name, id) is stable — sort on that.
  const auto key = [](const DepEdge& e) {
    return std::tie(e.src.fn->name, e.src.id, e.dst.fn->name, e.dst.id,
                    e.type);
  };
  std::sort(p.edges.begin(), p.edges.end(),
            [&](const DepEdge& x, const DepEdge& y) {
              return key(x) < key(y);
            });
  // on_loop_iter fires at every header entry, including the final failing
  // test; report body executions by discounting one test per instance.
  p.loop_runtime = loop_runtime_;
  for (auto& [ref, rt] : p.loop_runtime) {
    rt.iterations -= std::min(rt.iterations, rt.instances);
  }
  p.loop_objects = loop_objects_;
  // counts_ holds how often each terminator ran. Every instruction of a
  // block ran as often as the first terminator at or after it: a run that
  // faults mid-block throws, and its recorder is discarded. A function gets
  // a count vector once it executed an instruction.
  for (const auto& [fn, ids] : fns_) {
    std::vector<std::uint64_t> counts(fn->instrs.size(), 0);
    for (const ir::BasicBlock& bb : fn->blocks) {
      std::uint64_t n = 0;
      for (auto id = bb.instrs.rbegin(); id != bb.instrs.rend(); ++id) {
        if (fn->instr(*id).is_terminator()) n = counts_[ids.site_base + *id];
        counts[*id] = n;
      }
    }
    if (std::any_of(counts.begin(), counts.end(),
                    [](std::uint64_t n) { return n != 0; })) {
      p.instr_counts.emplace(fn, std::move(counts));
    }
  }
  return p;
}

}  // namespace mvgnn::profiler
