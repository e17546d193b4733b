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
      nodes_{Node{0, 0, kNoSlot, 0}},  // context 0: outside every loop
      blocks_(1) {}                    // block 0: chain terminator

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
    by_sink_.resize(sites_.size());
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
    nodes_.push_back({f.instance, parent, f.loop,
                      static_cast<std::uint32_t>(k + 1)});
    parent = f.node = static_cast<NodeId>(nodes_.size() - 1);
  }
  return cur_node_ = parent;
}

void DepRecorder::add_chunk(std::size_t chunk) {
  if (chunk >= chunks_.size()) chunks_.resize(chunk + 1);
  chunks_[chunk] = std::make_unique<Cell[]>(std::size_t{1} << kChunkBits);
}

void DepRecorder::add_reader(Cell& c, Site site, NodeId node) {
  for (std::uint32_t b = c.more; b != 0; b = blocks_[b].next) {
    ReaderBlock& blk = blocks_[b];
    for (std::uint32_t i = 0; i < blk.n; ++i) {
      if (blk.site[i] == site) {
        blk.node[i] = node;
        return;
      }
    }
  }
  // Append to the chain's head block, or open a new head when it is full.
  if (c.more == 0 || blocks_[c.more].n == kBlockReaders) {
    std::uint32_t b = free_block_;
    if (b != 0) {
      free_block_ = blocks_[b].next;
    } else {
      b = static_cast<std::uint32_t>(blocks_.size());
      blocks_.emplace_back();
    }
    blocks_[b].n = 0;
    blocks_[b].next = c.more;
    c.more = b;
  }
  ReaderBlock& head = blocks_[c.more];
  head.site[head.n] = site;
  head.node[head.n] = node;
  ++head.n;
}

void DepRecorder::flush_readers(Cell& c, Site site, NodeId node,
                                std::uint32_t obj) {
  std::uint32_t b = c.more;
  for (;;) {
    const ReaderBlock& blk = blocks_[b];
    for (std::uint32_t i = 0; i < blk.n; ++i) {
      record(blk.site[i], blk.node[i], site, node, DepType::WAR, obj);
    }
    if (blk.next == 0) break;
    b = blk.next;
  }
  blocks_[b].next = free_block_;  // splice the chain onto the free chain
  free_block_ = c.more;
  c.more = 0;
}

DepRecorder::EdgeStat& DepRecorder::add_edge(SinkEdges& sink, Site src,
                                             DepType type) {
  sink.hint = static_cast<std::uint32_t>(sink.edges.size() + 1);
  EdgeStat& e = sink.edges.emplace_back();
  e.src = src;
  e.type = type;
  return e;
}

std::uint32_t DepRecorder::carrier_walk(NodeId a, NodeId b) const {
  // Once instances diverge the accesses are in unrelated loop executions, so
  // nothing deeper can carry the dependence either. Equal contexts at one
  // depth imply equal contexts above it, so the outermost divergence is
  // where the two chains, levelled to the shallower depth, first meet.
  const Node* x = &nodes_[a];
  const Node* y = &nodes_[b];
  while (x->depth > y->depth) x = &nodes_[x->parent];
  while (y->depth > x->depth) y = &nodes_[y->parent];
  if (x == y) return kNoSlot;
  while (x->parent != y->parent) {
    x = &nodes_[x->parent];
    y = &nodes_[y->parent];
  }
  return x->instance == y->instance ? x->loop : kNoSlot;
}

void DepRecorder::record_carried(EdgeStat& stat, std::uint32_t loop, Site src,
                                 Site dst, DepType type, std::uint32_t obj) {
  auto ct = std::find_if(stat.carried.begin(), stat.carried.end(),
                         [&](const Carried& c) { return c.loop == loop; });
  if (ct == stat.carried.end()) {
    stat.carried.push_back({loop});
    ct = stat.carried.end() - 1;
  }
  Carried& carried = *ct;
  ++carried.count;
  if (carried.summary != nullptr && carried.obj == obj) return;

  carried.obj = obj;
  carried.summary = &loop_objects_[loops_[loop]][obj];
  ObjLoopSummary& sum = *carried.summary;
  switch (type) {
    case DepType::RAW: {
      sum.carried_raw = true;
      const auto pair = std::make_pair(sites_[src], sites_[dst]);
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
  std::size_t n_edges = 0;
  for (const SinkEdges& sink : by_sink_) n_edges += sink.edges.size();
  p.edges.reserve(n_edges);  // profiles are cached: keep them tight
  for (Site dst = 0; dst < by_sink_.size(); ++dst) {
    for (const EdgeStat& stat : by_sink_[dst].edges) {
      DepEdge e;
      e.src = sites_[stat.src];
      e.dst = sites_[dst];
      e.type = stat.type;
      e.total_count = stat.total;
      e.intra_count = stat.intra;
      e.object = stat.object;
      e.carried.reserve(stat.carried.size());
      for (const Carried& c : stat.carried) {
        e.carried.emplace_back(loops_[c.loop], c.count);
      }
      p.edges.push_back(std::move(e));
    }
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
  // A function gets a count vector once it executed an instruction.
  for (const auto& [fn, ids] : fns_) {
    const auto first = counts_.begin() + ids.site_base;
    const auto last = first + static_cast<std::ptrdiff_t>(fn->instrs.size());
    if (std::any_of(first, last, [](std::uint64_t n) { return n != 0; })) {
      p.instr_counts.emplace(fn, std::vector<std::uint64_t>(first, last));
    }
  }
  return p;
}

}  // namespace mvgnn::profiler
