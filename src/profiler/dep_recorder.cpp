#include "profiler/dep_recorder.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

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
      readers_(1) {}                   // reader 0: list terminator

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

void DepRecorder::on_instr(const ir::Function& fn, ir::InstrId id) {
  ++counts_[site_of(fn, id)];
}

void DepRecorder::on_loop_enter(const ir::Function& fn, ir::LoopId loop) {
  const std::uint32_t slot = loop_slot(fn, loop);
  LoopRuntime*& rt = loop_rt_[slot];
  if (rt == nullptr) rt = &loop_runtime_[LoopRef{&fn, loop}];
  ++rt->instances;
  stack_.push_back({next_instance_++, slot, kNoNode, rt});
  cur_node_ = kNoNode;
}

void DepRecorder::on_loop_iter(const ir::Function& fn, ir::LoopId loop) {
  assert(!stack_.empty() &&
         (loops_[stack_.back().loop] == LoopRef{&fn, loop}));
  (void)fn;
  (void)loop;
  Frame& f = stack_.back();
  ++f.runtime->iterations;
  f.node = kNoNode;
  cur_node_ = kNoNode;
}

void DepRecorder::on_loop_exit(const ir::Function& fn, ir::LoopId loop) {
  assert(!stack_.empty() &&
         (loops_[stack_.back().loop] == LoopRef{&fn, loop}));
  (void)fn;
  (void)loop;
  stack_.pop_back();
  cur_node_ = stack_.empty() ? 0 : stack_.back().node;
}

DepRecorder::NodeId DepRecorder::context() {
  if (cur_node_ != kNoNode) return cur_node_;
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

DepRecorder::Cell& DepRecorder::cell(Addr addr) {
  const std::size_t chunk = addr >> kChunkBits;
  if (chunk >= chunks_.size() || !chunks_[chunk]) add_chunk(chunk);
  Cell& c = chunks_[chunk][addr & ((Addr{1} << kChunkBits) - 1)];
  // Addresses are never reused, so a cell's object is fixed at first touch.
  if (c.obj == 0) c.obj = objects_.object_of(addr) + 1;
  return c;
}

void DepRecorder::on_load(const ir::Function& fn, ir::InstrId id, Addr addr) {
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
  for (std::uint32_t r = c.more; r != 0; r = readers_[r].next) {
    if (readers_[r].site == site) {
      readers_[r].node = node;
      return;
    }
  }
  std::uint32_t r = free_reader_;
  if (r != 0) {
    free_reader_ = readers_[r].next;
    readers_[r] = {site, node, c.more};
  } else {
    r = static_cast<std::uint32_t>(readers_.size());
    readers_.push_back({site, node, c.more});
  }
  c.more = r;
}

void DepRecorder::on_store(const ir::Function& fn, ir::InstrId id, Addr addr) {
  const Site site = site_of(fn, id);
  const NodeId node = context();
  Cell& c = cell(addr);
  const std::uint32_t obj = c.obj - 1;
  if (c.write != 0) {
    record(c.write - 1, c.write_node, site, node, DepType::WAW, obj);
  }
  if (c.read != 0) {
    record(c.read - 1, c.read_node, site, node, DepType::WAR, obj);
    if (c.more != 0) {
      std::uint32_t r = c.more;
      for (;;) {
        const Reader& rd = readers_[r];
        record(rd.site, rd.node, site, node, DepType::WAR, obj);
        if (rd.next == 0) break;
        r = rd.next;
      }
      readers_[r].next = free_reader_;  // splice the list onto the free list
      free_reader_ = c.more;
      c.more = 0;
    }
    c.read = 0;
  }
  c.write = site + 1;
  c.write_node = node;
}

std::uint32_t DepRecorder::carrier(NodeId a, NodeId b) const {
  // Carrying loop: outermost common instance whose iterations diverge.
  // Once instances diverge the accesses are in unrelated loop executions, so
  // nothing deeper can carry the dependence either. Equal contexts at one
  // depth imply equal contexts above it, so the outermost divergence is
  // where the two chains, levelled to the shallower depth, first meet.
  if (a == b) return kNoSlot;
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

void DepRecorder::record(Site src, NodeId src_node, Site dst, NodeId dst_node,
                         DepType type, std::uint32_t obj) {
  std::vector<EdgeStat>& edges = by_sink_[dst];
  auto it = std::find_if(edges.begin(), edges.end(), [&](const EdgeStat& e) {
    return e.src == src && e.type == type;
  });
  if (it == edges.end()) {
    it = edges.insert(it, EdgeStat{});
    it->src = src;
    it->type = type;
  }
  EdgeStat& stat = *it;
  ++stat.total;
  stat.object = obj;
  const std::uint32_t loop = carrier(src_node, dst_node);
  if (loop == kNoSlot) {
    ++stat.intra;
    return;
  }
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
  for (const auto& edges : by_sink_) n_edges += edges.size();
  p.edges.reserve(n_edges);  // profiles are cached: keep them tight
  for (Site dst = 0; dst < by_sink_.size(); ++dst) {
    for (const EdgeStat& stat : by_sink_[dst]) {
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
  std::sort(p.edges.begin(), p.edges.end(),
            [](const DepEdge& x, const DepEdge& y) {
              const auto kx = std::make_tuple(x.src.fn->name, x.src.id,
                                              x.dst.fn->name, x.dst.id,
                                              static_cast<int>(x.type));
              const auto ky = std::make_tuple(y.src.fn->name, y.src.id,
                                              y.dst.fn->name, y.dst.id,
                                              static_cast<int>(y.type));
              return kx < ky;
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
