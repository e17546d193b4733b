#include "reference_dep_recorder.hpp"

#include <algorithm>
#include <cassert>

#include "profiler/engine.hpp"

namespace mvgnn::profiler::reference {

void DepRecorder::on_instr(const ir::Function& fn, ir::InstrId id) {
  if (&fn != last_fn_) {
    last_fn_ = &fn;
    auto& v = counts_[&fn];
    if (v.size() < fn.instrs.size()) v.resize(fn.instrs.size(), 0);
    last_counts_ = &v;
  }
  ++(*last_counts_)[id];
}

void DepRecorder::on_loop_enter(const ir::Function& fn, ir::LoopId loop) {
  stack_.push_back({&fn, loop, next_instance_++, -1});
  cur_snap_ = kNoSnap;
  ++loop_runtime_[LoopRef{&fn, loop}].instances;
}

void DepRecorder::on_loop_iter(const ir::Function& fn, ir::LoopId loop) {
  assert(!stack_.empty() && stack_.back().loop == loop &&
         stack_.back().fn == &fn);
  (void)fn;
  (void)loop;
  ++stack_.back().iter;
  cur_snap_ = kNoSnap;
  ++loop_runtime_[LoopRef{stack_.back().fn, stack_.back().loop}].iterations;
}

void DepRecorder::on_loop_exit(const ir::Function& fn, ir::LoopId loop) {
  assert(!stack_.empty() && stack_.back().loop == loop &&
         stack_.back().fn == &fn);
  (void)fn;
  (void)loop;
  stack_.pop_back();
  cur_snap_ = kNoSnap;
}

DepRecorder::SnapId DepRecorder::current_snapshot() {
  if (cur_snap_ == kNoSnap) {
    cur_snap_ = static_cast<SnapId>(snapshots_.size());
    snapshots_.push_back(stack_);
  }
  return cur_snap_;
}

void DepRecorder::on_load(const ir::Function& fn, ir::InstrId id, Addr addr) {
  const InstrRef ref{&fn, id};
  const SnapId snap = current_snapshot();
  Shadow& sh = shadow_[addr];
  if (sh.last_write.valid) {
    record(sh.last_write.ref, sh.last_write.snap, ref, snap, DepType::RAW,
           addr);
  }
  for (Access& r : sh.last_reads) {
    if (r.ref == ref) {
      r.snap = snap;
      return;
    }
  }
  sh.last_reads.push_back({ref, snap, true});
}

void DepRecorder::on_store(const ir::Function& fn, ir::InstrId id, Addr addr) {
  const InstrRef ref{&fn, id};
  const SnapId snap = current_snapshot();
  Shadow& sh = shadow_[addr];
  if (sh.last_write.valid) {
    record(sh.last_write.ref, sh.last_write.snap, ref, snap, DepType::WAW,
           addr);
  }
  for (const Access& r : sh.last_reads) {
    record(r.ref, r.snap, ref, snap, DepType::WAR, addr);
  }
  sh.last_reads.clear();
  sh.last_write = {ref, snap, true};
}

void DepRecorder::record(const InstrRef& src, SnapId src_snap,
                         const InstrRef& dst, SnapId dst_snap, DepType type,
                         Addr addr) {
  // Carrying loop: outermost common instance whose iterations diverge.
  // Once instances diverge the accesses are in unrelated loop executions, so
  // nothing deeper can carry the dependence either.
  const std::vector<Frame>& a = snapshots_[src_snap];
  const std::vector<Frame>& b = snapshots_[dst_snap];
  LoopRef carrier;  // fn == nullptr means loop-independent
  const std::size_t depth = std::min(a.size(), b.size());
  for (std::size_t k = 0; k < depth; ++k) {
    if (a[k].instance != b[k].instance) break;
    if (a[k].iter != b[k].iter) {
      carrier = LoopRef{a[k].fn, a[k].loop};
      break;
    }
  }

  const std::uint32_t obj = objects_.object_of(addr);
  DepStat& stat = agg_[DepKey{src, dst, type}];
  ++stat.total;
  stat.object = obj;
  if (carrier.fn == nullptr) {
    ++stat.intra;
    return;
  }
  ++stat.carried[carrier];

  ObjLoopSummary& sum = loop_objects_[carrier][obj];
  switch (type) {
    case DepType::RAW: {
      sum.carried_raw = true;
      const auto pair = std::make_pair(src, dst);
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
  p.edges.reserve(agg_.size());
  for (const auto& [key, stat] : agg_) {
    DepEdge e;
    e.src = key.src;
    e.dst = key.dst;
    e.type = key.type;
    e.intra = stat.intra > 0;
    e.object = stat.object;
    for (const auto& [loop, n] : stat.carried) e.carried.push_back(loop);
    p.edges.push_back(std::move(e));
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
  p.instr_counts = counts_;
  return p;
}

}  // namespace mvgnn::profiler::reference

namespace mvgnn::profiler {

template RunResult run<reference::DepRecorder>(
    const ir::Module&, const std::string&, std::span<const ArgInit>,
    reference::DepRecorder&, ObjectTable&, const InterpOptions&);

}  // namespace mvgnn::profiler
