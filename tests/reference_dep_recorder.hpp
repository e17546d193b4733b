// Test-only reference: the hash-map dependence recorder that
// profiler::DepRecorder replaced, kept verbatim (only moved into the
// `reference` namespace, its hooks no longer override a base class, it
// ignores on_block_end: it counts every instruction in on_instr, and its
// finalize reduces its dependence counts to the profile's presence flags) so
// test_profiler can check the production recorder against it on every
// generator family. It runs on its own engine instantiation
// (reference_dep_recorder.cpp).
//
// Shadow-memory dependence recorder (DiscoPoP phase-1 equivalent).
//
// For every memory cell it remembers the last write and the last read per
// static instruction; each new access emits RAW/WAR/WAW dependences against
// those. Loop context is tracked as a stack of (loop instance, iteration)
// frames; the outermost level at which source and sink iteration vectors
// diverge is the carrying loop of the dependence instance.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "profiler/dep_graph.hpp"
#include "profiler/interp.hpp"

namespace mvgnn::profiler::reference {

class DepRecorder final {
 public:
  /// `objects` must be the same table the interpreter allocates from.
  explicit DepRecorder(const ObjectTable& objects) : objects_(objects) {}

  void on_instr(const ir::Function& fn, ir::InstrId id);
  void on_block_end(const ir::Function&, ir::InstrId) {}
  void on_load(const ir::Function& fn, ir::InstrId id, Addr addr);
  void on_store(const ir::Function& fn, ir::InstrId id, Addr addr);
  void on_loop_enter(const ir::Function& fn, ir::LoopId loop);
  void on_loop_iter(const ir::Function& fn, ir::LoopId loop);
  void on_loop_exit(const ir::Function& fn, ir::LoopId loop);

  /// Builds the aggregated profile. Call once, after the run; `objects` is
  /// copied into the result so the profile owns everything it references.
  [[nodiscard]] DepProfile finalize() const;

 private:
  using SnapId = std::uint32_t;
  static constexpr SnapId kNoSnap = static_cast<SnapId>(-1);

  struct Frame {
    const ir::Function* fn;
    ir::LoopId loop;
    std::uint64_t instance;
    std::int64_t iter;
  };

  struct Access {
    InstrRef ref;
    SnapId snap = kNoSnap;
    bool valid = false;
  };

  struct Shadow {
    Access last_write;
    // Last read per static instruction; small linear vector — the number of
    // distinct static readers of one address is tiny in practice.
    std::vector<Access> last_reads;
  };

  struct DepKey {
    InstrRef src, dst;
    DepType type;
    friend bool operator==(const DepKey&, const DepKey&) = default;
  };
  struct DepKeyHash {
    std::size_t operator()(const DepKey& k) const {
      const InstrRefHash h;
      return h(k.src) * 40503u ^ h(k.dst) * 69069u ^
             static_cast<std::size_t>(k.type);
    }
  };
  struct DepStat {
    std::uint64_t total = 0;
    std::uint64_t intra = 0;
    std::unordered_map<LoopRef, std::uint64_t, LoopRefHash> carried;
    std::uint32_t object = 0;
  };

  SnapId current_snapshot();
  void record(const InstrRef& src, SnapId src_snap, const InstrRef& dst,
              SnapId dst_snap, DepType type, Addr addr);

  const ObjectTable& objects_;
  std::vector<Frame> stack_;
  std::vector<std::vector<Frame>> snapshots_;
  SnapId cur_snap_ = kNoSnap;
  std::uint64_t next_instance_ = 0;

  std::unordered_map<Addr, Shadow> shadow_;
  std::unordered_map<DepKey, DepStat, DepKeyHash> agg_;
  std::unordered_map<LoopRef, LoopRuntime, LoopRefHash> loop_runtime_;
  std::unordered_map<LoopRef, std::unordered_map<std::uint32_t, ObjLoopSummary>,
                     LoopRefHash>
      loop_objects_;
  std::unordered_map<const ir::Function*, std::vector<std::uint64_t>> counts_;
  const ir::Function* last_fn_ = nullptr;
  std::vector<std::uint64_t>* last_counts_ = nullptr;
};

}  // namespace mvgnn::profiler::reference

namespace mvgnn::profiler {

extern template RunResult run<reference::DepRecorder>(
    const ir::Module&, const std::string&, std::span<const ArgInit>,
    reference::DepRecorder&, ObjectTable&, const InterpOptions&);

}  // namespace mvgnn::profiler
