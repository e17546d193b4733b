// Instrumentation contract: the interpreter calls back into an observer at
// every dynamic event, mirroring how DiscoPoP's LLVM pass injects runtime
// hooks into the compiled program.
#pragma once

#include "ir/function.hpp"
#include "profiler/mem_object.hpp"

namespace mvgnn::profiler {

/// A type the micro-op engine can report to. The engine is instantiated on
/// the concrete observer and calls its hooks directly, so they inline into
/// the dispatch loop: there is no base class and no indirect call.
/// DepRecorder is the library's observer; the unobserved runs use hooks
/// that do nothing.
template <class Obs>
concept ExecObserver = requires(Obs& obs, const ir::Function& fn,
                                ir::InstrId id, Addr addr, ir::LoopId loop) {
  // Every executed instruction (before its effect).
  obs.on_instr(fn, id);
  // Terminator `id` (Br, CondBr or Ret) executes: its block ran through
  // once more. An observer can count instructions here, once per block:
  // observed runs are sequential, so a block that does not fault always
  // reaches its terminator.
  obs.on_block_end(fn, id);
  // Scalar or array-element read at `addr` by instruction `id`.
  obs.on_load(fn, id, addr);
  // Scalar or array-element write at `addr` by instruction `id`.
  obs.on_store(fn, id, addr);
  // A dynamic loop instance begins (LoopEnter marker).
  obs.on_loop_enter(fn, loop);
  // A new iteration of the innermost active instance begins (LoopHead).
  obs.on_loop_iter(fn, loop);
  // The instance ends (LoopExit marker).
  obs.on_loop_exit(fn, loop);
};

}  // namespace mvgnn::profiler
