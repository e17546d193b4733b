// Deterministic fault injection.
//
// A tiny hook layer that lets tests (and operators chasing a bug) make the
// pipeline fail in precisely controlled places: the N-th write to a
// checkpoint, a read stream that goes dry after K bytes, an interpreter
// trap at dynamic instruction S, a simulated crash at optimizer step N.
// Every site is named; a site fires exactly once, on its N-th hit, and the
// whole layer compiles down to one relaxed atomic load when nothing is
// armed — cheap enough to leave the hooks in production builds.
//
// Arming:
//   * programmatically: fault::arm("trainer.step", 7);
//   * from the environment: MVGNN_FAULT="trainer.step@7,io.write@2"
//     (parsed once, on first use).
//
// Well-known sites (see docs/robustness.md):
//   io.write          atomic_write_file fails between temp write and rename
//   io.read.truncate  io::read_stream delivers only N bytes, then EOF
//   interp.trap       interpreter traps at dynamic instruction N
//   trainer.step      trainer throws before optimizer step N (kill test)
//   ckpt.write        checkpoint save fails before writing
//   cache.write       cache disk-tier write fails (entry stays uncached)
//   cache.read.corrupt  N-th cache disk read sees a CRC mismatch (the entry
//                     is evicted and recomputed, never fatal)
//   serve.accept      daemon drops the N-th accepted connection
//   serve.read        daemon closes a connection at the N-th socket read
//   serve.batch       N-th batched forward fails; every request in the
//                     batch is answered `batch_failed`, the daemon lives
//   serve.reload      N-th checkpoint (re)load fails; a hot reload answers
//                     `reload_failed` and the old model keeps serving
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace mvgnn::fault {

/// Thrown by check() at an armed site's firing hit. Distinct type so tests
/// can tell an injected fault from an organic failure.
struct InjectedFault : std::runtime_error {
  explicit InjectedFault(const std::string& what) : std::runtime_error(what) {}
};

/// Arms `site` to fire on its `nth` hit (1-based). Re-arming replaces the
/// previous setting and resets the hit counter.
void arm(const std::string& site, std::uint64_t nth);

/// Disarms everything and clears all hit counters.
void disarm_all();

/// True when at least one site is armed. Single relaxed atomic load — the
/// fast path for hot loops.
[[nodiscard]] bool enabled() noexcept;

/// Counts a hit against `site`; returns true exactly on the armed firing
/// hit (false before, after, and whenever the site is not armed).
[[nodiscard]] bool hit(const char* site);

/// Like hit(), but throws InjectedFault("injected fault at <site>") when it
/// fires. The usual form at call sites.
void check(const char* site);

/// The armed threshold for `site` without counting a hit (nullopt when not
/// armed). Used by components that precompute the fault point instead of
/// probing per event — e.g. the interpreter folds "interp.trap" into its
/// step-budget compare.
[[nodiscard]] std::optional<std::uint64_t> armed_nth(const char* site);

/// Hits recorded against `site` since it was last armed (0 if never armed).
[[nodiscard]] std::uint64_t hit_count(const std::string& site);

}  // namespace mvgnn::fault
