#include "pipe/item.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "analysis/tools.hpp"
#include "cache/key.hpp"
#include "embedding/normalizer.hpp"
#include "frontend/lower.hpp"
#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "graph/peg.hpp"
#include "io/codec.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "parallel/rng.hpp"
#include "profiler/profile.hpp"
#include "transform/passes.hpp"

namespace mvgnn::pipe {

namespace {

/// Bumped whenever the ItemFeatures payload layout changes; participates in
/// the item key so old entries become misses instead of decode errors.
constexpr std::uint32_t kFormat = 1;

// Deserialization caps — far past anything the generators produce, tight
// enough that a hostile count cannot drive a huge allocation.
constexpr std::uint64_t kMaxTokens = 1ull << 22;
constexpr std::uint64_t kMaxStr = 1ull << 20;
constexpr std::uint64_t kMaxPairs = 1ull << 26;
constexpr std::uint64_t kMaxSamples = 1ull << 20;
constexpr std::uint64_t kMaxNodes = 1ull << 20;
constexpr std::uint64_t kMaxEdges = 1ull << 24;
constexpr std::uint64_t kMaxWalks = 1ull << 20;
constexpr std::uint64_t kMaxWalkLen = 255;
// Smallest encodings, for the remaining-bytes check on counts: a node is
// its kind, token count, 7 dynamic features and walk count; a sample with
// no nodes, edges or tokens is n, edge count, 7 loop features, sequence
// length, label, pattern, three tool flags and the loop line.
constexpr std::uint64_t kMinNodeBytes = 1 + 8 + 7 * 8 + 8;
constexpr std::uint64_t kMinSampleBytes = 4 + 8 + 7 * 8 + 8 + 4 + 4 + 3 + 4;

/// Simulates input sensitivity: drops aggregated dependence edges with
/// probability `p`. Loop runtime, CU structure and object tables stay.
profiler::ProfileResult degrade_profile(const profiler::ProfileResult& prof,
                                        double p, par::Rng& rng) {
  profiler::ProfileResult out = prof;
  if (p <= 0.0) return out;
  std::erase_if(out.dep.edges, [&](const profiler::DepEdge&) {
    return rng.uniform() < p;
  });
  return out;
}

/// log1p squashing for count-like dynamic features (exec counts span many
/// orders of magnitude; GCNs want tame inputs).
std::array<double, 7> squash(const profiler::LoopFeatures& f) {
  const auto v = f.as_vector();
  std::array<double, 7> out{};
  out[0] = std::log1p(v[0]);  // n_inst
  out[1] = std::log1p(v[1]);  // exec_times
  out[2] = std::log1p(v[2]);  // cfl
  out[3] = v[3];              // esp (already a small ratio)
  out[4] = std::log1p(v[4]);  // incoming
  out[5] = std::log1p(v[5]);  // internal
  out[6] = std::log1p(v[6]);  // outgoing
  return out;
}

/// The Profile-stage output: module + clean profile. The module holds its
/// functions by unique_ptr, so moving the struct keeps the profile's
/// pointers into it valid.
struct CompiledProfile {
  ir::Module module;
  profiler::ProfileResult prof;
};

}  // namespace

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::Parse: return "parse";
    case Stage::Lower: return "lower";
    case Stage::Profile: return "profile";
    case Stage::Peg: return "peg";
    case Stage::Walks: return "walks";
    case Stage::Featurize: return "featurize";
    case Stage::Embed: return "embed";
  }
  return "?";
}

const char* quarantine_stage(Stage s) {
  switch (s) {
    case Stage::Parse:
    case Stage::Lower: return "compile";
    case Stage::Profile: return "profile";
    case Stage::Peg:
    case Stage::Walks:
    case Stage::Featurize:
    case Stage::Embed: return "featurize";
  }
  return "?";
}

cache::Key item_key(const ItemSpec& spec, const PipelineConfig& cfg) {
  const cache::Key parse = cache::Hasher()
                               .str("mvgnn.pipe.v1")
                               .str("parse")
                               .str(spec.source)
                               .str(spec.module_name)
                               .digest();
  const cache::Key lower =
      cache::Hasher(parse).str("lower").str(spec.variant).digest();
  cache::Hasher hp(lower);
  hp.str("profile")
      .str(spec.entry)
      .u64(cfg.interp.max_steps)
      .u32(cfg.interp.max_call_depth)
      .u64(cfg.interp.max_mem_cells);
  if (spec.args) {
    hp.u64(spec.args->size());
    for (const profiler::ArgInit& a : *spec.args) {
      hp.u64(static_cast<std::uint64_t>(a.int_val))
          .f64(a.float_val)
          .u64(a.array_size)
          .u64(a.fill_seed);
    }
  } else {
    // The rule itself, not the arguments it yields: bump the tag when
    // profiler::default_args changes.
    hp.str("default_args.v1");
  }
  const cache::Key peg = cache::Hasher(hp.digest())
                             .str("peg")
                             .f64(cfg.dep_noise)
                             .u64(spec.noise_seed)
                             .digest();
  const cache::Key walks = cache::Hasher(peg)
                               .str("walks")
                               .u32(cfg.walk.gamma)
                               .u32(cfg.walk.length)
                               .u64(spec.walk_seed)
                               .digest();
  return cache::Hasher(walks).str("featurize").u32(kFormat).digest();
}

std::string serialize_features(const ItemFeatures& f) {
  io::ByteWriter w;
  w.u32(kFormat);
  w.u64(f.tokens.size());
  for (const std::string& t : f.tokens) w.str(t);
  w.u64(f.context_pairs.size());
  for (const auto& [a, b] : f.context_pairs) {
    w.u32(a);
    w.u32(b);
  }
  w.u64(f.samples.size());
  for (const RawSample& s : f.samples) {
    w.u32(s.n);
    w.u64(s.edges.size());
    for (const auto& [a, b] : s.edges) {
      w.u32(a);
      w.u32(b);
    }
    for (const std::uint8_t k : s.edge_kinds) w.u8(k);
    for (const std::uint8_t k : s.node_kinds) w.u8(k);
    for (const auto& ix : s.node_token_ix) {
      w.u64(ix.size());
      for (const std::uint32_t t : ix) w.u32(t);
    }
    for (const auto& d : s.node_dynamic) {
      for (const double v : d) w.f64(v);
    }
    for (const auto& walks : s.node_walks) {
      w.u64(walks.size());
      for (const graph::AnonWalk& walk : walks) {
        w.u64(walk.size());
        for (const std::uint8_t step : walk) w.u8(step);
      }
    }
    for (const double v : s.loop_features) w.f64(v);
    w.u64(s.token_seq_ix.size());
    for (const std::uint32_t t : s.token_seq_ix) w.u32(t);
    w.i32(s.label);
    w.i32(s.pattern_label);
    w.u8(s.tool_autopar);
    w.u8(s.tool_pluto);
    w.u8(s.tool_discopop);
    w.i32(s.loop_line);
  }
  return w.take();
}

ItemFeatures deserialize_features(std::string_view bytes) {
  io::ByteReader r(bytes, "item features payload");
  if (r.u32() != kFormat) r.fail_at(0, "format version mismatch");
  ItemFeatures f;
  const std::uint64_t n_tokens = r.count(kMaxTokens, "token list", 8);
  f.tokens.reserve(static_cast<std::size_t>(n_tokens));
  for (std::uint64_t i = 0; i < n_tokens; ++i) f.tokens.push_back(r.str(kMaxStr));
  const std::uint64_t n_pairs = r.count(kMaxPairs, "pair list", 8);
  f.context_pairs.reserve(static_cast<std::size_t>(n_pairs));
  for (std::uint64_t i = 0; i < n_pairs; ++i) {
    const std::size_t at = r.offset();
    const std::uint32_t a = r.u32();
    const std::uint32_t b = r.u32();
    if (a >= f.tokens.size() || b >= f.tokens.size()) {
      r.fail_at(at, "pair index out of range");
    }
    f.context_pairs.emplace_back(a, b);
  }
  const std::uint64_t n_samples =
      r.count(kMaxSamples, "sample list", kMinSampleBytes);
  f.samples.reserve(static_cast<std::size_t>(n_samples));
  for (std::uint64_t si = 0; si < n_samples; ++si) {
    RawSample s;
    const std::size_t n_at = r.offset();
    s.n = r.u32();
    if (s.n > kMaxNodes) r.fail_at(n_at, "too many nodes");
    r.fits(s.n, kMinNodeBytes, n_at, "node list");
    const std::uint64_t n_edges = r.count(kMaxEdges, "edge list", 9);
    s.edges.reserve(static_cast<std::size_t>(n_edges));
    for (std::uint64_t i = 0; i < n_edges; ++i) {
      const std::size_t at = r.offset();
      const std::uint32_t a = r.u32();
      const std::uint32_t b = r.u32();
      if (a >= s.n || b >= s.n) r.fail_at(at, "edge index out of range");
      s.edges.emplace_back(a, b);
    }
    s.edge_kinds.resize(static_cast<std::size_t>(n_edges));
    for (auto& k : s.edge_kinds) k = r.u8();
    s.node_kinds.resize(s.n);
    for (auto& k : s.node_kinds) k = r.u8();
    s.node_token_ix.resize(s.n);
    for (auto& ix : s.node_token_ix) {
      const std::uint64_t nt = r.count(kMaxTokens, "node token list", 4);
      ix.reserve(static_cast<std::size_t>(nt));
      for (std::uint64_t i = 0; i < nt; ++i) {
        const std::size_t at = r.offset();
        const std::uint32_t t = r.u32();
        if (t >= f.tokens.size()) r.fail_at(at, "token index out of range");
        ix.push_back(t);
      }
    }
    s.node_dynamic.resize(s.n);
    for (auto& d : s.node_dynamic) {
      for (double& v : d) v = r.f64();
    }
    s.node_walks.resize(s.n);
    for (auto& walks : s.node_walks) {
      const std::uint64_t nw = r.count(kMaxWalks, "walk list", 8);
      walks.reserve(static_cast<std::size_t>(nw));
      for (std::uint64_t i = 0; i < nw; ++i) {
        const std::uint64_t len = r.count(kMaxWalkLen, "walk");
        const std::string_view steps = r.bytes(len, "walk");
        walks.emplace_back(steps.begin(), steps.end());
      }
    }
    for (double& v : s.loop_features) v = r.f64();
    const std::uint64_t n_seq = r.count(kMaxTokens, "token sequence", 4);
    s.token_seq_ix.reserve(static_cast<std::size_t>(n_seq));
    for (std::uint64_t i = 0; i < n_seq; ++i) {
      const std::size_t at = r.offset();
      const std::uint32_t t = r.u32();
      if (t >= f.tokens.size()) r.fail_at(at, "token index out of range");
      s.token_seq_ix.push_back(t);
    }
    s.label = r.i32();
    s.pattern_label = r.i32();
    s.tool_autopar = r.u8() != 0;
    s.tool_pluto = r.u8() != 0;
    s.tool_discopop = r.u8() != 0;
    s.loop_line = r.i32();
    f.samples.push_back(std::move(s));
  }
  r.expect_end();
  return f;
}

namespace {

/// Runs Parse..Profile for `spec`. Throws StageError.
CompiledProfile compile_and_profile(const ItemSpec& spec,
                                    const PipelineConfig& cfg) {
  CompiledProfile cp;
  Stage cur = Stage::Parse;
  try {
    // One `pipe.<stage>` span per stage boundary: these are what the
    // report's stage-attribution table keys on (see obs/report.hpp).
    frontend::Program prog;
    std::vector<profiler::ArgInit> defaults;
    {
      OBS_SPAN("pipe.parse");
      prog = frontend::parse(spec.source);
      frontend::analyze(prog);
    }
    cur = Stage::Lower;
    {
      OBS_SPAN("pipe.lower");
      cp.module = frontend::lower(prog, spec.module_name);
      ir::verify(cp.module);
      if (!spec.variant.empty()) {
        const transform::Pipeline* pipeline = nullptr;
        for (const transform::Pipeline& p : transform::variant_pipelines()) {
          if (p.name == spec.variant) {
            pipeline = &p;
            break;
          }
        }
        if (!pipeline) {
          throw std::runtime_error("unknown variant pipeline: " + spec.variant);
        }
        transform::run_pipeline(cp.module, *pipeline);
      }
      if (!spec.args) {
        const ir::Function* fn = cp.module.find(spec.entry);
        if (!fn) {
          throw std::runtime_error("no `" + spec.entry +
                                   "` function in the program");
        }
        defaults = profiler::default_args(*fn);
      }
    }
    cur = Stage::Profile;
    {
      obs::ScopedSpan span("pipe.profile");
      cp.prof = profiler::profile(cp.module, spec.entry,
                                   spec.args ? *spec.args : defaults,
                                   cfg.interp);
      span.arg("dep_edges", cp.prof.dep.edges.size())
          .arg("cus", cp.prof.cus.size());
    }
  } catch (const StageError&) {
    throw;
  } catch (const std::exception& e) {
    throw StageError(cur, e.what());
  }
  return cp;
}

/// Runs Peg..Featurize over an already-profiled item. Throws StageError.
ItemFeatures featurize_compiled(const CompiledProfile& cp,
                                const ItemSpec& spec,
                                const PipelineConfig& cfg) {
  Stage cur = Stage::Peg;
  try {
    par::Rng noise_rng(spec.noise_seed);
    // optional<ScopedSpan> because peg outputs (noisy_prof, peg) outlive
    // the stage: close the span by hand where the stage boundary sits.
    std::optional<obs::ScopedSpan> peg_span;
    peg_span.emplace("pipe.peg");
    const profiler::ProfileResult noisy_prof =
        degrade_profile(cp.prof, cfg.dep_noise, noise_rng);
    const graph::Peg peg = graph::build_peg(cp.module, noisy_prof);
    peg_span->arg("nodes", peg.nodes.size())
        .arg("dep_edges", noisy_prof.dep.edges.size());
    peg_span.reset();

    cur = Stage::Featurize;
    obs::ScopedSpan feat_span("pipe.featurize");
    ItemFeatures f;

    // Flatten normalized tokens across functions in arena order — the
    // corpus vocabulary growth order — and collect skip-gram pairs with
    // function-local indices rebased onto the flat list.
    std::unordered_map<const ir::Function*, std::uint32_t> tok_base;
    for (const auto& fn : cp.module.functions) {
      const auto base = static_cast<std::uint32_t>(f.tokens.size());
      tok_base[fn.get()] = base;
      embedding::TokenizedFunction tf = embedding::tokenize_function(*fn);
      for (std::string& t : tf.tokens) f.tokens.push_back(std::move(t));
      for (const auto& [a, b] : tf.pairs) {
        f.context_pairs.emplace_back(base + a, base + b);
      }
    }

    // Per-loop Table I features for every loop in the module (loop nodes
    // of inner loops need them too). Model-visible features come from the
    // degraded profile.
    std::unordered_map<const ir::Function*,
                       std::vector<profiler::LoopFeatures>>
        loop_feats;
    for (const auto& fn : cp.module.functions) {
      auto& v = loop_feats[fn.get()];
      v.reserve(fn->loops.size());
      for (const ir::LoopInfo& l : fn->loops) {
        v.push_back(profiler::compute_loop_features(*fn, l.id, noisy_prof.dep));
      }
    }

    par::Rng walk_rng(spec.walk_seed);

    for (const profiler::LoopSample& ls : cp.prof.loops) {
      const graph::SubPeg sub = graph::extract_sub_peg(peg, ls.fn, ls.loop);
      RawSample s;
      s.n = static_cast<std::uint32_t>(sub.num_nodes());
      for (const graph::PegEdge& e : sub.edges) {
        s.edges.emplace_back(e.src, e.dst);
        if (e.kind == graph::EdgeKind::Hierarchy) {
          s.edge_kinds.push_back(0);
        } else {
          switch (e.dep) {
            case profiler::DepType::RAW: s.edge_kinds.push_back(1); break;
            case profiler::DepType::WAR: s.edge_kinds.push_back(2); break;
            case profiler::DepType::WAW: s.edge_kinds.push_back(3); break;
          }
        }
      }

      s.node_kinds.resize(s.n);
      s.node_token_ix.resize(s.n);
      s.node_dynamic.resize(s.n);
      for (std::uint32_t k = 0; k < s.n; ++k) {
        const graph::PegNode& node = peg.nodes[sub.nodes[k]];
        s.node_kinds[k] = static_cast<std::uint8_t>(node.kind);
        std::vector<std::uint32_t>& node_tokens = s.node_token_ix[k];
        profiler::LoopFeatures dyn;
        if (node.kind == graph::NodeKind::CU) {
          const profiler::CU& cu = peg.cus[node.cu];
          for (const ir::InstrId id : cu.instrs) {
            node_tokens.push_back(tok_base[node.fn] + id);
          }
          if (node.loop != ir::kNoLoop) {
            dyn = loop_feats[node.fn][node.loop];
          }
          // A CU's own cost signal: mean execution count of its members
          // (from the CLEAN profile, like the labels).
          std::uint64_t total = 0;
          for (const ir::InstrId id : cu.instrs) {
            total += cp.prof.dep.exec_count(node.fn, id);
          }
          dyn.exec_times = cu.instrs.empty() ? 0 : total / cu.instrs.size();
        } else if (node.kind == graph::NodeKind::Loop) {
          for (ir::InstrId id = 0; id < node.fn->instrs.size(); ++id) {
            if (profiler::instr_in_loop(*node.fn, id, node.loop)) {
              node_tokens.push_back(tok_base[node.fn] + id);
            }
          }
          dyn = loop_feats[node.fn][node.loop];
          if (k == 0) s.token_seq_ix = node_tokens;  // root loop body
        }
        s.node_dynamic[k] = squash(dyn);
      }

      // Structural view: sample raw anonymized walks per node; vocab ids
      // and distributions are resolved at replay.
      {
        obs::ScopedSpan span("pipe.walks");
        graph::WalkGraph wg(s.n);
        for (const auto& [a, b] : s.edges) wg.add_edge(a, b);
        s.node_walks.resize(s.n);
        for (std::uint32_t k = 0; k < s.n; ++k) {
          s.node_walks[k] = graph::sample_anon_walks(wg, k, cfg.walk, walk_rng);
        }
        span.arg("nodes", s.n);
      }

      // Labels, baselines, provenance. Labels and tool verdicts use the
      // clean profile; the stored hand-crafted features are the degraded
      // ones (what a real profiling run would have produced).
      s.loop_features = squash(loop_feats[ls.fn][ls.loop]);
      s.label =
          analysis::oracle_classify(*ls.fn, ls.loop, cp.prof.dep).parallel ? 1
                                                                           : 0;
      s.pattern_label = static_cast<int>(
          analysis::oracle_pattern(*ls.fn, ls.loop, cp.prof.dep));
      s.tool_autopar = analysis::autopar_classify(*ls.fn, ls.loop).parallel;
      s.tool_pluto = analysis::pluto_classify(*ls.fn, ls.loop).parallel;
      s.tool_discopop =
          analysis::discopop_classify(*ls.fn, ls.loop, cp.prof.dep).parallel;
      s.loop_line = ls.fn->loops[ls.loop].start_line;
      f.samples.push_back(std::move(s));
    }
    feat_span.arg("samples", f.samples.size()).arg("tokens", f.tokens.size());
    return f;
  } catch (const StageError&) {
    throw;
  } catch (const std::exception& e) {
    throw StageError(cur, e.what());
  }
}

}  // namespace

ItemFeatures run_item(const ItemSpec& spec, const PipelineConfig& cfg,
                      cache::Cache* cache) {
  const cache::Key key = item_key(spec, cfg);
  if (cache) {
    if (auto blob = cache->get(key)) {
      try {
        return deserialize_features(*blob);
      } catch (const std::exception& e) {
        // CRC-valid but undecodable (e.g. written by a different build) —
        // degrade to recompute, never fail the item over a cache entry.
        obs::log_warn("undecodable cache entry; recomputing",
                      {{"key", key.hex()}, {"error", e.what()}});
      }
    }
  }
  ItemFeatures f =
      featurize_compiled(compile_and_profile(spec, cfg), spec, cfg);
  if (cache) cache->put(key, serialize_features(f));
  return f;
}

}  // namespace mvgnn::pipe
