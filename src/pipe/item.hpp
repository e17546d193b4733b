// One pipeline item: a (program, IR-variant) pair flowing through the
// staged pipeline (stage.hpp) into its vocabulary-free feature bundle.
//
// ItemFeatures is deliberately pointer-free and *vocabulary-free*: it
// stores normalized token STRINGS (in the exact order the corpus
// vocabulary grows), skip-gram context pairs as indices into that token
// list, and raw anonymous walks in sample order. The data layer replays
// vocabulary growth, skip-gram training and distribution densification
// over these bundles deterministically, which is what makes the dataset
// bit-identical whether an item came out of the cache or was recomputed.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "graph/anon_walk.hpp"
#include "pipe/stage.hpp"
#include "profiler/interp.hpp"

namespace mvgnn::pipe {

/// Everything identifying one item's computation: the source text plus the
/// per-item seeds. Content-hash keys are pure functions of this + the
/// PipelineConfig.
struct ItemSpec {
  std::string source;
  std::string module_name;
  std::string entry = "kernel";
  /// The entry's arguments: explicit (corpus items; empty by default), or
  /// nullopt for profiler::default_args of the entry, built right after
  /// the Lower stage so the source is compiled once.
  std::optional<std::vector<profiler::ArgInit>> args{std::in_place};
  /// IR-variant transform pipeline name ("" = none); resolved against
  /// transform::variant_pipelines() by name.
  std::string variant;
  std::uint64_t noise_seed = 0;  // dependence-degradation RNG seed
  std::uint64_t walk_seed = 0;   // anonymous-walk RNG seed
};

/// The stage-configuration knobs that participate in key fingerprints.
struct PipelineConfig {
  graph::AwParams walk;
  double dep_noise = 0.08;
  profiler::InterpOptions interp;
};

/// The content-hash key of one item's features: a hash chain over the
/// stage boundaries (parse, lower, profile, peg, walks, featurize), each
/// link folding in the knobs that enter at that stage, so every knob of
/// the spec and config re-keys the item.
[[nodiscard]] cache::Key item_key(const ItemSpec& spec,
                                  const PipelineConfig& cfg);

/// One per-loop sample in raw (vocabulary-free) form. Node token lists and
/// the token sequence are indices into ItemFeatures::tokens.
struct RawSample {
  std::uint32_t n = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::vector<std::uint8_t> edge_kinds;  // 0 hierarchy, 1 RAW, 2 WAR, 3 WAW
  std::vector<std::uint8_t> node_kinds;  // graph::NodeKind per node
  std::vector<std::vector<std::uint32_t>> node_token_ix;
  std::vector<std::array<double, 7>> node_dynamic;  // squashed Table I
  /// gamma anonymized walks per node, in sample order (vocab ids are
  /// resolved at replay).
  std::vector<std::vector<graph::AnonWalk>> node_walks;
  std::array<double, 7> loop_features{};  // squashed root-loop Table I
  std::vector<std::uint32_t> token_seq_ix;
  std::int32_t label = 0;
  std::int32_t pattern_label = 0;
  bool tool_autopar = false;
  bool tool_pluto = false;
  bool tool_discopop = false;
  std::int32_t loop_line = 0;
};

/// The Featurize-stage output of one item — the serializable cache payload.
struct ItemFeatures {
  /// Normalized token per instruction, flattened across the module's
  /// functions in arena order — exactly the corpus vocabulary growth order.
  std::vector<std::string> tokens;
  /// Skip-gram context pairs as indices into `tokens`.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> context_pairs;
  std::vector<RawSample> samples;
};

/// Length-prefixed little-endian payload (internal format version + caps on
/// every count; see item.cpp). deserialize throws std::runtime_error on any
/// malformed input — run_item treats that as a miss and recomputes.
[[nodiscard]] std::string serialize_features(const ItemFeatures& f);
[[nodiscard]] ItemFeatures deserialize_features(std::string_view bytes);

/// The whole item pipeline with caching at the featurize boundary: a blob
/// hit at the item key short-circuits everything; otherwise every
/// stage runs and the result is stored back. `cache` may be null (always
/// recompute). Throws StageError on any stage failure.
[[nodiscard]] ItemFeatures run_item(const ItemSpec& spec,
                                    const PipelineConfig& cfg,
                                    cache::Cache* cache);

}  // namespace mvgnn::pipe
