// Dataset construction: corpus programs -> labeled graph samples.
//
// Pipeline (paper Fig. 2 + section IV-A):
//   compile every program (optionally through the six IR variant
//   pipelines), profile it, build its PEG, and emit one GraphSample per
//   `for` loop: the loop's sub-PEG, the two view inputs (inst2vec+dynamic
//   node features; anonymous-walk distributions), the expert oracle label,
//   and the baseline tool verdicts.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/corpus.hpp"
#include "embedding/normalizer.hpp"
#include "embedding/skipgram.hpp"
#include "graph/anon_walk.hpp"
#include "pipe/item.hpp"

namespace mvgnn::cache {
class Cache;
}

namespace mvgnn::data {

struct GraphSample {
  // Graph structure (local node indices; node 0 is the loop node).
  std::uint32_t n = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  /// Edge relation per entry of `edges`: 0 = hierarchy, 1 = RAW, 2 = WAR,
  /// 3 = WAW (consumed by the typed-edge / relational-GCN extension).
  std::vector<std::uint8_t> edge_kinds;
  static constexpr std::size_t kNumRelations = 4;

  // Node-feature view input: inst2vec mean + node-kind one-hot + size, and
  // the Table I dynamic features per node.
  std::vector<std::vector<float>> node_static;      // [n][static_dim]
  std::vector<std::array<double, 7>> node_dynamic;  // [n][7]

  // Structural view input: anonymous-walk distribution per node (dense over
  // the frozen AW vocabulary).
  std::vector<std::vector<float>> aw_dist;  // [n][aw_vocab]

  // Root-loop Table I features (the hand-crafted classifier input).
  std::array<double, 7> loop_features{};

  // Normalized-token sequence of the loop body in program order (the NCC
  // baseline consumes this through the inst2vec embedding + LSTM).
  std::vector<std::uint32_t> token_seq;

  // Labels and baselines.
  int label = 0;  // 1 = parallelizable (oracle)
  // Parallel-pattern label (paper future work): 0 = sequential, 1 = DOALL,
  // 2 = reduction.
  int pattern_label = 0;
  bool tool_autopar = false;
  bool tool_pluto = false;
  bool tool_discopop = false;

  // Provenance.
  std::string suite, app, kernel, variant;
  int loop_line = 0;
};

struct DatasetOptions {
  bool use_ir_variants = false;  // run the six transform pipelines
  graph::AwParams walk;          // anonymous-walk sampling parameters
  std::uint64_t seed = 42;
  /// Input-sensitivity of the dynamic analysis: each aggregated dependence
  /// edge is dropped from the *model-visible* profile with this probability
  /// (labels and tool verdicts always use the clean profile). Real dynamic
  /// profilers only see the dependences the profiling input exercises; this
  /// is what keeps the learned models below 100% on template-recognizable
  /// code.
  double dep_noise = 0.08;
  /// Profiler resource caps (fuel, memory, call depth) applied to every
  /// corpus program. A program that exhausts them traps and is quarantined
  /// instead of hanging or OOMing the whole build.
  profiler::InterpOptions interp;
  /// Stage-boundary cache (docs/pipeline.md). Null = always recompute. The
  /// dataset is bit-identical with the cache off, cold, or warm: every
  /// build path flows through the same cached ItemFeatures form and a
  /// deterministic replay of the corpus-global phases.
  cache::Cache* cache = nullptr;
  /// Cooperative interrupt (e.g. flipped by a SIGINT handler). Polled
  /// between pipeline items: when it goes true, no new item starts, the
  /// in-flight ones finish, the corpus-global phases are skipped and
  /// build_dataset returns an empty dataset with
  /// BuildReport::interrupted set — so `mvgnn dataset` can flush its
  /// report and exit 130 instead of dying mid-shard.
  const std::atomic<bool>* stop_requested = nullptr;
};

/// One corpus program (or program variant) that failed during dataset
/// construction and was skipped instead of aborting the build.
struct QuarantineEntry {
  std::string kernel;   // program name
  std::string variant;  // IR variant pipeline ("" when variants are off)
  std::string stage;    // "compile", "profile", or "featurize"
  std::string error;    // exception message
};

/// Build outcome detail: which inputs were quarantined and why. The count
/// is also exported as the `corpus.quarantined_total` metric and each entry
/// is logged at warn level as it happens.
struct BuildReport {
  std::vector<QuarantineEntry> quarantined;
  /// True when DatasetOptions::stop_requested cut the build short. The
  /// returned dataset is then empty (a partial dataset would silently
  /// change downstream vocabularies) and callers should treat the run as
  /// interrupted, not as a tiny corpus.
  bool interrupted = false;
};

struct Dataset {
  std::vector<GraphSample> samples;
  std::uint32_t static_dim = 0;  // node_static width
  std::uint32_t aw_vocab = 0;    // aw_dist width
  embedding::EmbeddingTable inst2vec;
  embedding::Vocab token_vocab;
  graph::AwVocab aw_vocab_table;

  /// Indices of samples belonging to `suite` (empty suite = all).
  [[nodiscard]] std::vector<std::size_t> suite_indices(
      const std::string& suite) const;
};

/// The one rule that turns a (program, variant) pair into a pipeline item.
/// Seeds hash (opts.seed, source, variant), never the corpus position, so
/// featurize_program reproduces what build_dataset made of a program.
[[nodiscard]] pipe::ItemSpec item_spec(const ProgramSpec& program,
                                       const std::string& variant,
                                       const DatasetOptions& opts);

/// The pipeline knobs of `opts` (walks, dependence noise, profiler caps).
[[nodiscard]] pipe::PipelineConfig pipeline_config(const DatasetOptions& opts);

/// Builds the dataset from `programs`. A program (or variant) that throws
/// anywhere along compile -> profile -> featurize is quarantined: skipped,
/// counted (in `skipped` when non-null and in `corpus.quarantined_total`),
/// logged, and detailed in `report` when non-null — never fatal to the
/// build. With the stock corpus none should fault.
[[nodiscard]] Dataset build_dataset(const std::vector<ProgramSpec>& programs,
                                    const DatasetOptions& opts,
                                    std::size_t* skipped = nullptr,
                                    BuildReport* report = nullptr);

/// Featurizes one (possibly unseen) program against an existing dataset's
/// frozen vocabularies and inst2vec table — the inference path: profile the
/// program, build its PEG, and emit one GraphSample per for-loop whose
/// feature widths match `reference` (so a model trained on it applies
/// directly). Items are seeded by content, the same rule build_dataset
/// uses, so a program from the reference corpus (variant-free, same
/// options) reproduces its build-time samples exactly. The reference
/// dataset must be fully built (vocabularies frozen). Throws on
/// compile/profile faults.
[[nodiscard]] std::vector<GraphSample> featurize_program(
    const ProgramSpec& program, const Dataset& reference,
    const DatasetOptions& opts);

/// featurize_program for a program given as source alone: module name
/// `request`, its `kernel` profiled with profiler::default_args, seeds from
/// item_spec. The source is parsed, lowered and verified once; a missing
/// `kernel` is a Lower-stage pipe::StageError.
[[nodiscard]] std::vector<GraphSample> featurize_source(
    const std::string& source, const Dataset& reference,
    const DatasetOptions& opts);

/// The cached Embed-stage blob: u32 format, u32 vocab, u32 dim, then the
/// table's floats row by row.
[[nodiscard]] std::string serialize_embedding(
    const embedding::EmbeddingTable& t);
/// Inverse of serialize_embedding. Throws std::runtime_error unless the
/// blob holds exactly a `want_vocab` x `want_dim` table.
[[nodiscard]] embedding::EmbeddingTable deserialize_embedding(
    std::string_view bytes, std::uint32_t want_vocab, std::uint32_t want_dim);

/// Deterministic 75:25 split at kernel granularity ("no common objects in
/// the training and testing sets"): all samples of one kernel land on the
/// same side. Returns (train, test) index lists over ds.samples.
std::pair<std::vector<std::size_t>, std::vector<std::size_t>> split_by_kernel(
    const Dataset& ds, double train_fraction, std::uint64_t seed);

/// Balances a sample index list to equal positive/negative counts by
/// truncating the majority class (deterministic given `seed`).
[[nodiscard]] std::vector<std::size_t> balance_classes(
    const Dataset& ds, const std::vector<std::size_t>& indices,
    std::uint64_t seed);

/// Balances by repeating minority-class indices instead of discarding
/// majority ones — keeps every sample while equalizing the class prior
/// (duplicated indices simply appear more often per epoch).
[[nodiscard]] std::vector<std::size_t> oversample_balance(
    const Dataset& ds, const std::vector<std::size_t>& indices,
    std::uint64_t seed);

}  // namespace mvgnn::data
