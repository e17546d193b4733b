#include "data/dataset.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "cache/cache.hpp"
#include "io/codec.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "pipe/item.hpp"
#include "transform/passes.hpp"

namespace mvgnn::data {

pipe::PipelineConfig pipeline_config(const DatasetOptions& opts) {
  pipe::PipelineConfig cfg;
  cfg.walk = opts.walk;
  cfg.dep_noise = opts.dep_noise;
  cfg.interp = opts.interp;
  return cfg;
}

/// The one rule that turns a (program, variant) pair into a pipeline item.
/// Seeds hash (opts.seed, source, variant), never the corpus position, so
/// featurize_program reproduces what build_dataset made of a program.
pipe::ItemSpec item_spec(const ProgramSpec& program, const std::string& variant,
                         const DatasetOptions& opts) {
  pipe::ItemSpec is;
  is.source = program.kernel.source;
  is.module_name = program.kernel.name;
  is.args = program.kernel.args;
  is.variant = variant;
  const cache::Key seeds = cache::Hasher()
                               .str("mvgnn.data.item_seeds.v1")
                               .u64(opts.seed)
                               .str(is.source)
                               .str(is.variant)
                               .digest();
  is.noise_seed = seeds.hi;
  is.walk_seed = seeds.lo;
  return is;
}

namespace {

/// Walk -> id table keyed by the walk's bytes.
using WalkIds = std::unordered_map<std::string_view, std::uint32_t>;

std::string_view walk_key(const graph::AnonWalk& w) {
  return {reinterpret_cast<const char*>(w.data()), w.size()};
}

/// One item's anonymous walks between the replay passes (build_dataset,
/// phase 3): pass (a) fills everything but `aw_ids`, pass (b) fills
/// `aw_ids`, pass (c) reads it all to form each node's AW view.
struct ItemWalks {
  /// Item-local walk id -> the walk's bytes, in first-appearance order
  /// over (sample, node, walk). Short walks sit inline in the strings, so
  /// pass (b) reads this vector instead of chasing one allocation per walk.
  std::vector<std::string> walks;
  /// (local id, walks drawn) per node, in first-appearance order within
  /// the node. Node v of the item (samples in order, then nodes) owns
  /// entries [node_first[v], node_first[v + 1]).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> counts;
  std::vector<std::size_t> node_first{0};
  /// Pass (b): local id -> global AW id.
  std::vector<std::uint32_t> aw_ids;
};

/// Pass (a): the item's distinct walks and each node's walk counts. Reads
/// only the item, so items run in parallel.
ItemWalks distinct_walks(const pipe::ItemFeatures& feats) {
  ItemWalks out;
  WalkIds local;
  for (const pipe::RawSample& rs : feats.samples) {
    for (const std::vector<graph::AnonWalk>& node : rs.node_walks) {
      const auto node_begin =
          static_cast<std::ptrdiff_t>(out.node_first.back());
      for (const graph::AnonWalk& w : node) {
        const auto [it, fresh] = local.try_emplace(
            walk_key(w), static_cast<std::uint32_t>(out.walks.size()));
        if (fresh) out.walks.emplace_back(it->first);
        const auto c = std::find_if(
            out.counts.begin() + node_begin, out.counts.end(),
            [&](const auto& e) { return e.first == it->second; });
        if (c == out.counts.end()) {
          out.counts.emplace_back(it->second, 1);
        } else {
          ++c->second;
        }
      }
      out.node_first.push_back(out.counts.size());
    }
  }
  return out;
}

/// Pass (b): global AW ids of the item's distinct walks, growing `vocab`
/// when `grow`. Called item by item in item order, this assigns ids in the
/// same first-appearance order as resolving every walk in turn. `resolved`
/// remembers every walk already looked up, so each distinct walk reaches
/// the vocabulary's ordered map once per build.
void resolve_walks(ItemWalks& item, graph::AwVocab& vocab, bool grow,
                   WalkIds& resolved) {
  item.aw_ids.reserve(item.walks.size());
  for (const std::string& w : item.walks) {
    const auto [it, fresh] = resolved.try_emplace(w, 0);
    if (fresh) {
      it->second = vocab.id_of(graph::AnonWalk(w.begin(), w.end()), grow);
    }
    item.aw_ids.push_back(it->second);
  }
}

/// Pass (c): the item's samples. Resolves token ids, assembles node_static
/// from the trained inst2vec table, and forms each node's AW distribution
/// over the frozen vocabulary: lround(dist[id] * gamma) copies of every id,
/// dist[id] being its walk share summed one walk at a time
/// (graph::aw_distribution), densified. `tok_ids` must hold the vocab id
/// of every ItemFeatures token, in order. The three passes are the single
/// featurization path for cache-off, cold and warm builds and for
/// featurize_program, which is what makes them bit-identical.
std::vector<GraphSample> assemble_samples(
    const pipe::ItemFeatures& feats, const std::vector<std::uint32_t>& tok_ids,
    const ItemWalks& walks, const Dataset& ds, std::uint32_t gamma) {
  std::vector<GraphSample> out;
  out.reserve(feats.samples.size());
  const std::uint32_t i2v_dim = ds.inst2vec.dim();
  const std::uint32_t kind_dims = 3;  // CU / Loop / Function one-hot
  std::vector<std::uint32_t> node_tokens;
  std::vector<std::uint32_t> count(ds.aw_vocab);  // walks, then copies, per id
  std::size_t v = 0;  // node index within the item

  for (const pipe::RawSample& rs : feats.samples) {
    GraphSample s;
    s.n = rs.n;
    s.edges = rs.edges;
    s.edge_kinds = rs.edge_kinds;

    // Node features.
    s.node_static.resize(s.n);
    s.node_dynamic.resize(s.n);
    for (std::uint32_t k = 0; k < s.n; ++k) {
      node_tokens.clear();
      node_tokens.reserve(rs.node_token_ix[k].size());
      for (const std::uint32_t ix : rs.node_token_ix[k]) {
        node_tokens.push_back(tok_ids[ix]);
      }
      std::vector<float> st = ds.inst2vec.mean_of(node_tokens);
      st.resize(ds.static_dim, 0.0f);
      st[i2v_dim + rs.node_kinds[k]] = 1.0f;
      st[i2v_dim + kind_dims] =
          std::log1p(static_cast<float>(node_tokens.size()));
      s.node_static[k] = std::move(st);
      s.node_dynamic[k] = rs.node_dynamic[k];
    }
    s.token_seq.reserve(rs.token_seq_ix.size());
    for (const std::uint32_t ix : rs.token_seq_ix) {
      s.token_seq.push_back(tok_ids[ix]);
    }

    // Structural view. Several local ids share the unknown slot 0 when
    // the vocabulary did not grow.
    s.aw_dist.resize(s.n);
    for (std::uint32_t k = 0; k < s.n; ++k, ++v) {
      std::fill(count.begin(), count.end(), 0u);
      std::uint32_t n_walks = 0;
      for (std::size_t e = walks.node_first[v]; e < walks.node_first[v + 1];
           ++e) {
        const auto [local, c] = walks.counts[e];
        count[walks.aw_ids[local]] += c;
        n_walks += c;
      }
      std::uint32_t copies = 0;
      if (n_walks > 0) {
        const float inv = 1.0f / static_cast<float>(n_walks);
        for (std::uint32_t& c : count) {
          float dist = 0.0f;
          for (std::uint32_t w = 0; w < c; ++w) dist += inv;
          c = static_cast<std::uint32_t>(std::lround(dist * gamma));
          copies += c;
        }
      }
      std::vector<float> d(ds.aw_vocab, 0.0f);
      if (copies > 0) {
        const float inv = 1.0f / static_cast<float>(copies);
        for (std::uint32_t id = 0; id < ds.aw_vocab; ++id) {
          for (std::uint32_t c = 0; c < count[id]; ++c) d[id] += inv;
        }
      }
      s.aw_dist[k] = std::move(d);
    }

    // Labels and baselines were computed at the featurize stage from the
    // clean profile; the stored hand-crafted features are the degraded
    // ones (what a real profiling run would have produced).
    s.loop_features = rs.loop_features;
    s.label = rs.label;
    s.pattern_label = rs.pattern_label;
    s.tool_autopar = rs.tool_autopar;
    s.tool_pluto = rs.tool_pluto;
    s.tool_discopop = rs.tool_discopop;
    s.loop_line = rs.loop_line;
    out.push_back(std::move(s));
  }
  return out;
}

// ---- cached Embed stage --------------------------------------------------

constexpr std::uint32_t kEmbedFormat = 1;
// Hashed into the Embed key: changing either moves every embed entry.
constexpr std::uint32_t kInst2vecDim = 32;
constexpr std::uint32_t kSkipgramEpochs = 2;

}  // namespace

std::string serialize_embedding(const embedding::EmbeddingTable& t) {
  io::ByteWriter w;
  w.u32(kEmbedFormat);
  w.u32(t.vocab_size());
  w.u32(t.dim());
  for (std::uint32_t id = 0; id < t.vocab_size(); ++id) w.f32s(t.row(id));
  return w.take();
}

embedding::EmbeddingTable deserialize_embedding(std::string_view bytes,
                                                std::uint32_t want_vocab,
                                                std::uint32_t want_dim) {
  io::ByteReader r(bytes, "embedding payload");
  if (r.u32() != kEmbedFormat) r.fail_at(0, "format mismatch");
  const std::uint32_t vocab = r.u32();
  const std::uint32_t dim = r.u32();
  if (vocab != want_vocab || dim != want_dim) r.fail_at(4, "shape mismatch");
  r.fits(std::uint64_t{vocab} * dim, sizeof(float), 4, "embedding table");
  embedding::EmbeddingTable t(vocab, dim);
  for (std::uint32_t id = 0; id < vocab; ++id) r.f32s(t.row(id), "row");
  r.expect_end();
  return t;
}

std::vector<std::size_t> Dataset::suite_indices(const std::string& suite) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (suite.empty() || samples[i].suite == suite) out.push_back(i);
  }
  return out;
}

Dataset build_dataset(const std::vector<ProgramSpec>& programs,
                      const DatasetOptions& opts, std::size_t* skipped,
                      BuildReport* report) {
  Dataset ds;
  obs::ScopedSpan build_span("dataset.build");

  // Quarantine: a per-sample failure is recorded and skipped, never fatal.
  // Workers from the parallel pipeline phase funnel through one mutex; the
  // hot path never takes it.
  std::mutex quarantine_mu;
  BuildReport local_report;
  auto quarantine = [&](const std::string& kernel, const std::string& variant,
                        const char* stage, const char* error) {
    obs::Registry::global().counter("corpus.quarantined_total").add(1);
    obs::log_warn("quarantined corpus program", {{"kernel", kernel},
                                                 {"variant", variant},
                                                 {"stage", stage},
                                                 {"error", error}});
    std::lock_guard<std::mutex> lock(quarantine_mu);
    local_report.quarantined.push_back(
        QuarantineEntry{kernel, variant, stage, error});
  };

  // ---- Phase 1: per-item staged pipeline (Parse..Featurize) ------------
  // Every (program, variant) item is independent, so this fans out over the
  // global thread pool; results are collected in item order and each item
  // seeds its noise and walk streams from its content (item_spec), keeping
  // the dataset bit-identical regardless of scheduling — and regardless of
  // which items came out of the stage cache versus being recomputed.
  const auto& pipelines = transform::variant_pipelines();
  const std::size_t n_variants = opts.use_ir_variants ? pipelines.size() : 1;
  const std::size_t n_items = programs.size() * n_variants;
  const pipe::PipelineConfig pcfg = pipeline_config(opts);

  struct ItemResult {
    const ProgramSpec* spec = nullptr;
    std::string variant;
    cache::Key key;  // pipe::item_key, folded into the Embed key
    pipe::ItemFeatures feats;
  };
  std::vector<std::unique_ptr<ItemResult>> slots(n_items);
  par::parallel_for(
      0, n_items,
      [&](std::size_t item) {
        // Cooperative stop: checked once per item, so an interrupt lands
        // between pipeline items — in-flight ones finish, queued ones are
        // skipped (not quarantined; they did not fail).
        if (opts.stop_requested &&
            opts.stop_requested->load(std::memory_order_relaxed)) {
          return;
        }
        const ProgramSpec& spec = programs[item / n_variants];
        const pipe::ItemSpec is = item_spec(
            spec,
            opts.use_ir_variants ? pipelines[item % n_variants].name : "",
            opts);
        auto r = std::make_unique<ItemResult>();
        r->spec = &spec;
        r->variant = is.variant;
        r->key = pipe::item_key(is, pcfg);
        try {
          r->feats = pipe::run_item(is, pcfg, opts.cache);
        } catch (const pipe::StageError& e) {
          quarantine(spec.kernel.name, is.variant,
                     pipe::quarantine_stage(e.stage), e.what());
          return;
        } catch (const std::exception& e) {
          quarantine(spec.kernel.name, is.variant, "featurize", e.what());
          return;
        }
        slots[item] = std::move(r);
      },
      par::ThreadPool::global(), /*grain=*/1);
  // Interrupted? Return an empty dataset rather than a partial one: a
  // dataset missing arbitrary items would have different (but plausible-
  // looking) vocabularies and silently poison anything trained on it. The
  // caller gets the quarantine entries collected so far plus the
  // interrupted flag and decides how to exit (the CLI flushes the report
  // and exits 130).
  if (opts.stop_requested &&
      opts.stop_requested->load(std::memory_order_relaxed)) {
    obs::log_warn("dataset build interrupted; discarding partial results",
                  {{"items", std::to_string(n_items)}});
    local_report.interrupted = true;
    if (skipped) *skipped = local_report.quarantined.size();
    if (report) *report = std::move(local_report);
    return ds;
  }

  std::vector<ItemResult*> built;
  built.reserve(n_items);
  for (const auto& slot : slots) {
    if (slot) built.push_back(slot.get());
  }

  build_span.arg("items", n_items).arg("built", built.size());

  // ---- Phase 2: replay vocabulary growth, train/load inst2vec ----------
  // Token ids are resolved by mapping every item's token strings in item
  // order — the same growth order the un-staged builder used. The trained
  // table itself is the Embed stage: cacheable, keyed by every surviving
  // item's item key plus the skip-gram knobs.
  std::optional<obs::ScopedSpan> embed_span;
  embed_span.emplace("pipe.embed");
  std::vector<std::vector<std::uint32_t>> tok_ids(built.size());
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::size_t i = 0; i < built.size(); ++i) {
    const pipe::ItemFeatures& f = built[i]->feats;
    auto& ids = tok_ids[i];
    ids.reserve(f.tokens.size());
    for (const std::string& t : f.tokens) {
      ids.push_back(ds.token_vocab.id_of(t, /*grow=*/true));
    }
    for (const auto& [a, b] : f.context_pairs) {
      pairs.emplace_back(ids[a], ids[b]);
    }
  }
  ds.token_vocab.freeze();
  embedding::SkipGramParams sg;
  sg.dim = kInst2vecDim;
  sg.epochs = kSkipgramEpochs;

  cache::Hasher embed_hasher;
  embed_hasher.str("mvgnn.pipe.embed.v1")
      .u32(kEmbedFormat)
      .u32(sg.dim)
      .u32(sg.epochs)
      .u64(opts.seed)
      .u64(built.size());
  for (const ItemResult* b : built) embed_hasher.key(b->key);
  const cache::Key embed_key = embed_hasher.digest();

  bool have_embedding = false;
  if (opts.cache) {
    if (auto blob = opts.cache->get(embed_key)) {
      try {
        ds.inst2vec = deserialize_embedding(*blob, ds.token_vocab.size(),
                                            sg.dim);
        have_embedding = true;
      } catch (const std::exception& e) {
        obs::log_warn("undecodable embed cache entry; retraining",
                      {{"error", e.what()}});
      }
    }
  }
  if (!have_embedding) {
    par::Rng sg_rng(opts.seed ^ 0x5EEDULL);
    ds.inst2vec =
        embedding::train_skipgram(ds.token_vocab.size(), pairs, sg, sg_rng);
    if (opts.cache) {
      opts.cache->put(embed_key, serialize_embedding(ds.inst2vec));
    }
  }
  embed_span->arg("vocab", ds.token_vocab.size())
      .arg("pairs", pairs.size())
      .arg("cached", have_embedding ? 1 : 0);
  embed_span.reset();

  // ---- Phase 3: one GraphSample per for-loop ---------------------------
  // Three passes. (a) and (c) are per item and fan out over the pool; (b)
  // is the only serial one and touches each item's distinct walks only.
  // A failing item is quarantined, in item order, after the passes.
  const std::uint32_t kind_dims = 3;  // CU / Loop / Function one-hot
  ds.static_dim = kInst2vecDim + kind_dims + 1;

  std::vector<ItemWalks> walks(built.size());
  std::vector<std::vector<GraphSample>> samples(built.size());
  std::vector<std::string> errors(built.size());
  std::vector<char> failed(built.size(), 0);
  auto per_item = [&](auto&& pass) {
    par::parallel_for(
        0, built.size(),
        [&](std::size_t i) {
          if (failed[i]) return;
          try {
            pass(i);
          } catch (const std::exception& e) {
            errors[i] = e.what();
            failed[i] = 1;
          }
        },
        par::ThreadPool::global(), /*grain=*/1);
  };

  // (a) Item-local tables of distinct walks.
  per_item([&](std::size_t i) { walks[i] = distinct_walks(built[i]->feats); });
  // (b) Global AW ids in item order: the vocabulary's growth order.
  {
    WalkIds resolved;
    for (std::size_t i = 0; i < built.size(); ++i) {
      if (!failed[i]) {
        resolve_walks(walks[i], ds.aw_vocab_table, /*grow=*/true, resolved);
      }
    }
  }
  ds.aw_vocab_table.freeze();
  ds.aw_vocab = ds.aw_vocab_table.size();
  // (c) The samples. Each item's raw features are freed as soon as its
  // samples exist, on the pool, so the samples of the next items reuse
  // that memory instead of growing the heap.
  per_item([&](std::size_t i) {
    ItemResult* b = built[i];
    samples[i] = assemble_samples(b->feats, tok_ids[i], walks[i], ds,
                                  opts.walk.gamma);
    for (GraphSample& s : samples[i]) {
      s.suite = b->spec->suite;
      s.app = b->spec->app;
      s.kernel = b->spec->kernel.name;
      s.variant = b->variant;
    }
    b->feats = {};
    walks[i] = {};
  });

  // Quarantine in item order, then move every item's samples into place.
  std::vector<std::size_t> first_sample(built.size(), 0);
  std::size_t n_samples = 0;
  for (std::size_t i = 0; i < built.size(); ++i) {
    if (failed[i]) {
      quarantine(built[i]->spec->kernel.name, built[i]->variant, "featurize",
                 errors[i].c_str());
      continue;
    }
    first_sample[i] = n_samples;
    n_samples += samples[i].size();
  }
  ds.samples.resize(n_samples);
  per_item([&](std::size_t i) {
    std::move(samples[i].begin(), samples[i].end(),
              ds.samples.begin() + first_sample[i]);
    samples[i] = {};
  });

  if (skipped) *skipped = local_report.quarantined.size();
  if (report) *report = std::move(local_report);
  return ds;
}

namespace {

/// The inference path behind featurize_program and featurize_source: one
/// item against `reference`'s frozen vocabularies, with `program`'s
/// provenance.
std::vector<GraphSample> featurize_item(const pipe::ItemSpec& item,
                                        const ProgramSpec& program,
                                        const Dataset& reference,
                                        const DatasetOptions& opts) {
  const pipe::ItemFeatures feats =
      pipe::run_item(item, pipeline_config(opts), opts.cache);

  // The vocabularies are frozen, so grow=false cannot mutate them; the
  // const_cast only satisfies id_of's signature.
  Dataset& ref = const_cast<Dataset&>(reference);
  std::vector<std::uint32_t> tok_ids;
  tok_ids.reserve(feats.tokens.size());
  for (const std::string& t : feats.tokens) {
    tok_ids.push_back(ref.token_vocab.id_of(t, /*grow=*/false));
  }
  // The same three passes as build_dataset, over one item.
  ItemWalks walks = distinct_walks(feats);
  WalkIds resolved;
  resolve_walks(walks, ref.aw_vocab_table, /*grow=*/false, resolved);
  std::vector<GraphSample> samples =
      assemble_samples(feats, tok_ids, walks, reference, opts.walk.gamma);
  for (GraphSample& s : samples) {
    s.suite = program.suite;
    s.app = program.app;
    s.kernel = program.kernel.name;
  }
  return samples;
}

}  // namespace

std::vector<GraphSample> featurize_program(const ProgramSpec& program,
                                            const Dataset& reference,
                                            const DatasetOptions& opts) {
  return featurize_item(item_spec(program, "", opts), program, reference,
                        opts);
}

std::vector<GraphSample> featurize_source(const std::string& source,
                                           const Dataset& reference,
                                           const DatasetOptions& opts) {
  ProgramSpec program;
  program.kernel.name = "request";
  program.kernel.source = source;
  pipe::ItemSpec item = item_spec(program, "", opts);
  item.args.reset();  // the entry's defaults
  return featurize_item(item, program, reference, opts);
}

std::pair<std::vector<std::size_t>, std::vector<std::size_t>> split_by_kernel(
    const Dataset& ds, double train_fraction, std::uint64_t seed) {
  // Stable kernel list in first-appearance order.
  std::vector<std::string> kernels;
  for (const GraphSample& s : ds.samples) {
    if (std::find(kernels.begin(), kernels.end(), s.kernel) == kernels.end()) {
      kernels.push_back(s.kernel);
    }
  }
  par::Rng rng(seed);
  std::shuffle(kernels.begin(), kernels.end(), rng.engine());
  const std::size_t n_train = static_cast<std::size_t>(
      std::llround(train_fraction * static_cast<double>(kernels.size())));
  std::vector<std::string> train_kernels(kernels.begin(),
                                         kernels.begin() + n_train);

  std::pair<std::vector<std::size_t>, std::vector<std::size_t>> out;
  for (std::size_t i = 0; i < ds.samples.size(); ++i) {
    const bool in_train =
        std::find(train_kernels.begin(), train_kernels.end(),
                  ds.samples[i].kernel) != train_kernels.end();
    (in_train ? out.first : out.second).push_back(i);
  }
  return out;
}

std::vector<std::size_t> balance_classes(const Dataset& ds,
                                         const std::vector<std::size_t>& idx,
                                         std::uint64_t seed) {
  std::vector<std::size_t> pos, neg;
  for (const std::size_t i : idx) {
    (ds.samples[i].label ? pos : neg).push_back(i);
  }
  par::Rng rng(seed);
  std::shuffle(pos.begin(), pos.end(), rng.engine());
  std::shuffle(neg.begin(), neg.end(), rng.engine());
  const std::size_t n = std::min(pos.size(), neg.size());
  std::vector<std::size_t> out;
  out.reserve(2 * n);
  out.insert(out.end(), pos.begin(), pos.begin() + n);
  out.insert(out.end(), neg.begin(), neg.begin() + n);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::size_t> oversample_balance(
    const Dataset& ds, const std::vector<std::size_t>& idx,
    std::uint64_t seed) {
  std::vector<std::size_t> pos, neg;
  for (const std::size_t i : idx) {
    (ds.samples[i].label ? pos : neg).push_back(i);
  }
  if (pos.empty() || neg.empty()) return idx;
  par::Rng rng(seed ^ 0x05E2ULL);
  std::vector<std::size_t>& minority = pos.size() < neg.size() ? pos : neg;
  const std::size_t target = std::max(pos.size(), neg.size());
  std::vector<std::size_t> out = idx;
  while (minority.size() < target) {
    const std::size_t pick = minority[rng.uniform_u64(minority.size())];
    out.push_back(pick);
    minority.push_back(pick);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace mvgnn::data
