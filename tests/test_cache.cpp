// Stage-boundary cache tests: key/hash stability, LRU eviction order,
// config-fingerprint invalidation of the chained stage keys, disk-tier
// round trips and corruption handling, and the headline guarantee —
// build_dataset output is byte-identical with the cache off, cold, and warm.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cache/cache.hpp"
#include "cache/key.hpp"
#include "data/corpus.hpp"
#include "data/dataset.hpp"
#include "data/serialize.hpp"
#include "pipe/item.hpp"

namespace {

using namespace mvgnn;
namespace fs = std::filesystem;

/// Fresh scratch directory per test; removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("mvgnn_cache_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
};

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

TEST(CacheKey, StableAcrossRunsAndSensitiveToInputs) {
  const cache::Key a = cache::Hasher().str("hello").u64(7).digest();
  const cache::Key b = cache::Hasher().str("hello").u64(7).digest();
  EXPECT_EQ(a, b);
  EXPECT_NE(a, cache::Hasher().str("hello").u64(8).digest());
  EXPECT_NE(a, cache::Hasher().str("hellp").u64(7).digest());
  // Chaining from a different parent changes the child.
  const cache::Key c1 = cache::Hasher(a).str("child").digest();
  const cache::Key c2 = cache::Hasher(b).str("child").digest();
  EXPECT_EQ(c1, c2);
  EXPECT_NE(c1, cache::Hasher(cache::Key{1, 2}).str("child").digest());
  EXPECT_EQ(a.hex().size(), 32u);
}

TEST(CacheKey, StageKeysChainConfigFingerprints) {
  pipe::ItemSpec spec;
  spec.source = "int kernel() { return 0; }";
  spec.module_name = "m";
  pipe::PipelineConfig cfg;
  const cache::Key base = pipe::item_key(spec, cfg);

  // Every knob that enters the hash chain re-keys the item, whichever
  // stage it enters at: source text and module name (parse), variant
  // (lower), entry, interpreter caps and arguments (profile), dependence
  // noise and its seed (peg), walk parameters and seed (walks).
  const auto rekeys = [&](const pipe::ItemSpec& s,
                          const pipe::PipelineConfig& c) {
    return pipe::item_key(s, c) != base;
  };
  pipe::ItemSpec s = spec;
  s.source += " ";
  EXPECT_TRUE(rekeys(s, cfg));
  s = spec;
  s.module_name = "m2";
  EXPECT_TRUE(rekeys(s, cfg));
  s = spec;
  s.variant = "unroll2";
  EXPECT_TRUE(rekeys(s, cfg));
  s = spec;
  s.entry = "main";
  EXPECT_TRUE(rekeys(s, cfg));
  s = spec;
  s.args->push_back(profiler::ArgInit::of_int(1));
  EXPECT_TRUE(rekeys(s, cfg));
  s = spec;
  s.args.reset();  // defaulted arguments: the "default_args.v1" tag
  EXPECT_TRUE(rekeys(s, cfg));
  s = spec;
  s.noise_seed += 1;
  EXPECT_TRUE(rekeys(s, cfg));
  s = spec;
  s.walk_seed += 1;
  EXPECT_TRUE(rekeys(s, cfg));
  pipe::PipelineConfig c = cfg;
  c.interp.max_steps /= 2;
  EXPECT_TRUE(rekeys(spec, c));
  c = cfg;
  c.interp.max_call_depth += 1;
  EXPECT_TRUE(rekeys(spec, c));
  c = cfg;
  c.interp.max_mem_cells += 1;
  EXPECT_TRUE(rekeys(spec, c));
  c = cfg;
  c.dep_noise = 0.5;
  EXPECT_TRUE(rekeys(spec, c));
  c = cfg;
  c.walk.gamma += 1;
  EXPECT_TRUE(rekeys(spec, c));
  c = cfg;
  c.walk.length += 1;
  EXPECT_TRUE(rekeys(spec, c));
  EXPECT_EQ(pipe::item_key(spec, cfg), base);  // and it is a pure function

  // Explicit keys are pinned: a key change would orphan every existing
  // --cache-dir entry.
  pipe::ItemSpec two = spec;
  two.source = "float kernel(int n, float[] a) { return a[0]; }";
  two.args->push_back(profiler::ArgInit::of_int(8));
  two.args->push_back(profiler::ArgInit::of_array(64, 2));
  EXPECT_EQ(base.hex(), "a32d57f541f6269ee6caaba87e8119c1");
  EXPECT_EQ(pipe::item_key(two, cfg).hex(),
            "b4826ca31e78233cbca0755e0d0daaeb");
}

// ---------------------------------------------------------------------------
// LRU memory tier
// ---------------------------------------------------------------------------

TEST(Cache, LruEvictsLeastRecentlyUsedFirst) {
  cache::Config cfg;  // memory-only
  // Each entry charges its 64 payload bytes plus the fixed 128-byte
  // bookkeeping overhead; budget exactly two entries.
  cfg.mem_budget_bytes = 2 * (64 + 128);
  cache::Cache c(cfg);
  const cache::Key k1{1, 1}, k2{2, 2}, k3{3, 3};
  const std::string payload(64, 'x');
  c.put(k1, payload);
  c.put(k2, payload);
  ASSERT_TRUE(c.get(k1).has_value());  // touch k1 -> k2 is now LRU
  c.put(k3, payload);                  // evicts k2
  EXPECT_TRUE(c.get(k1).has_value());
  EXPECT_FALSE(c.get(k2).has_value());
  EXPECT_TRUE(c.get(k3).has_value());
  EXPECT_GE(c.stats().evictions, 1u);
}

// ---------------------------------------------------------------------------
// Disk tier
// ---------------------------------------------------------------------------

TEST(Cache, DiskEntriesSurviveAcrossInstances) {
  TempDir dir("disk");
  const cache::Key k = cache::Hasher().str("persist").digest();
  {
    cache::Cache c(cache::Config{dir.str(), 64ull << 20});
    c.put(k, "payload-bytes");
  }
  cache::Cache c2(cache::Config{dir.str(), 64ull << 20});
  auto v = c2.get(k);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "payload-bytes");
  EXPECT_EQ(c2.stats().hits, 1u);
}

TEST(Cache, CorruptDiskEntryIsEvictedAndMisses) {
  TempDir dir("corrupt");
  const cache::Key k = cache::Hasher().str("will-rot").digest();
  fs::path entry;
  {
    cache::Cache c(cache::Config{dir.str(), 64ull << 20});
    c.put(k, "precious");
    for (const auto& e : fs::directory_iterator(dir.path)) entry = e.path();
  }
  ASSERT_FALSE(entry.empty());
  // Flip payload bytes in place; the CRC no longer matches.
  {
    std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(16);
    f.write("XXXX", 4);
  }
  cache::Cache c2(cache::Config{dir.str(), 64ull << 20});
  EXPECT_FALSE(c2.get(k).has_value());
  EXPECT_EQ(c2.stats().corrupt, 1u);
  EXPECT_FALSE(fs::exists(entry));  // evicted, so the rot cannot recur
  // A fresh put repopulates and reads back fine.
  c2.put(k, "precious");
  EXPECT_TRUE(c2.get(k).has_value());
}

TEST(Cache, CorruptLengthFieldIsRejectedBeforeAllocating) {
  TempDir dir("length");
  const cache::Key k = cache::Hasher().str("bad-length").digest();
  fs::path entry;
  {
    cache::Cache c(cache::Config{dir.str(), 64ull << 20});
    c.put(k, "small payload");
    for (const auto& e : fs::directory_iterator(dir.path)) entry = e.path();
  }
  ASSERT_FALSE(entry.empty());
  // The u64 payload length sits at offset 8. 2^31 is under the 2^32 cap
  // but does not match the file size, so the read must fail before a
  // payload buffer of that size exists.
  {
    const std::uint64_t huge = 1ull << 31;
    char le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<char>(huge >> (8 * i));
    std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    f.write(le, sizeof le);
  }
  cache::Cache c2(cache::Config{dir.str(), 64ull << 20});
  EXPECT_FALSE(c2.get(k).has_value());
  EXPECT_EQ(c2.stats().corrupt, 1u);
  EXPECT_FALSE(fs::exists(entry));
}

TEST(Cache, ClearDropsMemoryAndDisk) {
  TempDir dir("clear");
  cache::Cache c(cache::Config{dir.str(), 64ull << 20});
  c.put(cache::Key{1, 2}, "a");
  c.put(cache::Key{3, 4}, "b");
  c.clear();
  EXPECT_FALSE(c.get(cache::Key{1, 2}).has_value());
  const cache::Stats st = c.stats();
  EXPECT_EQ(st.mem_entries, 0u);
  EXPECT_EQ(st.disk_entries, 0u);
  EXPECT_TRUE(fs::is_empty(dir.path));
}

// ---------------------------------------------------------------------------
// Feature-bundle serialization
// ---------------------------------------------------------------------------

TEST(Pipe, FeatureSerializationRoundTrips) {
  pipe::ItemSpec spec;
  spec.source =
      "int kernel(int n) {\n"
      "  int a[64]; int s = 0;\n"
      "  for (int i = 0; i < n; i = i + 1) { a[i] = i; }\n"
      "  for (int i = 0; i < n; i = i + 1) { s = s + a[i]; }\n"
      "  return s;\n"
      "}\n";
  spec.module_name = "rt";
  spec.args->push_back(profiler::ArgInit{.int_val = 32});
  pipe::PipelineConfig cfg;
  const pipe::ItemFeatures f = pipe::run_item(spec, cfg, nullptr);
  ASSERT_FALSE(f.samples.empty());
  const std::string bytes = pipe::serialize_features(f);
  const pipe::ItemFeatures g = pipe::deserialize_features(bytes);
  EXPECT_EQ(pipe::serialize_features(g), bytes);
  EXPECT_EQ(f.tokens, g.tokens);
  EXPECT_EQ(f.context_pairs, g.context_pairs);
  ASSERT_EQ(f.samples.size(), g.samples.size());
  for (std::size_t i = 0; i < f.samples.size(); ++i) {
    EXPECT_EQ(f.samples[i].edges, g.samples[i].edges);
    EXPECT_EQ(f.samples[i].node_dynamic, g.samples[i].node_dynamic);
    EXPECT_EQ(f.samples[i].label, g.samples[i].label);
  }
  // Truncated payloads throw instead of reading out of bounds.
  EXPECT_THROW((void)pipe::deserialize_features(
                   std::string_view(bytes).substr(0, bytes.size() / 2)),
               std::runtime_error);
  EXPECT_THROW((void)pipe::deserialize_features("garbage"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// The headline guarantee: cache off == cold == warm, byte for byte
// ---------------------------------------------------------------------------

std::string dataset_bytes(const data::Dataset& ds) {
  std::ostringstream os;
  data::save_dataset(ds, os);
  return os.str();
}

TEST(Cache, DatasetBytesIdenticalOffColdAndWarm) {
  TempDir dir("identity");
  const auto programs = data::build_generated_corpus(12, 2024);
  data::DatasetOptions opts;
  opts.use_ir_variants = true;

  const data::Dataset off = data::build_dataset(programs, opts);
  const std::string off_bytes = dataset_bytes(off);

  cache::Cache c(cache::Config{dir.str(), 256ull << 20});
  opts.cache = &c;
  const data::Dataset cold = data::build_dataset(programs, opts);
  EXPECT_EQ(dataset_bytes(cold), off_bytes);
  const cache::Stats cold_st = c.stats();
  // Every entry is a blob put after a miss and written through to disk: one
  // memory entry per miss, and the same entries in both tiers.
  EXPECT_EQ(cold_st.mem_entries, cold_st.misses);
  EXPECT_EQ(cold_st.mem_entries, cold_st.disk_entries);
  // Every entry is a blob put after a miss: one memory entry per miss.
  EXPECT_EQ(cold_st.mem_entries, cold_st.misses);

  const data::Dataset warm = data::build_dataset(programs, opts);
  EXPECT_EQ(dataset_bytes(warm), off_bytes);
  const cache::Stats st = c.stats();
  // The warm pass is served entirely from the cache: one featurize-blob hit
  // per surviving item plus the embedding table, and not a single new miss.
  EXPECT_GE(st.hits - cold_st.hits, off.samples.size() > 0 ? 2u : 0u);
  EXPECT_EQ(st.misses, cold_st.misses);

  // A fresh instance over the same directory (disk tier only) still
  // reproduces the bytes.
  cache::Cache c2(cache::Config{dir.str(), 256ull << 20});
  opts.cache = &c2;
  const data::Dataset disk = data::build_dataset(programs, opts);
  EXPECT_EQ(dataset_bytes(disk), off_bytes);
  EXPECT_GT(c2.stats().hits, 0u);
}

}  // namespace
