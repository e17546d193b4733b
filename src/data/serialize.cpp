#include "data/serialize.hpp"

#include <fstream>
#include <stdexcept>

#include "io/atomic_file.hpp"
#include "io/codec.hpp"

namespace mvgnn::data {

namespace {

constexpr std::uint32_t kMagic = 0x4D56'4453;  // "MVDS"
// Version 2 appends a (payload bytes, CRC32) footer and is parsed with
// hard length caps + offset-labeled errors; version 1 files (no footer)
// are still readable, just without checksum verification.
constexpr std::uint32_t kVersion = 2;

// ---- sanity caps ----------------------------------------------------------
// On-disk lengths are untrusted: a flipped byte in a count field must fail
// the parse with a clean error, not drive a multi-gigabyte allocation. The
// caps are ~100x beyond anything the real corpus produces.
constexpr std::uint64_t kMaxString = 1u << 20;     // 1 MiB per string
constexpr std::uint64_t kMaxVec = 1u << 24;        // 16M floats per row
constexpr std::uint64_t kMaxNodes = 1u << 20;      // nodes per sample
constexpr std::uint64_t kMaxEdges = 1u << 24;      // edges per sample
constexpr std::uint64_t kMaxSamples = 1u << 24;    // samples per dataset
constexpr std::uint64_t kMaxVocab = 1u << 24;      // token / walk entries
constexpr std::uint64_t kMaxWalkLen = 1u << 10;    // steps per anon walk
constexpr std::uint64_t kMaxTokenSeq = 1u << 24;   // tokens per loop body

// ---- payload writer/reader ------------------------------------------------

void put_f32_vec(io::ByteWriter& w, const std::vector<float>& v) {
  w.u64(v.size());
  w.f32s(v);
}

std::vector<float> get_f32_vec(io::ByteReader& r) {
  std::vector<float> v(r.count(kMaxVec, "f32 vector", sizeof(float)));
  r.f32s(v, "f32 vec");
  return v;
}

/// A per-node row count: it must equal the sample's node count `n`.
void get_rows(io::ByteReader& r, std::uint32_t n, std::uint64_t row_bytes,
              const char* what) {
  const std::size_t at = r.offset();
  const std::uint64_t rows = r.count(kMaxNodes, what, row_bytes);
  if (rows != n) {
    r.fail_at(at, std::string(what) + " rows " + std::to_string(rows) +
                      " != node count " + std::to_string(n));
  }
}

void put_sample(io::ByteWriter& w, const GraphSample& s) {
  w.u32(s.n);
  w.u64(s.edges.size());
  for (std::size_t e = 0; e < s.edges.size(); ++e) {
    w.u32(s.edges[e].first);
    w.u32(s.edges[e].second);
    w.u8(s.edge_kinds[e]);
  }
  w.u64(s.node_static.size());
  for (const auto& row : s.node_static) put_f32_vec(w, row);
  w.u64(s.node_dynamic.size());
  for (const auto& row : s.node_dynamic) {
    for (const double x : row) w.f64(x);
  }
  w.u64(s.aw_dist.size());
  for (const auto& row : s.aw_dist) put_f32_vec(w, row);
  for (const double x : s.loop_features) w.f64(x);
  w.u64(s.token_seq.size());
  for (const std::uint32_t t : s.token_seq) w.u32(t);
  w.i32(s.label);
  w.i32(s.pattern_label);
  w.u8(s.tool_autopar);
  w.u8(s.tool_pluto);
  w.u8(s.tool_discopop);
  w.str(s.suite);
  w.str(s.app);
  w.str(s.kernel);
  w.str(s.variant);
  w.i32(s.loop_line);
}

GraphSample get_sample(io::ByteReader& r) {
  GraphSample s;
  {
    const std::size_t at = r.offset();
    s.n = r.u32();
    if (s.n > kMaxNodes) {
      r.fail_at(at, "node count " + std::to_string(s.n) + " exceeds cap " +
                        std::to_string(kMaxNodes));
    }
  }
  // Every count below is checked against its cap and the bytes left before
  // anything is sized from it.
  const std::uint64_t n_edges = r.count(kMaxEdges, "edge list", 9);
  for (std::uint64_t e = 0; e < n_edges; ++e) {
    const std::size_t at = r.offset();
    const std::uint32_t a = r.u32();
    const std::uint32_t b = r.u32();
    if (a >= s.n || b >= s.n) {
      r.fail_at(at, "edge endpoint (" + std::to_string(a) + "," +
                        std::to_string(b) + ") out of range [0," +
                        std::to_string(s.n) + ")");
    }
    s.edges.emplace_back(a, b);
    const std::uint8_t kind = r.u8();
    if (kind >= GraphSample::kNumRelations) {
      r.fail_at(at, "edge kind " + std::to_string(kind) + " out of range");
    }
    s.edge_kinds.push_back(kind);
  }
  get_rows(r, s.n, sizeof(std::uint64_t), "node_static");
  s.node_static.resize(s.n);
  for (auto& row : s.node_static) row = get_f32_vec(r);
  get_rows(r, s.n, sizeof(s.node_dynamic[0]), "node_dynamic");
  s.node_dynamic.resize(s.n);
  for (auto& row : s.node_dynamic) {
    for (double& x : row) x = r.f64();
  }
  get_rows(r, s.n, sizeof(std::uint64_t), "aw_dist");
  s.aw_dist.resize(s.n);
  for (auto& row : s.aw_dist) row = get_f32_vec(r);
  for (double& x : s.loop_features) x = r.f64();
  const std::uint64_t n_tokens =
      r.count(kMaxTokenSeq, "token sequence", sizeof(std::uint32_t));
  for (std::uint64_t t = 0; t < n_tokens; ++t) s.token_seq.push_back(r.u32());
  s.label = r.i32();
  s.pattern_label = r.i32();
  s.tool_autopar = r.u8() != 0;
  s.tool_pluto = r.u8() != 0;
  s.tool_discopop = r.u8() != 0;
  s.suite = r.str(kMaxString);
  s.app = r.str(kMaxString);
  s.kernel = r.str(kMaxString);
  s.variant = r.str(kMaxString);
  s.loop_line = r.i32();
  return s;
}

/// The whole dataset body, between the (magic, version) header and the
/// (bytes, crc) footer. Shared by both versions — v1 simply has no footer.
void put_payload(io::ByteWriter& w, const Dataset& ds) {
  w.u32(ds.static_dim);
  w.u32(ds.aw_vocab);

  // inst2vec table.
  w.u32(ds.inst2vec.vocab_size());
  w.u32(ds.inst2vec.dim());
  for (std::uint32_t v = 0; v < ds.inst2vec.vocab_size(); ++v) {
    w.f32s(ds.inst2vec.row(v));
  }

  // Token vocabulary.
  w.u64(ds.token_vocab.map().size());
  for (const auto& [token, id] : ds.token_vocab.map()) {
    w.str(token);
    w.u32(id);
  }
  w.u8(ds.token_vocab.frozen());

  // Anonymous-walk vocabulary.
  w.u64(ds.aw_vocab_table.map().size());
  for (const auto& [walk, id] : ds.aw_vocab_table.map()) {
    w.u64(walk.size());
    for (const std::uint8_t step : walk) w.u8(step);
    w.u32(id);
  }
  w.u8(ds.aw_vocab_table.frozen());

  // Samples.
  w.u64(ds.samples.size());
  for (const GraphSample& s : ds.samples) put_sample(w, s);
}

Dataset get_payload(io::ByteReader& r) {
  Dataset ds;
  ds.static_dim = r.u32();
  ds.aw_vocab = r.u32();

  {
    const std::size_t at = r.offset();
    const std::uint32_t i2v_vocab = r.u32();
    const std::uint32_t i2v_dim = r.u32();
    if (i2v_vocab > kMaxVocab || i2v_dim > kMaxVec) {
      r.fail_at(at, "inst2vec table " + std::to_string(i2v_vocab) + "x" +
                        std::to_string(i2v_dim) + " exceeds cap");
    }
    r.fits(std::uint64_t{i2v_vocab} * i2v_dim, sizeof(float), at,
           "inst2vec table");
    ds.inst2vec = embedding::EmbeddingTable(i2v_vocab, i2v_dim);
    for (std::uint32_t v = 0; v < i2v_vocab; ++v) {
      r.f32s(ds.inst2vec.row(v), "inst2vec");
    }
  }

  std::unordered_map<std::string, std::uint32_t> tokens;
  const std::uint64_t n_tokens = r.count(kMaxVocab, "token vocabulary", 12);
  for (std::uint64_t i = 0; i < n_tokens; ++i) {
    std::string token = r.str(kMaxString);
    const std::uint32_t id = r.u32();
    tokens.emplace(std::move(token), id);
  }
  ds.token_vocab.restore(std::move(tokens), r.u8() != 0);

  std::map<graph::AnonWalk, std::uint32_t> walks;
  const std::uint64_t n_walks = r.count(kMaxVocab, "walk vocabulary", 12);
  for (std::uint64_t i = 0; i < n_walks; ++i) {
    const std::uint64_t len = r.count(kMaxWalkLen, "anonymous walk");
    const std::string_view steps = r.bytes(len, "walk");
    graph::AnonWalk walk(steps.begin(), steps.end());
    const std::uint32_t id = r.u32();
    walks.emplace(std::move(walk), id);
  }
  ds.aw_vocab_table.restore(std::move(walks), r.u8() != 0);

  const std::uint64_t n_samples = r.count(kMaxSamples, "sample list");
  for (std::uint64_t i = 0; i < n_samples; ++i) {
    ds.samples.push_back(get_sample(r));
  }
  return ds;
}

}  // namespace

void save_dataset(const Dataset& ds, std::ostream& os) {
  io::ByteWriter w(os);
  w.u32(kMagic);
  w.u32(kVersion);
  w.begin_crc();
  put_payload(w, ds);
  w.crc_footer();
  w.flush();
  if (!os) throw std::runtime_error("dataset write failed");
}

void save_dataset(const Dataset& ds, const std::string& path) {
  io::atomic_write_file(path,
                        [&](std::ostream& os) { save_dataset(ds, os); });
}

Dataset load_dataset(std::istream& is) {
  const std::string bytes = io::read_stream(is);
  io::ByteReader r(bytes, "dataset");
  if (r.u32() != kMagic) r.fail_at(0, "bad magic (not a dataset file)");
  const std::uint32_t version = r.u32();
  if (version != 1 && version != kVersion) {
    r.fail_at(4, "version " + std::to_string(version) +
                     " unsupported (expected " + std::to_string(kVersion) +
                     ")");
  }
  r.begin_crc();
  Dataset ds = get_payload(r);
  if (version == kVersion) r.crc_footer();
  return ds;
}

Dataset load_dataset(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + path);
  return load_dataset(is);
}

}  // namespace mvgnn::data
