// Content-addressed cache: a thread-safe in-memory LRU in front of an
// optional on-disk tier.
//
// The staged pipeline (src/pipe) keys every stage boundary by content hash;
// this layer stores the serialized featurize and embed outputs. Every entry
// is a byte blob: the memory LRU holds it under one byte budget, and the
// disk tier, when configured, keeps a copy of every blob put.
//
// Disk entries are "MVCC" files (magic, version, length, payload, CRC32)
// written through io::atomic_write_file, so a crash mid-write never leaves
// a torn entry under a valid name. Corruption is *never* fatal: a bad
// magic, length or CRC on read counts `cache.corrupt_total`, evicts the
// file and reports a miss — the caller recomputes. A failed write (disk
// full, injected "cache.write" fault) counts `cache.write_failures_total`
// and the entry simply stays uncached.
//
// Fault sites (docs/robustness.md): "cache.write" fails a disk-tier write,
// "cache.read.corrupt" corrupts the CRC of the N-th disk-tier read.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "cache/key.hpp"

namespace mvgnn::cache {

/// One disk-tier entry file: u32 magic "MVCC", u32 version, u64 payload
/// length, the payload, u32 CRC32 of the payload.
[[nodiscard]] std::string encode_entry(std::string_view payload);
/// The payload inside an entry file. Throws std::runtime_error
/// ("cache entry: <what> at offset N") on a bad header, a length that does
/// not match the file size, or a checksum mismatch.
[[nodiscard]] std::string_view decode_entry(std::string_view file);

struct Config {
  /// Disk-tier directory; empty = memory-only cache.
  std::string dir;
  /// Memory budget for the LRU tier.
  std::size_t mem_budget_bytes = 256ull << 20;
};

/// Point-in-time view of one cache instance. hits/misses/... also feed the
/// process-wide obs counters (cache.hits_total etc.), so --metrics-out
/// snapshots carry them.
struct Stats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t write_failures = 0;
  std::uint64_t mem_entries = 0;
  std::uint64_t mem_bytes = 0;
  std::uint64_t disk_entries = 0;
  std::uint64_t disk_bytes = 0;

  [[nodiscard]] double hit_ratio() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

class Cache {
 public:
  Cache() : Cache(Config{}) {}
  explicit Cache(Config cfg);

  /// Memory first, then disk (promoting a disk hit into memory). nullopt =
  /// miss (including any corrupt disk entry, which is evicted on the way).
  [[nodiscard]] std::optional<std::string> get(const Key& key);

  /// Stores in memory (evicting LRU entries past the budget) and, when a
  /// disk tier is configured, on disk. Never throws for I/O reasons.
  void put(const Key& key, std::string_view bytes);

  /// Drops every memory entry and deletes every disk entry.
  void clear();
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  struct Entry {
    Key key;
    std::string bytes;
    std::size_t charge = 0;
  };
  using LruList = std::list<Entry>;

  /// Memory-tier lookup (refreshes LRU order); touches no stats.
  [[nodiscard]] std::optional<std::string> find_memory(const Key& key);
  /// Stores `bytes` in the memory tier, replacing any entry under `key`;
  /// evicts the LRU tail past the budget.
  void insert_memory(const Key& key, std::string bytes);
  void evict_to_budget_locked();
  [[nodiscard]] std::string path_of(const Key& key) const;
  /// Reads + verifies one disk entry; corrupt entries are deleted and
  /// reported as nullopt. Called without mu_ held (file I/O).
  [[nodiscard]] std::optional<std::string> read_disk(const Key& key);
  void write_disk(const Key& key, std::string_view bytes);
  void scan_disk();  // initializes disk_bytes/disk_entries from cfg_.dir

  const Config cfg_;
  mutable std::mutex mu_;
  LruList lru_;  // front = most recently used
  std::unordered_map<Key, LruList::iterator, KeyHash> index_;
  std::size_t mem_bytes_ = 0;

  // Instance-local stats (obs counters are process-global).
  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace mvgnn::cache
