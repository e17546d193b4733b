// Content-addressed cache: a thread-safe in-memory LRU in front of an
// optional on-disk tier.
//
// The staged pipeline (src/pipe) keys every stage boundary by content hash;
// this layer stores the serialized stage outputs. Two kinds of entries
// share one LRU and one memory budget:
//
//   * byte blobs — serialized artifacts, spillable to the disk tier;
//   * typed objects — in-memory-only artifacts (e.g. a compiled+profiled
//     module, which holds pointers and cannot be serialized cheaply).
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

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <typeindex>
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
  /// Memory budget for the LRU tier (blobs + typed objects).
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

  // ---- byte-blob tier (memory LRU + disk) --------------------------------

  /// Memory first, then disk (promoting a disk hit into memory). nullopt =
  /// miss (including any corrupt disk entry, which is evicted on the way).
  [[nodiscard]] std::optional<std::string> get(const Key& key);

  /// Stores in memory (evicting LRU entries past the budget) and, when a
  /// disk tier is configured, on disk. Never throws for I/O reasons.
  void put(const Key& key, std::string_view bytes);

  /// get(); on a miss runs `compute`, stores and returns its result.
  /// Concurrent callers with the same key are single-flight: one computes,
  /// the rest wait and share the value (or the thrown exception).
  std::string get_or_compute(const Key& key,
                             const std::function<std::string()>& compute);

  // ---- typed object tier (memory only) -----------------------------------

  template <typename T>
  [[nodiscard]] std::shared_ptr<const T> get_object(const Key& key) {
    auto [p, type] = get_object_erased(key);
    if (!p || *type != typeid(T)) return nullptr;
    return std::static_pointer_cast<const T>(p);
  }

  template <typename T>
  void put_object(const Key& key, std::shared_ptr<const T> value,
                  std::size_t approx_bytes) {
    put_object_erased(key, std::move(value), typeid(T), approx_bytes);
  }

  // ---- maintenance -------------------------------------------------------

  /// Drops every memory entry and deletes every disk entry.
  void clear();
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Process-wide instance the CLI wires --cache-dir/--cache-mem-mb into.
  /// Defaults to memory-only with the default budget.
  static Cache& global();
  /// Reconfigures global(): clears the memory tier, then adopts `cfg`
  /// (existing disk entries under cfg.dir become visible).
  static void configure_global(Config cfg);

 private:
  struct Entry {
    Key key;
    std::string bytes;                  // blob entries
    std::shared_ptr<const void> obj;    // typed entries
    const std::type_info* type = nullptr;
    std::size_t charge = 0;
  };
  using LruList = std::list<Entry>;

  std::pair<std::shared_ptr<const void>, const std::type_info*>
  get_object_erased(const Key& key);
  void put_object_erased(const Key& key, std::shared_ptr<const void> value,
                         const std::type_info& type, std::size_t approx_bytes);

  /// Memory-tier blob lookup (refreshes LRU order); touches no stats.
  [[nodiscard]] std::optional<std::string> find_memory(const Key& key);
  /// Inserts/replaces under mu_; evicts LRU tail past the budget.
  void insert_locked(Entry entry);
  void evict_to_budget_locked();
  [[nodiscard]] std::string path_of(const Key& key) const;
  /// Reads + verifies one disk entry; corrupt entries are deleted and
  /// reported as nullopt. Called without mu_ held (file I/O).
  [[nodiscard]] std::optional<std::string> read_disk(const Key& key);
  void write_disk(const Key& key, std::string_view bytes);
  void scan_disk();  // initializes disk_bytes/disk_entries from cfg_.dir
  void reconfigure(Config cfg);

  Config cfg_;
  mutable std::mutex mu_;
  LruList lru_;  // front = most recently used
  std::unordered_map<Key, LruList::iterator, KeyHash> index_;
  std::size_t mem_bytes_ = 0;

  struct Flight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    std::string bytes;
    std::exception_ptr error;
  };
  std::mutex flights_mu_;
  std::unordered_map<Key, std::shared_ptr<Flight>, KeyHash> flights_;

  // Instance-local stats (obs counters are process-global).
  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace mvgnn::cache
