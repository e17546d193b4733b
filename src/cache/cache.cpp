#include "cache/cache.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "fault/fault.hpp"
#include "io/atomic_file.hpp"
#include "io/codec.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mvgnn::cache {

namespace {

constexpr std::uint32_t kMagic = 0x4D56'4343;  // "MVCC"
constexpr std::uint32_t kVersion = 1;
/// Disk payloads past this are rejected as corruption (a flipped length
/// byte must fail the read, not drive a giant allocation).
constexpr std::uint64_t kMaxPayload = 1ull << 32;
/// Fixed per-entry bookkeeping charge against the memory budget, covering
/// list/map nodes and the key, so thousands of tiny blobs cannot slip
/// under a bytes-only accounting.
constexpr std::size_t kEntryOverhead = 128;

struct Counters {
  obs::Counter& hits = obs::Registry::global().counter("cache.hits_total");
  obs::Counter& misses = obs::Registry::global().counter("cache.misses_total");
  obs::Counter& evictions =
      obs::Registry::global().counter("cache.evictions_total");
  obs::Counter& corrupt =
      obs::Registry::global().counter("cache.corrupt_total");
  obs::Counter& write_failures =
      obs::Registry::global().counter("cache.write_failures_total");
  obs::Gauge& disk_bytes = obs::Registry::global().gauge("cache.disk_bytes");
  obs::Gauge& mem_bytes = obs::Registry::global().gauge("cache.mem_bytes");
};

Counters& counters() {
  static Counters c;
  return c;
}

}  // namespace

std::string encode_entry(std::string_view payload) {
  io::ByteWriter w;
  w.u32(kMagic);
  w.u32(kVersion);
  w.u64(payload.size());
  w.bytes(payload);
  w.u32(io::crc32(payload.data(), payload.size()));
  return w.take();
}

std::string_view decode_entry(std::string_view file) {
  io::ByteReader r(file, "cache entry");
  if (r.u32() != kMagic) r.fail_at(0, "bad header");
  if (r.u32() != kVersion) r.fail_at(4, "version mismatch");
  const std::size_t len_at = r.offset();
  const std::uint64_t len = r.count(kMaxPayload, "payload");
  if (r.remaining() - len != sizeof(std::uint32_t)) {
    r.fail_at(len_at, "payload length " + std::to_string(len) +
                          " does not match the file size " +
                          std::to_string(file.size()));
  }
  const std::string_view payload = r.bytes(len, "payload");
  const std::size_t crc_at = r.offset();
  if (r.u32() != io::crc32(payload.data(), payload.size())) {
    r.fail_at(crc_at, "checksum mismatch");
  }
  return payload;
}

std::string Key::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf, 32);
}

Cache::Cache(Config cfg) : cfg_(std::move(cfg)) {
  if (!cfg_.dir.empty()) {
    std::filesystem::create_directories(cfg_.dir);
    scan_disk();
  }
}

std::string Cache::path_of(const Key& key) const {
  return cfg_.dir + "/" + key.hex() + ".mvcc";
}

void Cache::scan_disk() {
  std::uint64_t bytes = 0, entries = 0;
  std::error_code ec;
  for (const auto& de : std::filesystem::directory_iterator(cfg_.dir, ec)) {
    if (de.path().extension() == ".mvcc" && de.is_regular_file(ec)) {
      bytes += de.file_size(ec);
      ++entries;
    }
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.disk_bytes = bytes;
  stats_.disk_entries = entries;
  counters().disk_bytes.set(static_cast<double>(bytes));
}

std::optional<std::string> Cache::get(const Key& key) {
  // hit: 0 = miss, 1 = memory tier, 2 = disk tier (promoted).
  obs::ScopedSpan span("cache.get");
  std::optional<std::string> bytes = find_memory(key);
  std::uint64_t tier = bytes ? 1 : 0;
  if (!bytes && !cfg_.dir.empty() && (bytes = read_disk(key))) {
    insert_memory(key, *bytes);  // promote into the memory tier
    tier = 2;
  }
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++(bytes ? stats_.hits : stats_.misses);
  }
  (bytes ? counters().hits : counters().misses).add(1);
  span.arg("hit", tier);
  return bytes;
}

std::optional<std::string> Cache::find_memory(const Key& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->bytes;
}

void Cache::put(const Key& key, std::string_view bytes) {
  insert_memory(key, std::string(bytes));
  if (!cfg_.dir.empty()) write_disk(key, bytes);
}

void Cache::insert_memory(const Key& key, std::string bytes) {
  const std::size_t charge = bytes.size() + kEntryOverhead;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    mem_bytes_ -= it->second->charge;
    lru_.erase(it->second);
    index_.erase(it);
  }
  mem_bytes_ += charge;
  lru_.push_front(Entry{key, std::move(bytes), charge});
  index_[lru_.front().key] = lru_.begin();
  evict_to_budget_locked();
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    stats_.mem_entries = index_.size();
    stats_.mem_bytes = mem_bytes_;
  }
  counters().mem_bytes.set(static_cast<double>(mem_bytes_));
}

void Cache::evict_to_budget_locked() {
  while (mem_bytes_ > cfg_.mem_budget_bytes && !lru_.empty()) {
    // Never evict the entry just inserted: a single blob larger than the
    // whole budget should still serve the caller that produced it.
    if (lru_.size() == 1) break;
    Entry& victim = lru_.back();
    mem_bytes_ -= victim.charge;
    index_.erase(victim.key);
    lru_.pop_back();
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.evictions;
    }
    counters().evictions.add(1);
  }
}

std::optional<std::string> Cache::read_disk(const Key& key) {
  const std::string path = path_of(key);
  std::string file;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) return std::nullopt;  // plain absence: not corruption
    if (const auto size = in.tellg(); size > 0) {
      file.resize(static_cast<std::size_t>(size));
      in.seekg(0);
      in.read(file.data(), size);
      file.resize(static_cast<std::size_t>(in.gcount()));
    }
  }
  if (fault::enabled() && fault::hit("cache.read.corrupt") && !file.empty()) {
    file.back() = static_cast<char>(~file.back());  // flips a CRC byte
  }
  try {
    return std::string(decode_entry(file));
  } catch (const std::runtime_error& e) {
    std::error_code ec;
    std::uint64_t removed = 0;
    if (std::filesystem::exists(path, ec)) {
      removed = std::filesystem::file_size(path, ec);
      std::filesystem::remove(path, ec);
    }
    obs::log_warn("evicting corrupt cache entry",
                  {{"path", path}, {"reason", e.what()}});
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.corrupt;
    if (stats_.disk_entries > 0) --stats_.disk_entries;
    stats_.disk_bytes -= std::min(stats_.disk_bytes, removed);
    counters().corrupt.add(1);
    counters().disk_bytes.set(static_cast<double>(stats_.disk_bytes));
    return std::nullopt;
  }
}

void Cache::write_disk(const Key& key, std::string_view bytes) {
  const std::string path = path_of(key);
  try {
    fault::check("cache.write");
    const std::string file = encode_entry(bytes);
    io::atomic_write_file(path, [&](std::ostream& os) {
      os.write(file.data(), static_cast<std::streamsize>(file.size()));
    });
  } catch (const std::exception& e) {
    // A cache write failure degrades to "uncached", never to a build
    // failure.
    obs::log_warn("cache write failed", {{"path", path}, {"error", e.what()}});
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.write_failures;
    counters().write_failures.add(1);
    return;
  }
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  std::lock_guard<std::mutex> slock(stats_mu_);
  ++stats_.disk_entries;
  stats_.disk_bytes += ec ? 0 : size;
  counters().disk_bytes.set(static_cast<double>(stats_.disk_bytes));
}

void Cache::clear() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    index_.clear();
    mem_bytes_ = 0;
  }
  if (!cfg_.dir.empty()) {
    std::error_code ec;
    for (const auto& de : std::filesystem::directory_iterator(cfg_.dir, ec)) {
      if (de.path().extension() == ".mvcc") {
        std::filesystem::remove(de.path(), ec);
      }
    }
  }
  std::lock_guard<std::mutex> slock(stats_mu_);
  stats_.mem_entries = 0;
  stats_.mem_bytes = 0;
  stats_.disk_entries = 0;
  stats_.disk_bytes = 0;
  counters().mem_bytes.set(0.0);
  counters().disk_bytes.set(0.0);
}

Stats Cache::stats() const {
  std::lock_guard<std::mutex> slock(stats_mu_);
  return stats_;
}

}  // namespace mvgnn::cache
