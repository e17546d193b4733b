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
  if (auto bytes = find_memory(key)) {
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.hits;
    }
    counters().hits.add(1);
    span.arg("hit", 1);
    return bytes;
  }
  if (!cfg_.dir.empty()) {
    if (auto bytes = read_disk(key)) {
      // Promote into the memory tier.
      Entry e;
      e.key = key;
      e.bytes = *bytes;
      e.charge = e.bytes.size() + kEntryOverhead;
      {
        std::lock_guard<std::mutex> lock(mu_);
        insert_locked(std::move(e));
      }
      {
        std::lock_guard<std::mutex> slock(stats_mu_);
        ++stats_.hits;
      }
      counters().hits.add(1);
      span.arg("hit", 2);
      return bytes;
    }
  }
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.misses;
  }
  counters().misses.add(1);
  span.arg("hit", 0);
  return std::nullopt;
}

std::optional<std::string> Cache::find_memory(const Key& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end() || it->second->type != nullptr) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->bytes;
}

void Cache::put(const Key& key, std::string_view bytes) {
  Entry e;
  e.key = key;
  e.bytes.assign(bytes.data(), bytes.size());
  e.charge = e.bytes.size() + kEntryOverhead;
  {
    std::lock_guard<std::mutex> lock(mu_);
    insert_locked(std::move(e));
  }
  if (!cfg_.dir.empty()) write_disk(key, bytes);
}

std::string Cache::get_or_compute(
    const Key& key, const std::function<std::string()>& compute) {
  if (auto hit = get(key)) return std::move(*hit);

  std::shared_ptr<Flight> flight;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    auto& slot = flights_[key];
    if (!slot) {
      slot = std::make_shared<Flight>();
      owner = true;
    }
    flight = slot;
  }
  if (!owner) {
    std::unique_lock<std::mutex> lock(flight->m);
    flight->cv.wait(lock, [&] { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    return flight->bytes;
  }

  std::string bytes;
  std::exception_ptr error;
  try {
    // A caller that missed just before the previous owner's put() can take
    // a fresh flight slot after that owner retired it; the value is then
    // already in memory. Re-check without counting a second miss.
    if (auto cached = find_memory(key)) {
      bytes = std::move(*cached);
    } else {
      bytes = compute();
      put(key, bytes);
    }
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(flight->m);
    flight->done = true;
    flight->bytes = bytes;
    flight->error = error;
  }
  flight->cv.notify_all();
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    flights_.erase(key);
  }
  if (error) std::rethrow_exception(error);
  return bytes;
}

std::pair<std::shared_ptr<const void>, const std::type_info*>
Cache::get_object_erased(const Key& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end() || it->second->type == nullptr) {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.misses;
    counters().misses.add(1);
    return {nullptr, nullptr};
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.hits;
  }
  counters().hits.add(1);
  return {it->second->obj, it->second->type};
}

void Cache::put_object_erased(const Key& key,
                              std::shared_ptr<const void> value,
                              const std::type_info& type,
                              std::size_t approx_bytes) {
  Entry e;
  e.key = key;
  e.obj = std::move(value);
  e.type = &type;
  e.charge = approx_bytes + kEntryOverhead;
  std::lock_guard<std::mutex> lock(mu_);
  insert_locked(std::move(e));
}

void Cache::insert_locked(Entry entry) {
  const auto it = index_.find(entry.key);
  if (it != index_.end()) {
    mem_bytes_ -= it->second->charge;
    lru_.erase(it->second);
    index_.erase(it);
  }
  mem_bytes_ += entry.charge;
  lru_.push_front(std::move(entry));
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

void Cache::reconfigure(Config cfg) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    index_.clear();
    mem_bytes_ = 0;
    cfg_ = std::move(cfg);
  }
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    stats_.mem_entries = 0;
    stats_.mem_bytes = 0;
    stats_.disk_entries = 0;
    stats_.disk_bytes = 0;
  }
  if (!cfg_.dir.empty()) {
    std::filesystem::create_directories(cfg_.dir);
    scan_disk();
  }
}

Cache& Cache::global() {
  static Cache* c = new Cache();  // leaked: usable from teardown paths
  return *c;
}

void Cache::configure_global(Config cfg) { global().reconfigure(std::move(cfg)); }

}  // namespace mvgnn::cache
