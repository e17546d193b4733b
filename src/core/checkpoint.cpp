#include "core/checkpoint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "fault/fault.hpp"
#include "io/atomic_file.hpp"
#include "io/codec.hpp"
#include "obs/metrics.hpp"
#include "parallel/rng.hpp"

namespace mvgnn::core {

namespace {

constexpr std::uint32_t kMagic = 0x4D56'434B;  // "MVCK"
constexpr std::uint32_t kVersion = 1;

// Untrusted on-disk lengths; generous caps so a flipped count byte fails
// the parse instead of driving a huge allocation.
constexpr std::uint64_t kMaxRngState = 1u << 16;
constexpr std::uint64_t kMaxCurve = 1u << 20;

void put_payload(io::ByteWriter& w, const CheckpointMeta& meta,
                 const nn::Module& model, const ag::Adam& opt) {
  w.u64(meta.epoch);
  w.u64(meta.step);
  w.str(meta.rng_state);
  w.u64(meta.curve.size());
  for (const EpochStat& st : meta.curve) {
    w.f64(st.loss);
    w.f64(st.train_acc);
    w.f64(st.test_acc);
  }
  nn::save_weights(model, w);
  opt.save_state(w);
}

}  // namespace

std::string encode_checkpoint(const CheckpointMeta& meta,
                              const nn::Module& model, const ag::Adam& opt) {
  io::ByteWriter w;
  w.u32(kMagic);
  w.u32(kVersion);
  w.begin_crc();
  put_payload(w, meta, model, opt);
  w.crc_footer();
  return w.take();
}

void write_checkpoint_file(const std::string& path, const std::string& bytes) {
  fault::check("ckpt.write");
  io::atomic_write_file(path, [&](std::ostream& os) {
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  });
  obs::Registry::global().counter("ckpt.writes_total").add(1);
}

void save_checkpoint(const std::string& path, const CheckpointMeta& meta,
                     const nn::Module& model, const ag::Adam& opt) {
  write_checkpoint_file(path, encode_checkpoint(meta, model, opt));
}

CheckpointMeta load_checkpoint(std::istream& is, nn::Module& model,
                               ag::Adam& opt) {
  const std::string bytes = io::read_stream(is);
  io::ByteReader r(bytes, "checkpoint");
  if (r.u32() != kMagic) r.fail_at(0, "bad magic (not a checkpoint file)");
  const std::uint32_t version = r.u32();
  if (version != kVersion) {
    r.fail_at(4, "unsupported version " + std::to_string(version));
  }

  r.begin_crc();
  CheckpointMeta meta;
  meta.epoch = r.u64();
  meta.step = r.u64();
  const std::uint64_t rng_len = r.count(kMaxRngState, "rng state");
  {
    const std::size_t at = r.offset();
    meta.rng_state = std::string(r.bytes(rng_len, "rng state"));
    // Parse-check the field right here: resuming on a garbage generator
    // state would silently fork the training trajectory, so a state that
    // Rng::restore cannot accept is corruption, not something to hand to
    // the trainer.
    par::Rng probe(0);
    if (!probe.restore(meta.rng_state)) r.fail_at(at, "malformed RNG state");
  }
  const std::uint64_t curve_len =
      r.count(kMaxCurve, "curve", 3 * sizeof(double));
  meta.curve.resize(static_cast<std::size_t>(curve_len));
  for (EpochStat& st : meta.curve) {
    st.loss = r.f64();
    st.train_acc = r.f64();
    st.test_acc = r.f64();
  }
  nn::load_weights(model, r);
  opt.load_state(r);
  r.crc_footer();
  return meta;
}

CheckpointMeta load_checkpoint(const std::string& path, nn::Module& model,
                               ag::Adam& opt) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("checkpoint: cannot open " + path);
  }
  try {
    return load_checkpoint(is, model, opt);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

std::string checkpoint_path(const std::string& dir, std::uint64_t epoch) {
  return dir + "/ckpt-" + std::to_string(epoch) + ".mvck";
}

std::string latest_checkpoint(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::string best;
  std::uint64_t best_epoch = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= 10 || name.compare(0, 5, "ckpt-") != 0 ||
        name.compare(name.size() - 5, 5, ".mvck") != 0) {
      continue;
    }
    const std::string digits = name.substr(5, name.size() - 10);
    if (digits.empty() ||
        !std::all_of(digits.begin(), digits.end(), [](unsigned char c) {
          return std::isdigit(c) != 0;
        })) {
      continue;
    }
    const std::uint64_t epoch = std::stoull(digits);
    if (best.empty() || epoch > best_epoch) {
      best = entry.path().string();
      best_epoch = epoch;
    }
  }
  return best;
}

}  // namespace mvgnn::core
