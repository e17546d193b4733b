#include "nn/module.hpp"

#include <cstdint>
#include <string>

#include "io/codec.hpp"

namespace mvgnn::nn {

namespace {
constexpr std::uint32_t kMagic = 0x4D56474EU;  // "MVGN"
}

void save_weights(const Module& m, io::ByteWriter& w) {
  const auto params = m.parameters();
  w.u32(kMagic);
  w.u32(static_cast<std::uint32_t>(params.size()));
  for (const ag::Tensor& p : params) {
    w.u64(p.rows());
    w.u64(p.cols());
    w.f32s({p.data(), p.numel()});
  }
}

void save_weights(const Module& m, std::ostream& os) {
  io::ByteWriter w(os);
  save_weights(m, w);
  w.flush();
}

void load_weights(Module& m, io::ByteReader& r) {
  auto params = m.parameters();
  const std::size_t magic_at = r.offset();
  if (r.u32() != kMagic) r.fail_at(magic_at, "bad weights header");
  const std::size_t count_at = r.offset();
  const std::uint32_t count = r.u32();
  if (count != params.size()) {
    r.fail_at(count_at, "weights hold " + std::to_string(count) +
                            " tensors, model has " +
                            std::to_string(params.size()));
  }
  for (ag::Tensor& p : params) {
    const std::size_t at = r.offset();
    const std::uint64_t rows = r.u64();
    const std::uint64_t cols = r.u64();
    if (rows != p.rows() || cols != p.cols()) {
      r.fail_at(at, "weights shape " + std::to_string(rows) + "x" +
                        std::to_string(cols) + " != parameter shape " +
                        std::to_string(p.rows()) + "x" +
                        std::to_string(p.cols()));
    }
    r.f32s({p.data(), p.numel()}, "weights");
  }
}

void load_weights(Module& m, std::istream& is) {
  std::uint64_t record = 2 * sizeof(std::uint32_t);
  for (const ag::Tensor& p : m.parameters()) {
    record += 2 * sizeof(std::uint64_t) + p.numel() * sizeof(float);
  }
  const std::string bytes = io::read_stream(is, record);
  io::ByteReader r(bytes, "load_weights");
  load_weights(m, r);
}

}  // namespace mvgnn::nn
