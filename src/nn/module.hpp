// Base class for parameterized layers/models plus weight (de)serialization.
#pragma once

#include <iosfwd>
#include <vector>

#include "tensor/tensor.hpp"

namespace mvgnn::io {
class ByteReader;
class ByteWriter;
}  // namespace mvgnn::io

namespace mvgnn::nn {

class Module {
 public:
  virtual ~Module() = default;
  /// All trainable parameters, in a stable order (used by optimizers and by
  /// save/load, which must see the same order on both sides).
  [[nodiscard]] virtual std::vector<ag::Tensor> parameters() const = 0;

  /// Total trainable scalar count.
  [[nodiscard]] std::size_t num_parameters() const {
    std::size_t n = 0;
    for (const auto& p : parameters()) n += p.numel();
    return n;
  }
};

/// Writes/reads all parameter buffers in order: u32 magic "MVGN", u32
/// tensor count, then per tensor u64 rows, u64 cols and the floats. Shapes
/// are checked on load. The stream form of load_weights reads exactly one
/// record (its size follows from m's shapes), so records can sit back to
/// back in one stream.
void save_weights(const Module& m, io::ByteWriter& w);
void save_weights(const Module& m, std::ostream& os);
void load_weights(Module& m, io::ByteReader& r);
void load_weights(Module& m, std::istream& is);

}  // namespace mvgnn::nn
