// Dataset (de)serialization: the corpus profile + featurization is the
// expensive phase (especially with the six IR variants), so experiments can
// build it once, save it, and reload it across runs. The format is a simple
// versioned binary stream; vocabulary string maps are included so reloaded
// datasets can still featurize *new* programs consistently.
#pragma once

#include <iosfwd>
#include <string>

#include "data/dataset.hpp"

namespace mvgnn::data {

/// Writes the full dataset (samples, dimensions, inst2vec table, token
/// vocabulary). Throws std::runtime_error on stream failure.
void save_dataset(const Dataset& ds, std::ostream& os);
/// Atomic (io::atomic_write_file): a failed write leaves `path` as it was.
void save_dataset(const Dataset& ds, const std::string& path);

/// Reads a dataset written by save_dataset. Throws std::runtime_error on
/// malformed input or version mismatch.
[[nodiscard]] Dataset load_dataset(std::istream& is);
[[nodiscard]] Dataset load_dataset(const std::string& path);

}  // namespace mvgnn::data
