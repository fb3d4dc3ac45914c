// Shared helpers for the serving tests: a small model config, a
// checkpoint written from a deterministically-seeded model, and a
// reference (unserved) forward to compare served results against.
#pragma once

#include <string>

#include "dlscale/models/deeplab.hpp"
#include "dlscale/train/checkpoint.hpp"
#include "dlscale/util/rng.hpp"
#include "../support/temp_file.hpp"

namespace dlscale::serve_testing {

using dlscale::testing::TempFile;

inline models::MiniDeepLabV3Plus::Config small_config() {
  return {.in_channels = 3, .num_classes = 4, .input_size = 16, .width = 4};
}

/// Builds a model from `seed` and writes its params+buffers to `path`.
inline void write_checkpoint(const models::MiniDeepLabV3Plus::Config& config,
                             std::uint64_t seed, const std::string& path) {
  util::Rng rng(seed);
  models::MiniDeepLabV3Plus model(config, rng);
  train::save_model(model.parameters(), model.buffers(), path);
}

/// A fresh model loaded from `path` — the bitwise ground truth the served
/// responses are compared against.
inline models::MiniDeepLabV3Plus load_reference(
    const models::MiniDeepLabV3Plus::Config& config, const std::string& path) {
  util::Rng rng(999);  // overwritten by the load
  models::MiniDeepLabV3Plus model(config, rng);
  train::load_model(model.parameters(), model.buffers(), path);
  return model;
}

}  // namespace dlscale::serve_testing
