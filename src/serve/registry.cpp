#include "dlscale/serve/registry.hpp"

#include <cstddef>
#include <cstdint>
#include <utility>

#include "dlscale/train/checkpoint.hpp"
#include "dlscale/util/rng.hpp"

namespace dlscale::serve {

namespace {

constexpr int kCalibrationBatch = 4;
constexpr std::uint64_t kCalibrationSeed = 0x5EEDCA11;

/// Deterministic uniform [0,1) calibration batch matching the model's
/// input shape — the fallback when the caller supplies no images. Uniform
/// noise is range-representative for the synthetic dataset's [0,1] pixel
/// space, and every layer still sees its own weight-shaped activation
/// distribution during the forwards.
tensor::Tensor synthetic_calibration_batch(const models::MiniDeepLabV3Plus::Config& config) {
  util::Rng rng(kCalibrationSeed);
  tensor::Tensor images(
      {kCalibrationBatch, config.in_channels, config.input_size, config.input_size});
  float* p = images.ptr();
  const std::size_t n = static_cast<std::size_t>(images.numel());
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<float>(rng.uniform());
  return images;
}

}  // namespace

ReplicaRegistry::ReplicaRegistry(models::MiniDeepLabV3Plus::Config config, int replica_count,
                             const std::string& path, QuantizeSpec quantize)
    : config_(config),
      replica_count_(replica_count < 1 ? 1 : replica_count),
      quantize_(std::move(quantize)) {
  current_ = build_loaded_set(path, /*version=*/1, quantize_);
}

std::shared_ptr<ReplicaSet> ReplicaRegistry::build_loaded_set(const std::string& path,
                                                            int version,
                                                            const QuantizeSpec& quantize) const {
  auto set = std::make_shared<ReplicaSet>();
  set->version = version;
  set->replicas.reserve(static_cast<std::size_t>(replica_count_));
  for (int i = 0; i < replica_count_; ++i) {
    // Seed is irrelevant: every weight and buffer is overwritten below.
    util::Rng rng(1);
    set->replicas.push_back(std::make_unique<models::MiniDeepLabV3Plus>(config_, rng));
  }
  // Parse the checkpoint once (replica 0), then clone tensors into the
  // remaining replicas — parameters() order is deterministic across
  // instances, so index-wise copy is exact.
  auto& primary = *set->replicas.front();
  train::load_model(primary.parameters(), primary.buffers(), path);
  const auto src_params = primary.parameters();
  const auto src_bufs = primary.buffers();
  for (int i = 1; i < replica_count_; ++i) {
    const auto dst_params = set->replicas[static_cast<std::size_t>(i)]->parameters();
    const auto dst_bufs = set->replicas[static_cast<std::size_t>(i)]->buffers();
    for (std::size_t j = 0; j < src_params.size(); ++j) {
      dst_params[j]->value = src_params[j]->value;
    }
    for (std::size_t j = 0; j < src_bufs.size(); ++j) {
      *dst_bufs[j].tensor = *src_bufs[j].tensor;
    }
  }
  // Quantize the standby set before it is ever visible to workers. Any
  // throw here (uncalibrated layer, bad spec) propagates with the old
  // serving generation untouched — same strong guarantee as a bad file.
  if (quantize.precision == nn::Precision::kInt8) {
    nn::CalibrationTable table(quantize.calibration);
    {
      const tensor::Tensor calib =
          quantize.calibration_images.empty()
              ? synthetic_calibration_batch(config_)
              : quantize.calibration_images;
      nn::CalibrationSession session(table);
      (void)primary.forward(calib, /*train=*/false);
    }
    // Replicas carry identical weights, so the primary's activation
    // ranges are exact for all of them.
    for (auto& replica : set->replicas) {
      replica->convert_precision(nn::Precision::kInt8, &table);
    }
  } else if (quantize.precision == nn::Precision::kBf16) {
    for (auto& replica : set->replicas) {
      replica->convert_precision(nn::Precision::kBf16);
    }
  }
  set->precision = quantize.precision;
  return set;
}

void ReplicaRegistry::reload(const std::string& path, std::optional<QuantizeSpec> quantize) {
  // Standby-then-swap: all the throwing work happens before the swap, so
  // a corrupt checkpoint leaves the serving generation untouched. The
  // policy is snapshotted under the lock because the slow load below
  // runs unlocked; concurrent reloads are last-writer-wins on the swap.
  int next_version = 0;
  {
    std::lock_guard lock(mutex_);
    next_version = current_->version + 1;
    if (!quantize) quantize = quantize_;
  }
  auto standby = build_loaded_set(path, next_version, *quantize);
  std::lock_guard lock(mutex_);
  quantize_ = std::move(*quantize);
  current_ = std::move(standby);
  // Workers holding the old shared_ptr finish their in-flight batches on
  // the superseded weights; the old set frees itself when the last batch
  // completes. No drain barrier needed.
}

std::shared_ptr<ReplicaSet> ReplicaRegistry::acquire() const {
  std::lock_guard lock(mutex_);
  return current_;
}

int ReplicaRegistry::version() const {
  std::lock_guard lock(mutex_);
  return current_->version;
}

nn::Precision ReplicaRegistry::precision() const {
  std::lock_guard lock(mutex_);
  return current_->precision;
}

}  // namespace dlscale::serve
