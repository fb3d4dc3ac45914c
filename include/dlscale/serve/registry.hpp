// Checkpoint-backed model replicas with atomic hot-reload: the
// per-model replica-set holder each Server owns.
//
// One replica per worker: workers index their own replica, so forward
// passes never share mutable model state and need no per-inference lock.
// reload() builds a complete STANDBY replica set, loads the checkpoint
// into it (any failure throws with the old set untouched — the strong
// guarantee the corrupt-reload test exercises), then swaps one
// shared_ptr under a mutex. Workers acquire() the set once per batch;
// in-flight batches keep the superseded set alive until their forward
// finishes, so a reload drains naturally instead of yanking weights
// mid-inference.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dlscale/models/deeplab.hpp"

namespace dlscale::serve {

/// Serving-precision policy applied to every freshly loaded replica set
/// (DESIGN.md §9). kFp32 serves the checkpoint as-is; kBf16 halves
/// weights-at-rest; kInt8 routes conv GEMMs through the integer
/// micro-kernels and needs a calibration pass, which the registry runs on
/// the primary replica right after loading (replicas share weights, so
/// one table covers them all).
struct QuantizeSpec {
  nn::Precision precision = nn::Precision::kFp32;
  /// Int8 only: observer the calibration forwards feed.
  nn::CalibrationConfig calibration{};
  /// Int8 only: images for the calibration forwards, (B,C,S,S) matching
  /// the model config. Empty → a fixed-seed batch of deterministic
  /// uniform [0,1) images.
  tensor::Tensor calibration_images;
};

/// An immutable-by-convention generation of model replicas. `version`
/// increments per successful load so responses can report which weights
/// produced them; `precision` is what every replica in the set was
/// converted to (uniform across the set).
struct ReplicaSet {
  std::vector<std::unique_ptr<models::MiniDeepLabV3Plus>> replicas;
  int version = 0;
  nn::Precision precision = nn::Precision::kFp32;
};

class ReplicaRegistry {
 public:
  /// Builds `replica_count` fresh replicas of `config`, loads the
  /// checkpoint at `path` into them (save_model format: parameters then
  /// buffers), then applies `quantize`. Throws on any load or
  /// calibration/conversion error.
  ReplicaRegistry(models::MiniDeepLabV3Plus::Config config, int replica_count,
                const std::string& path, QuantizeSpec quantize = {});

  /// Atomic hot-reload: standby set, load, calibrate/convert, swap.
  /// Strong guarantee — on throw the current set is untouched and keeps
  /// serving. A `quantize` spec switches serving precision in the same
  /// swap (e.g. load an fp32 checkpoint, serve it int8) and becomes the
  /// policy for subsequent reloads; without one the current spec is reused.
  void reload(const std::string& path, std::optional<QuantizeSpec> quantize = std::nullopt);

  /// Current replica set. The returned shared_ptr pins the generation for
  /// the caller's batch; workers must use exactly replicas[worker_id].
  [[nodiscard]] std::shared_ptr<ReplicaSet> acquire() const;

  [[nodiscard]] int version() const;
  /// Serving precision of the current replica set.
  [[nodiscard]] nn::Precision precision() const;
  [[nodiscard]] int replica_count() const noexcept { return replica_count_; }
  [[nodiscard]] const models::MiniDeepLabV3Plus::Config& config() const noexcept {
    return config_;
  }

 private:
  [[nodiscard]] std::shared_ptr<ReplicaSet> build_loaded_set(const std::string& path,
                                                             int version,
                                                             const QuantizeSpec& quantize) const;

  models::MiniDeepLabV3Plus::Config config_;
  int replica_count_;
  mutable std::mutex mutex_;
  QuantizeSpec quantize_;  ///< guarded by mutex_ (reload may replace it)
  std::shared_ptr<ReplicaSet> current_;
};

}  // namespace dlscale::serve
