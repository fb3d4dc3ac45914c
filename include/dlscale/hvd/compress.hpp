// Gradient compression codecs for the allreduce (DESIGN.md §12).
//
// The paper's scaling story is communication-bound, and the fp16 fusion
// path (HOROVOD_FP16_ALLREDUCE) already halves wire bytes. This module
// goes further with the two classic lossy codecs from the sync-SGD
// compression literature (Das et al., FireCaffe — see PAPERS.md):
//
//  * int8 — per-fused-chunk affine quantization (scale / zero-point over
//    the chunk's min..max), 4x smaller than fp32 on the wire;
//  * top-k — per-tensor magnitude selection, only k = ceil(ratio * n)
//    (index, value) pairs travel, ~1/ratio x smaller;
//
// both with ERROR FEEDBACK: each rank keeps a per-parameter residual,
// adds it to the gradient before compressing, and stores the compression
// error back. The quantization/sparsification error is therefore not
// lost but re-applied on later steps, which is what preserves
// convergence (EF-SGD). Residuals are per-rank local state — they never
// enter checkpoints (checkpoints stay bitwise identical across ranks)
// and are rebuilt empty on elastic recovery / restore.
//
// Unlike fp16 (whose half-sum reducer still rides a real allreduce),
// int8 and top-k are NOT reducible on the wire: summing two affine-coded
// chunks needs both scales, summing two sparse sets changes k. The
// exchange is therefore allgather-style — every rank broadcasts its
// compressed blob, and every rank dequantizes and averages all world
// contributions locally (deterministically, in rank order, so replicas
// stay bitwise identical to each other).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dlscale::hvd {

/// Wire codec for gradient payloads. kNone/kFp16 reduce on the wire (sum
/// of halves is a half); kInt8/kTopK exchange per-rank blobs via
/// allgather and average after local dequantization.
enum class CompressionAlgo : std::uint8_t {
  kNone = 0,  ///< fp32 allreduce (baseline)
  kFp16 = 1,  ///< IEEE half pack + half-sum allreduce (2x)
  kInt8 = 2,  ///< affine u8 quantization + allgather exchange (~4x)
  kTopK = 3,  ///< magnitude top-k (index, value) pairs (~1/ratio x)
};

[[nodiscard]] const char* to_string(CompressionAlgo algo) noexcept;

/// How one rank's share of a fused batch travels on the wire. Reducible
/// codecs allreduce wire_bytes / elem_size elements of elem_size bytes;
/// the others allgather one wire_bytes blob per rank.
struct WireLayout {
  bool reducible = true;
  std::size_t elem_size = 4;
  std::size_t wire_bytes = 0;
};

/// The wire layout of tensors of `counts` fp32 elements under `algo` —
/// the one place an exchange is priced, for payload and timing-only
/// batches alike. none: 4 B/element; fp16: 2 B/element; int8: 8-byte
/// {scale, offset} header + n bytes per tensor; top-k: 4-byte count +
/// k * 8-byte (index, value) per tensor.
[[nodiscard]] WireLayout wire_layout(CompressionAlgo algo, std::span<const std::size_t> counts,
                                     float topk_ratio);

/// Case-insensitive parse of "none|fp16|int8|topk" (also "top-k"/"top_k").
/// nullopt on anything else — callers own the error policy.
[[nodiscard]] std::optional<CompressionAlgo> parse_compression(std::string_view text);

/// Per-rank compression engine: owns the wire buffer, the accumulate
/// workspace, and the error-feedback residual per tensor name. One lives
/// inside each HorovodRuntime; it is NOT thread-safe (the runtime drives
/// it from the rank thread only).
class GradientCompressor {
 public:
  /// One tensor of a fused batch. `name` keys the residual buffer and
  /// must outlive the encode/decode pair (the runtime's batch name list
  /// does); `data` is the in-place gradient payload.
  struct Chunk {
    const std::string* name = nullptr;
    std::span<float> data;
  };

  /// Compress `chunks` into the internal wire buffer and return it.
  /// With error_feedback, each chunk is accumulated with its residual
  /// first and the residual is updated to the compression error
  /// (acc - dequant(encoded)) before returning; the caller then exchanges
  /// the identical-layout blobs via allgather. Deterministic: same input
  /// -> same bytes, at every SIMD dispatch level (quantize_u8 contract).
  /// The blob's size is wire_layout(algo, ...).wire_bytes.
  [[nodiscard]] std::span<std::byte> encode(CompressionAlgo algo, std::span<const Chunk> chunks,
                                            float topk_ratio, bool error_feedback);

  /// Decode `world` concatenated blobs (allgather order, each the size
  /// encode returned) and overwrite every chunk's data with the average
  /// of all ranks' dequantized contributions. Accumulation runs in rank
  /// order 0..world-1, so every rank computes bitwise-identical averages.
  void decode_average(CompressionAlgo algo, std::span<const Chunk> chunks,
                      std::span<const std::byte> gathered, int world);

  /// Drop all residual state. Called on elastic world rebuilds and
  /// checkpoint restore: residuals are scaled to the OLD world's
  /// averaging and the old parameter trajectory, so carrying them across
  /// would inject stale error into the first post-recovery steps.
  void reset_residuals() noexcept { residuals_.clear(); }

  /// Residual buffers currently held (one per tensor seen with error
  /// feedback on). Introspection for tests and stats.
  [[nodiscard]] std::size_t residual_tensor_count() const noexcept {
    return residuals_.size();
  }
  [[nodiscard]] const std::vector<float>* residual(const std::string& name) const {
    const auto it = residuals_.find(name);
    return it == residuals_.end() ? nullptr : &it->second;
  }

  /// k for a tensor of n elements at `ratio`: ceil(ratio * n), clamped
  /// to [1, n]. All ranks compute the same k, which keeps the allgather
  /// blobs fixed-size.
  [[nodiscard]] static std::size_t topk_k(std::size_t n, float ratio);

 private:
  [[nodiscard]] std::vector<float>& residual_for(const std::string& name, std::size_t n);

  void encode_int8(std::span<const Chunk> chunks, bool error_feedback);
  void encode_topk(std::span<const Chunk> chunks, float topk_ratio, bool error_feedback);

  std::unordered_map<std::string, std::vector<float>> residuals_;
  std::vector<float> acc_;                   ///< grad + residual workspace
  std::vector<std::byte> wire_;              ///< encode output
  std::vector<std::uint32_t> index_scratch_; ///< top-k selection
  std::vector<float> mag_scratch_;           ///< |acc| keys for selection
};

}  // namespace dlscale::hvd
