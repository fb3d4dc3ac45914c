#include "dlscale/hvd/compress.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "dlscale/tensor/microkernel.hpp"
#include "dlscale/util/wire.hpp"

namespace dlscale::hvd {

namespace {

// Per-chunk int8 wire header: f32 scale, f32 offset. Dequantization is
// v̂ = offset + q * scale (offset = -zero_point * scale), so a degenerate
// chunk (max == min, including a constant chunk) encodes exactly as
// scale = 0, offset = the constant — no division by a zero range anywhere.
constexpr std::size_t kInt8HeaderBytes = 2 * sizeof(float);

}  // namespace

const char* to_string(CompressionAlgo algo) noexcept {
  switch (algo) {
    case CompressionAlgo::kFp16: return "fp16";
    case CompressionAlgo::kInt8: return "int8";
    case CompressionAlgo::kTopK: return "topk";
    case CompressionAlgo::kNone: break;
  }
  return "none";
}

std::optional<CompressionAlgo> parse_compression(std::string_view text) {
  std::string lowered;
  lowered.reserve(text.size());
  for (char c : text) {
    lowered.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lowered == "none" || lowered == "fp32" || lowered == "off") {
    return CompressionAlgo::kNone;
  }
  if (lowered == "fp16" || lowered == "half") return CompressionAlgo::kFp16;
  if (lowered == "int8" || lowered == "u8") return CompressionAlgo::kInt8;
  if (lowered == "topk" || lowered == "top-k" || lowered == "top_k") {
    return CompressionAlgo::kTopK;
  }
  return std::nullopt;
}

std::size_t GradientCompressor::topk_k(std::size_t n, float ratio) {
  if (n == 0) return 0;
  const double k = std::ceil(static_cast<double>(ratio) * static_cast<double>(n));
  return std::clamp<std::size_t>(static_cast<std::size_t>(k), 1, n);
}

WireLayout wire_layout(CompressionAlgo algo, std::span<const std::size_t> counts,
                       float topk_ratio) {
  WireLayout layout;
  // Affine codes carry per-rank scales and sparse sets differ per rank,
  // so int8/top-k blobs cannot be summed on the wire.
  layout.reducible = algo == CompressionAlgo::kNone || algo == CompressionAlgo::kFp16;
  if (algo == CompressionAlgo::kFp16) layout.elem_size = sizeof(std::uint16_t);
  if (!layout.reducible) layout.elem_size = 1;
  for (std::size_t n : counts) {
    if (algo == CompressionAlgo::kInt8) {
      layout.wire_bytes += kInt8HeaderBytes + n;
    } else if (algo == CompressionAlgo::kTopK) {
      layout.wire_bytes += sizeof(std::uint32_t) + GradientCompressor::topk_k(n, topk_ratio) *
                                                       (sizeof(std::uint32_t) + sizeof(float));
    } else {
      layout.wire_bytes += n * layout.elem_size;
    }
  }
  return layout;
}

std::vector<float>& GradientCompressor::residual_for(const std::string& name,
                                                     std::size_t n) {
  std::vector<float>& residual = residuals_[name];
  // A size change means the tensor was re-registered with a different
  // shape (fresh model after restore/rebuild): stale error is meaningless.
  if (residual.size() != n) residual.assign(n, 0.0f);
  return residual;
}

std::span<std::byte> GradientCompressor::encode(CompressionAlgo algo,
                                                std::span<const Chunk> chunks, float topk_ratio,
                                                bool error_feedback) {
  wire_.clear();
  switch (algo) {
    case CompressionAlgo::kInt8: encode_int8(chunks, error_feedback); break;
    case CompressionAlgo::kTopK: encode_topk(chunks, topk_ratio, error_feedback); break;
    case CompressionAlgo::kNone:
    case CompressionAlgo::kFp16:
      throw std::logic_error("hvd compress: encode is for int8/topk only");
  }
  return wire_;
}

void GradientCompressor::encode_int8(std::span<const Chunk> chunks, bool error_feedback) {
  util::wire::Writer writer(wire_);
  for (const Chunk& chunk : chunks) {
    const std::size_t n = chunk.data.size();
    // Accumulate gradient + residual (EF-SGD: compress what we owe, not
    // just this step's gradient).
    const float* src = chunk.data.data();
    std::vector<float>* residual = nullptr;
    if (error_feedback) {
      residual = &residual_for(*chunk.name, n);
      acc_.resize(n);
      const float* res = residual->data();
      for (std::size_t i = 0; i < n; ++i) acc_[i] = chunk.data[i] + res[i];
      src = acc_.data();
    }
    // Chunk range. NaNs fail both comparisons and are ignored here; the
    // quantizer maps them to q = 0 and the residual absorbs the error.
    float lo = std::numeric_limits<float>::infinity();
    float hi = -std::numeric_limits<float>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      const float v = src[i];
      if (v < lo) lo = v;
      if (v > hi) hi = v;
    }
    if (!(hi >= lo)) lo = hi = 0.0f;  // all-NaN chunk

    float scale = 0.0f;
    float offset = 0.0f;
    float inv_scale = 0.0f;
    std::int32_t zero_point = 0;
    const float range = hi - lo;
    if (range > 0.0f && std::isfinite(range)) {
      scale = range / 255.0f;
      inv_scale = 255.0f / range;
      // Ideal zero point maps lo -> 0. Clamp the int64 rounding result
      // before narrowing: a tiny range far from zero can push it outside
      // i32, and quantize_u8's wrapping add would then scramble codes.
      const double zp = std::llrint(-static_cast<double>(lo) * inv_scale);
      zero_point = static_cast<std::int32_t>(
          std::clamp<double>(zp, std::numeric_limits<std::int32_t>::min(),
                             std::numeric_limits<std::int32_t>::max()));
      offset = -static_cast<float>(zero_point) * scale;
    } else {
      // Degenerate chunk: every element equals lo. scale = 0 makes the
      // payload irrelevant and the offset reconstructs the value exactly.
      offset = lo;
    }
    writer.put(scale);
    writer.put(offset);
    auto* q = reinterpret_cast<std::uint8_t*>(writer.reserve(n).data());
    tensor::micro::quantize_u8(src, q, static_cast<std::int64_t>(n), inv_scale, zero_point);

    if (error_feedback) {
      // residual = acc - dequant(own code): exactly the error this rank's
      // contribution carries, re-injected on the next step.
      float* res = residual->data();
      for (std::size_t i = 0; i < n; ++i) {
        res[i] = src[i] - (offset + static_cast<float>(q[i]) * scale);
      }
    }
  }
}

void GradientCompressor::encode_topk(std::span<const Chunk> chunks, float topk_ratio,
                                     bool error_feedback) {
  util::wire::Writer writer(wire_);
  for (const Chunk& chunk : chunks) {
    const std::size_t n = chunk.data.size();
    const float* src = chunk.data.data();
    std::vector<float>* residual = nullptr;
    if (error_feedback) {
      residual = &residual_for(*chunk.name, n);
      acc_.resize(n);
      const float* res = residual->data();
      for (std::size_t i = 0; i < n; ++i) acc_[i] = chunk.data[i] + res[i];
      src = acc_.data();
    }

    const std::size_t k = topk_k(n, topk_ratio);
    // Selection keys: |v|, with NaN promoted to +inf so (a) the
    // comparator stays a strict weak order and (b) a NaN gradient is
    // surfaced (sent on the wire) instead of silently parked forever in
    // the residual — matching what an uncompressed allreduce would do.
    mag_scratch_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const float v = src[i];
      mag_scratch_[i] = std::isnan(v) ? std::numeric_limits<float>::infinity()
                                      : std::fabs(v);
    }
    index_scratch_.resize(n);
    std::iota(index_scratch_.begin(), index_scratch_.end(), 0u);
    const auto by_magnitude = [this](std::uint32_t a, std::uint32_t b) {
      const float ma = mag_scratch_[a];
      const float mb = mag_scratch_[b];
      if (ma != mb) return ma > mb;
      return a < b;  // deterministic tie-break
    };
    if (k < n) {
      std::nth_element(index_scratch_.begin(),
                       index_scratch_.begin() + static_cast<std::ptrdiff_t>(k),
                       index_scratch_.end(), by_magnitude);
    }
    // Ascending index order on the wire: deterministic layout regardless
    // of nth_element's internal ordering, sequential decode access.
    std::sort(index_scratch_.begin(), index_scratch_.begin() + static_cast<std::ptrdiff_t>(k));

    writer.put(static_cast<std::uint32_t>(k));
    for (std::size_t j = 0; j < k; ++j) {
      const std::uint32_t index = index_scratch_[j];
      writer.put(index);
      writer.put(src[index]);  // exact fp32: selected values are lossless
    }

    if (error_feedback) {
      // Unselected mass is the residual; selected entries were sent
      // exactly, so they owe nothing.
      residual->assign(src, src + n);
      float* res = residual->data();
      for (std::size_t j = 0; j < k; ++j) res[index_scratch_[j]] = 0.0f;
    }
  }
}

void GradientCompressor::decode_average(CompressionAlgo algo, std::span<const Chunk> chunks,
                                        std::span<const std::byte> gathered, int world) {
  if (world <= 0) throw std::invalid_argument("hvd compress: world must be positive");
  if (gathered.size() % static_cast<std::size_t>(world) != 0) {
    throw std::invalid_argument("hvd compress: gathered size not divisible by world");
  }
  const std::size_t blob_bytes = gathered.size() / static_cast<std::size_t>(world);

  for (const Chunk& chunk : chunks) {
    std::fill(chunk.data.begin(), chunk.data.end(), 0.0f);
  }
  // Rank-major accumulation: every rank sums contributions in the same
  // order (0..world-1), so the averaged floats are bitwise identical on
  // all replicas.
  for (int rank = 0; rank < world; ++rank) {
    const auto blob = gathered.subspan(static_cast<std::size_t>(rank) * blob_bytes, blob_bytes);
    util::wire::Reader reader(blob, "hvd compress blob");
    for (const Chunk& chunk : chunks) {
      float* out = chunk.data.data();
      const std::size_t n = chunk.data.size();
      if (algo == CompressionAlgo::kInt8) {
        const auto scale = reader.get<float>("int8 scale");
        const auto offset = reader.get<float>("int8 offset");
        const auto* q = reinterpret_cast<const std::uint8_t*>(reader.take(n, "int8 codes").data());
        for (std::size_t i = 0; i < n; ++i) {
          out[i] += offset + static_cast<float>(q[i]) * scale;
        }
      } else if (algo == CompressionAlgo::kTopK) {
        const auto k = reader.get<std::uint32_t>("top-k count");
        for (std::uint32_t j = 0; j < k; ++j) {
          const auto index = reader.get<std::uint32_t>("top-k index");
          const auto value = reader.get<float>("top-k value");
          if (index >= n) throw std::runtime_error("hvd compress: top-k index out of range");
          out[index] += value;
        }
      } else {
        throw std::logic_error("hvd compress: decode is for int8/topk only");
      }
    }
    reader.expect_end();
  }
  const float inv_world = 1.0f / static_cast<float>(world);
  for (const Chunk& chunk : chunks) {
    for (float& x : chunk.data) x *= inv_world;
  }
}

}  // namespace dlscale::hvd
