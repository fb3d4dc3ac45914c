// Trainable miniature DeepLab-v3+.
//
// Architecturally faithful to the paper's model — encoder with strided +
// atrous convolutions, an ASPP head (1x1 branch, multiple dilated 3x3
// branches, global image pooling), and a decoder that upsamples and fuses
// a low-level skip feature — but sized so a CPU can actually train it on
// the synthetic segmentation dataset (experiment E6, accuracy parity of
// distributed vs serial training).
#pragma once

#include <memory>
#include <vector>

#include "dlscale/nn/layers.hpp"
#include "dlscale/util/json.hpp"

namespace dlscale::models {

using nn::Parameter;
using tensor::Tensor;

class MiniDeepLabV3Plus {
 public:
  struct Config {
    int in_channels = 3;
    int num_classes = 6;
    int input_size = 48;  ///< square inputs; must be divisible by 8
    int width = 16;       ///< base channel width
    /// Use Xception-style depthwise-separable encoder blocks (the
    /// paper's actual backbone family) instead of plain convolutions.
    bool separable_backbone = false;

    /// The `model` block of a server config file (http::ModelSpec).
    static constexpr auto json_fields() {
      namespace json = util::json;
      return std::make_tuple(json::field("in_channels", &Config::in_channels),
                             json::field("num_classes", &Config::num_classes),
                             json::field("input_size", &Config::input_size),
                             json::field("width", &Config::width),
                             json::field("separable_backbone", &Config::separable_backbone));
    }
  };

  MiniDeepLabV3Plus(Config config, util::Rng& rng);

  /// Logits of shape (N, num_classes, input_size, input_size).
  Tensor forward(const Tensor& images, bool train);

  /// Backprop from d(loss)/d(logits); accumulates parameter gradients and
  /// returns the (unused) input gradient. When `sink` is non-null, streams
  /// backward costs and finalized gradients in exact reverse parameters()
  /// order (see nn::GradSink).
  Tensor backward(const Tensor& grad_logits, nn::GradSink* sink = nullptr);

  /// All learnable parameters in a stable order (same on every rank).
  [[nodiscard]] std::vector<Parameter*> parameters();

  /// Non-learnable state (BatchNorm running stats) for checkpointing.
  [[nodiscard]] std::vector<nn::NamedTensor> buffers();

  [[nodiscard]] std::size_t parameter_count();
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Convert every layer to the target serving precision in place
  /// (nn/quantized.hpp): one-way, inference-only afterwards. Int8
  /// requires a calibration table populated by eval forwards of THIS
  /// model's weights (layer names key the table). Throws without mutating
  /// any layer when preconditions fail before the first conversion;
  /// kFp32 targets and double conversions throw std::logic_error.
  void convert_precision(nn::Precision target,
                         const nn::CalibrationTable* table = nullptr);
  [[nodiscard]] nn::Precision precision() const noexcept { return precision_; }

  /// Total bytes of backward-pass activation caches currently held, across
  /// every sub-layer plus the model-level skip/branch caches. 0 after an
  /// inference-only forward — the invariant serving replicas depend on.
  [[nodiscard]] std::size_t cache_bytes() const;

 private:
  Config config_;
  nn::Precision precision_ = nn::Precision::kFp32;

  // Encoder. Blocks are plain Conv-BN-ReLU or Xception-style separable
  // units depending on config.separable_backbone.
  nn::ConvBnRelu stem_;                  // /2
  std::unique_ptr<nn::Layer> block1_;    // /4  (low-level feature for the decoder)
  std::unique_ptr<nn::Layer> block2_;    // /8
  std::unique_ptr<nn::Layer> block3_;    // /8, dilation 2 (atrous in lieu of stride)

  // ASPP branches.
  nn::ConvBnRelu aspp_1x1_;
  nn::ConvBnRelu aspp_r2_;
  nn::ConvBnRelu aspp_r4_;
  nn::ConvBnRelu aspp_pool_proj_;
  nn::ConvBnRelu aspp_project_;

  // Decoder.
  nn::ConvBnRelu low_level_proj_;
  nn::ConvBnRelu decoder_conv_;
  nn::Conv2d classifier_;

  // Forward caches for the hand-written skip/branch topology (resize and
  // global-pool backwards need their forward inputs).
  Tensor cache_block3_out_;       // ASPP trunk input (global-pool backward)
  Tensor cache_pool_small_;       // pooled+projected 1x1 feature (resize bwd)
  Tensor cache_aspp_out_;         // projected ASPP output (resize backward)
  Tensor cache_logits_small_;     // pre-upsample logits (final resize bwd)
};

}  // namespace dlscale::models
