// Dense float32 tensor with NCHW conventions.
//
// This is the numeric substrate for the *real trainable* mini DeepLab-v3+
// (experiment E6: accuracy parity of distributed vs single-rank
// training). Value semantics, contiguous row-major storage, explicit
// shapes. Ops live in ops.hpp as free functions with hand-written
// backward passes.
//
// Storage is dual-mode (DESIGN.md §10): owning (heap-backed
// std::vector, the default) or *borrowed* from a util::Arena when the
// constructing thread has an ArenaScope active. Borrowed tensors keep
// full value semantics — copies allocate fresh arena storage, moves
// transfer the borrow — but their bytes belong to the arena: they stay
// valid until the arena owner resets, and are never freed individually
// (the Tensor destructor only reports the release to a tracing arena so
// the memory planner learns liveness intervals).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "dlscale/util/rng.hpp"

namespace dlscale::util {
class Arena;
}  // namespace dlscale::util

namespace dlscale::tensor {

/// Up-to-4D shape, stored inline (no heap) so Tensor construction in the
/// steady state touches only arena bytes. Converts implicitly from the
/// brace lists and std::vector<int> the call sites already use.
class Shape {
 public:
  static constexpr std::size_t kMaxDims = 4;

  Shape() = default;
  Shape(std::initializer_list<int> dims) { assign(dims.begin(), dims.size()); }
  Shape(const std::vector<int>& dims) { assign(dims.data(), dims.size()); }  // NOLINT(google-explicit-constructor)

  [[nodiscard]] std::size_t size() const noexcept { return ndim_; }
  [[nodiscard]] bool empty() const noexcept { return ndim_ == 0; }
  [[nodiscard]] int operator[](std::size_t i) const noexcept { return dims_[i]; }
  [[nodiscard]] int at(std::size_t i) const;
  /// Product of the dims. Throws std::invalid_argument on a non-positive
  /// dim and std::overflow_error when the product does not fit size_t;
  /// both messages name the shape.
  [[nodiscard]] std::size_t numel() const;
  /// "(d0,d1,...)", the form errors name shapes in.
  [[nodiscard]] std::string str() const;
  [[nodiscard]] const int* begin() const noexcept { return dims_.data(); }
  [[nodiscard]] const int* end() const noexcept { return dims_.data() + ndim_; }

  friend bool operator==(const Shape& a, const Shape& b) noexcept {
    if (a.ndim_ != b.ndim_) return false;
    for (std::size_t i = 0; i < a.ndim_; ++i) {
      if (a.dims_[i] != b.dims_[i]) return false;
    }
    return true;
  }

 private:
  void assign(const int* dims, std::size_t n);

  std::array<int, kMaxDims> dims_{};
  std::uint8_t ndim_ = 0;
};

/// Up-to-4D float tensor, row-major, value semantics.
class Tensor {
 public:
  Tensor() = default;

  /// Allocates a zero-filled tensor of the given shape. Borrows from the
  /// thread's current arena when an ArenaScope is active.
  explicit Tensor(const Shape& shape);

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor();

  /// Shape helpers ------------------------------------------------------
  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] int dim(std::size_t axis) const { return shape_.at(axis); }
  [[nodiscard]] std::size_t ndim() const noexcept { return shape_.size(); }
  [[nodiscard]] std::size_t numel() const noexcept { return numel_; }
  [[nodiscard]] bool empty() const noexcept { return numel_ == 0; }
  /// True when storage is arena-backed (valid until the arena resets).
  [[nodiscard]] bool borrowed() const noexcept { return arena_ != nullptr; }
  [[nodiscard]] std::string shape_str() const;

  /// Returns a reshaped copy view (same data, new shape; element counts
  /// must match).
  [[nodiscard]] Tensor reshaped(const Shape& shape) const;

  /// Data access ---------------------------------------------------------
  [[nodiscard]] std::span<float> data() noexcept { return {ptr_, numel_}; }
  [[nodiscard]] std::span<const float> data() const noexcept { return {ptr_, numel_}; }
  [[nodiscard]] float* ptr() noexcept { return ptr_; }
  [[nodiscard]] const float* ptr() const noexcept { return ptr_; }

  /// 4D accessors (N, C, H, W); bounds unchecked in release builds.
  [[nodiscard]] float& at(int n, int c, int h, int w) {
    return ptr_[index4(n, c, h, w)];
  }
  [[nodiscard]] float at(int n, int c, int h, int w) const {
    return ptr_[index4(n, c, h, w)];
  }
  /// 2D accessor (rows, cols).
  [[nodiscard]] float& at(int r, int c) {
    return ptr_[static_cast<std::size_t>(r) * shape_[1] + c];
  }
  [[nodiscard]] float at(int r, int c) const {
    return ptr_[static_cast<std::size_t>(r) * shape_[1] + c];
  }
  [[nodiscard]] float& operator[](std::size_t i) { return ptr_[i]; }
  [[nodiscard]] float operator[](std::size_t i) const { return ptr_[i]; }

  /// Mutation ------------------------------------------------------------
  void fill(float value);
  void zero() { fill(0.0f); }
  /// In-place elementwise: this += other (same shape).
  void add_(const Tensor& other);
  /// In-place scale: this *= s.
  void scale_(float s);

  /// Reductions ----------------------------------------------------------
  [[nodiscard]] float sum() const;
  [[nodiscard]] float abs_max() const;

  /// Factories -----------------------------------------------------------
  static Tensor zeros(const Shape& shape) { return Tensor(shape); }
  static Tensor full(const Shape& shape, float value);
  /// Gaussian init, N(0, stddev^2), deterministic from rng.
  static Tensor randn(const Shape& shape, util::Rng& rng, float stddev = 1.0f);
  /// Kaiming/He initialisation for a conv weight (O, C, kh, kw).
  static Tensor he_init(const Shape& shape, util::Rng& rng);

 private:
  [[nodiscard]] std::size_t index4(int n, int c, int h, int w) const noexcept {
    return ((static_cast<std::size_t>(n) * shape_[1] + c) * shape_[2] + h) * shape_[3] + w;
  }

  void init_storage(bool zero_fill);
  void release_storage() noexcept;

  Shape shape_;
  std::size_t numel_ = 0;
  float* ptr_ = nullptr;
  std::vector<float> owned_;       ///< backing store in owning mode
  util::Arena* arena_ = nullptr;   ///< non-null when borrowed
};

/// True when shapes match exactly.
bool same_shape(const Tensor& a, const Tensor& b) noexcept;

}  // namespace dlscale::tensor
