#include "dlscale/tensor/tensor.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "dlscale/util/arena.hpp"

namespace dlscale::tensor {

std::string Shape::str() const {
  std::string out = "(";
  for (const int* d = begin(); d != end(); ++d) {
    if (d != begin()) out += ",";
    out += std::to_string(*d);
  }
  return out + ")";
}

std::size_t Shape::numel() const {
  std::size_t n = 1;
  for (const int d : *this) {
    if (d <= 0) {
      throw std::invalid_argument("shape " + str() + ": dimensions must be positive");
    }
    if (n > std::numeric_limits<std::size_t>::max() / static_cast<std::size_t>(d)) {
      throw std::overflow_error("shape " + str() + ": element count overflows size_t");
    }
    n *= static_cast<std::size_t>(d);
  }
  return n;
}

void Shape::assign(const int* dims, std::size_t n) {
  if (n > kMaxDims) throw std::invalid_argument("Shape: at most 4 dimensions");
  ndim_ = static_cast<std::uint8_t>(n);
  for (std::size_t i = 0; i < n; ++i) dims_[i] = dims[i];
}

int Shape::at(std::size_t i) const {
  if (i >= ndim_) throw std::out_of_range("Shape: axis out of range");
  return dims_[i];
}

void Tensor::init_storage(bool zero_fill) {
  if (util::Arena* arena = util::current_arena()) {
    arena_ = arena;
    ptr_ = arena->alloc<float>(numel_);
    if (zero_fill) std::memset(ptr_, 0, numel_ * sizeof(float));
  } else {
    arena_ = nullptr;
    if (zero_fill) {
      owned_.assign(numel_, 0.0f);
    } else {
      owned_.resize(numel_);
    }
    ptr_ = owned_.data();
  }
}

void Tensor::release_storage() noexcept {
  if (arena_ != nullptr) {
    if (arena_->tracing()) arena_->note_release(ptr_);
    arena_ = nullptr;
  }
  ptr_ = nullptr;
  numel_ = 0;
  // owned_ keeps its capacity for reuse by the next assignment.
}

Tensor::Tensor(const Shape& shape) : shape_(shape), numel_(shape.numel()) {
  init_storage(/*zero_fill=*/true);
}

Tensor::Tensor(const Tensor& other) : shape_(other.shape_), numel_(other.numel_) {
  if (numel_ == 0) return;
  init_storage(/*zero_fill=*/false);
  std::memcpy(ptr_, other.ptr_, numel_ * sizeof(float));
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  release_storage();
  shape_ = other.shape_;
  numel_ = other.numel_;
  if (numel_ != 0) {
    init_storage(/*zero_fill=*/false);
    std::memcpy(ptr_, other.ptr_, numel_ * sizeof(float));
  }
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(other.shape_),
      numel_(other.numel_),
      ptr_(other.ptr_),
      owned_(std::move(other.owned_)),
      arena_(other.arena_) {
  // vector move keeps the heap buffer, so ptr_ stays valid in owning
  // mode; in borrowed mode the borrow (and its trace identity) transfers.
  other.shape_ = Shape{};
  other.numel_ = 0;
  other.ptr_ = nullptr;
  other.arena_ = nullptr;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  release_storage();
  shape_ = other.shape_;
  numel_ = other.numel_;
  ptr_ = other.ptr_;
  owned_ = std::move(other.owned_);
  arena_ = other.arena_;
  other.shape_ = Shape{};
  other.numel_ = 0;
  other.ptr_ = nullptr;
  other.arena_ = nullptr;
  return *this;
}

Tensor::~Tensor() { release_storage(); }

std::string Tensor::shape_str() const {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i != 0) out << 'x';
    out << shape_[i];
  }
  out << ']';
  return out.str();
}

Tensor Tensor::reshaped(const Shape& shape) const {
  if (shape.numel() != numel_) {
    throw std::invalid_argument("reshaped: element count mismatch");
  }
  Tensor out(*this);
  out.shape_ = shape;
  return out;
}

void Tensor::fill(float value) {
  for (std::size_t i = 0; i < numel_; ++i) ptr_[i] = value;
}

void Tensor::add_(const Tensor& other) {
  if (!same_shape(*this, other)) throw std::invalid_argument("add_: shape mismatch");
  for (std::size_t i = 0; i < numel_; ++i) ptr_[i] += other.ptr_[i];
}

void Tensor::scale_(float s) {
  for (std::size_t i = 0; i < numel_; ++i) ptr_[i] *= s;
}

float Tensor::sum() const {
  double total = 0.0;
  for (std::size_t i = 0; i < numel_; ++i) total += ptr_[i];
  return static_cast<float>(total);
}

float Tensor::abs_max() const {
  float best = 0.0f;
  for (std::size_t i = 0; i < numel_; ++i) best = std::max(best, std::abs(ptr_[i]));
  return best;
}

Tensor Tensor::full(const Shape& shape, float value) {
  Tensor t(shape);
  t.fill(value);
  return t;
}

Tensor Tensor::randn(const Shape& shape, util::Rng& rng, float stddev) {
  Tensor t(shape);
  for (float& x : t.data()) x = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

Tensor Tensor::he_init(const Shape& shape, util::Rng& rng) {
  if (shape.size() != 4) throw std::invalid_argument("he_init: expected (O, C, kh, kw)");
  const double fan_in = static_cast<double>(shape[1]) * shape[2] * shape[3];
  const double stddev = std::sqrt(2.0 / fan_in);
  return randn(shape, rng, static_cast<float>(stddev));
}

bool same_shape(const Tensor& a, const Tensor& b) noexcept { return a.shape() == b.shape(); }

}  // namespace dlscale::tensor
