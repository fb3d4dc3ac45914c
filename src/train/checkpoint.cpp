#include "dlscale/train/checkpoint.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <stdexcept>

#include "dlscale/util/bf16.hpp"
#include "dlscale/util/wire.hpp"

namespace dlscale::train {

namespace {

constexpr std::uint32_t kMagic = 0x444C5343;  // "DLSC"

// The word after the magic is the tensor count in v1 files. No real model
// has 2^32-1 tensors, so this value marks a versioned (v2+) header instead.
constexpr std::uint32_t kVersionSentinel = 0xFFFFFFFFu;
constexpr std::uint32_t kVersionBf16 = 2;
// Dtype codes inside a v2 header. fp32 files stay on the v1 layout, but a
// future version could carry either dtype, so the code space names both.
constexpr std::uint32_t kDtypeFp32 = 0;
constexpr std::uint32_t kDtypeBf16 = 1;

// Anything past this is certainly a corrupt length field, not a real name.
constexpr std::uint32_t kMaxNameLen = 4096;
constexpr std::uint32_t kMaxNdim = 8;

template <typename ShapeLike>  // std::vector<int> or tensor::Shape
std::string shape_str(const ShapeLike& shape) {
  std::string s = "(";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i != 0) s += ",";
    s += std::to_string(shape[i]);
  }
  return s + ")";
}

std::vector<nn::NamedTensor> as_named(const std::vector<nn::Parameter*>& params) {
  std::vector<nn::NamedTensor> tensors;
  tensors.reserve(params.size());
  for (nn::Parameter* p : params) tensors.push_back({p->name, &p->value});
  return tensors;
}

std::vector<nn::NamedTensor> model_state(const std::vector<nn::Parameter*>& params,
                                         const std::vector<nn::NamedTensor>& buffers) {
  std::vector<nn::NamedTensor> tensors = as_named(params);
  tensors.insert(tensors.end(), buffers.begin(), buffers.end());
  return tensors;
}

/// Consume the magic word and everything up to (and including) the tensor
/// count, auto-detecting v1-fp32 vs v2-bf16. Unknown versions and dtypes
/// throw, naming what this build supports vs what the file claims.
struct Header {
  CheckpointFormat format;
  std::uint32_t count;
};

Header read_header(util::wire::Reader& in, const std::string& path) {
  if (in.get<std::uint32_t>("magic") != kMagic) {
    throw std::runtime_error("checkpoint: bad magic in '" + path + "'");
  }
  const auto word = in.get<std::uint32_t>("tensor count");
  if (word != kVersionSentinel) {
    return {CheckpointFormat::kFp32, word};  // legacy v1: the word IS the count
  }
  const auto version = in.get<std::uint32_t>("format version");
  if (version != kVersionBf16) {
    throw std::runtime_error("checkpoint: unsupported format version " + std::to_string(version) +
                             " in '" + path + "' (this build reads v1 fp32 and v" +
                             std::to_string(kVersionBf16) + " bf16 files)");
  }
  const auto dtype = in.get<std::uint32_t>("storage dtype");
  if (dtype != kDtypeBf16 && dtype != kDtypeFp32) {
    throw std::runtime_error("checkpoint: unknown storage dtype " + std::to_string(dtype) +
                             " in '" + path + "' (expected " + std::to_string(kDtypeFp32) +
                             " = fp32 or " + std::to_string(kDtypeBf16) + " = bf16)");
  }
  const CheckpointFormat format =
      dtype == kDtypeBf16 ? CheckpointFormat::kBf16 : CheckpointFormat::kFp32;
  return {format, in.get<std::uint32_t>("tensor count")};
}

}  // namespace

const char* checkpoint_format_name(CheckpointFormat format) noexcept {
  return format == CheckpointFormat::kBf16 ? "bf16" : "fp32";
}

CheckpointFormat peek_checkpoint_format(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("checkpoint: cannot open '" + path + "'");
  const std::string record = "checkpoint '" + path + "'";
  util::wire::Reader in(file, record);
  return read_header(in, path).format;
}

void save_tensors(const std::vector<nn::NamedTensor>& tensors, const std::string& path,
                  CheckpointFormat format) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) throw std::runtime_error("checkpoint: cannot open '" + path + "' for writing");
  // The header, then one tensor record at a time: the buffer never holds
  // more than the largest tensor.
  std::vector<std::byte> bytes;
  const auto flush = [&] {
    file.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    bytes.clear();
  };
  util::wire::Writer out(bytes);
  out.put(kMagic);
  if (format == CheckpointFormat::kBf16) {
    out.put(kVersionSentinel);
    out.put(kVersionBf16);
    out.put(kDtypeBf16);
  }
  out.put(static_cast<std::uint32_t>(tensors.size()));
  flush();
  std::vector<std::uint16_t> narrow;
  for (const nn::NamedTensor& t : tensors) {
    out.put_string<std::uint32_t>("checkpoint tensor name", t.name, kMaxNameLen);
    out.put(static_cast<std::uint32_t>(t.tensor->shape().size()));
    for (int d : t.tensor->shape()) out.put(static_cast<std::int32_t>(d));
    const std::size_t numel = static_cast<std::size_t>(t.tensor->numel());
    if (format == CheckpointFormat::kBf16) {
      narrow.resize(numel);
      util::floats_to_bf16s(t.tensor->ptr(), narrow.data(), numel);
      out.put_bytes(std::as_bytes(std::span<const std::uint16_t>(narrow)));
    } else {
      out.put_bytes(std::as_bytes(std::span<const float>(t.tensor->ptr(), numel)));
    }
    flush();
  }
  if (!file) throw std::runtime_error("checkpoint: write failed for '" + path + "'");
}

void load_tensors(const std::vector<nn::NamedTensor>& tensors, const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("checkpoint: cannot open '" + path + "'");
  const std::string record = "checkpoint '" + path + "'";
  util::wire::Reader in(file, record);
  const Header header = read_header(in, path);
  const auto count = header.count;
  if (count != tensors.size()) {
    throw std::runtime_error("checkpoint: parameter count mismatch (file has " +
                             std::to_string(count) + ", model has " +
                             std::to_string(tensors.size()) + ")");
  }
  // Every error below names the offending tensor so a bad checkpoint is
  // diagnosable without a hex dump — the serving hot-reload path surfaces
  // these messages verbatim while keeping the old replicas live.
  std::vector<std::uint16_t> narrow;
  for (const nn::NamedTensor& t : tensors) {
    const auto name_len = in.get<std::uint32_t>("name length of '" + t.name + "'");
    if (name_len == 0 || name_len > kMaxNameLen) {
      throw std::runtime_error("checkpoint: corrupt name length (" + std::to_string(name_len) +
                               ") where parameter '" + t.name + "' was expected");
    }
    const auto name_bytes = in.take(name_len, "name of '" + t.name + "'");
    const std::string name(reinterpret_cast<const char*>(name_bytes.data()), name_len);
    if (name != t.name) {
      throw std::runtime_error("checkpoint: expected parameter '" + t.name + "', found '" +
                               name + "'");
    }
    const auto ndim = in.get<std::uint32_t>("rank of '" + name + "'");
    if (ndim > kMaxNdim) {
      throw std::runtime_error("checkpoint: corrupt rank (" + std::to_string(ndim) + ") for '" +
                               name + "'");
    }
    std::vector<int> shape(ndim);
    for (auto& d : shape) d = in.get<std::int32_t>("shape of '" + name + "'");
    if (shape != t.tensor->shape()) {
      throw std::runtime_error("checkpoint: shape mismatch for '" + name + "': file has " +
                               shape_str(shape) + ", model has " + shape_str(t.tensor->shape()));
    }
    const std::size_t numel = static_cast<std::size_t>(t.tensor->numel());
    if (header.format == CheckpointFormat::kBf16) {
      const auto data = in.take(numel * sizeof(std::uint16_t), "data of '" + name + "'");
      narrow.resize(numel);
      std::memcpy(narrow.data(), data.data(), data.size());
      util::bf16s_to_floats(narrow.data(), t.tensor->ptr(), numel);
    } else {
      const auto data = in.take(numel * sizeof(float), "data of '" + name + "'");
      std::memcpy(t.tensor->ptr(), data.data(), data.size());
    }
  }
  // A well-formed file ends exactly after the last tensor; leftover bytes
  // mean the file and the model disagree about what was saved.
  in.expect_end();
}

void save_checkpoint(const std::vector<nn::Parameter*>& params, const std::string& path) {
  save_tensors(as_named(params), path);
}

void load_checkpoint(const std::vector<nn::Parameter*>& params, const std::string& path) {
  load_tensors(as_named(params), path);
}

void save_model(const std::vector<nn::Parameter*>& params,
                const std::vector<nn::NamedTensor>& buffers, const std::string& path,
                CheckpointFormat format) {
  save_tensors(model_state(params, buffers), path, format);
}

void load_model(const std::vector<nn::Parameter*>& params,
                const std::vector<nn::NamedTensor>& buffers, const std::string& path) {
  load_tensors(model_state(params, buffers), path);
}

}  // namespace dlscale::train
