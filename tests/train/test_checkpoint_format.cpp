// Checkpoint format versioning: fp32 saves stay byte-identical to the
// original v1 layout (old files keep loading forever), bf16 saves carry
// the v2 sentinel header and halve the payload, loaders auto-detect, and
// format errors name what was expected vs found.
#include "dlscale/train/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dlscale/models/deeplab.hpp"
#include "dlscale/util/bf16.hpp"
#include "dlscale/util/rng.hpp"
#include "../support/temp_file.hpp"

namespace dtr = dlscale::train;
namespace dmo = dlscale::models;
namespace du = dlscale::util;

using dlscale::testing::TempFile;

namespace {

dmo::MiniDeepLabV3Plus small_model(std::uint64_t seed) {
  du::Rng rng(seed);
  return dmo::MiniDeepLabV3Plus({.input_size = 16, .width = 4}, rng);
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

TEST(CheckpointFormat, Fp32FilesKeepTheLegacyV1Layout) {
  TempFile file("dlscale_ckpt_v1_layout.bin");
  auto model = small_model(1);
  dtr::save_model(model.parameters(), model.buffers(), file.path);
  EXPECT_EQ(dtr::peek_checkpoint_format(file.path), dtr::CheckpointFormat::kFp32);
  // Byte 4..8 must be the tensor count, NOT a version sentinel: that is
  // what keeps pre-versioning readers working on new fp32 files.
  const std::vector<char> bytes = slurp(file.path);
  ASSERT_GE(bytes.size(), 8u);
  std::uint32_t word = 0;
  std::memcpy(&word, bytes.data() + 4, 4);
  EXPECT_EQ(word, model.parameters().size() + model.buffers().size());
}

TEST(CheckpointFormat, Bf16RoundTripWidensExactly) {
  TempFile fp32_file("dlscale_ckpt_fmt_fp32.bin");
  TempFile bf16_file("dlscale_ckpt_fmt_bf16.bin");
  auto source = small_model(2);
  dtr::save_model(source.parameters(), source.buffers(), fp32_file.path);
  dtr::save_model(source.parameters(), source.buffers(), bf16_file.path,
                  dtr::CheckpointFormat::kBf16);
  EXPECT_EQ(dtr::peek_checkpoint_format(bf16_file.path), dtr::CheckpointFormat::kBf16);
  // Roughly half the tensor payload (plus the small shared header/names).
  EXPECT_LT(std::filesystem::file_size(bf16_file.path),
            std::filesystem::file_size(fp32_file.path) * 3 / 4);

  auto target = small_model(3);
  dtr::load_model(target.parameters(), target.buffers(), bf16_file.path);
  const auto src = source.parameters();
  const auto dst = target.parameters();
  ASSERT_EQ(src.size(), dst.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    for (std::size_t j = 0; j < src[i]->numel(); ++j) {
      // Loaded value == the bf16 rounding of the saved value, exactly.
      const float expect = du::bf16_to_float(du::float_to_bf16(src[i]->value[j]));
      ASSERT_EQ(dst[i]->value[j], expect) << src[i]->name << "[" << j << "]";
    }
  }
}

TEST(CheckpointFormat, Bf16LoadValidatesNamesAndShapesLikeV1) {
  TempFile file("dlscale_ckpt_fmt_mismatch.bin");
  auto small = small_model(4);
  dtr::save_model(small.parameters(), small.buffers(), file.path,
                  dtr::CheckpointFormat::kBf16);
  du::Rng rng(5);
  dmo::MiniDeepLabV3Plus big({.input_size = 16, .width = 8}, rng);
  EXPECT_THROW(dtr::load_model(big.parameters(), big.buffers(), file.path),
               std::runtime_error);
}

TEST(CheckpointFormat, UnsupportedVersionErrorNamesExpectedAndFound) {
  TempFile file("dlscale_ckpt_fmt_future.bin");
  {
    std::ofstream out(file.path, std::ios::binary);
    const std::uint32_t magic = 0x444C5343, sentinel = 0xFFFFFFFFu, version = 9;
    out.write(reinterpret_cast<const char*>(&magic), 4);
    out.write(reinterpret_cast<const char*>(&sentinel), 4);
    out.write(reinterpret_cast<const char*>(&version), 4);
  }
  auto model = small_model(6);
  try {
    dtr::load_model(model.parameters(), model.buffers(), file.path);
    FAIL() << "expected a format error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 9"), std::string::npos) << what;
    EXPECT_NE(what.find("fp32"), std::string::npos) << what;
    EXPECT_NE(what.find("bf16"), std::string::npos) << what;
  }
  EXPECT_THROW(dtr::peek_checkpoint_format(file.path), std::runtime_error);
}

TEST(CheckpointFormat, FormatNamesAreStable) {
  EXPECT_STREQ(dtr::checkpoint_format_name(dtr::CheckpointFormat::kFp32), "fp32");
  EXPECT_STREQ(dtr::checkpoint_format_name(dtr::CheckpointFormat::kBf16), "bf16");
}
