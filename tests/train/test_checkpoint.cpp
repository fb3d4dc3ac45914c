#include "dlscale/train/checkpoint.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "dlscale/models/deeplab.hpp"
#include "dlscale/train/trainer.hpp"
#include "dlscale/util/wire.hpp"
#include "../support/temp_file.hpp"

namespace dt = dlscale::train;
namespace dmo = dlscale::models;

using dlscale::testing::TempFile;

TEST(Checkpoint, SaveLoadRoundTrip) {
  TempFile file("dlscale_ckpt_roundtrip.bin");
  dlscale::util::Rng rng_a(1), rng_b(2);
  dmo::MiniDeepLabV3Plus source({.input_size = 16, .width = 4}, rng_a);
  dmo::MiniDeepLabV3Plus target({.input_size = 16, .width = 4}, rng_b);

  dt::save_checkpoint(source.parameters(), file.path);
  dt::load_checkpoint(target.parameters(), file.path);

  const auto src_params = source.parameters();
  const auto dst_params = target.parameters();
  for (std::size_t i = 0; i < src_params.size(); ++i) {
    for (std::size_t j = 0; j < src_params[i]->numel(); ++j) {
      ASSERT_FLOAT_EQ(src_params[i]->value[j], dst_params[i]->value[j])
          << src_params[i]->name;
    }
  }
}

TEST(Checkpoint, MismatchedArchitectureThrows) {
  TempFile file("dlscale_ckpt_mismatch.bin");
  dlscale::util::Rng rng(1);
  dmo::MiniDeepLabV3Plus small({.input_size = 16, .width = 4}, rng);
  dmo::MiniDeepLabV3Plus big({.input_size = 16, .width = 8}, rng);
  dt::save_checkpoint(small.parameters(), file.path);
  EXPECT_THROW(dt::load_checkpoint(big.parameters(), file.path), std::runtime_error);
}

TEST(Checkpoint, MissingFileThrows) {
  dlscale::util::Rng rng(1);
  dmo::MiniDeepLabV3Plus model({.input_size = 16, .width = 4}, rng);
  EXPECT_THROW(dt::load_checkpoint(model.parameters(), "/nonexistent/dir/ckpt.bin"),
               std::runtime_error);
}

namespace {

dt::TrainConfig trainer_config() {
  dt::TrainConfig config;
  config.model = {.in_channels = 3, .num_classes = 4, .input_size = 16, .width = 4};
  config.dataset = {.image_size = 16, .num_classes = 4, .max_shapes = 2, .noise = 0.1f,
                    .seed = 99};
  config.train_samples = 16;
  config.eval_samples = 8;
  config.batch_per_rank = 2;
  config.epochs = 2;
  return config;
}

}  // namespace

TEST(Checkpoint, TensorListRoundTripIncludesBuffers) {
  // save_tensors/load_tensors carry non-parameter state (BatchNorm
  // running stats) that the parameter-only wrappers skip.
  TempFile file("dlscale_ckpt_tensors.bin");
  dlscale::util::Rng rng_a(1), rng_b(2);
  dmo::MiniDeepLabV3Plus source({.input_size = 16, .width = 4}, rng_a);
  dmo::MiniDeepLabV3Plus target({.input_size = 16, .width = 4}, rng_b);
  // Perturb source running stats so the round trip is observable.
  auto src_bufs = source.buffers();
  ASSERT_FALSE(src_bufs.empty());
  for (std::size_t i = 0; i < src_bufs.size(); ++i) {
    for (float& v : src_bufs[i].tensor->data()) v += static_cast<float>(i + 1) * 0.125f;
  }
  dt::save_tensors(src_bufs, file.path);
  dt::load_tensors(target.buffers(), file.path);
  const auto dst_bufs = target.buffers();
  ASSERT_EQ(src_bufs.size(), dst_bufs.size());
  for (std::size_t i = 0; i < src_bufs.size(); ++i) {
    EXPECT_EQ(src_bufs[i].name, dst_bufs[i].name);
    for (std::size_t j = 0; j < src_bufs[i].tensor->numel(); ++j) {
      ASSERT_FLOAT_EQ(src_bufs[i].tensor->data()[j], dst_bufs[i].tensor->data()[j])
          << src_bufs[i].name;
    }
  }
}

TEST(Checkpoint, TrainerStateRoundTripContinuesBitwise) {
  // Save mid-training, restore into a FRESH Trainer (different weights,
  // zero momentum, stale running stats), continue: the final epoch must
  // be bitwise identical to an uninterrupted run.
  TempFile file("dlscale_trainer_state.bin");
  const auto config = trainer_config();

  dt::NoComm hook_full;
  dt::Trainer uninterrupted(config, hook_full);
  const auto full_report = uninterrupted.run();
  ASSERT_EQ(full_report.epochs.size(), 2u);

  dt::NoComm hook_first;
  dt::Trainer first_half(config, hook_first);
  const auto epoch0 = first_half.train_epoch();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(epoch0.train_loss),
            std::bit_cast<std::uint64_t>(full_report.epochs[0].train_loss));
  first_half.save_state(file.path);

  dt::NoComm hook_second;
  dt::Trainer restored(config, hook_second);
  restored.load_state(file.path);
  EXPECT_EQ(restored.global_step(), first_half.global_step());
  EXPECT_EQ(restored.next_epoch(), 1);
  const auto resumed_report = restored.run();

  ASSERT_EQ(resumed_report.epochs.size(), 1u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(resumed_report.epochs[0].train_loss),
            std::bit_cast<std::uint64_t>(full_report.epochs[1].train_loss));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(resumed_report.epochs[0].eval_miou),
            std::bit_cast<std::uint64_t>(full_report.epochs[1].eval_miou));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(resumed_report.epochs[0].eval_pixel_accuracy),
            std::bit_cast<std::uint64_t>(full_report.epochs[1].eval_pixel_accuracy));
}

TEST(Checkpoint, TrainerStateRejectsMismatchedArchitecture) {
  TempFile file("dlscale_trainer_state_mismatch.bin");
  const auto config = trainer_config();
  dt::NoComm hook_a;
  dt::Trainer source(config, hook_a);
  source.save_state(file.path);

  auto wide = config;
  wide.model.width = 8;
  dt::NoComm hook_b;
  dt::Trainer target(wide, hook_b);
  EXPECT_THROW(target.load_state(file.path), std::runtime_error);
}

namespace {

/// Error-message matcher: load must fail AND the message must name what
/// went wrong well enough to debug without a hex dump.
void expect_load_error_containing(const std::vector<dlscale::nn::NamedTensor>& tensors,
                                  const std::string& path, const std::string& needle) {
  try {
    dt::load_tensors(tensors, path);
    FAIL() << "expected load_tensors to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

}  // namespace

TEST(Checkpoint, TruncatedDataNamesOffendingTensor) {
  TempFile file("dlscale_ckpt_truncated.bin");
  namespace dten = dlscale::tensor;
  dten::Tensor a = dten::Tensor::full({4, 4}, 1.0f);
  dten::Tensor b = dten::Tensor::full({8}, 2.0f);
  dt::save_tensors({{"layer.a", &a}, {"layer.b", &b}}, file.path);
  // Chop the file mid-way through the SECOND tensor's data.
  const auto full_size = std::filesystem::file_size(file.path);
  std::filesystem::resize_file(file.path, full_size - 8);
  expect_load_error_containing({{"layer.a", &a}, {"layer.b", &b}}, file.path, "layer.b");
}

TEST(Checkpoint, TruncatedHeaderNamesExpectedTensor) {
  TempFile file("dlscale_ckpt_truncated_hdr.bin");
  namespace dten = dlscale::tensor;
  dten::Tensor a = dten::Tensor::full({4}, 1.0f);
  dten::Tensor b = dten::Tensor::full({4}, 2.0f);
  dt::save_tensors({{"first", &a}, {"second", &b}}, file.path);
  // Chop inside the second tensor's name/shape header: tensor "first"
  // occupies 4+5 (len+name) + 4+4 (ndim+dim) + 16 (data) bytes after the
  // 8-byte file header; leave 3 bytes of the second record.
  std::filesystem::resize_file(file.path, 8 + 33 + 3);
  expect_load_error_containing({{"first", &a}, {"second", &b}}, file.path, "second");
}

TEST(Checkpoint, WrongTensorNameNamesBothSides) {
  TempFile file("dlscale_ckpt_wrongname.bin");
  namespace dten = dlscale::tensor;
  dten::Tensor a = dten::Tensor::full({4}, 1.0f);
  dt::save_tensors({{"saved_name", &a}}, file.path);
  expect_load_error_containing({{"expected_name", &a}}, file.path, "expected_name");
  expect_load_error_containing({{"expected_name", &a}}, file.path, "saved_name");
}

TEST(Checkpoint, WrongShapeReportsBothShapes) {
  TempFile file("dlscale_ckpt_wrongshape.bin");
  namespace dten = dlscale::tensor;
  dten::Tensor saved = dten::Tensor::full({2, 3}, 1.0f);
  dten::Tensor live = dten::Tensor::full({3, 2}, 0.0f);
  dt::save_tensors({{"w", &saved}}, file.path);
  expect_load_error_containing({{"w", &live}}, file.path, "(2,3)");
  expect_load_error_containing({{"w", &live}}, file.path, "(3,2)");
}

TEST(Checkpoint, TrailingBytesThrow) {
  TempFile file("dlscale_ckpt_trailing.bin");
  namespace dten = dlscale::tensor;
  dten::Tensor a = dten::Tensor::full({4}, 1.0f);
  dt::save_tensors({{"w", &a}}, file.path);
  {
    std::FILE* f = std::fopen(file.path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char junk[] = "extra";
    std::fwrite(junk, 1, sizeof junk, f);
    std::fclose(f);
  }
  expect_load_error_containing({{"w", &a}}, file.path, "trailing");
}

TEST(Checkpoint, CorruptNameLengthThrows) {
  TempFile file("dlscale_ckpt_badlen.bin");
  {
    std::FILE* f = std::fopen(file.path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const std::uint32_t magic = 0x444C5343, count = 1, name_len = 0xFFFFFFFFu;
    std::fwrite(&magic, sizeof magic, 1, f);
    std::fwrite(&count, sizeof count, 1, f);
    std::fwrite(&name_len, sizeof name_len, 1, f);
    std::fclose(f);
  }
  namespace dten = dlscale::tensor;
  dten::Tensor a = dten::Tensor::full({4}, 1.0f);
  expect_load_error_containing({{"w", &a}}, file.path, "corrupt name length");
}

TEST(Checkpoint, SaveLoadModelRoundTripsParamsAndBuffers) {
  TempFile file("dlscale_ckpt_model.bin");
  dlscale::util::Rng rng_a(1), rng_b(2);
  dmo::MiniDeepLabV3Plus source({.input_size = 16, .width = 4}, rng_a);
  dmo::MiniDeepLabV3Plus target({.input_size = 16, .width = 4}, rng_b);
  // Perturb running stats so buffer transport is observable.
  for (auto& buf : source.buffers()) buf.tensor->fill(0.75f);
  dt::save_model(source.parameters(), source.buffers(), file.path);
  dt::load_model(target.parameters(), target.buffers(), file.path);
  const auto sp = source.parameters(), tp = target.parameters();
  for (std::size_t i = 0; i < sp.size(); ++i) {
    ASSERT_FLOAT_EQ(sp[i]->value[0], tp[i]->value[0]) << sp[i]->name;
  }
  for (auto& buf : target.buffers()) {
    ASSERT_FLOAT_EQ(buf.tensor->data()[0], 0.75f) << buf.name;
  }
}

TEST(Checkpoint, CorruptMagicThrows) {
  TempFile file("dlscale_ckpt_corrupt.bin");
  {
    std::FILE* f = std::fopen(file.path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "not a checkpoint";
    std::fwrite(junk, 1, sizeof junk, f);
    std::fclose(f);
  }
  dlscale::util::Rng rng(1);
  dmo::MiniDeepLabV3Plus model({.input_size = 16, .width = 4}, rng);
  EXPECT_THROW(dt::load_checkpoint(model.parameters(), file.path), std::runtime_error);
}

TEST(Checkpoint, EveryCutNamesTheFieldAndItsOffset) {
  namespace dten = dlscale::tensor;
  dten::Tensor w = dten::Tensor::full({2, 3}, 0.5f);
  dten::Tensor b = dten::Tensor::full({3}, -1.0f);
  dten::Tensor mean = dten::Tensor::full({3}, 0.25f);
  const std::vector<dlscale::nn::NamedTensor> tensors = {
      {"stem.w", &w}, {"stem.b", &b}, {"bn.mean", &mean}};
  for (const dt::CheckpointFormat format : {dt::CheckpointFormat::kFp32,
                                            dt::CheckpointFormat::kBf16}) {
    SCOPED_TRACE(dt::checkpoint_format_name(format));
    TempFile full("dlscale_ckpt_sweep_full.bin");
    dt::save_tensors(tensors, full.path, format);
    std::ifstream in(full.path, std::ios::binary);
    const std::vector<char> bytes(std::istreambuf_iterator<char>(in), {});
    ASSERT_GT(bytes.size(), 20u);
    TempFile cut_file("dlscale_ckpt_sweep_cut.bin");
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      std::ofstream(cut_file.path, std::ios::binary | std::ios::trunc)
          .write(bytes.data(), static_cast<std::streamsize>(cut));
      try {
        dt::load_tensors(tensors, cut_file.path);
        FAIL() << "cut at " << cut << " loaded";
      } catch (const dlscale::util::wire::DecodeError& error) {
        EXPECT_FALSE(error.field.empty()) << "cut " << cut;
        EXPECT_LE(error.offset, cut) << "cut " << cut;
        const std::string message = error.what();
        EXPECT_NE(message.find(error.field), std::string::npos) << message;
        EXPECT_NE(message.find("at byte " + std::to_string(error.offset)), std::string::npos)
            << message;
      }
    }
  }
}
