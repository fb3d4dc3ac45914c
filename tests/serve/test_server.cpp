#include "dlscale/serve/server.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <thread>
#include <vector>

#include "dlscale/util/rng.hpp"
#include "serve_test_support.hpp"

namespace ds = dlscale::serve;
namespace dt = dlscale::tensor;
namespace dst = dlscale::serve_testing;

namespace {

ds::ServeConfig small_serve_config() {
  ds::ServeConfig config;
  config.model = dst::small_config();
  config.workers = 2;
  config.max_batch = 4;
  config.max_wait_us = 200;
  config.queue_capacity = 64;
  return config;
}

dt::Tensor random_image(dlscale::util::Rng& rng, const dlscale::models::MiniDeepLabV3Plus::Config& m) {
  return dt::Tensor::randn({1, m.in_channels, m.input_size, m.input_size}, rng, 1.0f);
}

}  // namespace

TEST(Server, ServesConcurrentClientsCorrectly) {
  dst::TempFile ckpt("dlscale_serve_basic.bin");
  dst::write_checkpoint(dst::small_config(), /*seed=*/11, ckpt.path);
  auto reference = dst::load_reference(dst::small_config(), ckpt.path);

  ds::Server server(small_serve_config(), ckpt.path);
  dlscale::util::Rng rng(5);
  constexpr int kRequests = 24;
  std::vector<dt::Tensor> images;
  std::vector<std::future<ds::Response>> futures;
  for (int i = 0; i < kRequests; ++i) {
    images.push_back(random_image(rng, dst::small_config()));
    auto f = server.submit(images.back());
    ASSERT_TRUE(f.has_value()) << "request " << i << " rejected under empty load";
    futures.push_back(std::move(*f));
  }
  const int size = dst::small_config().input_size;
  for (int i = 0; i < kRequests; ++i) {
    ds::Response r = futures[static_cast<std::size_t>(i)].get();
    // Served logits must be bitwise what a plain forward produces.
    const dt::Tensor expected = reference.forward(images[static_cast<std::size_t>(i)], false);
    ASSERT_EQ(r.logits.numel(), expected.numel());
    for (std::size_t j = 0; j < expected.numel(); ++j) {
      ASSERT_EQ(r.logits[j], expected[j]) << "request " << i << " elem " << j;
    }
    EXPECT_EQ(static_cast<int>(r.labels.size()), size * size);
    EXPECT_GE(r.batch_size, 1);
    EXPECT_LE(r.batch_size, 4);
    EXPECT_EQ(r.model_version, 1);
    EXPECT_GE(r.total_us, r.queue_us);
  }
  const ds::ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.rejected_full, 0u);
  EXPECT_EQ(stats.rejected_closed, 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.batches, static_cast<std::uint64_t>(kRequests));
  EXPECT_GE(stats.mean_batch_size, 1.0);
  EXPECT_GT(stats.total_p50_us, 0.0);
  EXPECT_GE(stats.total_p99_us, stats.total_p50_us);
}

TEST(Server, RejectsWhenQueueOverflows) {
  dst::TempFile ckpt("dlscale_serve_overflow.bin");
  dst::write_checkpoint(dst::small_config(), 11, ckpt.path);
  ds::ServeConfig config = small_serve_config();
  config.workers = 1;
  config.max_batch = 1;
  config.queue_capacity = 2;
  ds::Server server(config, ckpt.path);
  dlscale::util::Rng rng(6);
  // Flood far past capacity; with a 1-deep worker and a 2-deep queue some
  // must be shed, and every accepted one must complete.
  std::vector<std::future<ds::Response>> accepted;
  int rejected = 0;
  for (int i = 0; i < 64; ++i) {
    ds::RejectReason why = ds::RejectReason::kNone;
    auto f = server.submit(random_image(rng, config.model), &why);
    if (f.has_value()) {
      EXPECT_EQ(why, ds::RejectReason::kNone);
      accepted.push_back(std::move(*f));
    } else {
      // Overflow rejections are kQueueFull, never kClosed.
      EXPECT_EQ(why, ds::RejectReason::kQueueFull);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  for (auto& f : accepted) (void)f.get();
  const ds::ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_full, static_cast<std::uint64_t>(rejected));
  EXPECT_EQ(stats.rejected_closed, 0u);
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(accepted.size()));
}

TEST(Server, ShutdownDrainsAdmittedRequests) {
  dst::TempFile ckpt("dlscale_serve_drain.bin");
  dst::write_checkpoint(dst::small_config(), 11, ckpt.path);
  ds::ServeConfig config = small_serve_config();
  config.workers = 1;
  config.queue_capacity = 32;
  dlscale::util::Rng rng(7);
  std::vector<std::future<ds::Response>> futures;
  {
    ds::Server server(config, ckpt.path);
    for (int i = 0; i < 8; ++i) {
      auto f = server.submit(random_image(rng, config.model));
      ASSERT_TRUE(f.has_value());
      futures.push_back(std::move(*f));
    }
    server.shutdown();
    // After shutdown no new work is admitted, and the rejection says WHY:
    // closed, not full — the HTTP layer turns this into 503 vs 429.
    ds::RejectReason why = ds::RejectReason::kNone;
    EXPECT_FALSE(server.submit(random_image(rng, config.model), &why).has_value());
    EXPECT_EQ(why, ds::RejectReason::kClosed);
    const ds::ServerStats stats = server.stats();
    EXPECT_EQ(stats.rejected_closed, 1u);
    EXPECT_EQ(stats.rejected_full, 0u);
  }
  // ...but everything admitted before shutdown was answered, not dropped.
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    (void)f.get();
  }
}

TEST(Server, HotReloadSwapsWeightsAtomically) {
  dst::TempFile ckpt_a("dlscale_serve_reload_a.bin");
  dst::TempFile ckpt_b("dlscale_serve_reload_b.bin");
  dst::write_checkpoint(dst::small_config(), 11, ckpt_a.path);
  dst::write_checkpoint(dst::small_config(), 22, ckpt_b.path);
  auto ref_a = dst::load_reference(dst::small_config(), ckpt_a.path);
  auto ref_b = dst::load_reference(dst::small_config(), ckpt_b.path);

  ds::Server server(small_serve_config(), ckpt_a.path);
  dlscale::util::Rng rng(8);
  const dt::Tensor image = random_image(rng, dst::small_config());
  const dt::Tensor expect_a = ref_a.forward(image, false);
  const dt::Tensor expect_b = ref_b.forward(image, false);

  auto before = server.submit(image);
  ASSERT_TRUE(before.has_value());
  ds::Response r1 = before->get();
  EXPECT_EQ(r1.model_version, 1);
  for (std::size_t j = 0; j < expect_a.numel(); ++j) ASSERT_EQ(r1.logits[j], expect_a[j]);

  server.reload(ckpt_b.path);
  EXPECT_EQ(server.model_version(), 2);
  auto after = server.submit(image);
  ASSERT_TRUE(after.has_value());
  ds::Response r2 = after->get();
  EXPECT_EQ(r2.model_version, 2);
  for (std::size_t j = 0; j < expect_b.numel(); ++j) ASSERT_EQ(r2.logits[j], expect_b[j]);
  EXPECT_EQ(server.stats().reloads, 1u);
}

TEST(Server, CorruptReloadKeepsOldWeightsServing) {
  dst::TempFile ckpt("dlscale_serve_reload_bad.bin");
  dst::TempFile bad("dlscale_serve_reload_bad_file.bin");
  dst::write_checkpoint(dst::small_config(), 11, ckpt.path);
  {
    std::ofstream out(bad.path, std::ios::binary);
    out << "definitely not a checkpoint";
  }
  auto reference = dst::load_reference(dst::small_config(), ckpt.path);
  ds::Server server(small_serve_config(), ckpt.path);
  EXPECT_THROW(server.reload(bad.path), std::runtime_error);
  EXPECT_EQ(server.model_version(), 1);  // generation unchanged
  EXPECT_EQ(server.stats().reloads, 0u);
  // And it still answers, with the original weights, bitwise.
  dlscale::util::Rng rng(9);
  const dt::Tensor image = random_image(rng, dst::small_config());
  const dt::Tensor expected = reference.forward(image, false);
  auto f = server.submit(image);
  ASSERT_TRUE(f.has_value());
  const ds::Response r = f->get();
  for (std::size_t j = 0; j < expected.numel(); ++j) ASSERT_EQ(r.logits[j], expected[j]);
}

TEST(Server, RejectsWrongImageShape) {
  dst::TempFile ckpt("dlscale_serve_shape.bin");
  dst::write_checkpoint(dst::small_config(), 11, ckpt.path);
  ds::ServeConfig config = small_serve_config();
  config.name = "seg-test";
  ds::Server server(config, ckpt.path);
  // The rejection is a named ShapeError: which model, expected vs got.
  try {
    (void)server.submit(dt::Tensor({1, 3, 8, 8}));
    FAIL() << "wrong spatial size accepted";
  } catch (const ds::ShapeError& e) {
    EXPECT_EQ(e.model(), "seg-test");
    EXPECT_EQ(e.expected(), dt::Shape({1, 3, 16, 16}));
    EXPECT_EQ(e.got(), dt::Shape({1, 3, 8, 8}));
    EXPECT_NE(std::string(e.what()).find("seg-test"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("(1,3,8,8)"), std::string::npos);
  }
  // ShapeError derives std::invalid_argument, so old catch sites still work.
  EXPECT_THROW((void)server.submit(dt::Tensor({2, 3, 16, 16})), std::invalid_argument);
  // (C,S,S) is auto-unsqueezed, not an error.
  auto f = server.submit(dt::Tensor({3, 16, 16}));
  ASSERT_TRUE(f.has_value());
  (void)f->get();
}

TEST(Server, LabelsMatchArgmaxOfLogits) {
  dst::TempFile ckpt("dlscale_serve_labels.bin");
  dst::write_checkpoint(dst::small_config(), 11, ckpt.path);
  ds::Server server(small_serve_config(), ckpt.path);
  dlscale::util::Rng rng(10);
  auto f = server.submit(random_image(rng, dst::small_config()));
  ASSERT_TRUE(f.has_value());
  const ds::Response r = f->get();
  const std::vector<int> expected = dlscale::tensor::argmax_channels(r.logits);
  ASSERT_EQ(r.labels.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(r.labels[i], expected[i]);
}
