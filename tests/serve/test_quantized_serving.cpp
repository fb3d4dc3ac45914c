// Quantized serving path: a registry can load one checkpoint at fp32,
// bf16 or int8 (calibrating on the primary replica), the server reports
// the precision tag and splits request counters by precision, responses
// carry the precision that produced them, and a hot-reload can flip an
// fp32 deployment to int8 without dropping the strong reload guarantee.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <vector>

#include "dlscale/serve/registry.hpp"
#include "dlscale/serve/server.hpp"
#include "dlscale/util/rng.hpp"
#include "serve_test_support.hpp"

namespace ds = dlscale::serve;
namespace dn = dlscale::nn;
namespace dt = dlscale::tensor;
namespace dst = dlscale::serve_testing;

namespace {

dt::Tensor test_image(std::uint64_t seed) {
  dlscale::util::Rng rng(seed);
  const auto m = dst::small_config();
  // [0,1) pixels like the synthetic dataset, so the default uniform
  // calibration batch covers the request distribution.
  dt::Tensor img({1, m.in_channels, m.input_size, m.input_size});
  for (std::size_t i = 0; i < static_cast<std::size_t>(img.numel()); ++i) {
    img.ptr()[i] = static_cast<float>(rng.uniform());
  }
  return img;
}

float max_abs_diff(const dt::Tensor& a, const dt::Tensor& b) {
  float worst = 0.0f;
  for (std::size_t i = 0; i < static_cast<std::size_t>(a.numel()); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

}  // namespace

TEST(QuantizedRegistry, LoadsEachPrecisionAndStaysCloseToFp32) {
  dst::TempFile ckpt("dlscale_qreg.bin");
  dst::write_checkpoint(dst::small_config(), /*seed=*/21, ckpt.path);
  auto reference = dst::load_reference(dst::small_config(), ckpt.path);
  const dt::Tensor img = test_image(31);
  const dt::Tensor ref_logits = reference.forward(img, false);

  for (dn::Precision target : {dn::Precision::kBf16, dn::Precision::kInt8}) {
    ds::QuantizeSpec spec;
    spec.precision = target;
    ds::ReplicaRegistry registry(dst::small_config(), /*replica_count=*/2, ckpt.path, spec);
    EXPECT_EQ(registry.precision(), target);
    const auto set = registry.acquire();
    ASSERT_EQ(set->replicas.size(), 2u);
    EXPECT_EQ(set->precision, target);
    for (const auto& replica : set->replicas) {
      EXPECT_EQ(replica->precision(), target);
      const dt::Tensor out = replica->forward(img, false);
      // Same weights, reduced precision: close, not equal.
      EXPECT_LT(max_abs_diff(out, ref_logits), target == dn::Precision::kBf16 ? 0.1f : 1.0f)
          << dn::precision_name(target);
    }
  }
}

TEST(QuantizedRegistry, CallerSuppliedCalibrationImagesAreUsed) {
  dst::TempFile ckpt("dlscale_qreg_calib.bin");
  dst::write_checkpoint(dst::small_config(), 22, ckpt.path);
  ds::QuantizeSpec spec;
  spec.precision = dn::Precision::kInt8;
  const auto m = dst::small_config();
  dt::Tensor calib({2, m.in_channels, m.input_size, m.input_size});
  for (std::size_t i = 0; i < static_cast<std::size_t>(calib.numel()); ++i) {
    calib.ptr()[i] = static_cast<float>(i % 7) / 7.0f;
  }
  spec.calibration_images = calib;
  spec.calibration.observer = dn::ObserverKind::kPercentile;
  spec.calibration.percentile = 99.5;
  ds::ReplicaRegistry registry(m, 1, ckpt.path, spec);
  EXPECT_EQ(registry.precision(), dn::Precision::kInt8);
}

TEST(QuantizedServer, StatsCarryPrecisionTagAndSplitCounters) {
  dst::TempFile ckpt("dlscale_qserve_stats.bin");
  dst::write_checkpoint(dst::small_config(), 23, ckpt.path);
  ds::ServeConfig config;
  config.model = dst::small_config();
  config.workers = 1;
  config.max_batch = 4;
  config.quantize.precision = dn::Precision::kInt8;
  ds::Server server(config, ckpt.path);

  constexpr int kRequests = 6;
  std::vector<std::future<ds::Response>> futures;
  for (int i = 0; i < kRequests; ++i) {
    auto f = server.submit(test_image(40 + static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(f.has_value());
    futures.push_back(std::move(*f));
  }
  for (auto& f : futures) {
    const ds::Response r = f.get();
    EXPECT_EQ(r.precision, dn::Precision::kInt8);
    EXPECT_EQ(static_cast<int>(r.labels.size()),
              config.model.input_size * config.model.input_size);
  }
  const ds::ServerStats stats = server.stats();
  EXPECT_EQ(stats.precision, "int8");
  EXPECT_EQ(stats.quantized_requests, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.fp32_requests, 0u);
  EXPECT_EQ(stats.completed, stats.fp32_requests + stats.quantized_requests);
}

TEST(QuantizedServer, HotReloadFlipsFp32DeploymentToInt8) {
  dst::TempFile ckpt("dlscale_qserve_reload.bin");
  dst::write_checkpoint(dst::small_config(), 24, ckpt.path);
  ds::ServeConfig config;
  config.model = dst::small_config();
  config.workers = 1;
  ds::Server server(config, ckpt.path);  // starts fp32

  auto f1 = server.submit(test_image(50));
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->get().precision, dn::Precision::kFp32);
  EXPECT_EQ(server.stats().precision, "fp32");

  ds::QuantizeSpec spec;
  spec.precision = dn::Precision::kInt8;
  server.reload(ckpt.path, spec);  // same weights, new precision
  EXPECT_EQ(server.stats().precision, "int8");
  EXPECT_EQ(server.model_version(), 2);

  auto f2 = server.submit(test_image(51));
  ASSERT_TRUE(f2.has_value());
  const ds::Response r2 = f2->get();
  EXPECT_EQ(r2.precision, dn::Precision::kInt8);
  EXPECT_EQ(r2.model_version, 2);

  const ds::ServerStats stats = server.stats();
  EXPECT_EQ(stats.reloads, 1u);
  EXPECT_EQ(stats.fp32_requests, 1u);
  EXPECT_EQ(stats.quantized_requests, 1u);

  // A reload back to plain fp32 restores bitwise-exact serving.
  server.reload(ckpt.path, ds::QuantizeSpec{});
  EXPECT_EQ(server.stats().precision, "fp32");
}

TEST(QuantizedRegistry, BadCheckpointUnderQuantizeKeepsOldSetServing) {
  dst::TempFile good("dlscale_qreg_good.bin");
  dst::write_checkpoint(dst::small_config(), 25, good.path);
  ds::QuantizeSpec spec;
  spec.precision = dn::Precision::kBf16;
  ds::ReplicaRegistry registry(dst::small_config(), 1, good.path, spec);
  EXPECT_THROW(registry.reload("/nonexistent/ckpt.bin"), std::runtime_error);
  EXPECT_EQ(registry.version(), 1);
  EXPECT_EQ(registry.precision(), dn::Precision::kBf16);
  // A refused reload does not adopt its spec either: the next plain
  // reload keeps serving bf16.
  ds::QuantizeSpec int8;
  int8.precision = dn::Precision::kInt8;
  EXPECT_THROW(registry.reload("/nonexistent/ckpt.bin", int8), std::runtime_error);
  registry.reload(good.path);
  EXPECT_EQ(registry.version(), 2);
  EXPECT_EQ(registry.precision(), dn::Precision::kBf16);
}
