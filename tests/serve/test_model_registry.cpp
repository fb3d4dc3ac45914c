// The multi-model registry: named models with independent configs,
// per-model stats/reload/shutdown isolation, and named 404s.
#include "dlscale/serve/model_registry.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dlscale/util/rng.hpp"
#include "serve_test_support.hpp"

namespace ds = dlscale::serve;
namespace dt = dlscale::tensor;
namespace dst = dlscale::serve_testing;

namespace {

ds::ServeConfig config_for(int workers) {
  ds::ServeConfig config;
  config.model = dst::small_config();
  config.workers = workers;
  config.max_batch = 4;
  config.max_wait_us = 200;
  config.queue_capacity = 64;
  return config;
}

dt::Tensor random_image(dlscale::util::Rng& rng) {
  const auto m = dst::small_config();
  return dt::Tensor::randn({1, m.in_channels, m.input_size, m.input_size}, rng, 1.0f);
}

}  // namespace

TEST(ModelRegistry, RegistersAndServesNamedModels) {
  dst::TempFile ckpt_a("registry_a.bin");
  dst::TempFile ckpt_b("registry_b.bin");
  dst::write_checkpoint(dst::small_config(), 11, ckpt_a.path);
  dst::write_checkpoint(dst::small_config(), 22, ckpt_b.path);
  auto ref_a = dst::load_reference(dst::small_config(), ckpt_a.path);
  auto ref_b = dst::load_reference(dst::small_config(), ckpt_b.path);

  ds::ModelRegistry registry;
  registry.add_model("alpha", config_for(1), ckpt_a.path);
  registry.add_model("beta", config_for(2), ckpt_b.path);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"alpha", "beta"}));

  // Each name serves ITS weights: same image, different (per-checkpoint)
  // bitwise-exact logits.
  dlscale::util::Rng rng(3);
  const dt::Tensor image = random_image(rng);
  const dt::Tensor expect_a = ref_a.forward(image, false);
  const dt::Tensor expect_b = ref_b.forward(image, false);
  auto fa = registry.at("alpha").submit(image);
  auto fb = registry.at("beta").submit(image);
  ASSERT_TRUE(fa.has_value() && fb.has_value());
  const ds::Response ra = fa->get();
  const ds::Response rb = fb->get();
  for (std::size_t j = 0; j < expect_a.numel(); ++j) ASSERT_EQ(ra.logits[j], expect_a[j]);
  for (std::size_t j = 0; j < expect_b.numel(); ++j) ASSERT_EQ(rb.logits[j], expect_b[j]);

  // Per-model counters are isolated.
  EXPECT_EQ(registry.at("alpha").stats().accepted, 1u);
  EXPECT_EQ(registry.at("beta").stats().accepted, 1u);
  const auto all = registry.stats_all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].name, "alpha");
  EXPECT_EQ(all[1].name, "beta");
}

TEST(ModelRegistry, AddModelOverwritesConfigName) {
  dst::TempFile ckpt("registry_name.bin");
  dst::write_checkpoint(dst::small_config(), 11, ckpt.path);
  ds::ModelRegistry registry;
  ds::ServeConfig config = config_for(1);
  config.name = "wrong";  // registry key wins
  ds::Server& server = registry.add_model("right", config, ckpt.path);
  EXPECT_EQ(server.name(), "right");
}

TEST(ModelRegistry, DuplicateNameThrows) {
  dst::TempFile ckpt("registry_dup.bin");
  dst::write_checkpoint(dst::small_config(), 11, ckpt.path);
  ds::ModelRegistry registry;
  registry.add_model("seg", config_for(1), ckpt.path);
  EXPECT_THROW(registry.add_model("seg", config_for(1), ckpt.path), std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(ModelRegistry, UnknownModelErrorNamesKnownSet) {
  dst::TempFile ckpt("registry_unknown.bin");
  dst::write_checkpoint(dst::small_config(), 11, ckpt.path);
  ds::ModelRegistry registry;
  registry.add_model("alpha", config_for(1), ckpt.path);
  EXPECT_EQ(registry.find("nope"), nullptr);
  try {
    (void)registry.at("nope");
    FAIL() << "unknown model resolved";
  } catch (const ds::UnknownModelError& e) {
    EXPECT_EQ(e.model(), "nope");
    EXPECT_EQ(e.known(), (std::vector<std::string>{"alpha"}));
  }
}

TEST(ModelRegistry, PerModelReloadBumpsOnlyThatModel) {
  dst::TempFile ckpt_a("registry_reload_a.bin");
  dst::TempFile ckpt_b("registry_reload_b.bin");
  dst::write_checkpoint(dst::small_config(), 11, ckpt_a.path);
  dst::write_checkpoint(dst::small_config(), 22, ckpt_b.path);
  ds::ModelRegistry registry;
  registry.add_model("alpha", config_for(1), ckpt_a.path);
  registry.add_model("beta", config_for(1), ckpt_a.path);
  registry.at("alpha").reload(ckpt_b.path);
  EXPECT_EQ(registry.at("alpha").stats().model_version, 2);
  EXPECT_EQ(registry.at("alpha").stats().reloads, 1u);
  EXPECT_EQ(registry.at("beta").stats().model_version, 1);
  EXPECT_EQ(registry.at("beta").stats().reloads, 0u);
  // Reload-with-quantize flips the precision of that model only.
  ds::QuantizeSpec spec;
  spec.precision = dlscale::nn::Precision::kInt8;
  registry.at("alpha").reload(ckpt_b.path, spec);
  EXPECT_EQ(registry.at("alpha").stats().precision, "int8");
  EXPECT_EQ(registry.at("beta").stats().precision, "fp32");
}

TEST(ModelRegistry, ShutdownModelDrainsOnlyThatModel) {
  dst::TempFile ckpt("registry_shutdown_one.bin");
  dst::write_checkpoint(dst::small_config(), 11, ckpt.path);
  ds::ModelRegistry registry;
  registry.add_model("alpha", config_for(1), ckpt.path);
  registry.add_model("beta", config_for(1), ckpt.path);
  registry.at("alpha").shutdown();
  dlscale::util::Rng rng(4);
  // alpha sheds with kClosed; beta still serves; alpha's entry remains
  // visible for /stats.
  ds::RejectReason why = ds::RejectReason::kNone;
  EXPECT_FALSE(registry.at("alpha").submit(random_image(rng), &why).has_value());
  EXPECT_EQ(why, ds::RejectReason::kClosed);
  auto f = registry.at("beta").submit(random_image(rng));
  ASSERT_TRUE(f.has_value());
  (void)f->get();
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.at("alpha").stats().rejected_closed, 1u);
}

TEST(ModelRegistry, ShutdownIsIdempotentAndFindSurvivesIt) {
  dst::TempFile ckpt("registry_shutdown_all.bin");
  dst::write_checkpoint(dst::small_config(), 11, ckpt.path);
  ds::ModelRegistry registry;
  registry.add_model("alpha", config_for(1), ckpt.path);
  // A resolved shared_ptr keeps the Server alive across shutdown — the
  // connection-thread lifetime contract.
  std::shared_ptr<ds::Server> pinned = registry.find("alpha");
  ASSERT_NE(pinned, nullptr);
  registry.shutdown();
  registry.shutdown();  // idempotent
  dlscale::util::Rng rng(5);
  EXPECT_FALSE(pinned->submit(random_image(rng)).has_value());
  EXPECT_EQ(pinned->stats().rejected_closed, 1u);
}
