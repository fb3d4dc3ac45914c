// The socket front-end end to end over loopback: routing, concurrent
// clients bitwise-equal to in-process serving, per-model stats, reload,
// and the drain-shaped shutdown /healthz observes.
#include "dlscale/http/server.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "dlscale/http/protocol.hpp"
#include "dlscale/serve/model_registry.hpp"
#include "dlscale/util/rng.hpp"
#include "../serve/serve_test_support.hpp"
#include "http_test_support.hpp"

namespace dh = dlscale::http;
namespace dj = dlscale::util::json;
namespace ds = dlscale::serve;
namespace dt = dlscale::tensor;
namespace dst = dlscale::serve_testing;
namespace dht = dlscale::http_testing;

namespace {

ds::ServeConfig serve_config(dlscale::nn::Precision precision) {
  ds::ServeConfig config;
  config.model = dst::small_config();
  config.workers = 2;
  config.max_batch = 4;
  config.max_wait_us = 200;
  config.queue_capacity = 64;
  config.quantize.precision = precision;
  return config;
}

dt::Tensor random_image(dlscale::util::Rng& rng) {
  const auto m = dst::small_config();
  return dt::Tensor::randn({1, m.in_channels, m.input_size, m.input_size}, rng, 1.0f);
}

dh::PredictRequest to_predict_request(const dt::Tensor& image) {
  dh::PredictRequest request;
  request.shape.assign(image.shape().begin(), image.shape().end());
  request.image.assign(image.ptr(), image.ptr() + image.numel());
  return request;
}

/// A 2-model (fp32 + int8) registry with an HttpServer on an ephemeral
/// port — the standard fixture of these tests.
struct Frontend {
  dst::TempFile ckpt{"http_frontend.bin"};
  ds::ModelRegistry registry;
  std::unique_ptr<dh::HttpServer> server;

  Frontend() {
    dst::write_checkpoint(dst::small_config(), /*seed=*/11, ckpt.path);
    registry.add_model("seg-fp32", serve_config(dlscale::nn::Precision::kFp32), ckpt.path);
    registry.add_model("seg-int8", serve_config(dlscale::nn::Precision::kInt8), ckpt.path);
    dh::HttpConfig config;
    config.recv_timeout_ms = 10000;
    server = std::make_unique<dh::HttpServer>(registry, config);
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Routing via handle() — no sockets.
// ---------------------------------------------------------------------------

TEST(HttpRouting, MethodAndRouteErrors) {
  Frontend frontend;
  dh::Request request;
  request.method = "POST";
  request.target = "/healthz";
  EXPECT_EQ(frontend.server->handle(request).status, 405);
  request.target = "/stats";
  EXPECT_EQ(frontend.server->handle(request).status, 405);
  request.method = "GET";
  request.target = "/v1/models/seg-fp32:predict";
  EXPECT_EQ(frontend.server->handle(request).status, 405);  // predict is POST-only
  request.target = "/nope";
  EXPECT_EQ(frontend.server->handle(request).status, 404);
  request.target = "/v1/models/seg-fp32:frobnicate";
  request.method = "POST";
  EXPECT_EQ(frontend.server->handle(request).status, 404);
  request.target = "/v1/models/:predict";  // empty name
  EXPECT_EQ(frontend.server->handle(request).status, 404);
}

TEST(HttpRouting, UnknownModelListsKnownSet) {
  Frontend frontend;
  dh::Request request;
  request.method = "POST";
  request.target = "/v1/models/missing:predict";
  request.body = "{}";
  const dh::Response response = frontend.server->handle(request);
  EXPECT_EQ(response.status, 404);
  const auto error = dj::from_json<dh::ErrorResponse>(response.body);
  EXPECT_EQ(error.model, "missing");
  EXPECT_EQ(error.known_models, (std::vector<std::string>{"seg-fp32", "seg-int8"}));
}

TEST(HttpRouting, BadPredictBodiesAre400s) {
  Frontend frontend;
  dh::Request request;
  request.method = "POST";
  request.target = "/v1/models/seg-fp32:predict";

  request.body = "{not json";
  EXPECT_EQ(frontend.server->handle(request).status, 400);
  request.body = R"({"shape": [1, 3], "image": []})";  // bad arity
  EXPECT_EQ(frontend.server->handle(request).status, 400);
  request.body = R"({"shape": [1, 3, -16, 16], "image": []})";  // negative dim
  EXPECT_EQ(frontend.server->handle(request).status, 400);
  request.body = R"({"shape": [1, 3, 16, 16], "image": [1.0]})";  // count mismatch
  const dh::Response response = frontend.server->handle(request);
  EXPECT_EQ(response.status, 400);
  const auto error = dj::from_json<dh::ErrorResponse>(response.body);
  EXPECT_EQ(error.got_shape, (std::vector<int>{1, 3, 16, 16}));
  EXPECT_EQ(error.model, "seg-fp32");
}

TEST(HttpRouting, ShapeWhoseElementCountWrapsIsA400NamingIt) {
  Frontend frontend;
  dh::Request request;
  request.method = "POST";
  request.target = "/v1/models/seg-fp32:predict";
  // 2^22 * 2^21 * 2^21 = 2^64 wraps size_t to 0, which an empty image
  // would match.
  request.body = R"({"shape": [4194304, 2097152, 2097152], "image": []})";
  const dh::Response response = frontend.server->handle(request);
  EXPECT_EQ(response.status, 400);
  const auto error = dj::from_json<dh::ErrorResponse>(response.body);
  EXPECT_NE(error.error.find("(4194304,2097152,2097152)"), std::string::npos) << error.error;
  EXPECT_NE(error.error.find("overflows"), std::string::npos) << error.error;
  EXPECT_EQ(error.got_shape, (std::vector<int>{4194304, 2097152, 2097152}));
  EXPECT_TRUE(error.expected_shape.empty());  // rejected before the model is asked
}

TEST(HttpRouting, WrongModelShapeNamesExpectedVsGot) {
  Frontend frontend;
  // Well-formed body, wrong spatial size for the model: the serve-layer
  // ShapeError surfaces as a named 400.
  dh::PredictRequest predict;
  predict.shape = {1, 3, 8, 8};
  predict.image.assign(3 * 8 * 8, 0.5f);
  dh::Request request;
  request.method = "POST";
  request.target = "/v1/models/seg-fp32:predict";
  request.body = dj::to_json(predict);
  const dh::Response response = frontend.server->handle(request);
  EXPECT_EQ(response.status, 400);
  const auto error = dj::from_json<dh::ErrorResponse>(response.body);
  EXPECT_EQ(error.model, "seg-fp32");
  EXPECT_EQ(error.expected_shape, (std::vector<int>{1, 3, 16, 16}));
  EXPECT_EQ(error.got_shape, (std::vector<int>{1, 3, 8, 8}));
}

// ---------------------------------------------------------------------------
// Loopback end to end.
// ---------------------------------------------------------------------------

TEST(HttpServer, PredictOverLoopbackMatchesInProcessBitwise) {
  Frontend frontend;
  dlscale::util::Rng rng(21);
  const dt::Tensor image = random_image(rng);

  for (const std::string model : {"seg-fp32", "seg-int8"}) {
    // In-process ground truth on the SAME server instance.
    auto future = frontend.registry.at(model).submit(image);
    ASSERT_TRUE(future.has_value());
    const ds::Response reference = future->get();

    dht::Client client(frontend.server->port());
    const auto body = client.post_json<dh::PredictResponse>(
        "/v1/models/" + model + ":predict", to_predict_request(image));
    EXPECT_EQ(body.model, model);
    EXPECT_EQ(body.model_version, 1);
    EXPECT_EQ(body.precision, model == "seg-int8" ? "int8" : "fp32");
    ASSERT_EQ(body.logits.size(), reference.logits.numel());
    for (std::size_t j = 0; j < body.logits.size(); ++j) {
      ASSERT_EQ(body.logits[j], reference.logits[j]) << model << " logit " << j;
    }
    ASSERT_EQ(body.labels.size(), reference.labels.size());
    for (std::size_t j = 0; j < body.labels.size(); ++j) {
      ASSERT_EQ(body.labels[j], reference.labels[j]);
    }
    EXPECT_GE(body.total_us, body.queue_us);
  }
}

TEST(HttpServer, ConcurrentClientsBitwiseEqualAcrossModels) {
  Frontend frontend;
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 4;

  // Per-(client, request) images with in-process ground truth computed
  // up front — each client alternates between the two models.
  dlscale::util::Rng rng(31);
  std::vector<std::vector<dt::Tensor>> images(kClients);
  std::vector<std::vector<std::vector<float>>> expected(kClients);
  std::vector<std::vector<std::string>> models(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int r = 0; r < kRequestsPerClient; ++r) {
      const std::string model = (c + r) % 2 == 0 ? "seg-fp32" : "seg-int8";
      dt::Tensor image = random_image(rng);
      auto future = frontend.registry.at(model).submit(image);
      ASSERT_TRUE(future.has_value());
      const ds::Response reference = future->get();
      expected[static_cast<std::size_t>(c)].emplace_back(
          reference.logits.ptr(), reference.logits.ptr() + reference.logits.numel());
      images[static_cast<std::size_t>(c)].push_back(std::move(image));
      models[static_cast<std::size_t>(c)].push_back(model);
    }
  }

  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        dht::Client client(frontend.server->port());  // one keep-alive conn each
        for (int r = 0; r < kRequestsPerClient; ++r) {
          const auto ci = static_cast<std::size_t>(c);
          const auto ri = static_cast<std::size_t>(r);
          const dh::Response response =
              client.request("POST", "/v1/models/" + models[ci][ri] + ":predict",
                             dj::to_json(to_predict_request(images[ci][ri])));
          if (response.status != 200) {
            failures[ci] = "status " + std::to_string(response.status);
            return;
          }
          const auto body = dj::from_json<dh::PredictResponse>(response.body);
          if (body.logits != expected[ci][ri]) {  // element-wise bitwise equality
            failures[ci] = "logits mismatch at request " + std::to_string(r);
            return;
          }
        }
      } catch (const std::exception& e) {
        failures[static_cast<std::size_t>(c)] = e.what();
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[static_cast<std::size_t>(c)], "") << "client " << c;
  }

  // Both models saw their half of the traffic (each image was served
  // twice: the in-process ground-truth pass plus the HTTP pass).
  const auto fp32 = frontend.registry.at("seg-fp32").stats();
  const auto int8 = frontend.registry.at("seg-int8").stats();
  constexpr auto kTotal = static_cast<std::uint64_t>(kClients * kRequestsPerClient);
  EXPECT_EQ(fp32.completed, kTotal);
  EXPECT_EQ(int8.completed, kTotal);
  EXPECT_GT(int8.quantized_requests, 0u);
}

TEST(HttpServer, StatsReportPerModelCountersAndPercentiles) {
  Frontend frontend;
  dlscale::util::Rng rng(41);
  dht::Client client(frontend.server->port());

  // 3 fp32 predicts, 1 int8 predict, one 404 and one bad body for the
  // error counter.
  for (int i = 0; i < 3; ++i) {
    (void)client.post_json<dh::PredictResponse>("/v1/models/seg-fp32:predict",
                                                to_predict_request(random_image(rng)));
  }
  (void)client.post_json<dh::PredictResponse>("/v1/models/seg-int8:predict",
                                              to_predict_request(random_image(rng)));
  EXPECT_EQ(client.request("POST", "/v1/models/none:predict", "{}").status, 404);
  EXPECT_EQ(client.request("POST", "/v1/models/seg-fp32:predict", "{oops").status, 400);

  const auto stats = client.get_json<dh::StatsResponse>("/stats");
  EXPECT_EQ(stats.server.port, static_cast<int>(frontend.server->port()));
  EXPECT_FALSE(stats.server.draining);
  EXPECT_GE(stats.server.connections, 1u);
  // 4 predicts + 2 errors; the in-flight /stats request is counted only
  // after its response is built.
  EXPECT_EQ(stats.server.requests, 6u);
  EXPECT_EQ(stats.server.http_errors, 2u);

  ASSERT_EQ(stats.models.size(), 2u);
  const ds::ServerStats& fp32 = stats.models[0];
  const ds::ServerStats& int8 = stats.models[1];
  EXPECT_EQ(fp32.name, "seg-fp32");
  EXPECT_EQ(int8.name, "seg-int8");
  EXPECT_EQ(fp32.precision, "fp32");
  EXPECT_EQ(int8.precision, "int8");
  EXPECT_EQ(fp32.accepted, 3u);
  EXPECT_EQ(fp32.completed, 3u);
  EXPECT_EQ(int8.accepted, 1u);
  EXPECT_EQ(fp32.rejected_full, 0u);
  EXPECT_EQ(fp32.rejected_closed, 0u);
  EXPECT_EQ(fp32.model_version, 1);
  EXPECT_EQ(fp32.fp32_requests, 3u);
  EXPECT_EQ(int8.quantized_requests, 1u);
  EXPECT_GT(fp32.total_p50_us, 0.0);
  EXPECT_GE(fp32.total_p95_us, fp32.total_p50_us);
  EXPECT_GE(fp32.total_p99_us, fp32.total_p95_us);
  EXPECT_GE(fp32.total_max_us, fp32.total_p99_us);
  EXPECT_GT(int8.total_p99_us, 0.0);
}

TEST(HttpServer, ReloadEndpointSwapsWeightsAndPrecision) {
  Frontend frontend;
  dst::TempFile ckpt_b("http_reload_b.bin");
  dst::write_checkpoint(dst::small_config(), /*seed=*/77, ckpt_b.path);
  dht::Client client(frontend.server->port());

  dh::ReloadRequest reload;
  reload.checkpoint = ckpt_b.path;
  const auto body =
      client.post_json<dh::ReloadResponse>("/v1/models/seg-fp32:reload", reload);
  EXPECT_EQ(body.model, "seg-fp32");
  EXPECT_EQ(body.model_version, 2);
  EXPECT_EQ(body.precision, "fp32");

  // Reload with a precision flip: fp32 -> bf16.
  reload.precision = "bf16";
  const auto flipped =
      client.post_json<dh::ReloadResponse>("/v1/models/seg-fp32:reload", reload);
  EXPECT_EQ(flipped.model_version, 3);
  EXPECT_EQ(flipped.precision, "bf16");
  EXPECT_EQ(frontend.registry.at("seg-fp32").stats().precision, "bf16");

  // Bad reloads: missing checkpoint field, bad precision, bad file.
  EXPECT_EQ(client.request("POST", "/v1/models/seg-fp32:reload", "{}").status, 400);
  reload.precision = "fp64";
  EXPECT_EQ(client
                .request("POST", "/v1/models/seg-fp32:reload", dj::to_json(reload))
                .status,
            400);
  reload.precision = "";
  reload.checkpoint = "/nonexistent/ckpt.bin";
  EXPECT_EQ(client
                .request("POST", "/v1/models/seg-fp32:reload", dj::to_json(reload))
                .status,
            400);
  // The failed swaps left the model serving (strong guarantee).
  EXPECT_EQ(frontend.registry.at("seg-fp32").stats().model_version, 3);
}

TEST(HttpServer, HealthzFlipsDuringDrainAndDrainedModelsAnswer503) {
  Frontend frontend;
  dht::Client client(frontend.server->port());

  auto healthy = client.get_json<dh::HealthzResponse>("/healthz");
  EXPECT_EQ(healthy.status, "ok");
  EXPECT_TRUE(healthy.accepting);
  EXPECT_EQ(healthy.models, 2u);

  // Phase one of shutdown: /healthz flips while predicts still work —
  // the window where a load balancer stops routing but admitted traffic
  // completes.
  frontend.server->begin_drain();
  auto draining = client.get_json<dh::HealthzResponse>("/healthz");
  EXPECT_EQ(draining.status, "draining");
  EXPECT_FALSE(draining.accepting);
  dlscale::util::Rng rng(51);
  (void)client.post_json<dh::PredictResponse>("/v1/models/seg-fp32:predict",
                                              to_predict_request(random_image(rng)));

  // Model drain: admissions close, predicts answer 503 (not 429, not a
  // dropped connection) while /healthz and /stats keep responding.
  frontend.registry.shutdown();
  const dh::Response rejected = client.request(
      "POST", "/v1/models/seg-fp32:predict", dj::to_json(to_predict_request(random_image(rng))));
  EXPECT_EQ(rejected.status, 503);
  const auto error = dj::from_json<dh::ErrorResponse>(rejected.body);
  EXPECT_EQ(error.model, "seg-fp32");
  auto stats = client.get_json<dh::StatsResponse>("/stats");
  EXPECT_TRUE(stats.server.draining);
  EXPECT_EQ(stats.models[0].rejected_closed, 1u);

  // Full shutdown closes the connection; the server side is already
  // drained so this is a no-op apart from the socket teardown.
  frontend.server->shutdown();
  EXPECT_THROW((void)client.request("GET", "/healthz"), std::exception);
}

TEST(HttpServer, ShutdownIsIdempotentAndDestructorSafe) {
  Frontend frontend;
  frontend.server->shutdown();
  frontend.server->shutdown();  // second call is a no-op
  // Destructor runs another shutdown() — must not throw or hang.
}

TEST(HttpServer, RegisterModelsFromSpecServesOverHttp) {
  dst::TempFile ckpt("http_spec.bin");
  dst::write_checkpoint(dst::small_config(), 11, ckpt.path);

  dh::ServerSpec spec;
  spec.http.recv_timeout_ms = 10000;
  dh::ModelSpec model;
  model.name = "from-spec";
  model.checkpoint = ckpt.path;
  model.workers = 1;
  model.precision = "int8";
  model.model = dst::small_config();
  spec.models.push_back(model);

  ds::ModelRegistry registry;
  dh::register_models(spec, registry);
  dh::HttpServer server(registry, spec.http);

  dlscale::util::Rng rng(61);
  dht::Client client(server.port());
  const auto body = client.post_json<dh::PredictResponse>(
      "/v1/models/from-spec:predict", to_predict_request(random_image(rng)));
  EXPECT_EQ(body.model, "from-spec");
  EXPECT_EQ(body.precision, "int8");
}
