// The protocol DTOs: every config, request, response, and stats struct
// round-trips through JSON; the config-file and /stats blocks encode to
// pinned bytes; malformed input is rejected with named errors; config
// files load.
#include "dlscale/http/protocol.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "../serve/serve_test_support.hpp"

namespace dh = dlscale::http;
namespace dj = dlscale::util::json;
namespace dst = dlscale::serve_testing;

namespace {

/// Round-trips `a` through text and hands back the re-decoded copy.
template <dj::Reflected T>
T round_trip(const T& a) {
  return dj::from_json<T>(dj::to_json(a));
}

}  // namespace

TEST(Protocol, HttpConfigRoundTrip) {
  dh::HttpConfig a;
  a.port = 8080;
  a.backlog = 7;
  a.max_body_bytes = 1234567;
  a.recv_timeout_ms = 250;
  const dh::HttpConfig b = round_trip(a);
  EXPECT_EQ(b.port, 8080);
  EXPECT_EQ(b.backlog, 7);
  EXPECT_EQ(b.max_body_bytes, 1234567u);
  EXPECT_EQ(b.recv_timeout_ms, 250);
}

TEST(Protocol, ModelSpecRoundTrip) {
  dh::ModelSpec a;
  a.name = "seg-int8";
  a.checkpoint = "/tmp/ckpt.bin";
  a.workers = 3;
  a.max_batch = 16;
  a.max_wait_us = 450;
  a.queue_capacity = 128;
  a.precision = "int8";
  a.model.in_channels = 3;
  a.model.num_classes = 8;
  a.model.input_size = 32;
  a.model.width = 24;
  a.model.separable_backbone = true;
  const dh::ModelSpec b = round_trip(a);
  EXPECT_EQ(b.name, "seg-int8");
  EXPECT_EQ(b.checkpoint, "/tmp/ckpt.bin");
  EXPECT_EQ(b.workers, 3);
  EXPECT_EQ(b.max_batch, 16);
  EXPECT_EQ(b.max_wait_us, 450);
  EXPECT_EQ(b.queue_capacity, 128u);
  EXPECT_EQ(b.precision, "int8");
  EXPECT_EQ(b.model.num_classes, 8);
  EXPECT_EQ(b.model.width, 24);
  EXPECT_TRUE(b.model.separable_backbone);
}

TEST(Protocol, ServerSpecRoundTrip) {
  dh::ServerSpec a;
  a.http.port = 9000;
  a.models.resize(2);
  a.models[0].name = "fp32";
  a.models[1].name = "int8";
  a.models[1].precision = "int8";
  const dh::ServerSpec b = round_trip(a);
  EXPECT_EQ(b.http.port, 9000);
  ASSERT_EQ(b.models.size(), 2u);
  EXPECT_EQ(b.models[0].name, "fp32");
  EXPECT_EQ(b.models[1].precision, "int8");
}

TEST(Protocol, PredictBodiesRoundTrip) {
  dh::PredictRequest req;
  req.shape = {1, 3, 4, 4};
  req.image.assign(48, 0.25f);
  req.image[7] = -1.5f;
  const dh::PredictRequest req2 = round_trip(req);
  EXPECT_EQ(req2.shape, (std::vector<int>{1, 3, 4, 4}));
  ASSERT_EQ(req2.image.size(), 48u);
  EXPECT_EQ(req2.image[7], -1.5f);

  dh::PredictResponse resp;
  resp.model = "seg";
  resp.model_version = 3;
  resp.precision = "bf16";
  resp.batch_size = 4;
  resp.shape = {1, 6, 4, 4};
  resp.logits = {0.1f, -2.5f, 3.75f};
  resp.labels = {0, 5, 2};
  resp.queue_us = 12.5;
  resp.total_us = 99.0;
  const dh::PredictResponse resp2 = round_trip(resp);
  EXPECT_EQ(resp2.model, "seg");
  EXPECT_EQ(resp2.model_version, 3);
  EXPECT_EQ(resp2.precision, "bf16");
  EXPECT_EQ(resp2.batch_size, 4);
  EXPECT_EQ(resp2.logits, (std::vector<float>{0.1f, -2.5f, 3.75f}));
  EXPECT_EQ(resp2.labels, (std::vector<int>{0, 5, 2}));
  EXPECT_DOUBLE_EQ(resp2.queue_us, 12.5);
}

TEST(Protocol, ReloadAndErrorBodiesRoundTrip) {
  dh::ReloadRequest reload;
  reload.checkpoint = "/tmp/new.bin";
  reload.precision = "bf16";
  const dh::ReloadRequest reload2 = round_trip(reload);
  EXPECT_EQ(reload2.checkpoint, "/tmp/new.bin");
  EXPECT_EQ(reload2.precision, "bf16");

  dh::ReloadResponse rr;
  rr.model = "seg";
  rr.model_version = 2;
  rr.precision = "bf16";
  EXPECT_EQ(round_trip(rr).model_version, 2);

  dh::ErrorResponse err;
  err.error = "bad shape";
  err.model = "seg";
  err.expected_shape = {1, 3, 16, 16};
  err.got_shape = {1, 3, 8, 8};
  err.known_models = {"a", "b"};
  const dh::ErrorResponse err2 = round_trip(err);
  EXPECT_EQ(err2.error, "bad shape");
  EXPECT_EQ(err2.expected_shape, (std::vector<int>{1, 3, 16, 16}));
  EXPECT_EQ(err2.got_shape, (std::vector<int>{1, 3, 8, 8}));
  EXPECT_EQ(err2.known_models, (std::vector<std::string>{"a", "b"}));
}

TEST(Protocol, HealthzAndStatsRoundTrip) {
  dh::HealthzResponse hz;
  hz.status = "draining";
  hz.accepting = false;
  hz.models = 2;
  const dh::HealthzResponse hz2 = round_trip(hz);
  EXPECT_EQ(hz2.status, "draining");
  EXPECT_FALSE(hz2.accepting);
  EXPECT_EQ(hz2.models, 2u);

  dh::StatsResponse stats;
  stats.server.port = 8080;
  stats.server.draining = true;
  stats.server.connections = 9;
  stats.server.requests = 120;
  stats.server.http_errors = 3;
  stats.models.resize(1);
  stats.models[0].name = "seg";
  stats.models[0].accepted = 100;
  stats.models[0].rejected_full = 4;
  stats.models[0].rejected_closed = 1;
  stats.models[0].total_p99_us = 817.25;
  const dh::StatsResponse stats2 = round_trip(stats);
  EXPECT_EQ(stats2.server.port, 8080);
  EXPECT_TRUE(stats2.server.draining);
  EXPECT_EQ(stats2.server.requests, 120u);
  ASSERT_EQ(stats2.models.size(), 1u);
  EXPECT_EQ(stats2.models[0].accepted, 100u);
  EXPECT_EQ(stats2.models[0].rejected_full, 4u);
  EXPECT_EQ(stats2.models[0].rejected_closed, 1u);
  EXPECT_DOUBLE_EQ(stats2.models[0].total_p99_us, 817.25);
}

// ---------------------------------------------------------------------------
// Malformed input: strictness the HTTP handlers rely on for 400s.
// ---------------------------------------------------------------------------

TEST(Protocol, RejectsMalformedBodies) {
  // Truncated text.
  EXPECT_THROW((void)dj::from_json<dh::PredictRequest>(R"({"shape": [1, 3)"), dj::ParseError);
  // Wrong type for a field.
  EXPECT_THROW((void)dj::from_json<dh::PredictRequest>(R"({"shape": "1x3"})"), dj::SchemaError);
  EXPECT_THROW((void)dj::from_json<dh::ModelSpec>(R"({"workers": true})"), dj::SchemaError);
  EXPECT_THROW((void)dj::from_json<dh::HttpConfig>(R"({"port": 80.5})"), dj::SchemaError);
  // Unknown field (typo protection for config files).
  EXPECT_THROW((void)dj::from_json<dh::ModelSpec>(R"({"nam": "x"})"), dj::SchemaError);
  EXPECT_THROW((void)dj::from_json<dh::ServerSpec>(R"({"http": {"prot": 1}})"), dj::SchemaError);
}

TEST(Protocol, ParsePrecisionNamesValidSet) {
  EXPECT_EQ(dh::parse_precision("fp32"), dlscale::nn::Precision::kFp32);
  EXPECT_EQ(dh::parse_precision("bf16"), dlscale::nn::Precision::kBf16);
  EXPECT_EQ(dh::parse_precision("int8"), dlscale::nn::Precision::kInt8);
  try {
    (void)dh::parse_precision("fp16");
    FAIL() << "bad precision accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("fp16"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("int8"), std::string::npos);  // names valid set
  }
}

TEST(Protocol, ModelSpecBytesArePinned) {
  dh::ModelSpec spec;
  spec.name = "seg";
  spec.checkpoint = "/tmp/c.bin";
  spec.precision = "int8";
  const std::string pinned =
      R"({"name":"seg","checkpoint":"/tmp/c.bin","workers":1,"max_batch":8,)"
      R"("max_wait_us":200,"queue_capacity":64,"precision":"int8","model":{"in_channels":3,)"
      R"("num_classes":6,"input_size":48,"width":16,"separable_backbone":false}})";
  EXPECT_EQ(dj::to_json(spec), pinned);
  EXPECT_EQ(dj::to_json(dj::from_json<dh::ModelSpec>(pinned)), pinned);

  spec.workers = 2;
  spec.max_batch = 4;
  spec.max_wait_us = 300;
  spec.queue_capacity = 32;
  spec.model.num_classes = 4;
  const dlscale::serve::ServeConfig config = dh::to_serve_config(spec);
  EXPECT_EQ(config.name, "seg");
  EXPECT_EQ(config.workers, 2);
  EXPECT_EQ(config.max_batch, 4);
  EXPECT_EQ(config.max_wait_us, 300);
  EXPECT_EQ(config.queue_capacity, 32u);
  EXPECT_EQ(config.quantize.precision, dlscale::nn::Precision::kInt8);
  EXPECT_EQ(config.model.num_classes, 4);
}

TEST(Protocol, LoadServerSpecFromFile) {
  dst::TempFile file("server_spec.json");
  {
    std::ofstream out(file.path);
    out << R"({
      "http": {"port": 0, "recv_timeout_ms": 100},
      "models": [
        {"name": "a", "checkpoint": "/tmp/a.bin", "precision": "fp32"},
        {"name": "b", "checkpoint": "/tmp/b.bin", "precision": "int8", "workers": 2}
      ]
    })";
  }
  const dh::ServerSpec spec = dh::load_server_spec(file.path);
  EXPECT_EQ(spec.http.recv_timeout_ms, 100);
  EXPECT_EQ(spec.http.backlog, 64);  // absent -> default
  ASSERT_EQ(spec.models.size(), 2u);
  EXPECT_EQ(spec.models[0].name, "a");
  EXPECT_EQ(spec.models[1].workers, 2);
  EXPECT_THROW((void)dh::load_server_spec("/nonexistent/spec.json"), std::runtime_error);
}

TEST(Protocol, StatsBlockBytesArePinned) {
  dlscale::serve::ServerStats s;
  s.name = "seg";
  s.precision = "int8";
  s.model_version = 4;
  s.accepted = 10;
  s.rejected_full = 2;
  s.rejected_closed = 1;
  s.completed = 9;
  s.batches = 5;
  s.reloads = 1;
  s.queue_depth = 2;
  s.fp32_requests = 0;
  s.quantized_requests = 10;
  s.mean_batch_size = 1.8;
  s.queue_p50_us = 1.0;
  s.queue_p95_us = 2.0;
  s.queue_p99_us = 3.0;
  s.total_p50_us = 10.0;
  s.total_p95_us = 20.0;
  s.total_p99_us = 30.0;
  s.total_mean_us = 12.0;
  s.total_max_us = 50.0;
  const std::string pinned =
      R"({"name":"seg","precision":"int8","model_version":4,"accepted":10,)"
      R"("rejected_full":2,"rejected_closed":1,"completed":9,"batches":5,"reloads":1,)"
      R"("queue_depth":2,"fp32_requests":0,"quantized_requests":10,"mean_batch_size":1.8,)"
      R"("queue_p50_us":1,"queue_p95_us":2,"queue_p99_us":3,"total_p50_us":10,)"
      R"("total_p95_us":20,"total_p99_us":30,"total_mean_us":12,"total_max_us":50})";
  EXPECT_EQ(dj::to_json(s), pinned);
  EXPECT_EQ(dj::to_json(dj::from_json<dlscale::serve::ServerStats>(pinned)), pinned);
}
