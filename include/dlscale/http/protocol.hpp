// Wire/config DTOs of the HTTP serving protocol (DESIGN.md §13).
//
// Every request body, response body, server config file, and the /stats
// payload is one of these structs, bound to JSON through the field
// lists below (util/json.hpp) — the ONLY per-struct code is the field
// list itself, and it powers read and write both, so the protocol
// cannot skew between directions. Library records travel as themselves:
// a config file's `model` block is models::MiniDeepLabV3Plus::Config and
// each /stats model block is serve::ServerStats, each with its own list. from_json is strict: unknown fields
// and wrong-typed values are 400s, not silent drops.
//
// Images and logits travel as a flat float array plus an explicit NCHW
// shape. Floats are written in std::to_chars shortest round-trip form,
// so a logit parsed back out of a response is BITWISE the float the
// worker produced — the loopback tests assert exactly that.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "dlscale/http/http1.hpp"
#include "dlscale/serve/model_registry.hpp"
#include "dlscale/util/json.hpp"

namespace dlscale::http {

namespace json = util::json;

// ---------------------------------------------------------------------------
// Server + model configuration (the --config file format).
// ---------------------------------------------------------------------------

/// Front-end knobs of HttpServer.
struct HttpConfig {
  int port = 0;          ///< 0 = kernel-assigned ephemeral port
  int backlog = 64;      ///< listen(2) backlog
  std::uint64_t max_body_bytes = 8ull * 1024 * 1024;  ///< 413 above this
  int recv_timeout_ms = 30000;  ///< idle keep-alive cutoff; 0 = forever

  static constexpr auto json_fields() {
    return std::make_tuple(json::field("port", &HttpConfig::port),
                           json::field("backlog", &HttpConfig::backlog),
                           json::field("max_body_bytes", &HttpConfig::max_body_bytes),
                           json::field("recv_timeout_ms", &HttpConfig::recv_timeout_ms));
  }
};

/// One registry entry of the config file: a named model, its
/// architecture, its checkpoint, and its serving knobs.
struct ModelSpec {
  std::string name;
  std::string checkpoint;
  int workers = 1;
  int max_batch = 8;
  std::int64_t max_wait_us = 200;
  std::uint64_t queue_capacity = 64;
  std::string precision = "fp32";  ///< fp32 | bf16 | int8
  models::MiniDeepLabV3Plus::Config model;

  static constexpr auto json_fields() {
    return std::make_tuple(json::field("name", &ModelSpec::name),
                           json::field("checkpoint", &ModelSpec::checkpoint),
                           json::field("workers", &ModelSpec::workers),
                           json::field("max_batch", &ModelSpec::max_batch),
                           json::field("max_wait_us", &ModelSpec::max_wait_us),
                           json::field("queue_capacity", &ModelSpec::queue_capacity),
                           json::field("precision", &ModelSpec::precision),
                           json::field("model", &ModelSpec::model));
  }
};

/// Root of the server config file: front-end knobs + the model set.
struct ServerSpec {
  HttpConfig http;
  std::vector<ModelSpec> models;

  static constexpr auto json_fields() {
    return std::make_tuple(json::field("http", &ServerSpec::http),
                           json::field("models", &ServerSpec::models));
  }
};

/// "fp32"/"bf16"/"int8" -> Precision; throws std::invalid_argument
/// naming the valid set otherwise.
[[nodiscard]] nn::Precision parse_precision(const std::string& text);

/// ModelSpec -> the ServeConfig Server wants (validates precision).
[[nodiscard]] serve::ServeConfig to_serve_config(const ModelSpec& spec);

/// Parses the JSON config file at `path` (throws std::runtime_error on
/// I/O failure, json::Error on bad content).
[[nodiscard]] ServerSpec load_server_spec(const std::string& path);

/// Registers every model of `spec` into `registry` (add_model each).
void register_models(const ServerSpec& spec, serve::ModelRegistry& registry);

// ---------------------------------------------------------------------------
// Wire bodies.
// ---------------------------------------------------------------------------

/// POST /v1/models/{name}:predict request body.
struct PredictRequest {
  std::vector<int> shape;    ///< (C,S,S) or (1,C,S,S)
  std::vector<float> image;  ///< flat NCHW floats, product(shape) entries

  static constexpr auto json_fields() {
    return std::make_tuple(json::field("shape", &PredictRequest::shape),
                           json::field("image", &PredictRequest::image));
  }
};

/// Predict success body (HTTP 200).
struct PredictResponse {
  std::string model;
  int model_version = 0;
  std::string precision = "fp32";
  int batch_size = 0;
  std::vector<int> shape;      ///< logits shape (1, num_classes, S, S)
  std::vector<float> logits;   ///< flat, bitwise round-trip floats
  std::vector<int> labels;     ///< per-pixel argmax, S*S entries
  double queue_us = 0.0;
  double total_us = 0.0;

  static constexpr auto json_fields() {
    return std::make_tuple(json::field("model", &PredictResponse::model),
                           json::field("model_version", &PredictResponse::model_version),
                           json::field("precision", &PredictResponse::precision),
                           json::field("batch_size", &PredictResponse::batch_size),
                           json::field("shape", &PredictResponse::shape),
                           json::field("logits", &PredictResponse::logits),
                           json::field("labels", &PredictResponse::labels),
                           json::field("queue_us", &PredictResponse::queue_us),
                           json::field("total_us", &PredictResponse::total_us));
  }
};

/// POST /v1/models/{name}:reload request body.
struct ReloadRequest {
  std::string checkpoint;
  std::string precision;  ///< "" keeps the model's current QuantizeSpec

  static constexpr auto json_fields() {
    return std::make_tuple(json::field("checkpoint", &ReloadRequest::checkpoint),
                           json::field("precision", &ReloadRequest::precision));
  }
};

/// Reload success body (HTTP 200).
struct ReloadResponse {
  std::string model;
  int model_version = 0;
  std::string precision = "fp32";

  static constexpr auto json_fields() {
    return std::make_tuple(json::field("model", &ReloadResponse::model),
                           json::field("model_version", &ReloadResponse::model_version),
                           json::field("precision", &ReloadResponse::precision));
  }
};

/// Every non-2xx body. `expected_shape`/`got_shape` are filled for
/// shape rejections (serve::ShapeError), `known_models` for 404s.
struct ErrorResponse {
  std::string error;
  std::string model;
  std::vector<int> expected_shape;
  std::vector<int> got_shape;
  std::vector<std::string> known_models;

  static constexpr auto json_fields() {
    return std::make_tuple(json::field("error", &ErrorResponse::error),
                           json::field("model", &ErrorResponse::model),
                           json::field("expected_shape", &ErrorResponse::expected_shape),
                           json::field("got_shape", &ErrorResponse::got_shape),
                           json::field("known_models", &ErrorResponse::known_models));
  }
};

/// GET /healthz body. `status` is "ok" while serving and "draining"
/// from the moment shutdown begins — the load balancer's signal to
/// stop routing here while admitted work finishes.
struct HealthzResponse {
  std::string status = "ok";
  bool accepting = true;
  std::uint64_t models = 0;

  static constexpr auto json_fields() {
    return std::make_tuple(json::field("status", &HealthzResponse::status),
                           json::field("accepting", &HealthzResponse::accepting),
                           json::field("models", &HealthzResponse::models));
  }
};

/// Front-end block of /stats.
struct FrontendStatsJson {
  int port = 0;
  bool draining = false;
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t http_errors = 0;  ///< 4xx/5xx responses written

  static constexpr auto json_fields() {
    return std::make_tuple(json::field("port", &FrontendStatsJson::port),
                           json::field("draining", &FrontendStatsJson::draining),
                           json::field("connections", &FrontendStatsJson::connections),
                           json::field("requests", &FrontendStatsJson::requests),
                           json::field("http_errors", &FrontendStatsJson::http_errors));
  }
};

/// GET /stats body: the front-end plus one serve::ServerStats block per
/// model, in registration order.
struct StatsResponse {
  FrontendStatsJson server;
  std::vector<serve::ServerStats> models;

  static constexpr auto json_fields() {
    return std::make_tuple(json::field("server", &StatsResponse::server),
                           json::field("models", &StatsResponse::models));
  }
};

}  // namespace dlscale::http
