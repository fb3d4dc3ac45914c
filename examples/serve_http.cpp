// Serve a trained model over HTTP: the multi-model registry and the
// socket front-end end to end (DESIGN.md §13).
//
// 1. Train the mini DeepLab-v3+ briefly (serial) and save a checkpoint.
// 2. Write a JSON server spec (the --config file format) registering the
//    SAME checkpoint twice: "seg-fp32" and "seg-int8", each with its own
//    workers/max_batch/precision.
// 3. Load the spec, build the registry, stand up the HttpServer on an
//    ephemeral loopback port.
// 4. Act as the client: POST a predict to each model over a keep-alive
//    connection, hot-reload seg-fp32 via the :reload route, and print
//    GET /stats — the same bytes `curl` against this server would see.
// 5. Drain: begin_drain() flips /healthz to "draining" while admitted
//    work finishes, then full shutdown.
//
// Usage: ./build/examples/serve_http
#include <cstdio>
#include <fstream>
#include <string>

#include "dlscale/http/protocol.hpp"
#include "dlscale/http/server.hpp"
#include "dlscale/serve/model_registry.hpp"
#include "dlscale/train/checkpoint.hpp"
#include "dlscale/train/trainer.hpp"
#include "dlscale/util/rng.hpp"

using namespace dlscale;

namespace {

/// One keep-alive loopback connection issuing JSON requests.
http::Response request(http::Connection& connection, const std::string& method,
                       const std::string& target, std::string body = "") {
  http::Request req;
  req.method = method;
  req.target = target;
  req.body = std::move(body);
  if (!connection.write(req)) throw std::runtime_error("server closed the connection");
  auto response = connection.read_response(64ull * 1024 * 1024);
  if (!response) throw std::runtime_error("no response before EOF");
  return *response;
}

}  // namespace

int main() {
  // --- 1. Train briefly, save weights ---------------------------------
  train::TrainConfig config;
  config.model = {.in_channels = 3, .num_classes = 6, .input_size = 16, .width = 8};
  config.dataset = {.image_size = 16, .num_classes = 6, .max_shapes = 2, .noise = 0.1f,
                    .seed = 2020};
  config.train_samples = 64;
  config.eval_samples = 16;
  config.batch_per_rank = 4;
  config.epochs = 2;
  config.schedule = {0.08, 0.9, 0};

  std::printf("Training mini DeepLab-v3+ for %d epochs (serial)...\n", config.epochs);
  train::NoComm no_comm;
  train::Trainer trainer(config, no_comm);
  (void)trainer.run();
  const std::string ckpt = "serve_http_ckpt.bin";
  train::save_model(trainer.model().parameters(), trainer.model().buffers(), ckpt);
  std::printf("Saved %s (eval mIOU %.1f%%)\n\n", ckpt.c_str(),
              trainer.report().final_miou() * 100.0);

  // --- 2. The server spec: one checkpoint, two named models -----------
  http::ServerSpec spec;
  spec.http.port = 0;  // ephemeral; spec files for real deployments pin one
  http::ModelSpec fp32;
  fp32.name = "seg-fp32";
  fp32.checkpoint = ckpt;
  fp32.workers = 2;
  fp32.max_batch = 8;
  fp32.precision = "fp32";
  fp32.model = config.model;
  http::ModelSpec int8 = fp32;
  int8.name = "seg-int8";
  int8.workers = 1;
  int8.precision = "int8";
  spec.models = {fp32, int8};

  const std::string spec_path = "serve_http_spec.json";
  {
    std::ofstream out(spec_path);
    out << util::json::to_json(spec, /*pretty=*/true) << "\n";
  }
  std::printf("Wrote %s:\n%s\n", spec_path.c_str(),
              util::json::to_json(spec, /*pretty=*/true).c_str());

  // --- 3. Registry + front-end from the spec ---------------------------
  const http::ServerSpec loaded = http::load_server_spec(spec_path);
  serve::ModelRegistry registry;
  http::register_models(loaded, registry);
  http::HttpServer server(registry, loaded.http);
  std::printf("\nServing %zu models on http://127.0.0.1:%u\n", registry.size(), server.port());
  std::printf("Try: curl http://127.0.0.1:%u/healthz\n\n", server.port());

  // --- 4. Client round trips -------------------------------------------
  http::Connection client(util::Socket::connect_loopback(server.port()));
  std::printf("GET /healthz -> %s\n",
              request(client, "GET", "/healthz").body.c_str());

  util::Rng rng(7);
  const tensor::Tensor image = tensor::Tensor::randn(
      {1, config.model.in_channels, config.model.input_size, config.model.input_size}, rng, 1.0f);
  http::PredictRequest predict;
  predict.shape.assign(image.shape().begin(), image.shape().end());
  predict.image.assign(image.ptr(), image.ptr() + image.numel());
  for (const char* model : {"seg-fp32", "seg-int8"}) {
    const http::Response response =
        request(client, "POST", std::string("/v1/models/") + model + ":predict",
                util::json::to_json(predict));
    const auto body = util::json::from_json<http::PredictResponse>(response.body);
    std::printf("POST /v1/models/%s:predict -> %d (version %d, %s, batch %d, %.0fus total)\n",
                model, response.status, body.model_version, body.precision.c_str(),
                body.batch_size, body.total_us);
  }

  // Hot reload over HTTP: same checkpoint, quantized serving from here on.
  http::ReloadRequest reload;
  reload.checkpoint = ckpt;
  reload.precision = "int8";
  const http::Response reloaded = request(client, "POST", "/v1/models/seg-fp32:reload",
                                          util::json::to_json(reload));
  std::printf("POST /v1/models/seg-fp32:reload -> %d %s\n", reloaded.status,
              reloaded.body.c_str());

  std::printf("\nGET /stats ->\n%s\n",
              util::json::write_pretty(
                  util::json::parse(request(client, "GET", "/stats").body))
                  .c_str());

  // --- 5. Drain-shaped shutdown ----------------------------------------
  server.begin_drain();
  std::printf("\nAfter begin_drain(): GET /healthz -> %s\n",
              request(client, "GET", "/healthz").body.c_str());
  server.shutdown();
  std::printf("Shut down cleanly.\n");
  std::remove(ckpt.c_str());
  std::remove(spec_path.c_str());
  return 0;
}
