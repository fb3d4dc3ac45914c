// Train-then-serve: the full lifecycle of a segmentation model through
// the serve:: subsystem.
//
// 1. Train the mini DeepLab-v3+ briefly (serial) and save a weights-only
//    checkpoint (train::save_model — not the full Trainer state).
// 2. Stand up a serve::Server on it: bounded admission queue, dynamic
//    batcher, worker replicas running inference-mode forwards.
// 3. Fire concurrent synthetic clients at it and print the latency
//    distribution the server's histograms collected.
// 4. Train one more epoch and hot-reload the new checkpoint into the
//    running server — zero downtime, version bump, in-flight batches
//    finish on the old weights.
// 5. Hot-reload the *same* checkpoint as int8 (calibrate + quantize on
//    load, DESIGN.md §9) and replay the client load, printing a latency
//    table for each precision side by side.
//
// Usage: ./build/examples/serve_segmentation [clients] [requests_per_client]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dlscale/serve/server.hpp"
#include "dlscale/train/checkpoint.hpp"
#include "dlscale/train/trainer.hpp"
#include "dlscale/util/rng.hpp"
#include "dlscale/util/table.hpp"

using namespace dlscale;

int main(int argc, char** argv) {
  const int clients = argc > 1 ? std::atoi(argv[1]) : 8;
  const int per_client = argc > 2 ? std::atoi(argv[2]) : 32;
  if (clients < 1 || per_client < 1) {
    std::fprintf(stderr, "usage: %s [clients >= 1] [requests_per_client >= 1]\n", argv[0]);
    return 1;
  }

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

  const std::string ckpt_v1 = "serve_example_v1.bin";
  const std::string ckpt_v2 = "serve_example_v2.bin";
  train::save_model(trainer.model().parameters(), trainer.model().buffers(), ckpt_v1);
  std::printf("Saved %s (eval mIOU %.1f%%)\n\n", ckpt_v1.c_str(),
              trainer.report().final_miou() * 100.0);

  // --- 2. Serve it ----------------------------------------------------
  serve::ServeConfig serve_config;
  serve_config.model = config.model;
  serve_config.workers = 2;
  serve_config.max_batch = 8;
  serve_config.max_wait_us = 300;
  serve_config.queue_capacity = clients * 4;
  serve::Server server(serve_config, ckpt_v1);
  std::printf("Serving: %d workers, max_batch %d, %lldus batching window, queue depth %llu\n",
              serve_config.workers, serve_config.max_batch,
              static_cast<long long>(serve_config.max_wait_us),
              static_cast<unsigned long long>(serve_config.queue_capacity));

  // --- 3. Concurrent synthetic clients --------------------------------
  // One load wave: every client keeps one request in flight and times it
  // end to end. Client-side latencies (unlike the server's cumulative
  // histograms) can be compared per wave, which step 5 needs.
  struct Wave {
    std::vector<double> latencies_ms;  // sorted on return
    double requests_per_s = 0.0;
    double pct(double q) const {
      if (latencies_ms.empty()) return 0.0;
      const auto idx = static_cast<std::size_t>(
          q / 100.0 * static_cast<double>(latencies_ms.size() - 1));
      return latencies_ms[idx];
    }
  };
  auto run_wave = [&] {
    Wave wave;
    std::mutex mu;
    auto client = [&](int id) {
      util::Rng rng(static_cast<std::uint64_t>(1000 + id));
      const auto& m = serve_config.model;
      std::vector<double> mine;
      mine.reserve(static_cast<std::size_t>(per_client));
      for (int i = 0; i < per_client; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        auto f = server.submit(
            tensor::Tensor::randn({1, m.in_channels, m.input_size, m.input_size}, rng, 1.0f));
        if (!f.has_value()) {  // backpressure: shed, client retries later
          std::this_thread::yield();
          continue;
        }
        const serve::Response r = f->get();
        (void)r.labels;  // per-pixel classes, ready for downstream use
        mine.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
      }
      const std::lock_guard<std::mutex> lock(mu);
      wave.latencies_ms.insert(wave.latencies_ms.end(), mine.begin(), mine.end());
    };
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    std::sort(wave.latencies_ms.begin(), wave.latencies_ms.end());
    wave.requests_per_s = static_cast<double>(wave.latencies_ms.size()) / elapsed_s;
    return wave;
  };
  const Wave fp32_wave = run_wave();

  const serve::ServerStats stats = server.stats();
  util::Table table("Serving latency (" + std::to_string(clients) + " clients x " +
                    std::to_string(per_client) + " requests)");
  table.set_header({"metric", "value"});
  table.add_row({"accepted", util::Table::num(static_cast<long long>(stats.accepted))});
  table.add_row({"rejected (queue full / closed)",
                 util::Table::num(static_cast<long long>(stats.rejected_full)) + " / " +
                     util::Table::num(static_cast<long long>(stats.rejected_closed))});
  table.add_row({"completed", util::Table::num(static_cast<long long>(stats.completed))});
  table.add_row({"batches", util::Table::num(static_cast<long long>(stats.batches))});
  table.add_row({"mean batch size", util::Table::num(stats.mean_batch_size, 2)});
  table.add_row({"queue p50 / p95 / p99 (us)",
                 util::Table::num(stats.queue_p50_us, 0) + " / " +
                     util::Table::num(stats.queue_p95_us, 0) + " / " +
                     util::Table::num(stats.queue_p99_us, 0)});
  table.add_row({"total p50 / p95 / p99 (us)",
                 util::Table::num(stats.total_p50_us, 0) + " / " +
                     util::Table::num(stats.total_p95_us, 0) + " / " +
                     util::Table::num(stats.total_p99_us, 0)});
  table.print();

  // --- 4. Hot reload a retrained checkpoint ---------------------------
  std::printf("\nTraining one more epoch, then hot-reloading...\n");
  (void)trainer.train_epoch();
  train::save_model(trainer.model().parameters(), trainer.model().buffers(), ckpt_v2);
  server.reload(ckpt_v2);
  std::printf("Model version now %d (was 1); old weights drained by refcount.\n",
              server.model_version());

  util::Rng rng(9);
  auto f = server.submit(tensor::Tensor::randn(
      {1, config.model.in_channels, config.model.input_size, config.model.input_size}, rng, 1.0f));
  if (f.has_value()) {
    const serve::Response r = f->get();
    std::printf("Post-reload request served by model version %d, batch size %d.\n",
                r.model_version, r.batch_size);
  }

  // --- 5. Hot-reload the same weights as int8 and compare -------------
  std::printf("\nHot-reloading %s as int8 (calibrated on load)...\n", ckpt_v2.c_str());
  serve::QuantizeSpec spec;
  spec.precision = nn::Precision::kInt8;
  server.reload(ckpt_v2, spec);
  std::printf("Model version now %d, serving precision '%s'.\n", server.model_version(),
              server.stats().precision.c_str());
  const Wave int8_wave = run_wave();

  const serve::ServerStats final_stats = server.stats();
  util::Table compare("Latency per serving precision (same weights, same load)");
  compare.set_header({"precision", "req/s", "p50 ms", "p95 ms", "p99 ms", "speedup"});
  for (const auto* row : {&fp32_wave, &int8_wave}) {
    compare.add_row({row == &fp32_wave ? "fp32" : "int8",
                     util::Table::num(row->requests_per_s, 1),
                     util::Table::num(row->pct(50), 2), util::Table::num(row->pct(95), 2),
                     util::Table::num(row->pct(99), 2),
                     util::Table::num(row->requests_per_s / fp32_wave.requests_per_s, 2) + "x"});
  }
  compare.print();
  std::printf("Requests served fp32: %llu, quantized: %llu.\n",
              static_cast<unsigned long long>(final_stats.fp32_requests),
              static_cast<unsigned long long>(final_stats.quantized_requests));

  server.shutdown();
  std::remove(ckpt_v1.c_str());
  std::remove(ckpt_v2.c_str());
  return 0;
}
