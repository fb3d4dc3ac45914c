// In-process model server: bounded queue -> dynamic batcher -> worker
// pool over checkpoint-backed replicas, with hot-reload and latency
// percentiles.
//
//   clients --submit()--> RequestQueue --(coalesce)--> DynamicBatcher
//        --> worker threads --forward(batch, train=false)--> promises
//
// Each worker owns one model replica (no shared mutable model state) and
// runs whole batches; tensor kernels inside the forward still fan out
// over the global util::ThreadPool, so worker count controls concurrent
// BATCHES while DLSCALE_NUM_THREADS controls per-kernel parallelism —
// two independent axes, same as inter-/intra-op parallelism in real
// serving stacks. Dynamic batching is the throughput lever: the batched
// conv GEMM path makes an 8-image forward far cheaper than 8 singles
// (bench/bench_serve.cpp measures it), and batch invariance guarantees
// co-batching is invisible in the results.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dlscale/serve/batcher.hpp"
#include "dlscale/serve/queue.hpp"
#include "dlscale/serve/registry.hpp"
#include "dlscale/serve/types.hpp"
#include "dlscale/util/json.hpp"
#include "dlscale/util/stats.hpp"

namespace dlscale::serve {

struct ServeConfig {
  models::MiniDeepLabV3Plus::Config model;
  std::string name = "default";  ///< names the model in errors and /stats
  int workers = 1;           ///< concurrent batches (one replica each)
  int max_batch = 8;         ///< dynamic-batch ceiling
  std::int64_t max_wait_us = 200;  ///< straggler window after first request
  std::size_t queue_capacity = 64;  ///< admission bound; overflow rejects
  QuantizeSpec quantize{};   ///< serving precision of loaded replicas
};

/// Rejected submit(): the image does not fit the model. Carries the
/// structured pieces (which model, expected vs got shape) so callers —
/// the HTTP 400 handler above all — can report without re-parsing the
/// what() text. Raised at admission, never inside a worker forward.
class ShapeError : public std::invalid_argument {
 public:
  ShapeError(std::string model, tensor::Shape expected, tensor::Shape got);

  [[nodiscard]] const std::string& model() const noexcept { return model_; }
  [[nodiscard]] const tensor::Shape& expected() const noexcept { return expected_; }
  [[nodiscard]] const tensor::Shape& got() const noexcept { return got_; }

 private:
  std::string model_;
  tensor::Shape expected_;
  tensor::Shape got_;
};

/// Why submit() returned nullopt (for callers that need to answer 429
/// vs 503 rather than just "rejected").
enum class RejectReason {
  kNone,       ///< accepted
  kQueueFull,  ///< load shed — retry later
  kClosed,     ///< shutting down — drain in progress
};

/// Point-in-time counters + latency percentiles (microseconds). Also the
/// per-model block of the HTTP `/stats` body, through json_fields().
struct ServerStats {
  std::string name;  ///< ServeConfig::name
  std::string precision = "fp32";  ///< current replica set's precision tag
  int model_version = 0;
  std::uint64_t accepted = 0;
  /// Shed at admission, split by what operators act on (full = add
  /// capacity, closed = expected drain).
  std::uint64_t rejected_full = 0;    ///< queue overflow (load shedding)
  std::uint64_t rejected_closed = 0;  ///< admissions after shutdown began
  std::uint64_t completed = 0;
  std::uint64_t batches = 0;
  std::uint64_t reloads = 0;
  std::size_t queue_depth = 0;
  /// Completed-request split by the precision that served them; a
  /// hot-reload that flips precision moves subsequent traffic between
  /// these (fp32_requests + quantized_requests == completed).
  std::uint64_t fp32_requests = 0;
  std::uint64_t quantized_requests = 0;
  double mean_batch_size = 0.0;

  double queue_p50_us = 0.0, queue_p95_us = 0.0, queue_p99_us = 0.0;
  double total_p50_us = 0.0, total_p95_us = 0.0, total_p99_us = 0.0;
  double total_mean_us = 0.0, total_max_us = 0.0;

  static constexpr auto json_fields() {
    namespace json = util::json;
    return std::make_tuple(json::field("name", &ServerStats::name),
                           json::field("precision", &ServerStats::precision),
                           json::field("model_version", &ServerStats::model_version),
                           json::field("accepted", &ServerStats::accepted),
                           json::field("rejected_full", &ServerStats::rejected_full),
                           json::field("rejected_closed", &ServerStats::rejected_closed),
                           json::field("completed", &ServerStats::completed),
                           json::field("batches", &ServerStats::batches),
                           json::field("reloads", &ServerStats::reloads),
                           json::field("queue_depth", &ServerStats::queue_depth),
                           json::field("fp32_requests", &ServerStats::fp32_requests),
                           json::field("quantized_requests", &ServerStats::quantized_requests),
                           json::field("mean_batch_size", &ServerStats::mean_batch_size),
                           json::field("queue_p50_us", &ServerStats::queue_p50_us),
                           json::field("queue_p95_us", &ServerStats::queue_p95_us),
                           json::field("queue_p99_us", &ServerStats::queue_p99_us),
                           json::field("total_p50_us", &ServerStats::total_p50_us),
                           json::field("total_p95_us", &ServerStats::total_p95_us),
                           json::field("total_p99_us", &ServerStats::total_p99_us),
                           json::field("total_mean_us", &ServerStats::total_mean_us),
                           json::field("total_max_us", &ServerStats::total_max_us));
  }
};

class Server {
 public:
  /// Spins up workers serving the checkpoint at `checkpoint_path`.
  Server(ServeConfig config, const std::string& checkpoint_path);
  /// Graceful: stops admissions, drains every queued request, joins.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Submit one (1,C,S,S) image — or (C,S,S), auto-unsqueezed. Returns
  /// nullopt when shedding load (queue full) or shutting down; otherwise
  /// a future the worker pool fulfils. Throws ShapeError — naming the
  /// model and the expected vs got shape — when the image does not fit,
  /// so a bad request never reaches a worker forward. When `why` is
  /// non-null it reports the rejection cause (kNone on acceptance).
  [[nodiscard]] std::optional<std::future<Response>> submit(tensor::Tensor image,
                                                            RejectReason* why = nullptr);

  /// Hot-swap weights from a new checkpoint. Throws on a bad file, in
  /// which case the old weights keep serving (strong guarantee). A
  /// `quantize` spec switches the serving precision in the same atomic
  /// swap (e.g. re-serve the current fp32 checkpoint as int8) and sticks
  /// for subsequent reloads; without one the current spec is kept.
  void reload(const std::string& checkpoint_path,
              std::optional<QuantizeSpec> quantize = std::nullopt);

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] int model_version() const { return registry_.version(); }
  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }
  /// The model name used in errors and /stats (ServeConfig::name).
  [[nodiscard]] const std::string& name() const noexcept { return config_.name; }

  /// Idempotent; called by the destructor. After shutdown() returns all
  /// admitted requests have been answered and workers have exited.
  void shutdown();

 private:
  void worker_loop(int worker_id);
  void run_batch(Batch&& batch, int worker_id);

  ServeConfig config_;
  ReplicaRegistry registry_;
  RequestQueue queue_;
  DynamicBatcher batcher_;
  std::vector<std::thread> workers_;
  bool shut_down_ = false;  ///< guarded by stats_mutex_

  mutable std::mutex stats_mutex_;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_full_ = 0;
  std::uint64_t rejected_closed_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t reloads_ = 0;
  std::uint64_t fp32_requests_ = 0;
  std::uint64_t quantized_requests_ = 0;
  util::Histogram queue_latency_us_;
  util::Histogram total_latency_us_;
};

}  // namespace dlscale::serve
