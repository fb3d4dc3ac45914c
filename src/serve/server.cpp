#include "dlscale/serve/server.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "dlscale/serve/runner.hpp"
#include "dlscale/tensor/ops.hpp"

namespace dlscale::serve {

ShapeError::ShapeError(std::string model, tensor::Shape expected, tensor::Shape got)
    : std::invalid_argument("model \"" + model + "\": expected image shape " +
                            expected.str() + ", got " + got.str()),
      model_(std::move(model)),
      expected_(expected),
      got_(got) {}

Server::Server(ServeConfig config, const std::string& checkpoint_path)
    : config_(config),
      registry_(config.model, config.workers < 1 ? 1 : config.workers, checkpoint_path,
                config.quantize),
      queue_(config.queue_capacity),
      batcher_(queue_, config.max_batch, std::chrono::microseconds(config.max_wait_us)) {
  config_.workers = registry_.replica_count();
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

Server::~Server() { shutdown(); }

std::optional<std::future<Response>> Server::submit(tensor::Tensor image, RejectReason* why) {
  if (why != nullptr) *why = RejectReason::kNone;
  const tensor::Shape original_shape = image.shape();
  if (image.ndim() == 3) {
    image = image.reshaped({1, image.dim(0), image.dim(1), image.dim(2)});
  }
  const auto& m = config_.model;
  if (image.ndim() != 4 || image.dim(0) != 1 || image.dim(1) != m.in_channels ||
      image.dim(2) != m.input_size || image.dim(3) != m.input_size) {
    // Admission-time rejection with the structured pieces a client can
    // act on; the worker forward never sees a misshapen image.
    throw ShapeError(config_.name, {1, m.in_channels, m.input_size, m.input_size},
                     original_shape);
  }
  Request request;
  request.image = std::move(image);
  request.enqueued_at = Clock::now();
  std::future<Response> future = request.promise.get_future();
  switch (queue_.try_push(std::move(request))) {
    case PushResult::kFull: {
      std::lock_guard lock(stats_mutex_);
      ++rejected_full_;
      if (why != nullptr) *why = RejectReason::kQueueFull;
      return std::nullopt;
    }
    case PushResult::kClosed: {
      std::lock_guard lock(stats_mutex_);
      ++rejected_closed_;
      if (why != nullptr) *why = RejectReason::kClosed;
      return std::nullopt;
    }
    case PushResult::kAccepted:
      break;
  }
  std::lock_guard lock(stats_mutex_);
  ++accepted_;
  return future;
}

void Server::reload(const std::string& checkpoint_path, std::optional<QuantizeSpec> quantize) {
  // Throws on a bad file, leaving the old set intact.
  registry_.reload(checkpoint_path, std::move(quantize));
  std::lock_guard lock(stats_mutex_);
  ++reloads_;
}

void Server::worker_loop(int worker_id) {
  for (;;) {
    Batch batch = batcher_.next_batch();
    if (batch.empty()) return;  // queue closed and drained
    run_batch(std::move(batch), worker_id);
  }
}

void Server::run_batch(Batch&& batch, int worker_id) {
  const auto formed_at = Clock::now();
  // Pin the current replica generation for the whole batch. A concurrent
  // reload swaps the registry pointer but this shared_ptr keeps the old
  // weights alive until the forward below retires — drain by refcount.
  const std::shared_ptr<ReplicaSet> set = registry_.acquire();
  models::MiniDeepLabV3Plus& model = *set->replicas[static_cast<std::size_t>(worker_id)];

  // Per-worker runner: one arena reset per batch, so the forward's
  // activations reuse the same bytes every batch (zero steady-state heap
  // traffic — see serve/runner.hpp). Outputs are borrowed and copied into
  // the owning Response tensors below before the next batch runs.
  thread_local InferenceRunner runner;
  const tensor::Tensor* logits_ptr = nullptr;
  try {
    logits_ptr = &runner.run(model, batch.images);
  } catch (...) {
    for (Request& r : batch.requests) r.promise.set_exception(std::current_exception());
    return;
  }
  const tensor::Tensor& logits = *logits_ptr;
  const std::vector<int>& labels_scratch = runner.labels();

  const int classes = logits.dim(1);
  const int plane = logits.dim(2) * logits.dim(3);
  const std::size_t sample_floats = static_cast<std::size_t>(classes) * plane;
  const auto done_at = Clock::now();
  const double queue_us_base =
      std::chrono::duration<double, std::micro>(formed_at.time_since_epoch()).count();
  const double done_us_base =
      std::chrono::duration<double, std::micro>(done_at.time_since_epoch()).count();

  std::vector<Response> responses;
  responses.reserve(static_cast<std::size_t>(batch.size()));
  for (int n = 0; n < batch.size(); ++n) {
    Request& r = batch.requests[static_cast<std::size_t>(n)];
    Response response;
    response.logits = tensor::Tensor({1, classes, logits.dim(2), logits.dim(3)});
    std::memcpy(response.logits.ptr(), logits.ptr() + static_cast<std::size_t>(n) * sample_floats,
                sample_floats * sizeof(float));
    response.labels.assign(labels_scratch.begin() + static_cast<std::ptrdiff_t>(n) * plane,
                           labels_scratch.begin() + static_cast<std::ptrdiff_t>(n + 1) * plane);
    response.batch_size = batch.size();
    response.model_version = set->version;
    response.precision = set->precision;
    const double enq_us =
        std::chrono::duration<double, std::micro>(r.enqueued_at.time_since_epoch()).count();
    response.queue_us = queue_us_base - enq_us;
    response.total_us = done_us_base - enq_us;
    responses.push_back(std::move(response));
  }
  // Record stats BEFORE fulfilling the promises: a client that has seen
  // its response must also see stats().completed cover it.
  {
    std::lock_guard lock(stats_mutex_);
    ++batches_;
    completed_ += static_cast<std::uint64_t>(batch.size());
    if (set->precision == nn::Precision::kFp32) {
      fp32_requests_ += static_cast<std::uint64_t>(batch.size());
    } else {
      quantized_requests_ += static_cast<std::uint64_t>(batch.size());
    }
    for (const Response& resp : responses) {
      queue_latency_us_.add(resp.queue_us);
      total_latency_us_.add(resp.total_us);
    }
  }
  for (int n = 0; n < batch.size(); ++n) {
    batch.requests[static_cast<std::size_t>(n)].promise.set_value(
        std::move(responses[static_cast<std::size_t>(n)]));
  }
}

ServerStats Server::stats() const {
  ServerStats s;
  s.name = config_.name;
  s.queue_depth = queue_.depth();
  {
    // One generation for both: a concurrent reload cannot pair one set's
    // version with the other's precision.
    const std::shared_ptr<ReplicaSet> set = registry_.acquire();
    s.model_version = set->version;
    s.precision = nn::precision_name(set->precision);
  }
  std::lock_guard lock(stats_mutex_);
  s.accepted = accepted_;
  s.rejected_full = rejected_full_;
  s.rejected_closed = rejected_closed_;
  s.completed = completed_;
  s.batches = batches_;
  s.reloads = reloads_;
  s.fp32_requests = fp32_requests_;
  s.quantized_requests = quantized_requests_;
  s.mean_batch_size =
      batches_ == 0 ? 0.0 : static_cast<double>(completed_) / static_cast<double>(batches_);
  s.queue_p50_us = queue_latency_us_.percentile(50);
  s.queue_p95_us = queue_latency_us_.percentile(95);
  s.queue_p99_us = queue_latency_us_.percentile(99);
  s.total_p50_us = total_latency_us_.percentile(50);
  s.total_p95_us = total_latency_us_.percentile(95);
  s.total_p99_us = total_latency_us_.percentile(99);
  s.total_mean_us = total_latency_us_.mean();
  s.total_max_us = total_latency_us_.max();
  return s;
}

void Server::shutdown() {
  {
    std::lock_guard lock(stats_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  queue_.close();  // admissions now fail; workers drain the backlog
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

}  // namespace dlscale::serve
