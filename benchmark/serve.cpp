// serve-http and serve-inproc: one model behind HttpServer (fp32, width
// 16, JSON over 4 keep-alive loopback connections) or Server::submit
// (int8, width 64), one kernel thread.
//
// Load comes from one sender thread and one receiver thread per lane (a
// connection; in-process has one lane). The sender follows a seeded
// open-loop Poisson schedule over a ladder of fixed rates
// r_i = r0 * 1.5^i; the nominal rung r2, near 27% of capacity, runs
// longest. It then switches to a closed loop that keeps a fixed number
// of requests outstanding (pipelined two per connection over HTTP) to
// measure saturated throughput. Every latency is timed from the
// request's due time, so a stall is charged to the requests it delays.
// Every answer must be bitwise equal to a solo submit() of the same
// pooled image made during setup (batch invariance).
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <mutex>
#include <optional>
#include <thread>

#include "dlscale/http/protocol.hpp"
#include "dlscale/http/server.hpp"
#include "dlscale/models/deeplab.hpp"
#include "dlscale/serve/model_registry.hpp"
#include "dlscale/train/checkpoint.hpp"
#include "dlscale/util/thread_pool.hpp"
#include "dlscale/util/stats.hpp"
#include "workloads.hpp"

namespace dlbench {

namespace {

using dlscale::util::percentile;

namespace http = dlscale::http;
namespace json = dlscale::util::json;
namespace nn = dlscale::nn;
namespace serve = dlscale::serve;
namespace tensor = dlscale::tensor;

constexpr int kPoolImages = 64;
constexpr int kRungs = 6;
constexpr double kRungStep = 1.5;
constexpr int kNominalRung = 2;
constexpr int kConnections = 4;
// One kernel thread: on the shared 4-vCPU host, fanning a forward out
// across vCPUs made latency swing far more between runs than it saved.
constexpr int kKernelThreads = 1;
constexpr int kWarmupRequests = 16;
constexpr double kRateChunkS = 0.25;     // saturation: 90th-percentile rate over chunks this long
constexpr double kDrainLimitS = 1.0;     // a rung's backlog must clear within this
constexpr double kUntracedShare = 0.25;  // traced run: leading share of r2 without spans
constexpr int kAnswerTimeoutMs = 20000;  // a lost answer fails the run instead of hanging it
constexpr std::uint64_t kMaxBody = 64ull << 20;
const char* const kModel = "bench";

dlscale::models::MiniDeepLabV3Plus::Config model_config(int width) {
  return {.in_channels = 3, .num_classes = 8, .input_size = 16, .width = width};
}

struct ServeSpec {
  bool over_http = false;
  int width = 64;  ///< model base channel width
  nn::Precision precision = nn::Precision::kFp32;
  double r0 = 0.0;       ///< req/s of the lowest rung; r2 sits near 27% of capacity
  double slo_ms = 0.0;   ///< p99 limit a rung must meet to count as goodput
  int saturation_window = 0;  ///< outstanding requests in the closed-loop phase
};

/// One phase of the load: a fixed Poisson rate, or (rate 0) a closed
/// loop holding `window` requests outstanding.
struct Phase {
  double rate = 0.0;
  double seconds = 0.0;
  int window = 0;
};

/// A request between the sender and the receiver.
struct Sent {
  std::uint64_t id = 0;
  int phase = 0;
  int image = 0;
  int lane = 0;  ///< connection (http) the request travels on
  bool traced = false;
  bool refused = false;
  Clock::time_point due;
  Clock::time_point send_start;
  Clock::time_point send_end;
  std::future<serve::Response> answer;  ///< in-process only
};

/// What the receiver learned about one request.
struct Done {
  int phase = 0;
  bool ok = false;
  bool traced = false;
  double latency_ms = 0.0;   ///< due -> answer received
  double lateness_ms = 0.0;  ///< due -> send started
  double done_at_s = 0.0;    ///< answer received, seconds since load start
  double queue_us = 0.0;     ///< echoed by the server
  double total_us = 0.0;
  double batch = 0.0;
  double tax_us = 0.0;  ///< http: client round trip - server total_us
  double decode_us = 0.0;
  std::size_t response_bytes = 0;
};

/// Everything set up before the timed window: checkpoint, model,
/// front-end, connections, pooled inputs and their solo answers.
class ServeStack {
 public:
  ServeStack(const ServeSpec& spec, const Options& options) : spec_(spec) {
    const auto cfg = model_config(spec.width);
    const std::string checkpoint = options.out_dir + "/ckpt_" + options.workload + ".bin";
    {
      dlscale::util::Rng rng(options.seed);
      dlscale::models::MiniDeepLabV3Plus model(cfg, rng);
      dlscale::train::save_model(model.parameters(), model.buffers(), checkpoint);
    }
    serve::ServeConfig config;
    config.model = cfg;
    config.workers = 1;
    config.max_batch = 16;
    config.max_wait_us = 300;
    config.queue_capacity = 4096;  // the overload rung queues instead of shedding
    config.quantize.precision = spec.precision;
    dlscale::util::Rng rng(options.seed ^ 0x1A6E5ull);
    if (spec.precision == nn::Precision::kInt8) {
      config.quantize.calibration_images = tensor::Tensor::randn(
          {4, cfg.in_channels, cfg.input_size, cfg.input_size}, rng, 1.0f);
    }
    server_ = &registry_.add_model(kModel, std::move(config), checkpoint);
    std::filesystem::remove(checkpoint);

    for (int i = 0; i < kPoolImages; ++i) {
      pool_.push_back(tensor::Tensor::randn({1, cfg.in_channels, cfg.input_size, cfg.input_size},
                                            rng, 1.0f));
      auto answer = server_->submit(pool_.back());
      if (!answer.has_value()) throw std::runtime_error("reference submit refused");
      const tensor::Tensor logits = answer->get().logits;
      reference_.emplace_back(logits.ptr(), logits.ptr() + logits.numel());
    }
    if (spec.over_http) {
      frontend_.emplace(registry_);
      const auto start = Clock::now();
      for (const tensor::Tensor& image : pool_) {
        http::PredictRequest predict;
        predict.shape.assign(image.shape().begin(), image.shape().end());
        predict.image.assign(image.ptr(), image.ptr() + image.numel());
        bodies_.push_back(json::to_json(predict));
      }
      encode_us_ = us_between(start, Clock::now()) / kPoolImages;
      for (int c = 0; c < kConnections; ++c) {
        auto socket = dlscale::util::Socket::connect_loopback(frontend_->port());
        socket.set_recv_timeout_ms(kAnswerTimeoutMs);
        connections_.emplace_back(std::move(socket));
      }
    }
    // Warm the whole path (connection threads, replicas, per-thread buffers).
    for (int i = 0; i < kWarmupRequests; ++i) {
      Sent s;
      s.image = i % kPoolImages;
      s.id = static_cast<std::uint64_t>(i);
      s.lane = i % lanes();
      send(s);
      if (!receive(s).ok) throw std::runtime_error("warm-up request failed");
    }
  }

  /// Sender side: sends the request `s` describes.
  void send(Sent& s) {
    s.send_start = Clock::now();
    if (spec_.over_http) {
      http::Request request;
      request.method = "POST";
      request.target = std::string("/v1/models/") + kModel + ":predict";
      request.body = bodies_[static_cast<std::size_t>(s.image)];
      if (!connections_[static_cast<std::size_t>(s.lane)].write(request)) s.refused = true;
    } else {
      auto answer = server_->submit(pool_[static_cast<std::size_t>(s.image)]);
      if (answer.has_value()) {
        s.answer = std::move(*answer);
      } else {
        s.refused = true;
      }
    }
    s.send_end = Clock::now();
  }

  /// Receiver side: waits for the answer to `s` and checks it.
  Done receive(Sent& s) {
    Done d;
    d.phase = s.phase;
    d.traced = s.traced;
    d.lateness_ms = ms_between(s.due, s.send_start);
    if (s.refused) return d;
    const std::vector<float>& want = reference_[static_cast<std::size_t>(s.image)];
    if (spec_.over_http) {
      auto response = connections_[static_cast<std::size_t>(s.lane)].read_response(kMaxBody);
      const Clock::time_point got = Clock::now();
      if (!response || response->status != 200) return d;
      const auto predict = json::from_json<http::PredictResponse>(response->body);
      d.decode_us = us_between(got, Clock::now());
      d.latency_ms = ms_between(s.due, got);
      d.response_bytes = response->body.size();
      d.queue_us = predict.queue_us;
      d.total_us = predict.total_us;
      d.batch = predict.batch_size;
      d.tax_us = us_between(s.send_start, got) - predict.total_us;
      d.ok = predict.logits.size() == want.size() &&
             std::memcmp(predict.logits.data(), want.data(), want.size() * sizeof(float)) == 0;
    } else {
      if (s.answer.wait_for(std::chrono::milliseconds(kAnswerTimeoutMs)) !=
          std::future_status::ready) {
        return d;
      }
      const serve::Response response = s.answer.get();
      d.latency_ms = ms_between(s.due, Clock::now());
      d.queue_us = response.queue_us;
      d.total_us = response.total_us;
      d.batch = response.batch_size;
      d.ok = response.logits.numel() == want.size() &&
             std::memcmp(response.logits.ptr(), want.data(), want.size() * sizeof(float)) == 0;
    }
    return d;
  }

  /// Independent request channels: one per connection, one in-process.
  [[nodiscard]] int lanes() const noexcept { return spec_.over_http ? kConnections : 1; }
  [[nodiscard]] serve::ServerStats stats() const { return server_->stats(); }
  [[nodiscard]] double encode_us() const noexcept { return encode_us_; }
  [[nodiscard]] double request_bytes() const {
    double total = 0.0;
    for (const std::string& body : bodies_) total += static_cast<double>(body.size());
    return bodies_.empty() ? 0.0 : total / static_cast<double>(bodies_.size());
  }

 private:
  ServeSpec spec_;
  // Destroyed bottom-up: client connections close before the front-end
  // drains, and the front-end before the registry.
  serve::ModelRegistry registry_;
  serve::Server* server_ = nullptr;
  std::optional<http::HttpServer> frontend_;
  std::vector<http::Connection> connections_;
  std::vector<tensor::Tensor> pool_;
  std::vector<std::vector<float>> reference_;
  std::vector<std::string> bodies_;
  double encode_us_ = 0.0;
};

/// One sender thread and one receiver thread per lane driving `stack`
/// through `phases`. The sender puts each request on the lane with the
/// fewest outstanding, so HTTP requests queue behind one another only
/// when every connection is busy.
class LoadRun {
 public:
  LoadRun(ServeStack& stack, const Options& options, std::vector<Phase> phases, SpanLogs& spans)
      : stack_(stack),
        options_(options),
        phases_(std::move(phases)),
        lanes_(static_cast<std::size_t>(stack.lanes())) {
    for (int i = 0; i <= stack.lanes(); ++i) {
      spans.push_back(std::make_unique<SpanLog>(options.trace, i));
      logs_.push_back(spans.back().get());
    }
  }

  /// Runs every phase; returns one Done per answered or failed request.
  std::vector<Done> run() {
    start_ = Clock::now();
    std::vector<std::thread> receivers;
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
      receivers.emplace_back([this, lane] { receive_loop(lane); });
    }
    try {
      send_loop();
    } catch (...) {
      finish(receivers);
      throw;
    }
    finish(receivers);
    return std::move(done_);
  }

  /// Phase start offsets (seconds since the load started).
  [[nodiscard]] const std::vector<double>& phase_starts() const noexcept { return phase_starts_; }

 private:
  struct Lane {
    std::deque<Sent> queue;  ///< sent, answer not yet read
    int outstanding = 0;     ///< queue size plus the one being read
  };

  void send_loop() {
    dlscale::util::Rng rng(options_.seed ^ 0x5E2DE2ull);
    std::uint64_t id = 0;
    for (std::size_t p = 0; p < phases_.size(); ++p) {
      const Phase& phase = phases_[p];
      if (phase.rate <= 0.0) wait_outstanding(0);  // the closed loop starts drained
      const Clock::time_point phase_start = Clock::now();
      phase_starts_.push_back(seconds_between(start_, phase_start));
      const auto phase_end =
          phase_start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(phase.seconds));
      double offset_s = 0.0;
      while (true) {
        Sent s;
        s.id = id++;
        s.phase = static_cast<int>(p);
        s.image = static_cast<int>(rng.uniform_index(kPoolImages));
        if (phase.rate > 0.0) {
          offset_s += -std::log(1.0 - rng.uniform()) / phase.rate;
          if (offset_s >= phase.seconds) break;
          s.due = phase_start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(offset_s));
          std::this_thread::sleep_until(s.due);
        } else {
          wait_outstanding(phase.window - 1);
          s.due = Clock::now();
          if (s.due >= phase_end) break;
        }
        s.traced = options_.trace && !(static_cast<int>(p) == kNominalRung &&
                                       offset_s < kUntracedShare * phase.seconds);
        {
          std::lock_guard lock(mutex_);
          std::size_t best = s.id % lanes_.size();
          for (std::size_t l = 0; l < lanes_.size(); ++l) {
            if (lanes_[l].outstanding < lanes_[best].outstanding) best = l;
          }
          s.lane = static_cast<int>(best);
          ++lanes_[best].outstanding;
          ++outstanding_;
        }
        stack_.send(s);
        if (s.traced) logs_[0]->record("send", s.id, s.send_start, s.send_end);
        std::lock_guard lock(mutex_);
        lanes_[static_cast<std::size_t>(s.lane)].queue.push_back(std::move(s));
        cv_.notify_all();
      }
    }
  }

  void receive_loop(std::size_t lane) {
    SpanLog& log = *logs_[lane + 1];
    while (true) {
      Sent s;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [&] { return !lanes_[lane].queue.empty() || sending_done_; });
        if (lanes_[lane].queue.empty()) return;
        s = std::move(lanes_[lane].queue.front());
        lanes_[lane].queue.pop_front();
      }
      Done d;
      try {
        d = stack_.receive(s);
      } catch (const std::exception&) {
        d.phase = s.phase;  // counted as failed
      }
      const Clock::time_point now = Clock::now();
      d.done_at_s = seconds_between(start_, now);
      if (d.traced) log.record("request", s.id, s.due, now);
      std::lock_guard lock(mutex_);
      done_.push_back(d);
      --lanes_[lane].outstanding;
      --outstanding_;
      cv_.notify_all();
    }
  }

  void wait_outstanding(int at_most) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return outstanding_ <= at_most; });
  }

  void finish(std::vector<std::thread>& receivers) {
    {
      std::lock_guard lock(mutex_);
      sending_done_ = true;
      cv_.notify_all();
    }
    for (std::thread& t : receivers) t.join();
  }

  ServeStack& stack_;
  const Options& options_;
  std::vector<Phase> phases_;
  std::vector<SpanLog*> logs_;  ///< [0] the sender, [1 + l] lane l's receiver
  Clock::time_point start_;
  std::vector<double> phase_starts_;  ///< written by the sender, read after the join

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Lane> lanes_;     ///< guarded by mutex_
  std::vector<Done> done_;      ///< guarded by mutex_
  int outstanding_ = 0;         ///< guarded by mutex_
  bool sending_done_ = false;   ///< guarded by mutex_
};

Result run_serve(const Options& options, const ServeSpec& spec, SpanLogs& spans) {
  dlscale::util::set_global_thread_count(kKernelThreads);

  std::optional<ServeStack> stack;
  std::vector<double> setups;
  for (int repeat = 0; repeat < options.setup_repeats; ++repeat) {
    stack.reset();
    const Clock::time_point t0 = Clock::now();
    stack.emplace(spec, options);
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  // Rungs r0..r5 with the nominal rung longest, then the saturation phase.
  const double s = options.seconds;
  std::vector<Phase> phases;
  for (int i = 0; i < kRungs; ++i) {
    phases.push_back({spec.r0 * std::pow(kRungStep, i), i == kNominalRung ? s / 3 : s / 16, 0});
  }
  phases.push_back({0.0, s - (kRungs - 1) * s / 16 - s / 3, spec.saturation_window});
  const std::size_t saturation = phases.size() - 1;

  LoadRun load(*stack, options, phases, spans);
  const std::vector<Done> done = load.run();

  Result result;
  std::vector<std::vector<double>> latency(phases.size());
  std::vector<bool> rung_clean(phases.size(), true);
  std::vector<double> sat_done, lateness, queue_us, compute_us, batch, tax_us, decode_us, traced_ms,
      plain_ms;
  double response_bytes = 0.0;
  for (const Done& d : done) {
    const auto p = static_cast<std::size_t>(d.phase);
    ++result.attempted;
    const double phase_end = load.phase_starts()[p] + phases[p].seconds;
    if (!d.ok) {
      ++result.failed;
      rung_clean[p] = false;
      continue;
    }
    if (d.done_at_s > phase_end + kDrainLimitS) rung_clean[p] = false;
    latency[p].push_back(d.latency_ms);
    if (p == saturation) sat_done.push_back(d.done_at_s - load.phase_starts()[p]);
    if (p != kNominalRung) continue;
    lateness.push_back(d.lateness_ms);
    queue_us.push_back(d.queue_us);
    compute_us.push_back(d.total_us - d.queue_us);
    batch.push_back(d.batch);
    tax_us.push_back(d.tax_us);
    decode_us.push_back(d.decode_us);
    response_bytes += static_cast<double>(d.response_bytes);
    (d.traced ? traced_ms : plain_ms).push_back(d.latency_ms);
  }
  result.check(result.failed == 0, std::to_string(result.failed) + " of " +
                                       std::to_string(result.attempted) +
                                       " requests refused, lost, or not bitwise equal to solo "
                                       "submit()");

  const std::vector<double>& nominal = latency[kNominalRung];
  result.set("setup_s", percentile(setups, 50.0), "s");
  result.set("throughput",
             percentile(chunk_rates(sat_done, phases[saturation].seconds, kRateChunkS, 1.0), 90.0),
             "1/s");
  result.set("latency_p50_ms", percentile(nominal, 50.0), "ms");
  result.set("peak_rss_mib", peak_rss_mib(), "MiB");
  result.set("latency_p99_ms", percentile(nominal, 99.0), "ms");

  double goodput = 0.0;
  for (int i = 0; i < kRungs; ++i) {
    const double p99 = percentile(latency[static_cast<std::size_t>(i)], 99.0);
    result.set("serve.rung" + std::to_string(i) + ".p99_ms", p99, "ms");
    if (rung_clean[static_cast<std::size_t>(i)] && p99 <= spec.slo_ms) {
      goodput = phases[static_cast<std::size_t>(i)].rate;
    }
  }
  const serve::ServerStats stats = stack->stats();
  result.set("serve.goodput_rps", goodput, "1/s");
  result.set("serve.queue_us_p50", percentile(queue_us, 50.0), "us");
  result.set("serve.queue_us_p99", percentile(queue_us, 99.0), "us");
  result.set("serve.compute_us_p50", percentile(compute_us, 50.0), "us");
  double batch_sum = 0.0;
  for (const double b : batch) batch_sum += b;
  result.set("serve.batch_mean",
             batch.empty() ? 0.0 : batch_sum / static_cast<double>(batch.size()), "count");
  result.set("serve.rejected_full", static_cast<double>(stats.rejected_full), "count");
  result.set("serve.rejected_closed", static_cast<double>(stats.rejected_closed), "count");
  result.set("gen.lateness_p99_ms", percentile(lateness, 99.0), "ms");
  if (options.trace && !plain_ms.empty()) {
    result.set("trace.overhead_pct",
               100.0 * (percentile(traced_ms, 50.0) / percentile(plain_ms, 50.0) - 1.0), "%");
  }
  if (spec.over_http) {
    const double answered = static_cast<double>(std::max<std::size_t>(nominal.size(), 1));
    result.set("http.tax_us_p50", percentile(tax_us, 50.0), "us");
    result.set("http.tax_us_p99", percentile(tax_us, 99.0), "us");
    result.set("http.request_bytes", stack->request_bytes(), "B");
    result.set("http.response_bytes", response_bytes / answered, "B");
    result.set("json.encode_us", stack->encode_us(), "us");
    result.set("json.decode_us", percentile(decode_us, 50.0), "us");
  }
  return result;
}

}  // namespace

Result run_serve_http(const Options& options, SpanLogs& spans) {
  ServeSpec spec;
  spec.over_http = true;
  spec.width = 16;
  spec.precision = nn::Precision::kFp32;
  spec.r0 = 210.0;
  spec.slo_ms = 50.0;
  spec.saturation_window = 2 * kConnections;
  return run_serve(options, spec, spans);
}

Result run_serve_inproc(const Options& options, SpanLogs& spans) {
  ServeSpec spec;
  spec.over_http = false;
  spec.precision = nn::Precision::kInt8;
  spec.r0 = 185.0;
  spec.slo_ms = 20.0;
  spec.saturation_window = 64;
  return run_serve(options, spec, spans);
}

}  // namespace dlbench
