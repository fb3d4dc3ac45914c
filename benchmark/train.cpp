// train-compute, train-hvd, train-hvd-int8: Trainer::train_step in a
// timed loop, serial over NoComm or on a 4-rank simmpi world over
// HorovodHook. A traced run wraps the hook in ProbeHook, a CommHook
// decorator that also wraps the backward GradSink (the composition
// AutotuneHook uses), and splits every step into spans from outside.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>

#include "dlscale/mpi/comm.hpp"
#include "dlscale/train/trainer.hpp"
#include "dlscale/util/thread_pool.hpp"
#include "dlscale/util/stats.hpp"
#include "workloads.hpp"

namespace dlbench {

namespace {

using dlscale::util::percentile;

namespace data = dlscale::data;
namespace dt = dlscale::train;
namespace gpu = dlscale::gpu;
namespace hvd = dlscale::hvd;
namespace mpi = dlscale::mpi;
namespace nn = dlscale::nn;

constexpr int kWarmupSteps = 3;
constexpr std::size_t kDigestSteps = 64;  // losses hashed into loss_digest
constexpr int kStopCheckEvery = 16;       // steps between rank 0's stop broadcasts
constexpr double kLearningRate = 0.01;
constexpr double kRateChunkS = 0.25;  // throughput: median rate over chunks this long
constexpr double kUntracedShare = 0.25;  // traced run: leading share with spans off
// One kernel thread per rank: on the shared 4-vCPU host, a step fanned
// out over every vCPU swung 15-40% between runs, a serial one about 4%.
constexpr int kKernelThreads = 1;

// One backward span per mini-DLv3+ module, in parameters() order; every
// parameter name is "<module>.<...>".
constexpr const char* kModuleSpans[] = {
    "nn.bwd.stem",     "nn.bwd.block1",       "nn.bwd.block2",      "nn.bwd.block3",
    "nn.bwd.aspp.1x1", "nn.bwd.aspp.r2",      "nn.bwd.aspp.r4",     "nn.bwd.aspp.pool",
    "nn.bwd.aspp.project", "nn.bwd.decoder.low_level", "nn.bwd.decoder.conv",
    "nn.bwd.classifier"};
constexpr const char* kOtherSpan = "nn.bwd.other";
constexpr std::size_t kSpanPrefix = std::string_view("nn.bwd.").size();

const char* module_span(const std::string& param) {
  for (const char* span : kModuleSpans) {
    const std::string_view module = std::string_view(span).substr(kSpanPrefix);
    if (param.size() > module.size() && param.compare(0, module.size(), module) == 0 &&
        param[module.size()] == '.') {
      return span;
    }
  }
  return kOtherSpan;
}

/// Wraps the backward sink: the wall time from one grad_ready to the
/// next belongs to the module of the later parameter, and the roofline
/// time of every backward_cost is summed for the roofline ratio.
class ProbeSink final : public nn::GradSink {
 public:
  ProbeSink(SpanLog& log, gpu::ComputeModel roofline) : log_(log), roofline_(roofline) {}

  void arm(nn::GradSink* inner, std::uint64_t id, Clock::time_point start) {
    inner_ = inner;
    id_ = id;
    from_ = start;
  }

  void backward_cost(double flops, double bytes_touched) override {
    roofline_s_ += roofline_.kernel_time(flops, bytes_touched);
    if (inner_ != nullptr) inner_->backward_cost(flops, bytes_touched);
  }

  void grad_ready(nn::Parameter& param) override {
    const Clock::time_point now = Clock::now();
    log_.record(module_span(param.name), id_, from_, now);
    from_ = now;
    if (inner_ != nullptr) inner_->grad_ready(param);
  }

  /// Backward returned: the tail after the last gradient is "other".
  void finish(Clock::time_point end) { log_.record(kOtherSpan, id_, from_, end); }

  [[nodiscard]] double roofline_s() const noexcept { return roofline_s_; }

 private:
  SpanLog& log_;
  gpu::ComputeModel roofline_;
  nn::GradSink* inner_ = nullptr;
  std::uint64_t id_ = 0;
  Clock::time_point from_;
  double roofline_s_ = 0.0;
};

/// CommHook decorator that cuts each train_step into forward (step start
/// to on_step_begin), backward (to on_step_end) and comm wait (the inner
/// on_step_end); the caller records the optimizer tail after the step.
class ProbeHook final : public dt::CommHook {
 public:
  ProbeHook(dt::CommHook& inner, SpanLog& log, gpu::ComputeModel roofline)
      : inner_(inner), log_(log), sink_(log, roofline) {}

  void set_recording(bool on) noexcept { recording_ = on; }
  void step_begin(std::uint64_t id, Clock::time_point at) noexcept {
    id_ = id;
    step_start_ = at;
  }
  [[nodiscard]] Clock::time_point comm_end() const noexcept { return comm_end_; }
  [[nodiscard]] double roofline_s() const noexcept { return sink_.roofline_s(); }

  [[nodiscard]] int rank() const override { return inner_.rank(); }
  [[nodiscard]] int size() const override { return inner_.size(); }
  void broadcast_parameters(const std::vector<nn::Parameter*>& params) override {
    inner_.broadcast_parameters(params);
  }
  nn::GradSink* on_step_begin() override {
    if (!recording_) return inner_.on_step_begin();
    backward_start_ = Clock::now();
    log_.record("train.forward", id_, step_start_, backward_start_);
    sink_.arm(inner_.on_step_begin(), id_, backward_start_);
    return &sink_;
  }
  void on_gradient(nn::Parameter& param, double ready_at) override {
    inner_.on_gradient(param, ready_at);
  }
  void on_step_end() override {
    if (!recording_) {
      inner_.on_step_end();
      return;
    }
    const Clock::time_point now = Clock::now();
    sink_.finish(now);
    log_.record("train.backward", id_, backward_start_, now);
    inner_.on_step_end();
    comm_end_ = Clock::now();
    log_.record("train.comm_wait", id_, now, comm_end_);
  }
  void allreduce_sum(std::span<double> values) override { inner_.allreduce_sum(values); }
  void allreduce_sum(std::span<std::int64_t> values) override { inner_.allreduce_sum(values); }
  [[nodiscard]] hvd::RuntimeStats stats() const override { return inner_.stats(); }
  void on_world_change(const dt::WorldInfo& info) override { inner_.on_world_change(info); }

 private:
  dt::CommHook& inner_;
  SpanLog& log_;
  ProbeSink sink_;
  bool recording_ = false;
  std::uint64_t id_ = 0;
  Clock::time_point step_start_;
  Clock::time_point backward_start_;
  Clock::time_point comm_end_;
};

/// Batches of seeded random dataset indices, one stream per rank.
class BatchStream {
 public:
  BatchStream(const data::SyntheticShapes::Config& config, std::uint64_t seed, int rank, int batch)
      : dataset_(config),
        rng_(dlscale::util::Rng(seed ^ 0xBA7C4E5ull).child(static_cast<std::uint64_t>(rank))),
        indices_(static_cast<std::size_t>(batch)) {}

  data::Sample next() {
    for (std::uint64_t& index : indices_) index = rng_.uniform_index(1ull << 32);
    return dataset_.make_batch(indices_);
  }

 private:
  data::SyntheticShapes dataset_;
  dlscale::util::Rng rng_;
  std::vector<std::uint64_t> indices_;
};

struct TrainSpec {
  dt::TrainConfig config;
  int ranks = 1;  ///< 1: serial Trainer over NoComm; else HorovodHook over simmpi
};

TrainSpec compute_spec(const Options& options) {
  TrainSpec spec;
  const int size = options.smoke ? 16 : 32;
  spec.config.model = {.in_channels = 3, .num_classes = 6, .input_size = size, .width = 16};
  spec.config.dataset = {.image_size = size, .num_classes = 6, .max_shapes = 3, .noise = 0.15f,
                         .seed = options.seed};
  spec.config.batch_per_rank = 8;
  spec.config.train_samples = 1024;
  spec.config.seed = options.seed;
  return spec;
}

TrainSpec hvd_spec(const Options& options, bool int8) {
  TrainSpec spec;
  spec.config.model = {.in_channels = 3, .num_classes = 6, .input_size = 16, .width = 8};
  spec.config.dataset = {.image_size = 16, .num_classes = 6, .max_shapes = 3, .noise = 0.15f,
                         .seed = options.seed};
  spec.config.batch_per_rank = 2;
  spec.config.train_samples = 1024;
  spec.config.seed = options.seed;
  spec.config.knobs = hvd::Knobs::paper_tuned();
  if (int8) {
    spec.config.knobs.compression = hvd::CompressionAlgo::kInt8;
    spec.config.knobs.error_feedback = true;
  }
  spec.ranks = 4;
  return spec;
}

/// What one rank saw during its setup and timed window.
struct RankOutcome {
  Clock::time_point ready_at;     ///< setup finished
  std::vector<double> step_ms;    ///< loop time (batch + step) per recorded step
  std::vector<double> plain_ms;   ///< traced run: loop times with spans off
  std::vector<double> done_at_s;  ///< step completion offsets in the window
  double window_s = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t traced_steps = 0;
  std::uint64_t nonfinite = 0;
  std::vector<float> first_losses;
  double virtual_s = 0.0;  ///< comm clock advance inside train_step calls
  hvd::RuntimeStats hvd;
  mpi::CommStats comm;
  double roofline_s = 0.0;
  std::uint64_t param_hash = 0;
};

/// One rank's setup and, when `timed`, its window. `comm` is null for the
/// serial workload. Collective over `comm`.
void run_rank(const TrainSpec& spec, const Options& options, dt::CommHook& base,
              mpi::Communicator* comm, SpanLog& log, bool timed, RankOutcome& out) {
  const int rank = base.rank();
  ProbeHook probe(base, log,
                  gpu::ComputeModel(gpu::DeviceSpec::v100_summit(),
                                    spec.config.virtual_flop_efficiency));
  dt::CommHook& hook = options.trace ? static_cast<dt::CommHook&>(probe) : base;
  dt::Trainer trainer(spec.config, hook);
  BatchStream batches(spec.config.dataset, options.seed, rank, spec.config.batch_per_rank);
  for (int i = 0; i < kWarmupSteps; ++i) (void)trainer.train_step(batches.next(), kLearningRate);
  const std::string checkpoint = options.out_dir + "/ckpt_" + options.workload + "_r" +
                                 std::to_string(rank) + ".bin";
  trainer.save_state(checkpoint);
  trainer.load_state(checkpoint);
  std::filesystem::remove(checkpoint);
  if (comm != nullptr) comm->barrier();
  out.ready_at = Clock::now();
  if (!timed) return;

  const hvd::RuntimeStats hvd_before = hook.stats();
  const mpi::CommStats comm_before = comm != nullptr ? comm->stats() : mpi::CommStats{};
  const double plain_s = options.trace ? kUntracedShare * options.seconds : 0.0;
  const Clock::time_point start = Clock::now();
  Clock::time_point last = start;
  for (std::uint64_t step = 0;; ++step) {
    const Clock::time_point t0 = Clock::now();
    const bool recording = options.trace && seconds_between(start, t0) >= plain_s;
    probe.set_recording(recording);
    const data::Sample batch = batches.next();
    const Clock::time_point t1 = Clock::now();
    if (recording) log.record("data.batch", step, t0, t1);
    probe.step_begin(step, t1);
    const double v0 = comm != nullptr ? comm->now() : 0.0;
    const float loss = trainer.train_step(batch, kLearningRate);
    if (comm != nullptr) out.virtual_s += comm->now() - v0;
    last = Clock::now();
    if (recording) {
      log.record("train.optimizer", step, probe.comm_end(), last);
      log.record("train.step", step, t0, last);
      ++out.traced_steps;
    }
    (options.trace && !recording ? out.plain_ms : out.step_ms).push_back(ms_between(t0, last));
    out.done_at_s.push_back(seconds_between(start, last));
    ++out.steps;
    if (!std::isfinite(loss)) ++out.nonfinite;
    if (out.first_losses.size() < kDigestSteps) out.first_losses.push_back(loss);

    const bool more = seconds_between(start, last) < options.seconds;
    if (comm == nullptr) {
      if (!more) break;
    } else if ((step + 1) % kStopCheckEvery == 0) {
      // Ranks must agree on the step count: rank 0's clock decides.
      std::uint8_t flag = more ? 1 : 0;
      comm->bcast(std::as_writable_bytes(std::span<std::uint8_t>(&flag, 1)), 0,
                  mpi::MemSpace::kHost);
      if (flag == 0) break;
    }
  }
  out.window_s = seconds_between(start, last);
  out.hvd = hook.stats() - hvd_before;
  if (comm != nullptr) {
    const mpi::CommStats after = comm->stats();
    out.comm.comm_time_s = after.comm_time_s - comm_before.comm_time_s;
    out.comm.messages = after.messages - comm_before.messages;
    out.comm.bytes = after.bytes - comm_before.bytes;
  }
  out.roofline_s = probe.roofline_s();
  for (nn::Parameter* p : trainer.model().parameters()) {
    out.param_hash = fnv1a(p->value.ptr(), p->value.numel() * sizeof(float), out.param_hash);
  }
}

std::string hex_digest(const std::vector<float>& losses) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(
                    fnv1a(losses.data(), losses.size() * sizeof(float))));
  return text;
}

Result run_train(const Options& options, const TrainSpec& spec, SpanLogs& spans) {
  dlscale::util::set_global_thread_count(kKernelThreads);
  for (int r = 0; r < spec.ranks; ++r) spans.push_back(std::make_unique<SpanLog>(options.trace, r));

  std::vector<RankOutcome> outcomes;
  std::vector<double> setups;
  for (int repeat = 0; repeat < options.setup_repeats; ++repeat) {
    const bool timed = repeat + 1 == options.setup_repeats;
    outcomes.assign(static_cast<std::size_t>(spec.ranks), RankOutcome{});
    const Clock::time_point t0 = Clock::now();
    if (spec.ranks == 1) {
      dt::NoComm hook;
      run_rank(spec, options, hook, nullptr, *spans[0], timed, outcomes[0]);
    } else {
      mpi::WorldOptions world;
      // Two nodes of two GPUs each, both GPUs of a node on one socket.
      world.topology = dlscale::net::Topology(2, spec.ranks / 2, spec.ranks / 2);
      world.profile = dlscale::net::MpiProfile::mvapich2_gdr_like();
      mpi::run_world(world, [&](mpi::Communicator& comm) {
        dt::HorovodHook hook(comm, spec.config);
        run_rank(spec, options, hook, &comm, *spans[static_cast<std::size_t>(comm.rank())],
                 timed, outcomes[static_cast<std::size_t>(comm.rank())]);
      });
    }
    setups.push_back(seconds_between(t0, outcomes[0].ready_at));
  }

  const RankOutcome& lead = outcomes[0];
  Result result;
  result.attempted = lead.steps;
  std::uint64_t nonfinite = 0;
  bool replicas_agree = true;
  for (const RankOutcome& o : outcomes) {
    nonfinite += o.nonfinite;
    replicas_agree = replicas_agree && o.param_hash == lead.param_hash && o.steps == lead.steps;
  }
  result.failed = std::min<std::uint64_t>(lead.steps, nonfinite + (replicas_agree ? 0 : 1));
  result.check(nonfinite == 0, std::to_string(nonfinite) + " steps with a non-finite loss");
  result.check(replicas_agree, "final parameters differ between ranks");
  result.check(lead.steps > 0, "no timed steps");
  result.loss_digest = hex_digest(lead.first_losses);

  const double images_per_step = static_cast<double>(spec.ranks * spec.config.batch_per_rank);
  const double steps = static_cast<double>(std::max<std::uint64_t>(lead.steps, 1));
  result.set("setup_s", percentile(setups, 50.0), "s");
  result.set("throughput",
             percentile(chunk_rates(lead.done_at_s, lead.window_s, kRateChunkS, images_per_step),
                      50.0),
             "1/s");
  result.set("latency_p50_ms", percentile(lead.step_ms, 50.0), "ms");
  result.set("peak_rss_mib", peak_rss_mib(), "MiB");
  result.set("latency_p99_ms", percentile(lead.step_ms, 99.0), "ms");

  if (options.trace) {
    const double traced = static_cast<double>(std::max<std::uint64_t>(lead.traced_steps, 1));
    auto per_step_us = [&](const char* span) { return spans[0]->total_us(span) / traced; };
    result.set("train.loop_ms", per_step_us("train.step") / 1e3, "ms");
    result.set("data.batch_ms", per_step_us("data.batch") / 1e3, "ms");
    result.set("train.forward_ms", per_step_us("train.forward") / 1e3, "ms");
    result.set("train.backward_ms", per_step_us("train.backward") / 1e3, "ms");
    result.set("train.comm_wait_ms", per_step_us("train.comm_wait") / 1e3, "ms");
    result.set("train.optimizer_ms", per_step_us("train.optimizer") / 1e3, "ms");
    for (const char* span : kModuleSpans) {
      result.set(std::string("nn.bwd_us.") + (span + kSpanPrefix), per_step_us(span), "us");
    }
    result.set("nn.bwd_us.other", per_step_us(kOtherSpan), "us");
    const double backward_s = per_step_us("train.backward") * traced / 1e6;
    result.set("nn.bwd_roofline_ratio", backward_s > 0.0 ? lead.roofline_s / backward_s : 0.0,
               "ratio");
    const double plain_p50 = percentile(lead.plain_ms, 50.0);
    result.set("trace.overhead_pct",
               plain_p50 > 0.0 ? 100.0 * (percentile(lead.step_ms, 50.0) / plain_p50 - 1.0) : 0.0,
               "%");
    if (spec.ranks > 1) {
      const hvd::RuntimeStats& h = lead.hvd;
      result.set("train.virtual_step_ms", 1e3 * lead.virtual_s / steps, "ms");
      result.set("hvd.cycles_per_step", static_cast<double>(h.cycles) / steps, "count");
      result.set("hvd.fused_batches_per_step", static_cast<double>(h.fused_batches) / steps,
                 "count");
      result.set("hvd.control_bytes_per_step", static_cast<double>(h.control_bytes) / steps, "B");
      result.set("hvd.cache_hit_share",
                 h.cycles == 0 ? 0.0
                               : static_cast<double>(h.cache_hit_cycles) /
                                     static_cast<double>(h.cycles),
                 "fraction");
      result.set("hvd.wire_bytes_per_step", static_cast<double>(h.bytes_on_wire) / steps, "B");
      result.set("hvd.pack_ms_per_step", 1e3 * h.compress_pack_s / steps, "ms");
      result.set("hvd.unpack_ms_per_step", 1e3 * h.compress_unpack_s / steps, "ms");
      result.set("mpi.messages_per_step", static_cast<double>(lead.comm.messages) / steps, "count");
      result.set("mpi.bytes_per_step", static_cast<double>(lead.comm.bytes) / steps, "B");
      result.set("mpi.comm_virtual_ms_per_step", 1e3 * lead.comm.comm_time_s / steps, "ms");
    }
  }
  return result;
}

}  // namespace

Result run_train_compute(const Options& options, SpanLogs& spans) {
  return run_train(options, compute_spec(options), spans);
}

Result run_train_hvd(const Options& options, bool int8, SpanLogs& spans) {
  return run_train(options, hvd_spec(options, int8), spans);
}

}  // namespace dlbench
