// Unified training driver: one Trainer, pluggable communication.
//
// Each rank holds a full model replica (identically initialised from a
// shared seed, exactly like Horovod's broadcast of initial state), draws
// its shard of every epoch through the DistributedSampler, runs
// forward/backward on the real mini DeepLab-v3+, and applies SGD with the
// poly schedule. Communication is a CommHook strategy: HorovodHook
// streams every finalized gradient out of `model.backward` into the
// Horovod runtime the moment it is ready — in reverse layer order, each
// stamped with a virtual ready time accumulated from per-layer roofline
// backward costs (mirroring perf::profile_iteration) — so negotiation
// and fusion cycles overlap the remaining backward compute in virtual
// time. NoComm is the serial reference: same loop, no communication.
// Metrics (loss, confusion matrix) are reduced through the same simmpi
// collectives the gradients use.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dlscale/data/dataset.hpp"
#include "dlscale/gpu/device.hpp"
#include "dlscale/hvd/autotune.hpp"
#include "dlscale/hvd/horovod.hpp"
#include "dlscale/models/deeplab.hpp"
#include "dlscale/mpi/comm.hpp"
#include "dlscale/nn/optimizer.hpp"
#include "dlscale/util/arena.hpp"

namespace dlscale::train {

/// Storage strategy for step activations (DESIGN.md §10).
enum class MemoryMode {
  kOwning,   ///< every Tensor owns heap storage (pre-arena behaviour)
  kPlanned,  ///< activations borrow from a per-trainer arena under a liveness
             ///< plan: step 1 is traced, packed, and replayed
};

/// Configuration of one training run.
struct TrainConfig {
  models::MiniDeepLabV3Plus::Config model;
  data::SyntheticShapes::Config dataset;
  std::uint64_t train_samples = 256;  ///< dataset size (index space)
  std::uint64_t eval_samples = 64;    ///< held-out indices appended after train
  int batch_per_rank = 4;
  int epochs = 4;
  nn::PolySchedule schedule{0.05, 0.9, 0};  ///< max_iters 0 -> derived from run length
  nn::SgdMomentum::Config optimizer{};
  std::uint64_t seed = 7;  ///< weight init seed
  hvd::Knobs knobs{};
  /// Initialise each rank's replica from a rank-dependent seed, then
  /// broadcast rank-0's parameters through the Horovod core before the
  /// first step — hvd.broadcast_parameters semantics. When false, all
  /// ranks share `seed` directly.
  bool broadcast_initial_state = true;
  /// Apply random flip/translation augmentation to training batches
  /// (DeepLab-recipe style). Deterministic per (rank, epoch, step).
  bool augment = false;
  /// Fraction of V100 peak the backward kernels sustain in the roofline
  /// model that stamps virtual gradient ready times during backward.
  double virtual_flop_efficiency = 0.25;
  /// Online knob autotuning (hvd::Autotuner). When enabled, HorovodHook
  /// owns a tuner over its runtime and feeds it every completed step;
  /// `knobs` above is the starting point the tuner explores from.
  hvd::AutotuneOptions autotune{};
  /// Activation storage strategy. kPlanned traces the first step, packs a
  /// liveness plan (tensor::MemoryPlanner), and replays it every
  /// subsequent step — zero heap allocations in the steady state. A
  /// changed input shape re-traces automatically. kOwning restores the
  /// pre-arena heap-per-Tensor behaviour (the bitwise-identity baseline).
  MemoryMode memory = MemoryMode::kPlanned;
};

/// Per-epoch results (rank-0 view after metric reduction).
struct EpochReport {
  int epoch = 0;
  double train_loss = 0.0;
  double eval_miou = 0.0;
  double eval_pixel_accuracy = 0.0;
  /// Communication activity of THIS epoch (runtime-counter delta between
  /// the epoch's start and end; TrainReport.hvd_stats stays the lifetime
  /// total). All-zero under NoComm.
  hvd::RuntimeStats comm_stats;
};

/// Result of a full run.
struct TrainReport {
  std::vector<EpochReport> epochs;
  std::size_t parameter_count = 0;
  long steps = 0;
  hvd::RuntimeStats hvd_stats;

  [[nodiscard]] double final_miou() const {
    return epochs.empty() ? 0.0 : epochs.back().eval_miou;
  }
};

/// GradSink that accumulates a virtual backward timeline from per-layer
/// roofline costs and forwards each finalized gradient — stamped with its
/// ready time — to a submit callback. This is what turns `backward` into
/// the staggered, backprop-ordered gradient stream Horovod negotiates
/// over (the real-training analogue of perf::profile_iteration).
class TimedGradStream final : public nn::GradSink {
 public:
  using SubmitFn = std::function<void(nn::Parameter&, double ready_at)>;

  TimedGradStream(gpu::ComputeModel gpu, SubmitFn submit)
      : gpu_(gpu), submit_(std::move(submit)) {}

  /// Rewind the timeline to `start_s` (virtual seconds, typically the
  /// communicator clock) before each backward pass.
  void begin_step(double start_s) {
    start_ = start_s;
    elapsed_ = 0.0;
  }

  void backward_cost(double flops, double bytes_touched) override {
    elapsed_ += gpu_.kernel_time(flops, bytes_touched);
  }

  void grad_ready(nn::Parameter& param) override { submit_(param, start_ + elapsed_); }

  /// Virtual seconds of backward compute accumulated since begin_step.
  [[nodiscard]] double elapsed() const noexcept { return elapsed_; }

 private:
  gpu::ComputeModel gpu_;
  SubmitFn submit_;
  double start_ = 0.0;
  double elapsed_ = 0.0;
};

/// What a communicator rebuild looked like, delivered to every CommHook
/// via on_world_change after an elastic recovery (train::ElasticTrainer)
/// replaces the communicator underneath the hook chain.
struct WorldInfo {
  int old_size = 0;   ///< ranks before the failure
  int new_size = 0;   ///< ranks after shrink
  int my_rank = 0;    ///< this rank's id in the rebuilt communicator
  std::uint64_t world_epoch = 0;  ///< mpi::Communicator::world_epoch() after the rebuild
};

/// Communication strategy plugged into the Trainer — the public extension
/// point for anything that needs to observe or act on the training step
/// stream. The Trainer drives exactly this per-step lifecycle:
///
///   1. on_step_begin() — before model.backward. Returns the GradSink the
///      backward pass streams into, or nullptr when no streaming is
///      wanted (serial training).
///   2. on_gradient(param, ready_at) — once per finalized parameter
///      gradient, in backprop (reverse-parameters()) order, stamped with
///      the virtual time the gradient became available. Delivered by the
///      sink the hook returned from on_step_begin.
///   3. on_step_end() — after backward returns. Drains outstanding
///      communication; on return every param.grad holds the
///      world-averaged value.
///
/// Implementations: HorovodHook (data-parallel gradient averaging, plus
/// online knob tuning when TrainConfig::autotune is enabled) and NoComm
/// (serial reference). A decorator must forward every callback to the
/// wrapped hook; the inner hook's own sink delivers gradients to the
/// inner hook directly, so a decorator that must see every gradient
/// should wrap the sink returned by the inner on_step_begin as well.
class CommHook {
 public:
  virtual ~CommHook() = default;

  [[nodiscard]] virtual int rank() const = 0;
  [[nodiscard]] virtual int size() const = 0;

  /// Distribute rank-0's parameter values to all ranks (hvd.broadcast).
  virtual void broadcast_parameters(const std::vector<nn::Parameter*>& params) = 0;

  /// Sink for the upcoming backward pass, or nullptr when gradients need
  /// no streaming. Called once per step, before model.backward.
  virtual nn::GradSink* on_step_begin() = 0;

  /// One finalized parameter gradient, ready at virtual time `ready_at`.
  virtual void on_gradient(nn::Parameter& param, double ready_at) = 0;

  /// Drain outstanding gradient traffic (hvd.synchronize); after this the
  /// parameter grads hold the world-averaged values.
  virtual void on_step_end() = 0;

  virtual void allreduce_sum(std::span<double> values) = 0;
  virtual void allreduce_sum(std::span<std::int64_t> values) = 0;

  [[nodiscard]] virtual hvd::RuntimeStats stats() const = 0;

  /// The world was rebuilt (elastic recovery after a rank failure).
  /// Default no-op so existing hooks compile unchanged; decorators must
  /// forward it down the chain. Any state keyed to the old world size or
  /// clock — measurement windows, cached rank/size, per-rank buffers —
  /// must be reset here. Collective: every survivor must call it, in the
  /// same order relative to other collectives, because implementations
  /// may resynchronise state over the new communicator (HorovodHook's
  /// tuner re-broadcasts its knobs from rank 0).
  virtual void on_world_change(const WorldInfo& /*info*/) {}
};

/// Serial (no communication) hook: world of one, everything a no-op.
class NoComm final : public CommHook {
 public:
  [[nodiscard]] int rank() const override { return 0; }
  [[nodiscard]] int size() const override { return 1; }
  void broadcast_parameters(const std::vector<nn::Parameter*>&) override {}
  nn::GradSink* on_step_begin() override { return nullptr; }
  void on_gradient(nn::Parameter&, double) override {}
  void on_step_end() override {}
  void allreduce_sum(std::span<double>) override {}
  void allreduce_sum(std::span<std::int64_t>) override {}
  [[nodiscard]] hvd::RuntimeStats stats() const override { return {}; }
};

/// Data-parallel hook over the Horovod runtime: on_step_begin rewinds a
/// TimedGradStream to the communicator clock; the stream delivers each
/// finalized gradient to on_gradient, which submits {name, grad, bytes,
/// staggered ready_at} to the runtime; on_step_end synchronizes
/// (gradient averaging). When config.autotune.enabled, the hook owns an
/// hvd::Autotuner over its runtime and feeds it each completed step after
/// the synchronize, so it re-tunes at measurement-window boundaries.
class HorovodHook final : public CommHook {
 public:
  HorovodHook(mpi::Communicator& comm, const TrainConfig& config);

  [[nodiscard]] int rank() const override;
  [[nodiscard]] int size() const override;
  void broadcast_parameters(const std::vector<nn::Parameter*>& params) override;
  nn::GradSink* on_step_begin() override;
  void on_gradient(nn::Parameter& param, double ready_at) override;
  void on_step_end() override;
  void allreduce_sum(std::span<double> values) override;
  void allreduce_sum(std::span<std::int64_t> values) override;
  [[nodiscard]] hvd::RuntimeStats stats() const override;

  /// Re-point the hook at a rebuilt (shrunken) communicator: constructs a
  /// fresh HorovodRuntime over it, carrying the current knobs forward
  /// (so autotuned settings survive the failure), and re-points the tuner
  /// at it. The caller owns firing on_world_change afterwards.
  void rebind(mpi::Communicator& comm);

  /// Drop the gradient-compression residuals (DESIGN.md §12): they carry
  /// error scaled to the OLD world's averaging weights and the pre-restore
  /// parameter trajectory, so replaying them after an elastic shrink or a
  /// checkpoint restore would bias the first post-recovery steps. rebind()
  /// already starts from a fresh runtime (empty residuals); this makes the
  /// reset explicit for world changes that reuse the runtime. Then the
  /// tuner, if any, restarts its measurement window (collective).
  void on_world_change(const WorldInfo& info) override;

  [[nodiscard]] hvd::HorovodRuntime& runtime() noexcept { return *runtime_; }
  [[nodiscard]] mpi::Communicator& comm() noexcept { return *comm_; }
  /// The online knob tuner, or nullptr when config.autotune is disabled.
  [[nodiscard]] hvd::Autotuner* tuner() noexcept { return tuner_ ? &*tuner_ : nullptr; }

 private:
  // Pointer + optional (not reference + value) so rebind() can retarget
  // both after an elastic shrink.
  mpi::Communicator* comm_;
  std::optional<hvd::HorovodRuntime> runtime_;
  std::optional<hvd::Autotuner> tuner_;  ///< after runtime_: destroyed first
  TimedGradStream stream_;
};

/// One data-parallel training run on this rank. Collective when driven by
/// a HorovodHook: every rank constructs a Trainer over the same config
/// and calls the same methods in the same order.
class Trainer {
 public:
  Trainer(const TrainConfig& config, CommHook& hook);

  /// One optimisation step (forward, streamed backward, gradient
  /// averaging, SGD update) at learning rate `lr`; returns the loss.
  float train_step(const data::Sample& batch, double lr);

  /// One epoch: the rank's train shard, metric reduction, distributed
  /// evaluation of the held-out slice. Appends to the report.
  EpochReport train_epoch();

  /// Train the remaining epochs (all of them on a fresh Trainer; the
  /// leftover after load_state on a restored one) and return the report.
  TrainReport run();

  /// Checkpoint the full training state — parameters, BatchNorm running
  /// stats, SGD momentum, step/epoch counters — so a restored Trainer
  /// continues bitwise-identically to an uninterrupted run.
  void save_state(const std::string& path);
  void load_state(const std::string& path);

  [[nodiscard]] models::MiniDeepLabV3Plus& model() noexcept { return model_; }
  [[nodiscard]] const TrainReport& report() const noexcept { return report_; }
  [[nodiscard]] long global_step() const noexcept { return global_step_; }
  [[nodiscard]] long steps_per_epoch() const noexcept { return steps_per_epoch_; }
  [[nodiscard]] int next_epoch() const noexcept { return next_epoch_; }

  /// Arena backing the step activations under kPlanned: plan() exposes
  /// the installed liveness plan — packed peak vs naive sum — once a step
  /// has been traced.
  [[nodiscard]] const util::Arena& step_arena() const noexcept { return step_arena_; }

 private:
  [[nodiscard]] std::vector<nn::NamedTensor> state_tensors();
  /// Forward + loss + streamed backward + comm drain for one batch. All
  /// Tensor locals die inside, so a traced run records their releases.
  float step_body(const data::Sample& batch);

  TrainConfig config_;
  CommHook& hook_;
  models::MiniDeepLabV3Plus model_;
  nn::SgdMomentum optimizer_;
  data::SyntheticShapes dataset_;
  data::DistributedSampler sampler_;
  nn::PolySchedule schedule_;
  long steps_per_epoch_ = 0;
  long global_step_ = 0;
  int next_epoch_ = 0;
  tensor::Tensor progress_;  ///< {global_step, next_epoch} for checkpoints
  TrainReport report_;
  util::Arena step_arena_;    ///< activation storage for train_step
  util::Arena eval_arena_;    ///< bump arena for eval forwards, reset per batch
  tensor::Shape traced_shape_;  ///< batch shape the installed plan covers
};

/// Evaluate a model on the held-out slice; returns (miou, pixel_acc).
std::pair<double, double> evaluate(models::MiniDeepLabV3Plus& model,
                                   const data::SyntheticShapes& dataset,
                                   std::uint64_t first_index, std::uint64_t count,
                                   int batch_size);

}  // namespace dlscale::train
