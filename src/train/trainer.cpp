#include "dlscale/train/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "dlscale/tensor/ops.hpp"
#include "dlscale/tensor/planner.hpp"
#include "dlscale/train/checkpoint.hpp"
#include "dlscale/util/logging.hpp"

namespace dlscale::train {

namespace {

constexpr int kIgnoreLabel = 255;

models::MiniDeepLabV3Plus make_model(const TrainConfig& config, int rank) {
  // With broadcast enabled, replicas may start from different seeds;
  // rank 0's weights are distributed by broadcast_parameters below.
  util::Rng init_rng(config.broadcast_initial_state
                         ? config.seed + static_cast<std::uint64_t>(rank)
                         : config.seed);
  return models::MiniDeepLabV3Plus(config.model, init_rng);
}

// The one eval loop: scores `indices` in batches of `batch_size` into
// `confusion`. Each batch's forward borrows from `arena`, reset per batch.
void score(models::MiniDeepLabV3Plus& model, const data::SyntheticShapes& dataset,
           const std::vector<std::uint64_t>& indices, int batch_size, util::Arena& arena,
           data::ConfusionMatrix& confusion) {
  const auto step = static_cast<std::size_t>(std::max(1, batch_size));
  std::vector<std::uint64_t> batch_ids;
  std::vector<int> pred;  // reused across batches to avoid per-batch allocation
  for (std::size_t begin = 0; begin < indices.size(); begin += step) {
    const std::size_t end = std::min(begin + step, indices.size());
    batch_ids.assign(indices.begin() + static_cast<std::ptrdiff_t>(begin),
                     indices.begin() + static_cast<std::ptrdiff_t>(end));
    const data::Sample batch = dataset.make_batch(batch_ids);
    arena.reset();
    util::ArenaScope scope(arena);
    const tensor::Tensor logits = model.forward(batch.image, /*train=*/false);
    tensor::argmax_channels(logits, pred);
    confusion.update(pred, batch.labels, kIgnoreLabel);
  }
}

}  // namespace

std::pair<double, double> evaluate(models::MiniDeepLabV3Plus& model,
                                   const data::SyntheticShapes& dataset,
                                   std::uint64_t first_index, std::uint64_t count,
                                   int batch_size) {
  std::vector<std::uint64_t> indices(count);
  std::iota(indices.begin(), indices.end(), first_index);
  data::ConfusionMatrix confusion(dataset.config().num_classes);
  util::Arena arena;
  score(model, dataset, indices, batch_size, arena, confusion);
  return {confusion.miou(), confusion.pixel_accuracy()};
}

// ---- HorovodHook ----

HorovodHook::HorovodHook(mpi::Communicator& comm, const TrainConfig& config)
    : comm_(&comm),
      runtime_(std::in_place, comm, config.knobs),
      stream_(gpu::ComputeModel(gpu::DeviceSpec::v100_summit(), config.virtual_flop_efficiency),
              [this](nn::Parameter& p, double ready_at) { on_gradient(p, ready_at); }) {
  if (config.autotune.enabled) tuner_.emplace(*runtime_, config.autotune);
}

int HorovodHook::rank() const { return comm_->rank(); }

int HorovodHook::size() const { return comm_->size(); }

void HorovodHook::broadcast_parameters(const std::vector<nn::Parameter*>& params) {
  for (nn::Parameter* p : params) runtime_->broadcast(p->value.data(), 0);
}

nn::GradSink* HorovodHook::on_step_begin() {
  // Each step is one FaultPlan tick: an injected step-kill for this rank
  // fires here, at the same well-defined point on every rank.
  comm_->fault_tick();
  stream_.begin_step(comm_->now());
  return &stream_;
}

void HorovodHook::on_gradient(nn::Parameter& param, double ready_at) {
  runtime_->submit({param.name, param.grad.data(), param.grad.data().size_bytes(), ready_at});
}

void HorovodHook::on_step_end() {
  runtime_->synchronize();
  if (tuner_) tuner_->step_end();
}

void HorovodHook::allreduce_sum(std::span<double> values) {
  comm_->allreduce(values, mpi::ReduceOp::kSum, mpi::MemSpace::kHost);
}

void HorovodHook::allreduce_sum(std::span<std::int64_t> values) {
  comm_->allreduce(values, mpi::ReduceOp::kSum, mpi::MemSpace::kHost);
}

hvd::RuntimeStats HorovodHook::stats() const { return runtime_->stats(); }

void HorovodHook::rebind(mpi::Communicator& comm) {
  // Copy the knobs out BEFORE emplace destroys the old runtime (emplace's
  // argument would otherwise read from a dead object). The fresh runtime
  // starts with an empty GradientCompressor: error-feedback residuals are
  // per-rank state scaled to the old world and do not carry across.
  const hvd::Knobs carried = runtime_->knobs();
  comm_ = &comm;
  runtime_.emplace(comm, carried);
  if (tuner_) tuner_->rebind(*runtime_);
}

void HorovodHook::on_world_change(const WorldInfo&) {
  runtime_->compressor().reset_residuals();
  if (tuner_) tuner_->on_world_change();
}

// ---- Trainer ----

Trainer::Trainer(const TrainConfig& config, CommHook& hook)
    : config_(config),
      hook_(hook),
      model_(make_model(config, hook.rank())),
      optimizer_(model_.parameters(), config.optimizer),
      dataset_(config.dataset),
      sampler_(config.train_samples, hook.size(), hook.rank(), config.seed ^ 0x5DEECE66Dull),
      schedule_(config.schedule),
      steps_per_epoch_(static_cast<long>(sampler_.shard_size() /
                                         static_cast<std::uint64_t>(config.batch_per_rank))),
      progress_(tensor::Tensor::zeros({2})) {
  if (steps_per_epoch_ == 0) {
    throw std::invalid_argument("Trainer: per-rank shard smaller than batch");
  }
  if (schedule_.max_iters <= 0) schedule_.max_iters = steps_per_epoch_ * config.epochs;
  if (config_.broadcast_initial_state) {
    hook_.broadcast_parameters(model_.parameters());
  }
  report_.parameter_count = model_.parameter_count();
}

float Trainer::step_body(const data::Sample& batch) {
  const tensor::Tensor logits = model_.forward(batch.image, /*train=*/true);
  tensor::Tensor grad;
  const float loss = tensor::softmax_cross_entropy(logits, batch.labels, kIgnoreLabel, grad);
  // Backward streams each finalized gradient into the hook's sink the
  // moment it is ready; on_step_end drains the negotiation/fusion cycles.
  model_.backward(grad, hook_.on_step_begin());
  hook_.on_step_end();
  return loss;
}

float Trainer::train_step(const data::Sample& batch, double lr) {
  // zero_grad outside the arena scope: parameter gradients (and the
  // optimizer's velocity) are heap-persistent across steps, so the traced
  // allocation sequence matches every replayed step exactly.
  optimizer_.zero_grad();
  float loss;
  if (config_.memory == MemoryMode::kOwning) {
    loss = step_body(batch);
  } else if (!step_arena_.planned() || !(batch.image.shape() == traced_shape_)) {
    // Trace this step's Tensor liveness, then pack and install the plan:
    // every later step with this input shape replays preassigned offsets
    // in one block — no heap, no bump-chain growth.
    if (step_arena_.planned()) step_arena_.clear_plan();
    step_arena_.begin_trace();
    {
      util::ArenaScope scope(step_arena_);
      loss = step_body(batch);
    }
    step_arena_.set_plan(tensor::MemoryPlanner::pack(step_arena_.take_trace()));
    traced_shape_ = batch.image.shape();
  } else {
    step_arena_.reset();
    util::ArenaScope scope(step_arena_);
    loss = step_body(batch);
  }
  optimizer_.step(lr);
  ++global_step_;
  return loss;
}

EpochReport Trainer::train_epoch() {
  const int epoch = next_epoch_++;
  const hvd::RuntimeStats epoch_start_stats = hook_.stats();
  const auto indices = sampler_.epoch_indices(static_cast<std::uint64_t>(epoch));
  double loss_sum = 0.0;
  for (long step = 0; step < steps_per_epoch_; ++step) {
    const std::vector<std::uint64_t> batch_ids(
        indices.begin() + static_cast<std::ptrdiff_t>(step * config_.batch_per_rank),
        indices.begin() + static_cast<std::ptrdiff_t>((step + 1) * config_.batch_per_rank));
    data::Sample batch = dataset_.make_batch(batch_ids);
    if (config_.augment) {
      util::Rng aug_rng = util::Rng(config_.seed ^ 0xA46A371Full)
                              .child(static_cast<std::uint64_t>(hook_.rank()))
                              .child(static_cast<std::uint64_t>(global_step_));
      data::augment(batch, aug_rng);
    }
    loss_sum += train_step(batch, schedule_.lr_at(global_step_));
  }

  // Reduce train loss across ranks.
  std::vector<double> loss_acc{loss_sum, static_cast<double>(steps_per_epoch_)};
  hook_.allreduce_sum(std::span<double>(loss_acc));

  // Distributed evaluation: each rank scores a strided slice of the
  // held-out set, then confusion counts are summed.
  data::ConfusionMatrix confusion(config_.dataset.num_classes);
  {
    std::vector<std::uint64_t> mine;
    for (std::uint64_t i = static_cast<std::uint64_t>(hook_.rank()); i < config_.eval_samples;
         i += static_cast<std::uint64_t>(hook_.size())) {
      mine.push_back(config_.train_samples + i);
    }
    // Eval forwards go through the dedicated bump arena (never the
    // planned step arena — eval batch shapes vary with the shard).
    score(model_, dataset_, mine, config_.batch_per_rank, eval_arena_, confusion);
    std::vector<std::int64_t> counts(confusion.counts().begin(), confusion.counts().end());
    hook_.allreduce_sum(std::span<std::int64_t>(counts));
    std::copy(counts.begin(), counts.end(), confusion.counts().begin());
  }

  EpochReport epoch_report;
  epoch_report.epoch = epoch;
  epoch_report.train_loss = loss_acc[0] / loss_acc[1];
  epoch_report.eval_miou = confusion.miou();
  epoch_report.eval_pixel_accuracy = confusion.pixel_accuracy();
  epoch_report.comm_stats = hook_.stats() - epoch_start_stats;
  report_.epochs.push_back(epoch_report);
  DLSCALE_DEBUG("epoch " << epoch << " loss " << epoch_report.train_loss << " mIOU "
                         << epoch_report.eval_miou);
  return epoch_report;
}

TrainReport Trainer::run() {
  while (next_epoch_ < config_.epochs) train_epoch();
  report_.steps = global_step_;
  report_.hvd_stats = hook_.stats();
  return report_;
}

std::vector<nn::NamedTensor> Trainer::state_tensors() {
  std::vector<nn::NamedTensor> tensors;
  for (nn::Parameter* p : model_.parameters()) tensors.push_back({p->name, &p->value});
  for (const nn::NamedTensor& b : model_.buffers()) tensors.push_back(b);
  const std::vector<nn::Parameter*>& params = optimizer_.parameters();
  std::vector<tensor::Tensor>& velocity = optimizer_.velocity();
  for (std::size_t i = 0; i < velocity.size(); ++i) {
    tensors.push_back({"opt.velocity." + params[i]->name, &velocity[i]});
  }
  tensors.push_back({"trainer.progress", &progress_});
  return tensors;
}

void Trainer::save_state(const std::string& path) {
  progress_.data()[0] = static_cast<float>(global_step_);
  progress_.data()[1] = static_cast<float>(next_epoch_);
  save_tensors(state_tensors(), path);
}

void Trainer::load_state(const std::string& path) {
  load_tensors(state_tensors(), path);
  global_step_ = std::lround(progress_.data()[0]);
  next_epoch_ = static_cast<int>(std::lround(progress_.data()[1]));
}

}  // namespace dlscale::train
