#include "dlscale/train/elastic.hpp"

#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "dlscale/util/logging.hpp"
#include "dlscale/util/wire.hpp"

namespace dlscale::train {

namespace {

// The coordinator round of the recovery protocol, run on the freshly
// shrunken communicator: rank 0 gathers every survivor's world epoch,
// checks the survivor set is coherent (same membership epoch everywhere),
// decides whether the shared checkpoint is restorable, and broadcasts the
// verdict so all survivors take the same branch. Centralising the decision
// matters: a failure during the post-save barrier can leave survivors
// disagreeing about whether the last save completed, but the file on disk
// — checked once, by one rank — is authoritative.
bool agree_on_restore(mpi::Communicator& comm, const std::string& checkpoint_path) {
  std::vector<std::byte> mine;
  util::wire::Writer(mine).put(comm.world_epoch());
  const auto epochs = comm.gather_blobs(mine, 0);
  std::uint8_t restore = 0;
  if (comm.rank() == 0) {
    for (const std::vector<std::byte>& blob : epochs) {
      util::wire::Reader reader(blob, "elastic survivor epoch");
      const auto epoch = reader.get<std::uint64_t>("world epoch");
      reader.expect_end();
      if (epoch != comm.world_epoch()) {
        throw std::runtime_error("elastic: survivors disagree on world epoch");
      }
    }
    restore = (!checkpoint_path.empty() && std::filesystem::exists(checkpoint_path)) ? 1 : 0;
  }
  const std::byte decision[1] = {std::byte{restore}};
  return comm.bcast_blob(decision, 0).at(0) != std::byte{0};
}

}  // namespace

TrainConfig ElasticTrainer::rescale_for_world(const TrainConfig& config, int new_size,
                                              int reference_size, bool rescale_lr) {
  TrainConfig scaled = config;
  if (rescale_lr && reference_size > 0 && new_size != reference_size) {
    // Linear scaling rule: effective batch shrank by new/reference, so the
    // base LR shrinks by the same factor. Everything else — seeds, shard
    // layout inputs, knobs — is left for the Trainer to re-derive from the
    // new world size, which is what makes an elastic restore bitwise-equal
    // to a fresh small-world run restoring the same checkpoint.
    scaled.schedule.base_lr *=
        static_cast<double>(new_size) / static_cast<double>(reference_size);
  }
  return scaled;
}

ElasticTrainer::ElasticTrainer(mpi::Communicator& world, ElasticConfig config)
    : config_(std::move(config)), initial_size_(world.size()), comm_(world) {
  active_config_ =
      rescale_for_world(config_.train, comm_.size(), initial_size_, config_.rescale_lr);
  hook_.emplace(comm_, active_config_);
  trainer_.emplace(active_config_, *hook_);
}

void ElasticTrainer::maybe_checkpoint() {
  if (config_.checkpoint_path.empty()) return;
  const int completed = trainer_->next_epoch();
  if (completed % std::max(1, config_.checkpoint_every_epochs) != 0) return;
  if (comm_.rank() == 0) trainer_->save_state(config_.checkpoint_path);
  // Every rank waits for the write to finish; a failure inside this
  // barrier is resolved by the coordinator round, which trusts the file.
  comm_.barrier();
}

void ElasticTrainer::recover(const mpi::RankFailed& failure) {
  const auto wall_start = std::chrono::steady_clock::now();
  RecoveryEvent event;
  event.failed_global_rank = failure.failed_global_rank;
  event.old_size = comm_.size();
  event.step_at_failure = trainer_->global_step();

  // 1. shrink: collective over the survivors; re-densified ranks.
  comm_ = comm_.shrink();
  event.new_size = comm_.size();
  event.world_epoch = comm_.world_epoch();

  // 2. agree: coordinator round on the new communicator.
  const bool restore = agree_on_restore(comm_, config_.checkpoint_path);

  // 3. rebuild: fresh runtime (and re-pointed tuner) over the shrunken
  // communicator.
  hook_->rebind(comm_);

  // 4. restore: a fresh Trainer at the new world size (fresh sampler and
  // steps_per_epoch), then the checkpoint — the exact state a clean
  // (N-1)-rank run would load. Without a checkpoint, training restarts
  // from scratch at the new size.
  active_config_ =
      rescale_for_world(config_.train, comm_.size(), initial_size_, config_.rescale_lr);
  trainer_.emplace(active_config_, *hook_);
  if (restore) trainer_->load_state(config_.checkpoint_path);
  event.restored_from_checkpoint = restore;
  event.resumed_step = trainer_->global_step();
  event.resumed_epoch = trainer_->next_epoch();
  event.steps_replayed = std::max(0L, event.step_at_failure - event.resumed_step);

  // 5. notify: the hook observes the rebuilt world.
  WorldInfo info;
  info.old_size = event.old_size;
  info.new_size = event.new_size;
  info.my_rank = comm_.rank();
  info.world_epoch = comm_.world_epoch();
  hook_->on_world_change(info);

  event.virtual_time_s = comm_.now();
  event.wall_recovery_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  recoveries_.push_back(event);
  DLSCALE_DEBUG("elastic: recovered from rank " << event.failed_global_rank << " failure, "
                                                << event.old_size << "->" << event.new_size
                                                << " ranks, resumed at step "
                                                << event.resumed_step);
}

TrainReport ElasticTrainer::run() {
  int performed = 0;
  for (;;) {
    try {
      while (trainer_->next_epoch() < active_config_.epochs) {
        const EpochReport epoch = trainer_->train_epoch();
        epochs_[epoch.epoch] = epoch;
        maybe_checkpoint();
      }
      break;
    } catch (const mpi::RankFailed& failure) {
      if (performed++ >= config_.max_recoveries) throw;
      recover(failure);
    }
  }
  TrainReport report;
  report.epochs.reserve(epochs_.size());
  for (const auto& [epoch, entry] : epochs_) report.epochs.push_back(entry);
  report.parameter_count = trainer_->report().parameter_count;
  report.steps = trainer_->global_step();
  report.hvd_stats = hook_->stats();
  return report;
}

}  // namespace dlscale::train
