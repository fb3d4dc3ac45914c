// Elastic fault-tolerant training (DESIGN.md §11).
//
// ElasticTrainer drives a Trainer over a HorovodHook so a rank failure is
// a recoverable event instead of a crash. The recovery protocol, run by
// every survivor when mpi::RankFailed escapes the epoch loop:
//
//   1. shrink      — survivors collectively rebuild a smaller
//                    communicator (mpi::Communicator::shrink re-densifies
//                    ranks, old relative order preserved);
//   2. agree       — a coordinator round on the NEW communicator: rank 0
//                    gathers every survivor's world epoch, checks they
//                    agree, decides whether the shared checkpoint is
//                    usable, and broadcasts the decision so all
//                    survivors restore — or restart — in lockstep;
//   3. rebuild     — HorovodHook::rebind constructs a fresh
//                    HorovodRuntime over the shrunken communicator
//                    (current knobs carried over) and re-points the
//                    hook's Autotuner, if any, at it;
//   4. restore     — a fresh Trainer at the new world size loads the last
//                    Trainer::save_state checkpoint (bitwise-identical to
//                    a clean (N-1)-rank load of the same file; progress
//                    counters resume at the checkpointed step), with the
//                    learning rate rescaled linearly to the shrunken
//                    effective batch;
//   5. continue    — the hook observes on_world_change(WorldInfo), which
//                    drops compression residuals and restarts the tuner's
//                    measurement window; the epoch loop re-enters, and
//                    replayed epochs overwrite their pre-failure reports.
//
// Fail-stop only: a dead rank never comes back; recovery always shrinks.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dlscale/train/trainer.hpp"

namespace dlscale::train {

/// Configuration of an elastic run (wraps the plain TrainConfig).
struct ElasticConfig {
  TrainConfig train;
  /// Checkpoint file rank 0 writes after every `checkpoint_every_epochs`
  /// completed epochs, and every survivor restores from after a failure.
  /// Empty disables checkpointing: recovery then restarts from scratch at
  /// the shrunken world size.
  std::string checkpoint_path;
  int checkpoint_every_epochs = 1;
  /// Rescale the base learning rate linearly with the effective batch
  /// (new_world / initial_world) after a shrink — the standard linear
  /// scaling rule applied in reverse.
  bool rescale_lr = true;
  /// Give up (rethrow RankFailed) after this many recoveries.
  int max_recoveries = 4;
};

/// One recovery, as observed by this rank.
struct RecoveryEvent {
  std::uint64_t world_epoch = 0;   ///< membership epoch after the rebuild
  int failed_global_rank = -1;     ///< from the RankFailed that triggered recovery
  int old_size = 0;
  int new_size = 0;
  long step_at_failure = 0;        ///< this rank's global_step when the failure surfaced
  long resumed_step = 0;           ///< global_step after restore (0 on restart)
  int resumed_epoch = 0;           ///< next_epoch after restore
  bool restored_from_checkpoint = false;
  long steps_replayed = 0;         ///< step_at_failure - resumed_step (work lost)
  double virtual_time_s = 0.0;     ///< communicator clock at recovery completion
  double wall_recovery_s = 0.0;    ///< host wall time spent in the recovery path
};

/// Failure-aware training driver. Collective: every rank of `world`
/// constructs one with the same config and calls run(). Ranks killed by
/// the world's FaultPlan exit cleanly inside run_world; survivors recover
/// and finish the run at the shrunken world size.
class ElasticTrainer {
 public:
  ElasticTrainer(mpi::Communicator& world, ElasticConfig config);

  /// Train to completion through any injected failures (up to
  /// max_recoveries). The returned report holds the final per-epoch
  /// metrics — replayed epochs overwrite pre-failure entries — and is
  /// identical on every surviving rank.
  TrainReport run();

  /// Recoveries this rank performed, in order.
  [[nodiscard]] const std::vector<RecoveryEvent>& recoveries() const noexcept {
    return recoveries_;
  }

  /// The communicator currently underneath the stack (shrinks over time).
  [[nodiscard]] mpi::Communicator& comm() noexcept { return comm_; }
  [[nodiscard]] Trainer& trainer() noexcept { return *trainer_; }

  /// The world-size rescaling rule, exposed so tests and tools can build
  /// the exact config an elastic run uses after shrinking to `new_size`
  /// from `reference_size` ranks: base LR is scaled by new/reference when
  /// rescale_lr is on; everything else is unchanged. Deterministic — the
  /// bitwise checkpoint-restore parity between an elastic run and a fresh
  /// small-world run depends on both sides using this exact config.
  [[nodiscard]] static TrainConfig rescale_for_world(const TrainConfig& config, int new_size,
                                                     int reference_size, bool rescale_lr = true);

 private:
  void maybe_checkpoint();
  void recover(const mpi::RankFailed& failure);

  ElasticConfig config_;
  int initial_size_;
  mpi::Communicator comm_;            ///< value copy; reassigned by shrink
  std::optional<HorovodHook> hook_;
  std::optional<Trainer> trainer_;
  TrainConfig active_config_;         ///< config_.train rescaled to comm_.size()
  std::map<int, EpochReport> epochs_; ///< by epoch; replays overwrite
  std::vector<RecoveryEvent> recoveries_;
};

}  // namespace dlscale::train
