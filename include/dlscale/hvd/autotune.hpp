// Online knob autotuning: the paper's manual sweep, run by the runtime.
//
// The paper reaches 92% efficiency at 132 GPUs by hand-tuning
// HOROVOD_FUSION_THRESHOLD, HOROVOD_CYCLE_TIME and hierarchical
// allreduce offline. Horovod later shipped an online autotuner for the
// same knobs; this module reproduces that idea over the reimplemented
// runtime:
//
//  * training steps are partitioned into fixed-size measurement windows;
//  * each window is scored by virtual step time from the communicator
//    clock (or, in functional timing-off worlds, a deterministic cost
//    surrogate over the RuntimeStats deltas);
//  * a TuningPolicy explores the (fusion_threshold x cycle_time x
//    hierarchical) space — coordinate descent by default;
//  * rank 0 owns scoring and the policy; its decision is broadcast, so
//    every rank stages the same knobs at the same step boundary and the
//    runtime flips them atomically at the next cycle;
//  * on convergence the tuner freezes on the best knobs seen.
//
// Knob changes are semantics-preserving: fusion/cycle/hierarchical only
// reshape WHEN and HOW gradients are averaged, never what is summed (see
// DESIGN.md section 7 for the bitwise argument), so tuning can run
// against live training without perturbing it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dlscale/hvd/horovod.hpp"

namespace dlscale::hvd {

/// Candidate values per tunable coordinate. By default only knobs that
/// are observation-only (they never change the floating-point result
/// under a fixed collective algorithm) are tunable; the forced algorithm
/// stays whatever the base Knobs say. `compressions` is the opt-in
/// exception: populating it lets the policy explore the gradient wire
/// codec (none/fp16/int8/topk — DESIGN.md §12), which IS
/// numerics-changing, so it stays empty (inert) unless the caller
/// explicitly accepts lossy averaging. A compression candidate sets
/// Knobs::compression.
struct TuningSpace {
  std::vector<std::size_t> fusion_thresholds{1 << 20, 8 << 20, 64 << 20};
  std::vector<double> cycle_times_s{1e-3, 3.5e-3, 10e-3, 25e-3};
  std::vector<bool> hierarchical{false, true};
  std::vector<CompressionAlgo> compressions{};  ///< empty = codec not tuned

  [[nodiscard]] std::size_t combinations() const noexcept {
    return fusion_thresholds.size() * cycle_times_s.size() * hierarchical.size() *
           std::max<std::size_t>(1, compressions.size());
  }
};

/// Autotuner configuration (TrainConfig::autotune / ScalingConfig::autotune).
/// The first window runs unscored under the initial knobs; the tuner
/// freezes on the best-so-far knobs after 64 windows at the latest.
struct AutotuneOptions {
  bool enabled = false;
  int window_steps = 4;     ///< optimisation steps per measurement window
  TuningSpace space;
};

/// One scored measurement window (rank 0's view).
struct WindowMeasurement {
  Knobs knobs;              ///< knobs the window ran under
  double score = 0.0;       ///< virtual seconds per step; lower is better
  double window_time_s = 0.0;
  int steps = 0;
  RuntimeStats stats;       ///< runtime-counter delta over the window
};

/// Search strategy over the tuning space. Lives on rank 0 only; the
/// protocol is strictly alternating: each propose() is answered by one
/// observe() of a window measured under the proposed knobs, until
/// propose() returns nullopt (converged — freeze on best()).
class TuningPolicy {
 public:
  virtual ~TuningPolicy() = default;

  /// Next candidate to measure, or nullopt when the search is done.
  virtual std::optional<Knobs> propose() = 0;

  /// Score for the most recent proposal.
  virtual void observe(const WindowMeasurement& measurement) = 0;

  /// Best knobs seen so far (the initial knobs until something beats them).
  [[nodiscard]] virtual Knobs best() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Deterministic coordinate descent: measure the baseline, then sweep one
/// coordinate at a time (fusion threshold, cycle time, hierarchical,
/// compression codec when TuningSpace::compressions is non-empty),
/// keeping a candidate only if it beats the incumbent by 2%. Passes
/// repeat while any coordinate improved, up to 3; a pass with no
/// improvement converges.
class CoordinateDescentPolicy final : public TuningPolicy {
 public:
  CoordinateDescentPolicy(Knobs base, TuningSpace space);

  std::optional<Knobs> propose() override;
  void observe(const WindowMeasurement& measurement) override;
  [[nodiscard]] Knobs best() const override { return best_; }
  [[nodiscard]] std::string name() const override { return "coordinate-descent"; }

  [[nodiscard]] double best_score() const noexcept { return best_score_; }

 private:
  [[nodiscard]] std::size_t axis_size(int axis) const;
  [[nodiscard]] Knobs with_candidate(int axis, std::size_t index) const;
  [[nodiscard]] bool matches_best(int axis, std::size_t index) const;

  TuningSpace space_;
  Knobs best_;
  double best_score_ = 0.0;
  bool baseline_measured_ = false;
  bool done_ = false;
  int pass_ = 0;
  int axis_ = 0;
  std::size_t candidate_ = 0;
  bool pass_improved_ = false;
};

/// Exhaustive sweep in deterministic grid order — the online equivalent
/// of bench_tuning_sweep. Mostly a reference policy: it proves the
/// TuningPolicy seam is real and gives tests a ground-truth optimum.
class GridSearchPolicy final : public TuningPolicy {
 public:
  GridSearchPolicy(Knobs base, TuningSpace space);

  std::optional<Knobs> propose() override;
  void observe(const WindowMeasurement& measurement) override;
  [[nodiscard]] Knobs best() const override { return best_; }
  [[nodiscard]] std::string name() const override { return "grid-search"; }

 private:
  TuningSpace space_;
  Knobs base_;
  Knobs best_;
  double best_score_ = 0.0;
  bool any_observed_ = false;
  std::size_t next_ = 0;
};

/// The online tuning loop. Construct one per rank over the rank's
/// runtime (same options everywhere) and call step_end() after every
/// optimisation step — it is collective at window boundaries, where
/// rank 0 scores the window, consults the policy, and broadcasts the
/// decision; every rank then stages identical knobs for the next cycle.
class Autotuner {
 public:
  /// `policy` is consulted on rank 0 only (pass nullptr for the default
  /// CoordinateDescentPolicy over options.space).
  Autotuner(HorovodRuntime& runtime, AutotuneOptions options,
            std::unique_ptr<TuningPolicy> policy = nullptr);

  Autotuner(const Autotuner&) = delete;
  Autotuner& operator=(const Autotuner&) = delete;

  /// Count one finished optimisation step; closes the window (collective:
  /// broadcast from rank 0) every options.window_steps calls. No-op once
  /// frozen, so it can stay in the training loop forever.
  void step_end();

  /// Stop tuning now and switch every rank to the policy's best knobs.
  /// Collective unless already frozen.
  void freeze();

  /// Point the tuner at a rebuilt runtime (elastic recovery constructs a
  /// fresh HorovodRuntime over the shrunken communicator). The old
  /// runtime may be destroyed after this returns. Follow with
  /// on_world_change() to restart measurement.
  void rebind(HorovodRuntime& runtime) { runtime_ = &runtime; }

  /// Discard the partially-measured window so pre- and post-failure
  /// samples are never mixed into one score: step times from a 4-rank
  /// world would poison the first 3-rank window. Completed history is
  /// kept; the in-flight window restarts against the current runtime.
  ///
  /// Collective over the rebuilt communicator: rank 0 re-broadcasts its
  /// {frozen, knobs} state, because a failure can interrupt a
  /// window-finishing broadcast with only some ranks having applied the
  /// decision. If the policy owner (old rank 0) died, the new rank 0
  /// restarts the search from the incumbent knobs.
  void on_world_change();

  [[nodiscard]] bool frozen() const noexcept { return frozen_; }
  /// The knobs all ranks currently run under (identical everywhere).
  [[nodiscard]] const Knobs& active() const noexcept { return active_; }
  [[nodiscard]] int windows_completed() const noexcept { return windows_completed_; }
  /// Scored windows in measurement order. Populated on rank 0 only.
  [[nodiscard]] const std::vector<WindowMeasurement>& history() const noexcept {
    return history_;
  }

  /// The timing-off scoring fallback: a fixed, deterministic cost model
  /// over the window's counter deltas (collective launches pay a launch
  /// alpha, wire/control bytes a bandwidth beta, negotiation rounds a
  /// coordinator round-trip, cache-served rounds half of one). Exposed
  /// for tests and for documentation honesty — scores in functional
  /// worlds rank knob settings by this model, not by measured time.
  [[nodiscard]] static double surrogate_step_cost(const RuntimeStats& delta, int steps);

 private:
  void begin_window();
  void finish_window(bool force_freeze);
  [[nodiscard]] double score_window(double window_s, const RuntimeStats& delta,
                                    int steps) const;

  HorovodRuntime* runtime_;  ///< pointer, not reference: retargeted by rebind()
  AutotuneOptions options_;
  std::unique_ptr<TuningPolicy> policy_;
  Knobs active_;
  RuntimeStats window_start_stats_;
  double window_start_time_ = 0.0;
  int steps_in_window_ = 0;
  int windows_completed_ = 0;
  bool frozen_ = false;
  std::vector<WindowMeasurement> history_;
};

}  // namespace dlscale::hvd
