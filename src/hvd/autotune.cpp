#include "dlscale/hvd/autotune.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "dlscale/util/logging.hpp"
#include "dlscale/util/wire.hpp"

namespace dlscale::hvd {

namespace {

constexpr int kAxes = 4;  // fusion threshold, cycle time, hierarchical, compression
constexpr int kMaxPasses = 3;
// A candidate must beat the incumbent by this relative margin to replace it.
constexpr double kMinRelativeGain = 0.02;
constexpr int kMaxWindows = 64;  // hard cap: freeze on best-so-far regardless

// The decision record, rank 0 -> world: {frozen, knobs}. One field list
// drives both directions, so the encoder and decoder cannot drift apart.
template <class Codec>  // util::wire::Writer or util::wire::Reader
void decision_fields(Codec& codec, bool& frozen, Knobs& knobs) {
  using util::wire::field;
  bool has_algo = knobs.algo.has_value();
  mpi::AllreduceAlgo algo = knobs.algo.value_or(mpi::AllreduceAlgo::kRing);
  field<std::uint8_t>(codec, "frozen", frozen);
  field<std::uint64_t>(codec, "fusion threshold", knobs.fusion_threshold);
  field<double>(codec, "cycle time", knobs.cycle_time_s);
  field<std::uint8_t>(codec, "hierarchical allreduce", knobs.hierarchical_allreduce);
  field<std::uint8_t>(codec, "response cache", knobs.response_cache);
  field<std::uint8_t>(codec, "algo set", has_algo);
  field<std::uint8_t>(codec, "algo", algo);
  field<std::uint64_t>(codec, "stall warning cycles", knobs.stall_warning_cycles);
  field<std::uint8_t>(codec, "timeline", knobs.timeline);
  field<std::uint8_t>(codec, "compression", knobs.compression);
  field<float>(codec, "top-k ratio", knobs.topk_ratio);
  field<std::uint8_t>(codec, "error feedback", knobs.error_feedback);
  knobs.algo = has_algo ? std::optional<mpi::AllreduceAlgo>(algo) : std::nullopt;
}

// Rank 0's {frozen, knobs} on every rank; the other ranks' arguments are
// ignored. Every rank then stages identical knobs regardless of clock
// skew or who saw which ready times.
std::pair<bool, Knobs> broadcast_decision(mpi::Communicator& comm, bool frozen, Knobs knobs) {
  std::vector<std::byte> blob;
  if (comm.rank() == 0) {
    util::wire::Writer writer(blob);
    decision_fields(writer, frozen, knobs);
  }
  blob = comm.bcast_blob(blob, 0);
  util::wire::Reader reader(blob, "autotune decision");
  decision_fields(reader, frozen, knobs);
  reader.expect_end();
  return {frozen, knobs};
}

}  // namespace

// ---- CoordinateDescentPolicy ----

CoordinateDescentPolicy::CoordinateDescentPolicy(Knobs base, TuningSpace space)
    : space_(std::move(space)), best_(base) {}

std::size_t CoordinateDescentPolicy::axis_size(int axis) const {
  switch (axis) {
    case 0: return space_.fusion_thresholds.size();
    case 1: return space_.cycle_times_s.size();
    case 2: return space_.hierarchical.size();
    default: return space_.compressions.size();  // empty -> axis skipped
  }
}

Knobs CoordinateDescentPolicy::with_candidate(int axis, std::size_t index) const {
  Knobs knobs = best_;  // other coordinates stay at the incumbent
  switch (axis) {
    case 0: knobs.fusion_threshold = space_.fusion_thresholds[index]; break;
    case 1: knobs.cycle_time_s = space_.cycle_times_s[index]; break;
    case 2: knobs.hierarchical_allreduce = space_.hierarchical[index]; break;
    default: knobs.compression = space_.compressions[index]; break;
  }
  return knobs;
}

bool CoordinateDescentPolicy::matches_best(int axis, std::size_t index) const {
  switch (axis) {
    case 0: return space_.fusion_thresholds[index] == best_.fusion_threshold;
    case 1: return space_.cycle_times_s[index] == best_.cycle_time_s;
    case 2: return space_.hierarchical[index] == best_.hierarchical_allreduce;
    default: return space_.compressions[index] == best_.compression;
  }
}

std::optional<Knobs> CoordinateDescentPolicy::propose() {
  if (done_) return std::nullopt;
  if (!baseline_measured_) return best_;  // first window scores the incumbent
  while (true) {
    if (axis_ >= kAxes) {
      if (!pass_improved_ || pass_ + 1 >= kMaxPasses) {
        done_ = true;
        return std::nullopt;
      }
      ++pass_;
      axis_ = 0;
      candidate_ = 0;
      pass_improved_ = false;
    }
    if (candidate_ >= axis_size(axis_)) {
      ++axis_;
      candidate_ = 0;
      continue;
    }
    const std::size_t index = candidate_++;
    if (matches_best(axis_, index)) continue;  // incumbent value: already scored
    return with_candidate(axis_, index);
  }
}

void CoordinateDescentPolicy::observe(const WindowMeasurement& measurement) {
  if (!baseline_measured_) {
    baseline_measured_ = true;
    best_score_ = measurement.score;
    return;
  }
  if (measurement.score < best_score_ * (1.0 - kMinRelativeGain)) {
    best_ = measurement.knobs;
    best_score_ = measurement.score;
    pass_improved_ = true;
  }
}

// ---- GridSearchPolicy ----

GridSearchPolicy::GridSearchPolicy(Knobs base, TuningSpace space)
    : space_(std::move(space)), base_(base), best_(base) {}

std::optional<Knobs> GridSearchPolicy::propose() {
  if (next_ >= space_.combinations()) return std::nullopt;
  const std::size_t cycles = space_.cycle_times_s.size();
  const std::size_t hiers = space_.hierarchical.size();
  const std::size_t comps = std::max<std::size_t>(1, space_.compressions.size());
  std::size_t index = next_++;
  Knobs knobs = base_;
  if (!space_.compressions.empty()) knobs.compression = space_.compressions[index % comps];
  index /= comps;
  knobs.hierarchical_allreduce = space_.hierarchical[index % hiers];
  index /= hiers;
  knobs.cycle_time_s = space_.cycle_times_s[index % cycles];
  index /= cycles;
  knobs.fusion_threshold = space_.fusion_thresholds[index];
  return knobs;
}

void GridSearchPolicy::observe(const WindowMeasurement& measurement) {
  if (!any_observed_ || measurement.score < best_score_) {
    any_observed_ = true;
    best_ = measurement.knobs;
    best_score_ = measurement.score;
  }
}

// ---- Autotuner ----

Autotuner::Autotuner(HorovodRuntime& runtime, AutotuneOptions options,
                     std::unique_ptr<TuningPolicy> policy)
    : runtime_(&runtime), options_(options), policy_(std::move(policy)),
      active_(runtime.knobs()) {
  options_.window_steps = std::max(1, options_.window_steps);
  if (!policy_ && runtime_->comm().rank() == 0) {
    policy_ = std::make_unique<CoordinateDescentPolicy>(active_, options_.space);
  }
  begin_window();
}

void Autotuner::begin_window() {
  steps_in_window_ = 0;
  window_start_time_ = runtime_->comm().now();
  window_start_stats_ = runtime_->stats();
}

void Autotuner::on_world_change() {
  mpi::Communicator& comm = runtime_->comm();
  if (comm.rank() == 0 && !policy_) {
    // The policy owner died with the old rank 0. Restart the search from
    // the incumbent knobs; already-frozen state (resynced below) still
    // wins, so a frozen tuner never resumes exploring.
    policy_ = std::make_unique<CoordinateDescentPolicy>(active_, options_.space);
  }
  // A failure can interrupt a window-finishing broadcast after some ranks
  // already applied the decision: survivors may disagree on the active
  // knobs or even on frozen-ness, and mismatched fusion/hierarchical
  // settings across ranks would wedge the rebuilt runtime's collectives.
  // Re-broadcast rank 0's {frozen, knobs} so every survivor converges on
  // one authoritative state before training resumes.
  std::tie(frozen_, active_) = broadcast_decision(comm, frozen_, active_);
  runtime_->set_knobs(active_);
  // Restart the measurement window from the new runtime's counters and
  // the (possibly discontinuous) post-recovery clock.
  begin_window();
}

void Autotuner::step_end() {
  if (frozen_) return;
  if (++steps_in_window_ < options_.window_steps) return;
  finish_window(/*force_freeze=*/false);
}

void Autotuner::freeze() {
  if (frozen_) return;
  finish_window(/*force_freeze=*/true);
}

double Autotuner::surrogate_step_cost(const RuntimeStats& delta, int steps) {
  // Deterministic cost surrogate for functional (timing-off) worlds:
  // every collective launch pays a kernel/coordination alpha, wire and
  // control bytes a bandwidth beta, every negotiation round a coordinator
  // round-trip (rounds served from the response cache cost half of one).
  // The wire term prices bytes_on_wire — the POST-codec payload — so a
  // compression candidate's smaller blobs score as the win they are.
  constexpr double kLaunchAlphaS = 25e-6;
  constexpr double kCycleAlphaS = 10e-6;
  constexpr double kWireSecondsPerByte = 1.0 / 12.5e9;   // EDR-class fabric
  constexpr double kControlSecondsPerByte = 1.0 / 1e9;   // coordinator path
  const double cycle_cost =
      (static_cast<double>(delta.cycles) - 0.5 * static_cast<double>(delta.cache_hit_cycles)) *
      kCycleAlphaS;
  const double cost = static_cast<double>(delta.fused_batches) * kLaunchAlphaS + cycle_cost +
                      static_cast<double>(delta.bytes_on_wire) * kWireSecondsPerByte +
                      static_cast<double>(delta.control_bytes) * kControlSecondsPerByte;
  return cost / std::max(1, steps);
}

double Autotuner::score_window(double window_s, const RuntimeStats& delta, int steps) const {
  if (runtime_->comm().timing_enabled()) {
    return window_s / std::max(1, steps);
  }
  return surrogate_step_cost(delta, steps);
}

void Autotuner::finish_window(bool force_freeze) {
  mpi::Communicator& comm = runtime_->comm();
  const double window_s = comm.now() - window_start_time_;
  const RuntimeStats delta = runtime_->stats() - window_start_stats_;

  // Rank 0 scores the window, consults the policy, and decides.
  bool freeze_now = force_freeze;
  Knobs next = active_;
  if (comm.rank() == 0) {
    // Window 0 is the unscored warmup under the initial knobs; every later
    // window ran under a policy proposal and is scored.
    if (windows_completed_ > 0 && steps_in_window_ > 0) {
      WindowMeasurement measurement;
      measurement.knobs = active_;
      measurement.window_time_s = window_s;
      measurement.steps = steps_in_window_;
      measurement.stats = delta;
      measurement.score = score_window(window_s, delta, steps_in_window_);
      policy_->observe(measurement);
      history_.push_back(measurement);
    }
    if (windows_completed_ + 1 >= kMaxWindows) freeze_now = true;
    if (!freeze_now) {
      const std::optional<Knobs> proposal = policy_->propose();
      if (proposal) {
        next = *proposal;
      } else {
        freeze_now = true;  // policy converged
      }
    }
    if (freeze_now) {
      next = policy_->best();
      DLSCALE_DEBUG("autotune: frozen after " << windows_completed_ + 1 << " windows on fusion "
                                              << next.fusion_threshold << "B cycle "
                                              << next.cycle_time_s * 1e3 << "ms hierarchical "
                                              << (next.hierarchical_allreduce ? "on" : "off")
                                              << " codec "
                                              << to_string(next.compression));
    }
  }
  std::tie(frozen_, active_) = broadcast_decision(comm, freeze_now, next);
  runtime_->set_knobs(active_);
  ++windows_completed_;
  begin_window();
}

}  // namespace dlscale::hvd
