// Horovod core reimplementation: negotiation, tensor fusion, cycles.
//
// The paper's contribution is tuning Horovod/MPI runtime knobs — fusion
// threshold (HOROVOD_FUSION_THRESHOLD), cycle time (HOROVOD_CYCLE_TIME),
// hierarchical allreduce (HOROVOD_HIERARCHICAL_ALLREDUCE), response cache
// — without touching framework code. For those knobs to mean anything,
// the machinery they control has to exist, so this module reimplements
// Horovod's background-coordinator design over simmpi:
//
//  * every rank submits gradient tensors as they become ready (backprop
//    emits them in reverse layer order);
//  * once per cycle, ranks report ready tensors to the coordinator
//    (rank 0); when every rank has reported a tensor, the coordinator
//    emits a response, preserving arrival order;
//  * responses are greedily fused into batches up to the fusion
//    threshold; each batch is encoded by the wire codec, exchanged once
//    (allreduce, flat or hierarchical, when the codec is reducible;
//    ring allgather otherwise), then decoded and averaged. Timing-only
//    batches (no payload) make exactly the same calls, so both modes are
//    priced by one code path;
//  * after the first iteration the response cache replaces name-list
//    gathers with a fixed-size bitvector allgather.
//
// All coordination traffic is real simmpi messages, so negotiation cost
// scales with world size and cycle count exactly as it does in Horovod.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "dlscale/gpu/device.hpp"
#include "dlscale/hvd/compress.hpp"
#include "dlscale/mpi/comm.hpp"

namespace dlscale::hvd {

/// The runtime knobs under study (paper Table "tuned parameters").
struct Knobs {
  std::size_t fusion_threshold = 64 << 20;  ///< HOROVOD_FUSION_THRESHOLD (bytes)
  double cycle_time_s = 5e-3;               ///< HOROVOD_CYCLE_TIME (seconds)
  bool hierarchical_allreduce = false;      ///< HOROVOD_HIERARCHICAL_ALLREDUCE
  bool response_cache = true;               ///< HOROVOD_CACHE_CAPACITY > 0
  std::optional<mpi::AllreduceAlgo> algo;   ///< force a collective algorithm
  /// Warn (once per tensor) when a tensor has been announced by some
  /// ranks but not all for this many cycles — Horovod's stall check
  /// (HOROVOD_STALL_CHECK). 0 disables.
  std::uint64_t stall_warning_cycles = 500;
  /// Record negotiation/allreduce events for the Chrome-tracing timeline
  /// in every cycle run under these knobs (HOROVOD_TIMELINE: any
  /// non-empty value).
  bool timeline = false;
  /// Gradient wire codec (DESIGN.md §12). kFp16 is Horovod's
  /// HOROVOD_FP16_ALLREDUCE: halves wire bytes at ~1e-3 relative
  /// precision cost.
  CompressionAlgo compression = CompressionAlgo::kNone;
  /// Fraction of each tensor's elements kTopK keeps, in (0, 1].
  float topk_ratio = 0.01f;
  /// Error-feedback residual accumulation for int8/top-k. On by default:
  /// without it the compression bias is permanent and convergence
  /// degrades (the mIOU gate's no-EF control shows exactly that).
  bool error_feedback = true;

  /// Read HOROVOD_FUSION_THRESHOLD / HOROVOD_CYCLE_TIME (ms) /
  /// HOROVOD_HIERARCHICAL_ALLREDUCE / HOROVOD_CACHE_CAPACITY /
  /// HOROVOD_FP16_ALLREDUCE / HOROVOD_STALL_CHECK (cycles, 0 disables) /
  /// HOROVOD_TIMELINE / DLSCALE_ALLREDUCE_ALGO
  /// (ring|rabenseifner|recursive_doubling|auto) /
  /// DLSCALE_GRAD_COMPRESSION (none|fp16|int8|topk) / DLSCALE_TOPK_RATIO
  /// ((0,1]) / DLSCALE_ERROR_FEEDBACK from the environment, falling back
  /// to the given defaults. HOROVOD_FP16_ALLREDUCE=1 selects kFp16 unless
  /// the codec is already something other than kNone. Unknown
  /// DLSCALE_ALLREDUCE_ALGO or DLSCALE_GRAD_COMPRESSION values and
  /// out-of-range DLSCALE_TOPK_RATIO throw std::invalid_argument naming
  /// the valid set — a typo'd codec silently falling back to fp32 would
  /// invalidate a whole run.
  static Knobs from_env(Knobs defaults);
  static Knobs from_env();

  /// Horovod defaults as deployed on Summit when the paper was written
  /// (0.15.x era): 64 MiB fusion, 5 ms cycle, flat allreduce, and NO
  /// response cache (the cache shipped later, in 0.16/0.18).
  static Knobs horovod_defaults() {
    Knobs knobs;
    knobs.response_cache = false;
    return knobs;
  }

  /// The paper's tuned configuration: larger effective fusion window,
  /// shorter cycle, hierarchical allreduce on.
  static Knobs paper_tuned();
};

/// Counters for the fusion/negotiation ablation (experiment E9). All
/// counters are monotonic, so two snapshots subtract into the activity of
/// the interval between them — the basis for per-epoch reporting and the
/// autotuner's per-window scoring.
struct RuntimeStats {
  std::uint64_t cycles = 0;            ///< negotiation rounds executed
  std::uint64_t tensors_negotiated = 0;
  std::uint64_t fused_batches = 0;     ///< collective launches
  std::uint64_t cache_hit_cycles = 0;  ///< cycles served by the bitvector path
  std::uint64_t bytes_reduced = 0;
  /// Payload bytes actually travelling per collective launch after the
  /// wire codec (== bytes_reduced uncompressed; /2 fp16; header+payload
  /// blob size for int8/top-k). The autotuner's surrogate prices THIS.
  std::uint64_t bytes_on_wire = 0;
  std::uint64_t control_bytes = 0;     ///< negotiation wire traffic
  std::uint64_t stall_warnings = 0;    ///< tensors flagged by the stall check
  double compress_pack_s = 0.0;        ///< wall seconds spent encoding (fp16/int8/topk)
  double compress_unpack_s = 0.0;      ///< wall seconds spent decoding/averaging

  RuntimeStats& operator-=(const RuntimeStats& earlier) noexcept {
    cycles -= earlier.cycles;
    tensors_negotiated -= earlier.tensors_negotiated;
    fused_batches -= earlier.fused_batches;
    cache_hit_cycles -= earlier.cache_hit_cycles;
    bytes_reduced -= earlier.bytes_reduced;
    bytes_on_wire -= earlier.bytes_on_wire;
    control_bytes -= earlier.control_bytes;
    stall_warnings -= earlier.stall_warnings;
    compress_pack_s -= earlier.compress_pack_s;
    compress_unpack_s -= earlier.compress_unpack_s;
    return *this;
  }
  friend RuntimeStats operator-(RuntimeStats later, const RuntimeStats& earlier) noexcept {
    later -= earlier;
    return later;
  }
};

/// One gradient tensor registered for allreduce.
struct TensorRequest {
  std::string name;        ///< stable identity across iterations
  std::span<float> data;   ///< payload; empty in timing-only mode
  std::size_t bytes = 0;   ///< logical size (defaults to data size)
  double ready_at = 0.0;   ///< virtual time the gradient became available
};

/// Per-rank Horovod runtime. Every rank constructs one over the same
/// communicator and drives it SPMD-style: submit(...) x N, synchronize().
class HorovodRuntime {
 public:
  HorovodRuntime(mpi::Communicator& comm, Knobs knobs,
                 gpu::ComputeModel copy_model = gpu::ComputeModel(
                     gpu::DeviceSpec::v100_summit(), 0.5));

  /// Register a tensor for averaging (hvd.allreduce_async_ equivalent).
  /// All ranks must submit the same named set between synchronize calls.
  void submit(TensorRequest request);

  /// Run negotiation/execution cycles until every submitted tensor has
  /// been reduced on all ranks (hvd.synchronize equivalent). Collective.
  /// Throws std::runtime_error after DLSCALE_HVD_MAX_CYCLES cycles
  /// (default 1e6, read at construction; <= 0 makes the constructor
  /// throw std::invalid_argument).
  void synchronize();

  /// Broadcast `data` from `root` to all ranks (hvd.broadcast). Used to
  /// distribute rank-0's initial model state so replicas start identical
  /// regardless of per-rank initialisation. Collective.
  void broadcast(std::span<float> data, int root = 0);

  /// Write the events recorded while Knobs::timeline was on as Chrome
  /// tracing JSON (load in chrome://tracing or Perfetto). Timestamps are
  /// virtual microseconds.
  void write_timeline(std::ostream& out) const;

  /// Stage a knob change. It is applied atomically at the start of the
  /// NEXT negotiation cycle, never mid-cycle — a fused batch is always
  /// built and executed under one consistent knob set. Collective
  /// discipline: every rank must stage the same values at the same point
  /// in its submit/synchronize stream (the Autotuner guarantees this by
  /// broadcasting rank 0's decision before any rank calls set_knobs).
  void set_knobs(const Knobs& knobs) { pending_knobs_ = knobs; }

  /// True while a set_knobs value is staged but no cycle has run yet.
  [[nodiscard]] bool knob_change_pending() const noexcept { return pending_knobs_.has_value(); }

  [[nodiscard]] const RuntimeStats& stats() const noexcept { return stats_; }
  /// The per-rank compression engine (residual state lives here). Elastic
  /// recovery resets it via HorovodHook::on_world_change; tests inspect it.
  [[nodiscard]] GradientCompressor& compressor() noexcept { return compressor_; }
  [[nodiscard]] const GradientCompressor& compressor() const noexcept { return compressor_; }
  /// The knobs currently in force (staged changes appear only after the
  /// next cycle applies them).
  [[nodiscard]] const Knobs& knobs() const noexcept { return knobs_; }
  [[nodiscard]] mpi::Communicator& comm() noexcept { return comm_; }
  void reset_stats() { stats_ = RuntimeStats{}; }

 private:
  struct Pending {
    TensorRequest request;
    bool announced = false;  ///< already reported to the coordinator
  };

  /// One negotiation + execution round. Returns true while any rank has
  /// work left (coordinator-decided, broadcast to all).
  bool cycle();

  /// Execute one fused batch of tensor names (same list on all ranks).
  void execute_batch(const std::vector<std::string>& names);

  std::vector<std::string> collect_ready(double cycle_start);
  void note_cached(const std::string& name);

  mpi::Communicator& comm_;
  Knobs knobs_;
  std::optional<Knobs> pending_knobs_;  ///< staged by set_knobs, applied by cycle()
  gpu::ComputeModel copy_model_;
  std::uint64_t max_cycles_;  ///< synchronize()'s negotiation budget
  RuntimeStats stats_;

  std::unordered_map<std::string, Pending> pending_;
  std::deque<std::string> submit_order_;

  // Coordinator state (rank 0 only): per-tensor readiness counts and the
  // arrival-ordered response queue.
  struct ReadyState {
    int count = 0;
    std::uint64_t first_seen_cycle = 0;
    bool stall_warned = false;
  };
  std::unordered_map<std::string, ReadyState> ready_counts_;
  std::vector<std::string> response_order_;

  // Response cache: name -> slot id, mirrored on every rank because slot
  // assignment happens in broadcast response order.
  std::unordered_map<std::string, std::uint32_t> cache_ids_;
  std::vector<std::string> cache_names_;

  double last_cycle_start_ = -1e9;
  gpu::DeviceBuffer fusion_buffer_;
  GradientCompressor compressor_;
  std::vector<std::byte> gathered_;  ///< allgather landing buffer (int8/top-k)

  // Timeline trace (virtual-time events).
  struct TimelineEvent {
    double start_s;
    double end_s;
    std::string name;
    const char* phase;  // "negotiation" | "allreduce"
  };
  std::vector<TimelineEvent> timeline_;
};

}  // namespace dlscale::hvd
