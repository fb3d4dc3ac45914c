// simmpi: a message-passing runtime with MPI semantics over threads.
//
// Ranks are threads inside one process; `run_world` launches them and
// each receives a `Communicator` for its view of the world. All data
// movement is REAL (bytes are copied between rank-private buffers through
// mailboxes), and — when timing is enabled — every message also advances
// per-rank virtual clocks according to the net::CostModel (link class,
// eager/rendezvous protocol, GPUDirect vs host staging, NIC rail
// contention). Collectives are implemented as genuine algorithms over
// point-to-point messages (binomial trees, rings, recursive doubling,
// Rabenseifner, hierarchical two-level), so collective cost *emerges*
// from the algorithm rather than being a closed-form estimate. This is
// what makes the paper's knob ablations meaningful. Every ring-based
// collective is built from two shared phases over one element partition:
// a ring reduce-scatter (n-1 steps) and a ring allgather (n-1 steps).
//
// Timing model notes (PDES-lite):
//  * sends are buffered in execution (never deadlock) but rendezvous
//    timing couples sender/receiver clocks via an atomic clock bump;
//  * NIC rail reservations happen in thread-execution order, a documented
//    approximation that is tight for the near-synchronous collective
//    patterns this library is used for.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dlscale/mpi/clock.hpp"
#include "dlscale/net/cost_model.hpp"
#include "dlscale/net/profile.hpp"
#include "dlscale/net/topology.hpp"

namespace dlscale::mpi {

using net::AllreduceAlgo;
using net::MemSpace;

/// Elementwise reduction operator for reduce/allreduce.
enum class ReduceOp { kSum, kMax, kMin };

/// Fault-injection plan for a world (WorldOptions::faults). The failure
/// model is fail-stop: a killed rank dies at a well-defined point, the
/// fault_tick() that brings its own step counter to `at_step`, and never
/// communicates again. Survivors observe the death as RankFailed and
/// recover through shrink() (DESIGN.md §11). run_world rejects a plan
/// with a kill that cannot fire.
struct FaultPlan {
  struct Kill {
    int global_rank = -1;  ///< in [0, world_size)
    /// Die when this rank's fault_tick() count reaches at_step (steps are
    /// whatever the application ticks: optimisation steps in train::).
    /// Must be >= 0.
    long at_step = -1;
  };
  std::vector<Kill> kills;

  [[nodiscard]] bool any_kills() const noexcept { return !kills.empty(); }
};

/// Configuration for a world of ranks.
struct WorldOptions {
  net::Topology topology{net::Topology::single_node(1)};
  net::MpiProfile profile{net::MpiProfile::ideal()};
  bool timing = true;  ///< advance virtual clocks through the cost model
  FaultPlan faults{};  ///< step-triggered rank kills to inject
};

/// Per-rank communication counters (virtual-time based when timing is on).
struct CommStats {
  double comm_time_s = 0.0;     ///< virtual seconds the rank's clock advanced inside comm ops
  std::uint64_t messages = 0;   ///< point-to-point messages received
  std::uint64_t bytes = 0;      ///< logical payload bytes received
};

/// The single error channel of the failure-aware comm API: thrown by any
/// blocking operation on a communicator one of whose members has died.
/// Carries the first dead member (death order), the operation that
/// detected it, and the tag in flight (-1 for collectives detected at
/// entry). After catching it, survivors stop using this communicator and
/// collectively call shrink() to rebuild; see DESIGN.md §11.
class RankFailed : public std::runtime_error {
 public:
  RankFailed(int failed_global_rank_, std::string op_, int tag_);

  int failed_global_rank;  ///< global (world) rank of the dead peer
  std::string op;          ///< entry point that detected the failure
  int tag;                 ///< message tag in flight, or -1
};

/// Thrown on the DYING rank's own thread when its FaultPlan trigger
/// fires; run_world treats it as a clean (non-error) rank exit.
/// Deliberately NOT derived from std::exception so application-level
/// `catch (const std::exception&)` blocks cannot swallow a death.
struct RankKilled {
  int global_rank;
};

class World;

/// A rank's handle to a communicator (a subset of world ranks). Cheap to
/// copy; all copies refer to the same group. Not thread-safe within a
/// rank (each rank is single-threaded by construction).
class Communicator {
 public:
  [[nodiscard]] int rank() const noexcept { return my_index_; }
  [[nodiscard]] int size() const noexcept { return static_cast<int>(members_.size()); }
  [[nodiscard]] bool is_root() const noexcept { return my_index_ == 0; }
  /// This rank's id in the world communicator (for topology queries).
  [[nodiscard]] int global_rank() const noexcept { return members_[my_index_]; }
  /// Global rank of communicator-member `r`.
  [[nodiscard]] int global_rank_of(int r) const { return members_.at(r); }

  // ---- point-to-point ----
  // `logical_bytes` overrides the priced message size; pass it with an
  // empty span for timing-only traffic (perf-simulation mode). Defaults
  // to the span size.
  //
  // Failure semantics (applies to every p2p call below): once any member
  // of this communicator has died, the communicator is REVOKED — send,
  // recv, sendrecv, send_value and recv_value all raise mpi::RankFailed,
  // and a recv already blocked when the death happens is woken and raises
  // too. Revoking on *any* member death (not just the direct peer) is
  // what lets survivors that never talk to the dead rank still escape
  // from the middle of a collective call chain instead of hanging.
  static constexpr std::size_t kAuto = ~std::size_t{0};

  void send(int dst, int tag, std::span<const std::byte> data, MemSpace space = MemSpace::kHost,
            std::size_t logical_bytes = kAuto);
  void recv(int src, int tag, std::span<std::byte> out, MemSpace space = MemSpace::kHost,
            std::size_t logical_bytes = kAuto);

  /// Posts the send before blocking on the receive (safe ring step).
  void sendrecv(int dst, int send_tag, std::span<const std::byte> send_data, int src, int recv_tag,
                std::span<std::byte> recv_data, MemSpace space = MemSpace::kHost,
                std::size_t send_logical = kAuto, std::size_t recv_logical = kAuto);

  /// Send/receive a trivially-copyable value.
  template <typename T>
  void send_value(int dst, int tag, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(dst, tag, std::as_bytes(std::span<const T, 1>(&value, 1)));
  }
  template <typename T>
  [[nodiscard]] T recv_value(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    recv(src, tag, std::as_writable_bytes(std::span<T, 1>(&value, 1)));
    return value;
  }

  /// Type-erased elementwise reduction used by the byte-level engines
  /// (public so the typed wrappers in detail:: can build instances, and
  /// so allreduce_custom callers can supply their own, e.g. fp16 sum).
  struct Reducer;

  // ---- collectives (every member must call, in the same order) ----
  //
  // Failure semantics (applies to every collective below): each call
  // checks for dead members at entry and raises mpi::RankFailed (tag -1)
  // if the communicator is revoked; a death in the middle of a collective
  // surfaces through the underlying p2p ops on every live member, so no
  // survivor completes with partial data silently and none hangs. After
  // catching RankFailed all survivors must stop using this communicator
  // and collectively call shrink().

  /// Dissemination barrier (log2(N) message rounds).
  void barrier();

  /// Binomial-tree broadcast of a fixed-size buffer.
  void bcast(std::span<std::byte> data, int root, MemSpace space = MemSpace::kHost,
             std::size_t logical_bytes = kAuto);

  /// Broadcast a variable-length blob from root; returns the blob on all
  /// ranks (root passes its payload, others' argument is ignored).
  [[nodiscard]] std::vector<std::byte> bcast_blob(std::span<const std::byte> blob, int root);

  /// Gather variable-length blobs at root (rank order). Non-roots get {}.
  [[nodiscard]] std::vector<std::vector<std::byte>> gather_blobs(std::span<const std::byte> mine,
                                                                 int root);

  /// Fixed-size allgather (ring algorithm): `out` has size()*mine.size().
  /// `logical_block` prices a timing-only exchange: pass it with empty
  /// spans. With a payload it must equal mine.size().
  void allgather(std::span<const std::byte> mine, std::span<std::byte> out,
                 MemSpace space = MemSpace::kHost, std::size_t logical_block = kAuto);

  /// Fixed-size scatter: root's `blocks` (size()*block bytes) are split so
  /// member r receives block r into `mine`. Non-roots pass blocks = {}.
  void scatter(std::span<const std::byte> blocks, std::span<std::byte> mine, int root,
               MemSpace space = MemSpace::kHost);

  /// Fixed-size gather: member r's `mine` lands in root's `blocks` at
  /// offset r*mine.size(). Non-roots pass blocks = {}.
  void gather(std::span<const std::byte> mine, std::span<std::byte> blocks, int root,
              MemSpace space = MemSpace::kHost);

  /// Fixed-size all-to-all (pairwise exchange): `send` and `recv` both
  /// hold size() blocks; block r of `send` goes to member r, whose block
  /// my-rank lands in `recv` block r.
  void alltoall(std::span<const std::byte> send, std::span<std::byte> recv,
                MemSpace space = MemSpace::kHost);

  /// In-place allreduce of typed data. Algorithm defaults to the library
  /// profile's size-based selection; pass one explicitly to ablate.
  template <typename T>
  void allreduce(std::span<T> data, ReduceOp op, MemSpace space = MemSpace::kDevice,
                 std::optional<AllreduceAlgo> algo = std::nullopt);

  /// Two-level allreduce: intra-node reduce to the node leader, leader
  /// allreduce across nodes, intra-node broadcast. This is the
  /// HOROVOD_HIERARCHICAL_ALLREDUCE data path.
  template <typename T>
  void hierarchical_allreduce(std::span<T> data, ReduceOp op, MemSpace space = MemSpace::kDevice,
                              std::optional<AllreduceAlgo> leader_algo = std::nullopt);

  /// In-place reduce to root (binomial tree).
  template <typename T>
  void reduce(std::span<T> data, ReduceOp op, int root, MemSpace space = MemSpace::kDevice);

  /// Ring reduce-scatter: every rank contributes `data` (size()*block
  /// elements); member r ends with the fully reduced block r in `out`.
  template <typename T>
  void reduce_scatter(std::span<T> data, std::span<T> out, ReduceOp op,
                      MemSpace space = MemSpace::kDevice);

  /// In-place allreduce with a caller-supplied elementwise reducer over
  /// raw elements (e.g. fp16 sum for compressed gradients), flat or
  /// two-level (`algo` then picks the leader allreduce). `reducer` must
  /// outlive the call; its elem_size must equal `elem_size`. A null
  /// `data` prices the same exchange without moving payload.
  void allreduce_custom(std::byte* data, std::size_t elem_size, std::size_t count,
                        const Reducer& reducer, MemSpace space = MemSpace::kDevice,
                        std::optional<AllreduceAlgo> algo = std::nullopt,
                        bool hierarchical = false);

  /// Timing-only allreduce: prices an allreduce of `bytes` (float
  /// elements) without moving payload, flat or two-level as for
  /// allreduce_custom. Used by the performance simulator where 132-rank
  /// gradient buffers would not fit in memory.
  void allreduce_sim(std::size_t bytes, MemSpace space = MemSpace::kDevice,
                     std::optional<AllreduceAlgo> algo = std::nullopt, bool hierarchical = false);

  /// Collective split by color: ranks with equal color form a new
  /// communicator ordered by parent rank. Every member must call; pass a
  /// negative color to opt out (the returned communicator is not valid()).
  [[nodiscard]] Communicator split(int color);

  /// False for the null communicator returned by split with color < 0.
  [[nodiscard]] bool valid() const noexcept { return my_index_ >= 0; }

  // ---- fault awareness ----

  /// Advance this rank's application step counter and fire the FaultPlan
  /// kill that matches it, if any. The dying rank's thread exits via
  /// RankKilled; nothing happens for ranks the plan leaves alone. Call
  /// once per training step, from the rank's own thread.
  void fault_tick();

  /// Communicator-member indices (NOT global ranks) of members currently
  /// alive, in member order. Equals 0..size()-1 until a member dies.
  [[nodiscard]] std::vector<int> alive() const;

  /// Monotone epoch of the world's membership: starts at 1, incremented
  /// by every rank death. Survivors compare epochs to agree they are
  /// reacting to the same failure generation.
  [[nodiscard]] std::uint64_t world_epoch() const;

  /// True if any member of THIS communicator has died (the communicator
  /// is revoked and every blocking op raises RankFailed).
  [[nodiscard]] bool revoked() const;

  /// Collective over the SURVIVORS of a revoked (or intact) communicator:
  /// every live member must call; dead members are excluded. Returns a new
  /// communicator containing exactly the live members in their old
  /// relative order, with ranks re-densified to 0..k-1. Unlike the other
  /// collectives, shrink works on a revoked communicator — it is the
  /// escape hatch. The rendezvous completes even if further members die
  /// while it is in progress (they are dropped from the result).
  [[nodiscard]] Communicator shrink();

  // ---- time & introspection ----

  /// Advance this rank's virtual clock by `seconds` of modeled compute.
  void compute(double seconds);
  [[nodiscard]] double now() const;
  [[nodiscard]] VirtualClock& clock();
  [[nodiscard]] const net::Topology& topology() const;
  [[nodiscard]] const net::MpiProfile& profile() const;
  [[nodiscard]] bool timing_enabled() const;
  [[nodiscard]] CommStats stats() const;

 private:
  friend class World;
  friend void run_world(const WorldOptions&, const std::function<void(Communicator&)>&);

  Communicator(World* world, std::uint64_t comm_id, std::vector<int> members, int my_index)
      : world_(world), comm_id_(comm_id), members_(std::move(members)), my_index_(my_index) {}

  // Element partition of a ring phase (defined in comm.cpp).
  struct Segments;

  // The one blocking receive: takes the next message on (src, tag) of any
  // size, counts it, and completes its virtual-time cost (including the
  // rendezvous sender's hold). `logical_bytes` overrides the counted size.
  std::vector<std::byte> recv_dynamic(int src, int tag, MemSpace space = MemSpace::kHost,
                                      std::size_t logical_bytes = kAuto);

  // Byte-level engines behind the typed entry points. A null `data`
  // prices the same messages without moving payload.
  void allreduce_bytes(std::byte* data, std::size_t elem_size, std::size_t count,
                       const Reducer* reducer, MemSpace space, AllreduceAlgo algo);
  void hierarchical_bytes(std::byte* data, std::size_t elem_size, std::size_t count,
                          const Reducer* reducer, MemSpace space,
                          std::optional<AllreduceAlgo> leader_algo);
  void reduce_bytes(std::byte* data, std::size_t elem_size, std::size_t count,
                    const Reducer* reducer, int root, MemSpace space);
  void reduce_scatter_bytes(std::byte* data, std::byte* out, std::size_t elem_size,
                            std::size_t count, const Reducer* reducer, MemSpace space);

  // The two ring phases every bandwidth-optimal collective is built from.
  // After ring_reduce_scatter member r owns segment (r + 1) mod n fully
  // reduced; ring_allgather circulates the segment each member owns,
  // segment (r + shift) mod n.
  void ring_reduce_scatter(std::byte* data, std::size_t elem_size, const Segments& segs,
                           const Reducer* reducer, MemSpace space);
  void ring_allgather(std::byte* data, std::size_t elem_size, const Segments& segs, int shift,
                      MemSpace space);
  void ring_allreduce(std::byte* data, std::size_t elem_size, std::size_t count,
                      const Reducer* reducer, MemSpace space);
  // Pipelined intra-node phases for hierarchical allreduce (NCCL-style):
  // ring reduce-scatter + segment gather to member 0 / segment scatter
  // from member 0 + ring allgather.
  void ring_reduce_to_root(std::byte* data, std::size_t elem_size, std::size_t count,
                           const Reducer* reducer, MemSpace space);
  void scatter_allgather_bcast(std::byte* data, std::size_t elem_size, std::size_t count,
                               MemSpace space);

  // Runs `core` on the largest power-of-two subset of members: the first
  // 2*rem members pair up, the even one of each pair folds its vector into
  // the odd one before the core and receives the result after it.
  template <typename Core>
  void with_remainder_folded(std::byte* data, std::size_t elem_size, std::size_t count,
                             const Reducer* reducer, MemSpace space, Core core);
  void recursive_doubling_allreduce(std::byte* data, std::size_t elem_size, std::size_t count,
                                    const Reducer* reducer, MemSpace space);
  void rabenseifner_allreduce(std::byte* data, std::size_t elem_size, std::size_t count,
                              const Reducer* reducer, MemSpace space);
  void binomial_bcast(std::byte* data, std::size_t bytes, int root, MemSpace space,
                      std::size_t logical_bytes);
  // Reduces `len` received elements `in` into data[off, off + len) when
  // there is a payload, and prices that reduction of bytes received from
  // member `src`: on the host when the incoming message itself took the
  // host-staged path (Spectrum-style), on the GPU otherwise.
  void reduce_in(std::byte* data, std::size_t elem_size, std::size_t off, std::size_t len,
                 const std::byte* in, const Reducer* reducer, MemSpace space, int src);

  // Raise RankFailed if any member of this communicator is dead.
  // `expected_src` (member index) names the peer a recv is waiting on so
  // the exception blames the awaited sender when IT is the dead one.
  void ensure_live(const char* op, int tag, int expected_src = -1);
  [[noreturn]] void raise_failed(int first_dead_global, const char* op, int tag, int expected_src);
  [[noreturn]] void die();

  World* world_;
  std::uint64_t comm_id_;
  std::vector<int> members_;
  int my_index_;
  std::uint64_t split_seq_ = 0;
  // Cached sub-communicators for hierarchical allreduce (built lazily on
  // first use; shared so copies of this handle reuse them).
  bool hier_built_ = false;
  std::shared_ptr<Communicator> node_comm_;
  std::shared_ptr<Communicator> leader_comm_;
};

/// Launch `options.topology.world_size()` rank threads, run `body` on
/// each, join, and propagate the first exception thrown by any rank.
/// Throws std::invalid_argument, before any rank starts, if a FaultPlan
/// kill names a rank outside the world or a negative step.
void run_world(const WorldOptions& options, const std::function<void(Communicator&)>& body);

/// Convenience: ideal profile, single-node topology of `world_size` ranks,
/// timing disabled — for functional tests.
void run_world(int world_size, const std::function<void(Communicator&)>& body);

// ---- template definitions ----

struct Communicator::Reducer {
  std::size_t elem_size;
  void (*apply)(std::byte* acc, const std::byte* in, std::size_t n);
};

namespace detail {

template <typename T, ReduceOp Op>
void apply_op(std::byte* acc_raw, const std::byte* in_raw, std::size_t n) {
  T* acc = reinterpret_cast<T*>(acc_raw);
  const T* in = reinterpret_cast<const T*>(in_raw);
  for (std::size_t i = 0; i < n; ++i) {
    if constexpr (Op == ReduceOp::kSum) {
      acc[i] += in[i];
    } else if constexpr (Op == ReduceOp::kMax) {
      acc[i] = acc[i] < in[i] ? in[i] : acc[i];
    } else {
      acc[i] = in[i] < acc[i] ? in[i] : acc[i];
    }
  }
}

template <typename T>
Communicator::Reducer make_reducer(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum: return {sizeof(T), &apply_op<T, ReduceOp::kSum>};
    case ReduceOp::kMax: return {sizeof(T), &apply_op<T, ReduceOp::kMax>};
    case ReduceOp::kMin: return {sizeof(T), &apply_op<T, ReduceOp::kMin>};
  }
  return {sizeof(T), &apply_op<T, ReduceOp::kSum>};
}

}  // namespace detail

template <typename T>
void Communicator::allreduce(std::span<T> data, ReduceOp op, MemSpace space,
                             std::optional<AllreduceAlgo> algo) {
  static_assert(std::is_trivially_copyable_v<T>);
  const Reducer reducer = detail::make_reducer<T>(op);
  const AllreduceAlgo chosen = algo.value_or(
      profile().allreduce_algo(data.size_bytes(), space == MemSpace::kDevice, size()));
  allreduce_bytes(reinterpret_cast<std::byte*>(data.data()), sizeof(T), data.size(), &reducer,
                  space, chosen);
}

template <typename T>
void Communicator::hierarchical_allreduce(std::span<T> data, ReduceOp op, MemSpace space,
                                          std::optional<AllreduceAlgo> leader_algo) {
  static_assert(std::is_trivially_copyable_v<T>);
  const Reducer reducer = detail::make_reducer<T>(op);
  hierarchical_bytes(reinterpret_cast<std::byte*>(data.data()), sizeof(T), data.size(), &reducer,
                     space, leader_algo);
}

template <typename T>
void Communicator::reduce_scatter(std::span<T> data, std::span<T> out, ReduceOp op,
                                  MemSpace space) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (data.size() != out.size() * static_cast<std::size_t>(size())) {
    throw std::invalid_argument("reduce_scatter: data must hold size() blocks of out's size");
  }
  const Reducer reducer = detail::make_reducer<T>(op);
  reduce_scatter_bytes(reinterpret_cast<std::byte*>(data.data()),
                       reinterpret_cast<std::byte*>(out.data()), sizeof(T), data.size(), &reducer,
                       space);
}

template <typename T>
void Communicator::reduce(std::span<T> data, ReduceOp op, int root, MemSpace space) {
  static_assert(std::is_trivially_copyable_v<T>);
  const Reducer reducer = detail::make_reducer<T>(op);
  reduce_bytes(reinterpret_cast<std::byte*>(data.data()), sizeof(T), data.size(), &reducer, root,
               space);
}

}  // namespace dlscale::mpi
