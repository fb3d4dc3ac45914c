#include "dlscale/mpi/comm.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "dlscale/util/logging.hpp"

namespace dlscale::mpi {
namespace {

// Reserved tag space for internal collective traffic. User tags must stay
// below this; per-channel FIFO matching makes tag reuse across successive
// collectives safe (same guarantee real MPI relies on).
constexpr int kTagBarrier = 0x41000000;     // + round
constexpr int kTagBcast = 0x42000000;       // +1 segment scatter, +2 scatter, +3 bcast_blob
constexpr int kTagReduce = 0x43000000;
constexpr int kTagRingRS = 0x44000000;      // + step
constexpr int kTagRingAG = 0x45000000;      // + step
constexpr int kTagRecDouble = 0x46000000;   // + mask
constexpr int kTagRabenRS = 0x47000000;     // + distance
constexpr int kTagRabenAG = 0x48000000;     // + distance
constexpr int kTagGather = 0x49000000;      // +1 segment gather, +2 gather, +3 gather_blobs
constexpr int kTagAlltoall = 0x4A000000;    // + step
constexpr int kTagFold = 0x4B000000;        // +1 unfold
constexpr int kTagReduceScatter = 0x4C000000;

struct Message {
  std::vector<std::byte> payload;
  std::size_t logical_bytes = 0;
  // Timing metadata (unused when the world runs with timing disabled).
  double available_at = 0.0;  ///< virtual time the data lands at the receiver
  double wire_s = 0.0;        ///< serialisation time (re-used if receiver is late)
  double pipeline_extra_s = 0.0;  ///< staging-pipeline slack beyond the wire
  double handshake_s = 0.0;
  bool rendezvous = false;
  int sender_global = -1;
};

struct MailKey {
  std::uint64_t comm;
  int src;
  int dst;
  int tag;
  bool operator==(const MailKey&) const = default;
};

struct MailKeyHash {
  std::size_t operator()(const MailKey& k) const noexcept {
    std::uint64_t h = k.comm;
    h = h * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(k.src + 1);
    h = h * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(k.dst + 1);
    h = h * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(k.tag + 1);
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

std::uint64_t mix_comm_id(std::uint64_t parent, std::uint64_t seq, int color) {
  std::uint64_t h = parent ^ 0x2545F4914F6CDD1Dull;
  h = (h + seq) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) + static_cast<std::uint64_t>(color + 7);
  h *= 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

}  // namespace

RankFailed::RankFailed(int failed_global_rank_, std::string op_, int tag_)
    : std::runtime_error("rank " + std::to_string(failed_global_rank_) + " failed (detected in " +
                         op_ + (tag_ >= 0 ? ", tag " + std::to_string(tag_) : "") + ")"),
      failed_global_rank(failed_global_rank_),
      op(std::move(op_)),
      tag(tag_) {}

/// Thrown inside ranks blocked on communication when another rank fails;
/// suppressed by run_world in favour of the original exception.
struct WorldAborted : std::runtime_error {
  WorldAborted() : std::runtime_error("simmpi world aborted") {}
};

class World {
 public:
  explicit World(const WorldOptions& options)
      : options_(options),
        cost_(options.topology, options.profile),
        nic_(options.topology.nodes(), std::max(1, options.profile.rails)),
        clocks_(static_cast<std::size_t>(options.topology.world_size())),
        stats_(static_cast<std::size_t>(options.topology.world_size())),
        shards_(static_cast<std::size_t>(options.topology.world_size())),
        dead_(static_cast<std::size_t>(options.topology.world_size()), 0),
        ticks_(static_cast<std::size_t>(options.topology.world_size()), 0) {}

  void post(const MailKey& key, Message message) {
    Shard& shard = shards_[static_cast<std::size_t>(key.dst)];
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.boxes[key].push_back(std::move(message));
    }
    shard.cv.notify_all();
  }

  /// Blocking take that also wakes on world abort and on the death of any
  /// rank in `members`. On death, returns an empty Message and sets
  /// *failed to the first dead member (death order) — the caller raises
  /// RankFailed. Death wins over an available message: a revoked
  /// communicator never delivers.
  Message take(const MailKey& key, const std::vector<int>& members, int* failed) {
    Shard& shard = shards_[static_cast<std::size_t>(key.dst)];
    std::unique_lock<std::mutex> lock(shard.mutex);
    shard.cv.wait(lock, [&] {
      if (aborted_.load(std::memory_order_acquire)) return true;
      if (first_dead_among(members) != -1) return true;
      auto it = shard.boxes.find(key);
      return it != shard.boxes.end() && !it->second.empty();
    });
    if (aborted_.load(std::memory_order_acquire)) throw WorldAborted{};
    if (const int dead = first_dead_among(members); dead != -1) {
      *failed = dead;
      return {};
    }
    auto it = shard.boxes.find(key);
    Message message = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) shard.boxes.erase(it);
    return message;
  }

  void abort() {
    aborted_.store(true, std::memory_order_release);
    for (Shard& shard : shards_) shard.cv.notify_all();
    shrink_cv_.notify_all();
  }

  // ---- fault injection ----

  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  [[nodiscard]] bool is_dead(int global_rank) const {
    if (epoch() == 1) return false;  // fast path: nobody has ever died
    std::lock_guard<std::mutex> lock(fault_mutex_);
    return dead_[static_cast<std::size_t>(global_rank)] != 0;
  }

  /// First member of `members` to have died (world death order), or -1.
  [[nodiscard]] int first_dead_among(const std::vector<int>& members) const {
    if (epoch() == 1) return -1;
    std::lock_guard<std::mutex> lock(fault_mutex_);
    for (int g : deaths_) {
      if (std::find(members.begin(), members.end(), g) != members.end()) return g;
    }
    return -1;
  }

  /// Mark `global_rank` dead and wake every blocked rank so revoked
  /// communicators raise promptly. The empty lock/unlock of each waiter
  /// mutex before notify closes the missed-wakeup window: the death state
  /// lives under fault_mutex_, not the mutex a waiter's predicate runs
  /// under, so we must serialise with any waiter currently between its
  /// predicate check and its block.
  void kill(int global_rank) {
    {
      std::lock_guard<std::mutex> lock(fault_mutex_);
      auto& flag = dead_[static_cast<std::size_t>(global_rank)];
      if (flag != 0) return;
      flag = 1;
      deaths_.push_back(global_rank);
      epoch_.fetch_add(1, std::memory_order_release);
    }
    for (Shard& shard : shards_) {
      { std::lock_guard<std::mutex> lock(shard.mutex); }
      shard.cv.notify_all();
    }
    { std::lock_guard<std::mutex> lock(shrink_mutex_); }
    shrink_cv_.notify_all();
  }

  /// This rank's application step counter (post-increment).
  long next_tick(int global_rank) { return ticks_[static_cast<std::size_t>(global_rank)]++; }

  /// Survivor rendezvous behind Communicator::shrink(). Blocks until
  /// every live member of `comm` has arrived (ranks that die while we
  /// wait stop being waited for), then hands every participant the same
  /// {survivor list, fresh comm id} computed once by whichever waiter's
  /// predicate observes completion first.
  Communicator shrink(const Communicator& comm) {
    std::unique_lock<std::mutex> lock(shrink_mutex_);
    ShrinkState& st = shrinks_[comm.comm_id_];
    if (st.arrived.empty()) st.arrived.assign(comm.members_.size(), 0);
    st.arrived[static_cast<std::size_t>(comm.my_index_)] = 1;
    shrink_cv_.wait(lock, [&] {
      if (aborted_.load(std::memory_order_acquire)) return true;
      return shrink_ready(st, comm.members_, comm.comm_id_);
    });
    if (aborted_.load(std::memory_order_acquire)) throw WorldAborted{};
    std::vector<int> survivors = st.survivors;
    const std::uint64_t new_id = st.new_comm_id;
    if (++st.leavers == static_cast<int>(st.survivors.size())) shrinks_.erase(comm.comm_id_);
    lock.unlock();
    int my_new_index = -1;
    for (std::size_t r = 0; r < survivors.size(); ++r) {
      if (survivors[r] == comm.global_rank()) my_new_index = static_cast<int>(r);
    }
    return Communicator(this, new_id, std::move(survivors), my_new_index);
  }

  [[nodiscard]] VirtualClock& clock(int global_rank) {
    return clocks_[static_cast<std::size_t>(global_rank)];
  }
  [[nodiscard]] CommStats& stats(int global_rank) {
    return stats_[static_cast<std::size_t>(global_rank)];
  }
  [[nodiscard]] const net::CostModel& cost() const noexcept { return cost_; }
  [[nodiscard]] net::NicContention& nic() noexcept { return nic_; }
  [[nodiscard]] const WorldOptions& options() const noexcept { return options_; }

 private:
  struct Shard {
    std::mutex mutex;
    std::condition_variable cv;
    std::unordered_map<MailKey, std::deque<Message>, MailKeyHash> boxes;
  };

  struct ShrinkState {
    std::vector<char> arrived;  ///< by member index of the shrinking comm
    bool ready = false;
    std::uint64_t new_comm_id = 0;
    std::vector<int> survivors;  ///< global ranks, old relative order
    int leavers = 0;
  };

  // Runs under shrink_mutex_ (as a wait predicate). Finalises the state —
  // freezing the survivor set and minting the shared comm id — the first
  // time every live member has arrived.
  bool shrink_ready(ShrinkState& st, const std::vector<int>& members, std::uint64_t comm_id) {
    if (st.ready) return true;
    for (std::size_t r = 0; r < members.size(); ++r) {
      if (!is_dead(members[r]) && st.arrived[r] == 0) return false;
    }
    st.survivors.clear();
    for (int g : members) {
      if (!is_dead(g)) st.survivors.push_back(g);
    }
    st.new_comm_id = mix_comm_id(comm_id, ++shrink_seq_, 1);
    st.ready = true;
    shrink_cv_.notify_all();
    return true;
  }

  WorldOptions options_;
  net::CostModel cost_;
  net::NicContention nic_;
  std::vector<VirtualClock> clocks_;
  std::vector<CommStats> stats_;
  std::vector<Shard> shards_;
  std::atomic<bool> aborted_{false};

  // Fault state. `epoch_` starts at 1 and counts deaths; readers use it
  // as a lock-free "has anyone ever died" fast path.
  mutable std::mutex fault_mutex_;
  std::vector<char> dead_;
  std::vector<int> deaths_;  ///< global ranks in death order
  std::atomic<std::uint64_t> epoch_{1};
  std::vector<long> ticks_;  ///< per-rank fault_tick counters
  std::mutex shrink_mutex_;
  std::condition_variable shrink_cv_;
  std::uint64_t shrink_seq_ = 0;
  std::unordered_map<std::uint64_t, ShrinkState> shrinks_;
};

// ---------------------------------------------------------------------------
// point-to-point
// ---------------------------------------------------------------------------

void Communicator::send(int dst, int tag, std::span<const std::byte> data, MemSpace space,
                        std::size_t logical_bytes) {
  if (dst < 0 || dst >= size()) throw std::out_of_range("send: bad destination rank");
  ensure_live("send", tag);
  const std::size_t logical = logical_bytes == kAuto ? data.size() : logical_bytes;
  const int gsrc = global_rank();
  const int gdst = global_rank_of(dst);

  Message message;
  message.payload.assign(data.begin(), data.end());
  message.logical_bytes = logical;
  message.sender_global = gsrc;

  if (world_->options().timing) {
    auto& clk = world_->clock(gsrc);
    const double t0 = clk.now();
    const net::TransferCost cost = world_->cost().message(gsrc, gdst, logical, space);
    message.rendezvous = world_->cost().is_rendezvous(logical, space);
    message.wire_s = cost.wire_s;
    message.pipeline_extra_s = cost.pipeline_extra_s;
    message.handshake_s = world_->cost().profile().rendezvous_handshake_s;
    const double setup_done = t0 + cost.setup_s;
    if (cost.inter_node) {
      // The NIC DMA engine serialises the wire portion; the sender's CPU/GPU
      // is released after setup.
      message.available_at =
          world_->nic().reserve(world_->cost().topology().node_of(gsrc),
                                world_->cost().topology().node_of(gdst), setup_done, cost.wire_s,
                                cost.striped) +
          cost.pipeline_extra_s;
      clk.advance(cost.setup_s);
      world_->stats(gsrc).comm_time_s += cost.setup_s;
    } else if (gsrc != gdst) {
      // Intra-node NVLink/X-bus transfers are copy-engine DMA: the sender
      // is released after setup, the wire runs in the background (full
      // duplex — a rank can send and receive concurrently).
      message.available_at = setup_done + cost.wire_s;
      clk.advance(cost.setup_s);
      world_->stats(gsrc).comm_time_s += cost.setup_s;
    } else {
      // Self-sends are plain local copies and occupy the rank.
      message.available_at = setup_done + cost.wire_s;
      clk.advance(cost.setup_s + cost.wire_s);
      world_->stats(gsrc).comm_time_s += cost.setup_s + cost.wire_s;
    }
  }
  world_->post(MailKey{comm_id_, my_index_, dst, tag}, std::move(message));
}

std::vector<std::byte> Communicator::recv_dynamic(int src, int tag, MemSpace space,
                                                  std::size_t logical_bytes) {
  if (src < 0 || src >= size()) throw std::out_of_range("recv: bad source rank");
  ensure_live("recv", tag, src);
  int failed = -1;
  Message message = world_->take(MailKey{comm_id_, src, my_index_, tag}, members_, &failed);
  if (failed != -1) raise_failed(failed, "recv", tag, src);

  const int grank = global_rank();
  auto& st = world_->stats(grank);
  ++st.messages;
  st.bytes += logical_bytes == kAuto ? message.logical_bytes : logical_bytes;

  if (world_->options().timing) {
    auto& clk = world_->clock(grank);
    const auto& profile = world_->cost().profile();
    double r0 = clk.now() + profile.per_op_overhead_s;
    if (space == MemSpace::kDevice) r0 += profile.device_op_overhead_s;
    double completion;
    if (message.rendezvous) {
      // Transfer starts only once both sides have posted: if the receiver
      // is late, serialisation replays from its arrival; the sender's
      // buffer is held until completion, so bump its clock too.
      completion = std::max(message.available_at,
                            r0 + message.handshake_s + message.wire_s + message.pipeline_extra_s);
      world_->clock(message.sender_global).bump_to(completion);
    } else {
      completion = std::max(message.available_at, r0);
    }
    const double before = clk.now();
    clk.bump_to(completion);
    st.comm_time_s += std::max(0.0, completion - before);
  }
  return std::move(message.payload);
}

void Communicator::recv(int src, int tag, std::span<std::byte> out, MemSpace space,
                        std::size_t logical_bytes) {
  const std::vector<std::byte> payload = recv_dynamic(src, tag, space, logical_bytes);
  if (payload.size() != out.size()) {
    throw std::runtime_error("recv: size mismatch (got " + std::to_string(payload.size()) +
                             " bytes, expected " + std::to_string(out.size()) + ")");
  }
  if (!out.empty()) std::memcpy(out.data(), payload.data(), out.size());
}

void Communicator::sendrecv(int dst, int send_tag, std::span<const std::byte> send_data, int src,
                            int recv_tag, std::span<std::byte> recv_data, MemSpace space,
                            std::size_t send_logical, std::size_t recv_logical) {
  // Sends are buffered, so posting the send first makes ring/exchange
  // patterns deadlock-free, mirroring MPI_Sendrecv.
  send(dst, send_tag, send_data, space, send_logical);
  recv(src, recv_tag, recv_data, space, recv_logical);
}

// ---------------------------------------------------------------------------
// collective building blocks
// ---------------------------------------------------------------------------

namespace {

/// Span over an element window of a buffer that may be null (timing-only).
std::span<std::byte> window(std::byte* data, std::size_t elem_size, std::size_t off,
                            std::size_t len) {
  if (data == nullptr) return {};
  return {data + off * elem_size, len * elem_size};
}

/// Binomial tree over `n` members rooted at `root`, seen from member `me`.
/// In root-relative numbering my parent is `low` below me and my children
/// are `mask` above me for every power of two `mask < low`; `low` is my
/// lowest set bit, or the first power of two >= n at the root.
struct BinomialTree {
  BinomialTree(int n_, int root_, int me) : n(n_), root(root_), vrank((me - root_ + n_) % n_) {
    while (low < n && (vrank & low) == 0) low <<= 1;
  }
  /// Member index of my parent, or -1 at the root.
  [[nodiscard]] int parent() const { return vrank == 0 ? -1 : (vrank - low + root) % n; }
  /// Member index of my child `mask` above me, or -1 past the last member.
  [[nodiscard]] int child(int mask) const {
    return vrank + mask < n ? (vrank + mask + root) % n : -1;
  }

  int n, root, vrank, low = 1;
};

/// The power-of-two core of an n-member world: the first 2*rem members
/// pair up and the odd member of each pair stands in for both.
struct PowerOfTwoCore {
  explicit PowerOfTwoCore(int n) {
    while (pof2 * 2 <= n) pof2 *= 2;
    rem = n - pof2;
  }
  /// Member index of core rank `core_rank`.
  [[nodiscard]] int member(int core_rank) const {
    return core_rank < rem ? core_rank * 2 + 1 : core_rank + rem;
  }

  int pof2 = 1, rem = 0;
};

}  // namespace

/// Element partition of a ring phase: `count` elements over `n` segments,
/// the first count % n of which hold one extra element.
struct Communicator::Segments {
  std::size_t count;
  int n;

  [[nodiscard]] std::size_t base() const { return count / static_cast<std::size_t>(n); }
  [[nodiscard]] std::size_t extra() const { return count % static_cast<std::size_t>(n); }
  [[nodiscard]] std::size_t off(int s) const {
    const auto u = static_cast<std::size_t>(s);
    return u * base() + std::min(u, extra());
  }
  [[nodiscard]] std::size_t len(int s) const {
    return base() + (static_cast<std::size_t>(s) < extra() ? 1 : 0);
  }
};

void Communicator::reduce_in(std::byte* data, std::size_t elem_size, std::size_t off,
                             std::size_t len, const std::byte* in, const Reducer* reducer,
                             MemSpace space, int src) {
  if (data != nullptr && reducer != nullptr) reducer->apply(data + off * elem_size, in, len);
  const std::size_t bytes = len * elem_size;
  if (!world_->options().timing || bytes == 0) return;
  const auto& profile = world_->cost().profile();
  double bw = profile.reduce_bw_host_Bps;
  if (space == MemSpace::kDevice) {
    // The incoming chunk only lands in host memory when it was staged:
    // inter-node, above the GDR window, under a staging library.
    const bool inter_node =
        world_->cost().topology().hop(global_rank(), global_rank_of(src)) ==
        net::HopClass::kInterNode;
    const bool staged = profile.staged_reduce_on_host && inter_node && bytes > profile.gdr_limit;
    bw = staged ? profile.reduce_bw_host_Bps : profile.reduce_bw_device_Bps;
  }
  const double dt = static_cast<double>(bytes) / bw;
  world_->clock(global_rank()).advance(dt);
  world_->stats(global_rank()).comm_time_s += dt;
}

void Communicator::ring_reduce_scatter(std::byte* data, std::size_t elem_size,
                                       const Segments& segs, const Reducer* reducer,
                                       MemSpace space) {
  const int n = size();
  if (n == 1 || segs.count == 0) return;
  std::vector<std::byte> tmp;
  if (data != nullptr) tmp.resize((segs.base() + 1) * elem_size);
  const int right = (my_index_ + 1) % n;
  const int left = (my_index_ - 1 + n) % n;
  for (int step = 0; step < n - 1; ++step) {
    const int send_seg = (my_index_ - step + n) % n;
    const int recv_seg = (my_index_ - step - 1 + n) % n;
    const std::size_t send_bytes = segs.len(send_seg) * elem_size;
    const std::size_t recv_bytes = segs.len(recv_seg) * elem_size;
    const std::span<std::byte> incoming(tmp.data(), data != nullptr ? recv_bytes : 0);
    sendrecv(right, kTagRingRS + step,
             window(data, elem_size, segs.off(send_seg), segs.len(send_seg)), left,
             kTagRingRS + step, incoming, space, send_bytes, recv_bytes);
    reduce_in(data, elem_size, segs.off(recv_seg), segs.len(recv_seg), tmp.data(), reducer, space,
              left);
  }
}

void Communicator::ring_allgather(std::byte* data, std::size_t elem_size, const Segments& segs,
                                  int shift, MemSpace space) {
  const int n = size();
  if (n == 1 || segs.count == 0) return;
  const int right = (my_index_ + 1) % n;
  const int left = (my_index_ - 1 + n) % n;
  for (int step = 0; step < n - 1; ++step) {
    const int send_seg = (my_index_ + shift - step + n) % n;
    const int recv_seg = (my_index_ + shift - step - 1 + n) % n;
    sendrecv(right, kTagRingAG + step,
             window(data, elem_size, segs.off(send_seg), segs.len(send_seg)), left,
             kTagRingAG + step, window(data, elem_size, segs.off(recv_seg), segs.len(recv_seg)),
             space, segs.len(send_seg) * elem_size, segs.len(recv_seg) * elem_size);
  }
}

template <typename Core>
void Communicator::with_remainder_folded(std::byte* data, std::size_t elem_size,
                                         std::size_t count, const Reducer* reducer,
                                         MemSpace space, Core core) {
  const PowerOfTwoCore pc(size());
  const std::size_t bytes = count * elem_size;
  std::vector<std::byte> tmp;
  if (data != nullptr) tmp.resize(bytes);
  const std::span<std::byte> all = window(data, elem_size, 0, count);
  const bool paired = my_index_ < 2 * pc.rem;
  const bool even = my_index_ % 2 == 0;
  if (paired && even) {
    send(my_index_ + 1, kTagFold, all, space, bytes);
  } else {
    if (paired) {
      recv(my_index_ - 1, kTagFold, tmp, space, bytes);
      reduce_in(data, elem_size, 0, count, tmp.data(), reducer, space, my_index_ - 1);
    }
    core(pc, paired ? my_index_ / 2 : my_index_ - pc.rem, tmp);
  }
  if (paired && even) {
    recv(my_index_ + 1, kTagFold + 1, all, space, bytes);
  } else if (paired) {
    send(my_index_ - 1, kTagFold + 1, all, space, bytes);
  }
}

// ---------------------------------------------------------------------------
// collectives
// ---------------------------------------------------------------------------

void Communicator::barrier() {
  ensure_live("barrier", -1);
  const int n = size();
  if (n == 1) return;
  int round = 0;
  for (int k = 1; k < n; k <<= 1, ++round) {
    const int dst = (my_index_ + k) % n;
    const int src = (my_index_ - k % n + n) % n;
    send(dst, kTagBarrier + round, {});
    recv(src, kTagBarrier + round, {});
  }
}

void Communicator::binomial_bcast(std::byte* data, std::size_t bytes, int root, MemSpace space,
                                  std::size_t logical_bytes) {
  const std::span<std::byte> buf(data, data != nullptr ? bytes : 0);
  const BinomialTree tree(size(), root, my_index_);
  if (tree.parent() >= 0) recv(tree.parent(), kTagBcast, buf, space, logical_bytes);
  for (int mask = tree.low >> 1; mask > 0; mask >>= 1) {
    if (const int child = tree.child(mask); child >= 0) {
      send(child, kTagBcast, buf, space, logical_bytes);
    }
  }
}

void Communicator::bcast(std::span<std::byte> data, int root, MemSpace space,
                         std::size_t logical_bytes) {
  ensure_live("bcast", -1);
  const std::size_t logical = logical_bytes == kAuto ? data.size() : logical_bytes;
  binomial_bcast(data.data(), data.size(), root, space, logical);
}

std::vector<std::byte> Communicator::bcast_blob(std::span<const std::byte> blob, int root) {
  // Binomial tree of dynamic messages: one message per edge regardless of
  // payload size (no separate size phase).
  ensure_live("bcast_blob", -1);
  std::vector<std::byte> out;
  if (my_index_ == root) out.assign(blob.begin(), blob.end());
  const BinomialTree tree(size(), root, my_index_);
  if (tree.parent() >= 0) out = recv_dynamic(tree.parent(), kTagBcast + 3);
  for (int mask = tree.low >> 1; mask > 0; mask >>= 1) {
    if (const int child = tree.child(mask); child >= 0) send(child, kTagBcast + 3, out);
  }
  return out;
}

std::vector<std::vector<std::byte>> Communicator::gather_blobs(std::span<const std::byte> mine,
                                                               int root) {
  ensure_live("gather_blobs", -1);
  std::vector<std::vector<std::byte>> all;
  if (my_index_ != root) {
    send(root, kTagGather + 3, mine);
    return all;
  }
  all.resize(static_cast<std::size_t>(size()));
  for (int r = 0; r < size(); ++r) {
    auto& blob = all[static_cast<std::size_t>(r)];
    if (r == my_index_) {
      blob.assign(mine.begin(), mine.end());
    } else {
      blob = recv_dynamic(r, kTagGather + 3);
    }
  }
  return all;
}

void Communicator::allgather(std::span<const std::byte> mine, std::span<std::byte> out,
                             MemSpace space, std::size_t logical_block) {
  ensure_live("allgather", -1);
  const int n = size();
  const std::size_t block = mine.size();
  const std::size_t logical = logical_block == kAuto ? block : logical_block;
  if (out.size() != block * static_cast<std::size_t>(n)) {
    throw std::invalid_argument("allgather: out must hold size() blocks");
  }
  if (block != 0 && logical != block) {
    throw std::invalid_argument("allgather: logical_block must equal a non-empty block's size");
  }
  std::copy(mine.begin(), mine.end(),
            out.begin() + static_cast<std::ptrdiff_t>(block * static_cast<std::size_t>(my_index_)));
  // Each member's block is one element of the ring.
  ring_allgather(block != 0 ? out.data() : nullptr, logical,
                 Segments{static_cast<std::size_t>(n), n}, 0, space);
}

void Communicator::scatter(std::span<const std::byte> blocks, std::span<std::byte> mine,
                           int root, MemSpace space) {
  ensure_live("scatter", -1);
  const int n = size();
  const std::size_t block = mine.size();
  if (my_index_ == root) {
    if (blocks.size() != block * static_cast<std::size_t>(n)) {
      throw std::invalid_argument("scatter: root blocks must hold size() blocks");
    }
    for (int r = 0; r < n; ++r) {
      const auto src = blocks.subspan(block * static_cast<std::size_t>(r), block);
      if (r == my_index_) {
        std::copy(src.begin(), src.end(), mine.begin());
      } else {
        send(r, kTagBcast + 2, src, space);
      }
    }
  } else {
    recv(root, kTagBcast + 2, mine, space);
  }
}

void Communicator::gather(std::span<const std::byte> mine, std::span<std::byte> blocks, int root,
                          MemSpace space) {
  ensure_live("gather", -1);
  const int n = size();
  const std::size_t block = mine.size();
  if (my_index_ == root) {
    if (blocks.size() != block * static_cast<std::size_t>(n)) {
      throw std::invalid_argument("gather: root blocks must hold size() blocks");
    }
    for (int r = 0; r < n; ++r) {
      std::byte* dst = blocks.data() + block * static_cast<std::size_t>(r);
      if (r == my_index_) {
        if (block != 0) std::memcpy(dst, mine.data(), block);
      } else {
        recv(r, kTagGather + 2, {dst, block}, space);
      }
    }
  } else {
    send(root, kTagGather + 2, mine, space);
  }
}

void Communicator::alltoall(std::span<const std::byte> send_blocks,
                            std::span<std::byte> recv_blocks, MemSpace space) {
  ensure_live("alltoall", -1);
  const int n = size();
  if (send_blocks.size() != recv_blocks.size() ||
      send_blocks.size() % static_cast<std::size_t>(n) != 0) {
    throw std::invalid_argument("alltoall: buffers must hold size() equal blocks");
  }
  const std::size_t block = send_blocks.size() / static_cast<std::size_t>(n);
  // Own block is a local copy.
  std::copy(send_blocks.begin() + static_cast<std::ptrdiff_t>(block * my_index_),
            send_blocks.begin() + static_cast<std::ptrdiff_t>(block * (my_index_ + 1)),
            recv_blocks.begin() + static_cast<std::ptrdiff_t>(block * my_index_));
  // Pairwise exchange: at step s send to member my + s and receive from
  // member my - s (mod n), for any world size.
  for (int step = 1; step < n; ++step) {
    const int dst = (my_index_ + step) % n;
    const int src = (my_index_ - step + n) % n;
    sendrecv(dst, kTagAlltoall + step,
             send_blocks.subspan(block * static_cast<std::size_t>(dst), block), src,
             kTagAlltoall + step,
             recv_blocks.subspan(block * static_cast<std::size_t>(src), block), space);
  }
}

void Communicator::ring_allreduce(std::byte* data, std::size_t elem_size, std::size_t count,
                                  const Reducer* reducer, MemSpace space) {
  const Segments segs{count, size()};
  ring_reduce_scatter(data, elem_size, segs, reducer, space);
  // Member r now owns segment (r + 1) mod n fully reduced.
  ring_allgather(data, elem_size, segs, 1, space);
}

void Communicator::reduce_scatter_bytes(std::byte* data, std::byte* out, std::size_t elem_size,
                                        std::size_t count, const Reducer* reducer,
                                        MemSpace space) {
  ensure_live("reduce_scatter", -1);
  const int n = size();
  const Segments segs{count, n};
  ring_reduce_scatter(data, elem_size, segs, reducer, space);
  // Rotate ownership so member r holds block r (one extra hop, like MPICH's
  // ring reduce_scatter with final alignment).
  const int owned = (my_index_ + 1) % n;
  const std::span<std::byte> mine(out, segs.len(owned) * elem_size);
  if (!mine.empty()) std::memcpy(mine.data(), data + segs.off(owned) * elem_size, mine.size());
  sendrecv(owned, kTagReduceScatter, mine, (my_index_ - 1 + n) % n, kTagReduceScatter, mine,
           space);
}

void Communicator::recursive_doubling_allreduce(std::byte* data, std::size_t elem_size,
                                                std::size_t count, const Reducer* reducer,
                                                MemSpace space) {
  if (size() == 1 || count == 0) return;
  const std::size_t bytes = count * elem_size;
  with_remainder_folded(
      data, elem_size, count, reducer, space,
      [&](const PowerOfTwoCore& core, int core_rank, std::span<std::byte> tmp) {
        for (int mask = 1; mask < core.pof2; mask <<= 1) {
          const int partner = core.member(core_rank ^ mask);
          sendrecv(partner, kTagRecDouble + mask, window(data, elem_size, 0, count), partner,
                   kTagRecDouble + mask, tmp, space, bytes, bytes);
          reduce_in(data, elem_size, 0, count, tmp.data(), reducer, space, partner);
        }
      });
}

void Communicator::rabenseifner_allreduce(std::byte* data, std::size_t elem_size,
                                          std::size_t count, const Reducer* reducer,
                                          MemSpace space) {
  if (size() == 1 || count == 0) return;
  // For tiny counts the halving bookkeeping degenerates; fall back.
  if (static_cast<std::size_t>(PowerOfTwoCore(size()).pof2) > count) {
    recursive_doubling_allreduce(data, elem_size, count, reducer, space);
    return;
  }
  with_remainder_folded(
      data, elem_size, count, reducer, space,
      [&](const PowerOfTwoCore& core, int core_rank, std::span<std::byte> tmp) {
        // At distance `dist` I keep one half of window [off, off + len)
        // and my partner keeps the other.
        struct Halves {
          std::size_t keep_off, keep_len, give_off, give_len;
        };
        auto halve = [core_rank](std::size_t off, std::size_t len, int dist) {
          const std::size_t lo = len / 2;
          if ((core_rank & dist) == 0) return Halves{off, lo, off + lo, len - lo};
          return Halves{off + lo, len - lo, off, lo};
        };
        // Recursive-halving reduce-scatter, remembering each level's window.
        std::vector<std::pair<std::size_t, std::size_t>> windows;
        std::size_t off = 0;
        std::size_t len = count;
        for (int dist = core.pof2 / 2; dist >= 1; dist /= 2) {
          const int partner = core.member(core_rank ^ dist);
          const Halves h = halve(off, len, dist);
          windows.emplace_back(off, len);
          sendrecv(partner, kTagRabenRS + dist, window(data, elem_size, h.give_off, h.give_len),
                   partner, kTagRabenRS + dist,
                   data != nullptr ? tmp.first(h.keep_len * elem_size) : tmp, space,
                   h.give_len * elem_size, h.keep_len * elem_size);
          reduce_in(data, elem_size, h.keep_off, h.keep_len, tmp.data(), reducer, space, partner);
          off = h.keep_off;
          len = h.keep_len;
        }
        // Recursive-doubling allgather: undo the splits in reverse order.
        for (int dist = 1; dist < core.pof2; dist *= 2) {
          const int partner = core.member(core_rank ^ dist);
          const Halves h = halve(windows.back().first, windows.back().second, dist);
          windows.pop_back();
          sendrecv(partner, kTagRabenAG + dist, window(data, elem_size, h.keep_off, h.keep_len),
                   partner, kTagRabenAG + dist, window(data, elem_size, h.give_off, h.give_len),
                   space, h.keep_len * elem_size, h.give_len * elem_size);
        }
      });
}

void Communicator::reduce_bytes(std::byte* data, std::size_t elem_size, std::size_t count,
                                const Reducer* reducer, int root, MemSpace space) {
  ensure_live("reduce", -1);
  if (size() == 1 || count == 0) return;
  const std::size_t bytes = count * elem_size;
  std::vector<std::byte> tmp;
  if (data != nullptr) tmp.resize(bytes);
  const BinomialTree tree(size(), root, my_index_);
  for (int mask = 1; mask < tree.low; mask <<= 1) {
    if (const int child = tree.child(mask); child >= 0) {
      recv(child, kTagReduce, tmp, space, bytes);
      reduce_in(data, elem_size, 0, count, tmp.data(), reducer, space, child);
    }
  }
  if (tree.parent() >= 0) {
    send(tree.parent(), kTagReduce, window(data, elem_size, 0, count), space, bytes);
  }
}

void Communicator::allreduce_bytes(std::byte* data, std::size_t elem_size, std::size_t count,
                                   const Reducer* reducer, MemSpace space, AllreduceAlgo algo) {
  ensure_live("allreduce", -1);
  switch (algo) {
    case AllreduceAlgo::kRing: ring_allreduce(data, elem_size, count, reducer, space); return;
    case AllreduceAlgo::kRecursiveDoubling:
      recursive_doubling_allreduce(data, elem_size, count, reducer, space);
      return;
    case AllreduceAlgo::kRabenseifner:
      rabenseifner_allreduce(data, elem_size, count, reducer, space);
      return;
  }
}

void Communicator::ring_reduce_to_root(std::byte* data, std::size_t elem_size, std::size_t count,
                                       const Reducer* reducer, MemSpace space) {
  const int n = size();
  const Segments segs{count, n};
  ring_reduce_scatter(data, elem_size, segs, reducer, space);
  // Member r owns segment (r + 1) mod n fully reduced; gather them at 0.
  if (my_index_ == 0) {
    for (int r = 1; r < n; ++r) {
      const int seg = (r + 1) % n;
      if (segs.len(seg) == 0) continue;
      recv(r, kTagGather + 1, window(data, elem_size, segs.off(seg), segs.len(seg)), space,
           segs.len(seg) * elem_size);
    }
  } else if (const int seg = (my_index_ + 1) % n; segs.len(seg) > 0) {
    send(0, kTagGather + 1, window(data, elem_size, segs.off(seg), segs.len(seg)), space,
         segs.len(seg) * elem_size);
  }
}

void Communicator::scatter_allgather_bcast(std::byte* data, std::size_t elem_size,
                                           std::size_t count, MemSpace space) {
  // Large-message broadcast as scatter + ring allgather (van de Geijn),
  // moving ~2x the data total instead of log2(n)x.
  const int n = size();
  const Segments segs{count, n};
  if (my_index_ == 0) {
    for (int r = 1; r < n; ++r) {
      if (segs.len(r) == 0) continue;
      send(r, kTagBcast + 1, window(data, elem_size, segs.off(r), segs.len(r)), space,
           segs.len(r) * elem_size);
    }
  } else if (segs.len(my_index_) > 0) {
    recv(0, kTagBcast + 1, window(data, elem_size, segs.off(my_index_), segs.len(my_index_)),
         space, segs.len(my_index_) * elem_size);
  }
  ring_allgather(data, elem_size, segs, 0, space);
}

void Communicator::hierarchical_bytes(std::byte* data, std::size_t elem_size, std::size_t count,
                                      const Reducer* reducer, MemSpace space,
                                      std::optional<AllreduceAlgo> leader_algo) {
  ensure_live("hierarchical_allreduce", -1);
  const auto& topo = world_->cost().topology();
  // Lazily build cached node/leader communicators the first time every
  // member reaches this path (collectively consistent because SPMD order).
  if (!hier_built_) {
    node_comm_ = std::make_shared<Communicator>(split(topo.node_of(global_rank())));
    const bool leader = node_comm_->rank() == 0;
    leader_comm_ = std::make_shared<Communicator>(split(leader ? 0 : -1));
    hier_built_ = true;
  }
  const std::size_t bytes = count * elem_size;
  // Pipelined intra-node phases (reduce-scatter based) keep the NVLink
  // stage bandwidth-optimal, mirroring the NCCL-backed intra-node path
  // real hierarchical Horovod uses. Small payloads use the tree variants.
  const bool pipelined = bytes >= (256 << 10);
  if (pipelined) {
    node_comm_->ring_reduce_to_root(data, elem_size, count, reducer, space);
  } else {
    node_comm_->reduce_bytes(data, elem_size, count, reducer, 0, space);
  }
  if (leader_comm_->valid()) {
    const AllreduceAlgo algo = leader_algo.value_or(
        profile().allreduce_algo(bytes, space == MemSpace::kDevice, leader_comm_->size()));
    leader_comm_->allreduce_bytes(data, elem_size, count, reducer, space, algo);
  }
  if (pipelined) {
    node_comm_->scatter_allgather_bcast(data, elem_size, count, space);
  } else {
    node_comm_->binomial_bcast(data, data != nullptr ? bytes : 0, 0, space, bytes);
  }
}

void Communicator::allreduce_custom(std::byte* data, std::size_t elem_size, std::size_t count,
                                    const Reducer& reducer, MemSpace space,
                                    std::optional<AllreduceAlgo> algo, bool hierarchical) {
  if (reducer.elem_size != elem_size) {
    throw std::invalid_argument("allreduce_custom: reducer element size mismatch");
  }
  if (hierarchical) {
    hierarchical_bytes(data, elem_size, count, &reducer, space, algo);
    return;
  }
  const AllreduceAlgo chosen = algo.value_or(
      profile().allreduce_algo(count * elem_size, space == MemSpace::kDevice, size()));
  allreduce_bytes(data, elem_size, count, &reducer, space, chosen);
}

void Communicator::allreduce_sim(std::size_t bytes, MemSpace space,
                                 std::optional<AllreduceAlgo> algo, bool hierarchical) {
  allreduce_custom(nullptr, 4, (bytes + 3) / 4, detail::make_reducer<float>(ReduceOp::kSum),
                   space, algo, hierarchical);
}

Communicator Communicator::split(int color) {
  ensure_live("split", -1);
  const std::uint64_t seq = ++split_seq_;
  std::int32_t mine = color;
  auto blobs = gather_blobs(std::as_bytes(std::span<const std::int32_t, 1>(&mine, 1)), 0);
  std::vector<std::int32_t> colors(static_cast<std::size_t>(size()));
  if (my_index_ == 0) {
    for (int r = 0; r < size(); ++r) {
      std::memcpy(&colors[static_cast<std::size_t>(r)], blobs[static_cast<std::size_t>(r)].data(),
                  sizeof(std::int32_t));
    }
  }
  const auto colors_blob = bcast_blob(std::as_bytes(std::span<const std::int32_t>(colors)), 0);
  std::memcpy(colors.data(), colors_blob.data(), colors_blob.size());

  if (color < 0) return Communicator(world_, 0, {}, -1);

  std::vector<int> group_global;
  int my_new_index = -1;
  for (int r = 0; r < size(); ++r) {
    if (colors[static_cast<std::size_t>(r)] == color) {
      if (r == my_index_) my_new_index = static_cast<int>(group_global.size());
      group_global.push_back(members_[static_cast<std::size_t>(r)]);
    }
  }
  return Communicator(world_, mix_comm_id(comm_id_, seq, color), std::move(group_global),
                      my_new_index);
}

// ---------------------------------------------------------------------------
// time & introspection
// ---------------------------------------------------------------------------

void Communicator::compute(double seconds) {
  if (seconds < 0) throw std::invalid_argument("compute: negative duration");
  if (world_->options().timing) world_->clock(global_rank()).advance(seconds);
}

double Communicator::now() const { return world_->clock(global_rank()).now(); }

VirtualClock& Communicator::clock() { return world_->clock(global_rank()); }

const net::Topology& Communicator::topology() const { return world_->cost().topology(); }

const net::MpiProfile& Communicator::profile() const { return world_->cost().profile(); }

bool Communicator::timing_enabled() const { return world_->options().timing; }

CommStats Communicator::stats() const { return world_->stats(global_rank()); }

// ---------------------------------------------------------------------------
// fault awareness
// ---------------------------------------------------------------------------

void Communicator::die() {
  const int grank = global_rank();
  world_->kill(grank);
  throw RankKilled{grank};
}

void Communicator::raise_failed(int first_dead_global, const char* op, int tag,
                                int expected_src) {
  // Blame the awaited sender when it is the dead one, so a recv's
  // exception names the peer the caller was actually waiting for.
  if (expected_src >= 0 && world_->is_dead(global_rank_of(expected_src))) {
    throw RankFailed(global_rank_of(expected_src), op, tag);
  }
  throw RankFailed(first_dead_global, op, tag);
}

void Communicator::ensure_live(const char* op, int tag, int expected_src) {
  if (!world_->options().faults.any_kills()) return;
  const int dead = world_->first_dead_among(members_);
  if (dead != -1) raise_failed(dead, op, tag, expected_src);
}

void Communicator::fault_tick() {
  const FaultPlan& plan = world_->options().faults;
  if (!plan.any_kills()) return;
  const int grank = global_rank();
  const long tick = world_->next_tick(grank);
  for (const FaultPlan::Kill& k : plan.kills) {
    if (k.global_rank == grank && tick == k.at_step) die();
  }
}

std::vector<int> Communicator::alive() const {
  std::vector<int> live;
  live.reserve(members_.size());
  for (int r = 0; r < size(); ++r) {
    if (!world_->is_dead(members_[static_cast<std::size_t>(r)])) live.push_back(r);
  }
  return live;
}

std::uint64_t Communicator::world_epoch() const { return world_->epoch(); }

bool Communicator::revoked() const { return world_->first_dead_among(members_) != -1; }

Communicator Communicator::shrink() { return world_->shrink(*this); }

// ---------------------------------------------------------------------------
// world runner
// ---------------------------------------------------------------------------

void run_world(const WorldOptions& options, const std::function<void(Communicator&)>& body) {
  const int world_size = options.topology.world_size();
  // A kill that can never fire would silently leave the run healthy.
  for (const FaultPlan::Kill& k : options.faults.kills) {
    if (k.global_rank < 0 || k.global_rank >= world_size) {
      throw std::invalid_argument("FaultPlan: kill global_rank " + std::to_string(k.global_rank) +
                                  " is outside the world of " + std::to_string(world_size) +
                                  " ranks");
    }
    if (k.at_step < 0) {
      throw std::invalid_argument("FaultPlan: kill at_step " + std::to_string(k.at_step) +
                                  " is negative");
    }
  }
  World world(options);

  std::mutex error_mutex;
  std::exception_ptr first_error;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world_size));
  for (int rank = 0; rank < world_size; ++rank) {
    threads.emplace_back([&, rank] {
      util::set_thread_log_rank(rank);
      std::vector<int> members(static_cast<std::size_t>(world_size));
      for (int r = 0; r < world_size; ++r) members[static_cast<std::size_t>(r)] = r;
      Communicator comm(&world, 1, std::move(members), rank);
      try {
        body(comm);
      } catch (const WorldAborted&) {
        // Secondary failure caused by another rank's abort; ignore.
      } catch (const RankKilled&) {
        // Injected fail-stop death: an expected, clean exit for this rank.
        // Survivors observe it as RankFailed on their own threads.
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        world.abort();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

void run_world(int world_size, const std::function<void(Communicator&)>& body) {
  WorldOptions options;
  options.topology = net::Topology::single_node(world_size);
  options.profile = net::MpiProfile::ideal();
  options.timing = false;
  run_world(options, body);
}

}  // namespace dlscale::mpi
