#include "dlscale/hvd/horovod.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <limits>
#include <stdexcept>

#include <ostream>

#include "dlscale/util/env.hpp"
#include "dlscale/util/fp16.hpp"
#include "dlscale/util/json.hpp"
#include "dlscale/util/logging.hpp"
#include "dlscale/util/wire.hpp"

namespace dlscale::hvd {

namespace {

constexpr std::size_t kCacheSlots = 4096;
constexpr std::size_t kCacheWords = kCacheSlots / 64;

// Tensor names travel with a u16 length prefix.
constexpr std::size_t kMaxNameBytes = std::numeric_limits<std::uint16_t>::max();

}  // namespace

Knobs Knobs::from_env() { return from_env(Knobs{}); }

namespace {

std::optional<mpi::AllreduceAlgo> parse_allreduce_algo(std::string_view text) {
  std::string lowered;
  lowered.reserve(text.size());
  for (char c : text) {
    lowered.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lowered == "ring") return mpi::AllreduceAlgo::kRing;
  if (lowered == "rabenseifner") return mpi::AllreduceAlgo::kRabenseifner;
  if (lowered == "recursive_doubling" || lowered == "recursive-doubling" || lowered == "rd") {
    return mpi::AllreduceAlgo::kRecursiveDoubling;
  }
  return std::nullopt;
}

}  // namespace

Knobs Knobs::from_env(Knobs defaults) {
  Knobs knobs = defaults;
  knobs.fusion_threshold =
      util::env_bytes("HOROVOD_FUSION_THRESHOLD", defaults.fusion_threshold);
  // Horovod expresses cycle time in milliseconds.
  knobs.cycle_time_s =
      util::env_double("HOROVOD_CYCLE_TIME", defaults.cycle_time_s * 1e3) * 1e-3;
  knobs.hierarchical_allreduce =
      util::env_bool("HOROVOD_HIERARCHICAL_ALLREDUCE", defaults.hierarchical_allreduce);
  const auto cache_capacity = util::env_int("HOROVOD_CACHE_CAPACITY", -1);
  if (cache_capacity == 0) {
    knobs.response_cache = false;
  } else if (cache_capacity > 0) {
    knobs.response_cache = true;
  }
  knobs.stall_warning_cycles = static_cast<std::uint64_t>(std::max<std::int64_t>(
      0, util::env_int("HOROVOD_STALL_CHECK",
                       static_cast<std::int64_t>(defaults.stall_warning_cycles))));
  // Horovod treats HOROVOD_TIMELINE as an output path; any non-empty
  // value turns tracing on here (write_timeline picks the stream).
  const auto timeline = util::env_string("HOROVOD_TIMELINE");
  knobs.timeline = timeline ? !timeline->empty() : defaults.timeline;
  // Force one collective algorithm regardless of message size; "auto"
  // keeps the size-based MpiProfile selection. An unknown name is a hard
  // error: silently falling back would run a whole job under the wrong
  // collective and invalidate its numbers.
  if (const auto algo_name = util::env_string("DLSCALE_ALLREDUCE_ALGO")) {
    knobs.algo = parse_allreduce_algo(*algo_name);
    std::string lowered;
    for (char c : *algo_name) {
      lowered.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
    if (!knobs.algo && !lowered.empty() && lowered != "auto") {
      throw std::invalid_argument(
          "DLSCALE_ALLREDUCE_ALGO: unknown algorithm '" + *algo_name +
          "' (valid: ring|rabenseifner|recursive_doubling|auto)");
    }
  }
  // Gradient wire codec (DESIGN.md §12) — same strictness.
  if (const auto codec_name = util::env_string("DLSCALE_GRAD_COMPRESSION")) {
    if (!codec_name->empty()) {
      const auto codec = parse_compression(*codec_name);
      if (!codec) {
        throw std::invalid_argument("DLSCALE_GRAD_COMPRESSION: unknown codec '" + *codec_name +
                                    "' (valid: none|fp16|int8|topk)");
      }
      knobs.compression = *codec;
    }
  }
  // Horovod's fp16 switch is the fp16 codec; a codec named explicitly wins.
  if (util::env_bool("HOROVOD_FP16_ALLREDUCE", false) &&
      knobs.compression == CompressionAlgo::kNone) {
    knobs.compression = CompressionAlgo::kFp16;
  }
  const double topk_ratio =
      util::env_double("DLSCALE_TOPK_RATIO", static_cast<double>(defaults.topk_ratio));
  if (!(topk_ratio > 0.0 && topk_ratio <= 1.0)) {
    throw std::invalid_argument("DLSCALE_TOPK_RATIO: " + std::to_string(topk_ratio) +
                                " out of range (valid: (0, 1])");
  }
  knobs.topk_ratio = static_cast<float>(topk_ratio);
  knobs.error_feedback = util::env_bool("DLSCALE_ERROR_FEEDBACK", defaults.error_feedback);
  return knobs;
}

Knobs Knobs::paper_tuned() {
  Knobs knobs;
  knobs.fusion_threshold = 64 << 20;
  knobs.cycle_time_s = 3.5e-3;
  knobs.hierarchical_allreduce = true;
  knobs.response_cache = true;
  return knobs;
}

namespace {

// Safety valve against mismatched submissions across ranks (the
// negotiation would otherwise spin forever), overridable for tests and
// debugging.
std::uint64_t max_cycles_from_env() {
  const std::int64_t cycles = util::env_int("DLSCALE_HVD_MAX_CYCLES", 1'000'000);
  if (cycles <= 0) {
    throw std::invalid_argument("DLSCALE_HVD_MAX_CYCLES: " + std::to_string(cycles) +
                                " is not a positive cycle count");
  }
  return static_cast<std::uint64_t>(cycles);
}

}  // namespace

HorovodRuntime::HorovodRuntime(mpi::Communicator& comm, Knobs knobs, gpu::ComputeModel copy_model)
    : comm_(comm),
      knobs_(knobs),
      copy_model_(std::move(copy_model)),
      max_cycles_(max_cycles_from_env()) {
  if (knobs_.fusion_threshold == 0) knobs_.fusion_threshold = 1;  // per-tensor launches
}

void HorovodRuntime::submit(TensorRequest request) {
  if (request.name.empty()) throw std::invalid_argument("hvd::submit: tensor needs a name");
  if (request.name.size() > kMaxNameBytes) {
    throw std::invalid_argument("hvd::submit: tensor name is " +
                                std::to_string(request.name.size()) + " bytes, over the " +
                                std::to_string(kMaxNameBytes) +
                                "-byte limit of its u16 length prefix");
  }
  if (request.bytes == 0) request.bytes = request.data.size_bytes();
  if (request.bytes == 0) throw std::invalid_argument("hvd::submit: zero-size tensor");
  if (!request.data.empty() && request.bytes != request.data.size_bytes()) {
    throw std::invalid_argument("hvd::submit: tensor '" + request.name +
                                "' bytes disagree with its payload size");
  }
  if (pending_.contains(request.name)) {
    throw std::logic_error("hvd::submit: tensor '" + request.name +
                           "' already pending (synchronize before resubmitting)");
  }
  // Copy the key before moving the request: argument evaluation order is
  // unspecified and the Pending construction moves request.name out.
  std::string key = request.name;
  submit_order_.push_back(key);
  pending_.emplace(std::move(key), Pending{std::move(request), false});
}

std::vector<std::string> HorovodRuntime::collect_ready(double cycle_start) {
  std::vector<std::string> fresh;
  for (const std::string& name : submit_order_) {
    auto it = pending_.find(name);
    if (it == pending_.end()) continue;
    Pending& entry = it->second;
    if (entry.announced || entry.request.ready_at > cycle_start) continue;
    if (knobs_.response_cache && cache_ids_.contains(name)) continue;  // bitvector path
    entry.announced = true;
    fresh.push_back(name);
  }
  return fresh;
}

void HorovodRuntime::note_cached(const std::string& name) {
  if (!knobs_.response_cache) return;
  if (cache_ids_.contains(name) || cache_names_.size() >= kCacheSlots) return;
  cache_ids_.emplace(name, static_cast<std::uint32_t>(cache_names_.size()));
  cache_names_.push_back(name);
}

bool HorovodRuntime::cycle() {
  // Apply a staged set_knobs at the cycle boundary: the whole round —
  // report, response, fusion batching, collectives — runs under one knob
  // set. All ranks stage the same values at the same submit/synchronize
  // point, so every rank flips on the same cycle.
  if (pending_knobs_) {
    knobs_ = *pending_knobs_;
    if (knobs_.fusion_threshold == 0) knobs_.fusion_threshold = 1;
    pending_knobs_.reset();
  }
  ++stats_.cycles;
  // The background loop sleeps the remainder of the cycle period measured
  // from the PREVIOUS cycle's start (Horovod's RunLoopOnce semantics): a
  // round whose execution outlasts the period starts the next round
  // immediately.
  const double effective_cycle = std::max(knobs_.cycle_time_s, 1e-6);
  const double cycle_start = std::max(comm_.now(), last_cycle_start_ + effective_cycle);
  comm_.clock().bump_to(cycle_start);
  last_cycle_start_ = cycle_start;

  // ---- build this rank's report ----
  const std::vector<std::string> fresh = collect_ready(cycle_start);
  std::uint64_t bits[kCacheWords] = {};
  if (knobs_.response_cache) {
    for (const auto& [name, entry] : pending_) {
      if (entry.request.ready_at > cycle_start) continue;
      auto it = cache_ids_.find(name);
      if (it == cache_ids_.end()) continue;
      bits[it->second / 64] |= std::uint64_t{1} << (it->second % 64);
    }
  }
  std::vector<std::byte> report;
  report.reserve(2 * sizeof(std::uint32_t) + sizeof bits);
  util::wire::Writer out(report);
  out.put(static_cast<std::uint32_t>(fresh.size()));
  out.put(static_cast<std::uint32_t>(pending_.size()));
  for (std::uint64_t word : bits) out.put(word);
  for (const std::string& name : fresh) out.put_string<std::uint16_t>("tensor name", name);
  stats_.control_bytes += report.size();

  // ---- coordinator (rank 0) combines reports ----
  const double negotiation_start = comm_.now();
  const auto reports = comm_.gather_blobs(report, 0);
  std::vector<std::byte> response;
  if (comm_.rank() == 0) {
    std::uint64_t combined_bits[kCacheWords];
    std::fill(std::begin(combined_bits), std::end(combined_bits), ~std::uint64_t{0});
    bool any_fresh = false;
    std::uint32_t max_pending = 0;
    for (const auto& blob : reports) {
      util::wire::Reader reader(blob, "hvd report");
      const auto fresh_count = reader.get<std::uint32_t>("fresh count");
      const auto pending_count = reader.get<std::uint32_t>("pending count");
      max_pending = std::max(max_pending, pending_count);
      for (std::uint64_t& word : combined_bits) word &= reader.get<std::uint64_t>("cache bits");
      any_fresh = any_fresh || fresh_count > 0;
      for (std::uint32_t i = 0; i < fresh_count; ++i) {
        const std::string name = reader.get_string<std::uint16_t>("tensor name");
        ReadyState& state = ready_counts_[name];
        if (state.count == 0) state.first_seen_cycle = stats_.cycles;
        if (++state.count == comm_.size()) {
          response_order_.push_back(name);
          ready_counts_.erase(name);
        }
      }
    }
    // Stall check (HOROVOD_STALL_CHECK): a tensor announced by some ranks
    // but not all for many cycles usually means diverged control flow.
    if (knobs_.stall_warning_cycles > 0) {
      for (auto& [name, state] : ready_counts_) {
        if (!state.stall_warned &&
            stats_.cycles - state.first_seen_cycle >= knobs_.stall_warning_cycles) {
          state.stall_warned = true;
          ++stats_.stall_warnings;
          DLSCALE_WARN("hvd stall check: tensor '"
                       << name << "' ready on " << state.count << "/" << comm_.size()
                       << " ranks for " << (stats_.cycles - state.first_seen_cycle)
                       << " cycles");
        }
      }
    }
    // Cached responses: slots ready on every rank, in slot order.
    std::vector<std::uint32_t> cached_ready;
    for (std::uint32_t slot = 0; slot < cache_names_.size(); ++slot) {
      if (combined_bits[slot / 64] & (std::uint64_t{1} << (slot % 64))) cached_ready.push_back(slot);
    }
    const auto total_responses =
        static_cast<std::uint32_t>(cached_ready.size() + response_order_.size());
    const bool keep_going = max_pending > total_responses;
    if (!any_fresh && total_responses > 0) ++stats_.cache_hit_cycles;

    util::wire::Writer reply(response);
    reply.put(static_cast<std::uint8_t>(keep_going ? 1 : 0));
    reply.put(static_cast<std::uint32_t>(cached_ready.size()));
    for (std::uint32_t slot : cached_ready) reply.put(slot);
    reply.put(static_cast<std::uint32_t>(response_order_.size()));
    for (const std::string& name : response_order_) reply.put_string<std::uint16_t>("name", name);
    response_order_.clear();
  }
  const auto response_blob = comm_.bcast_blob(response, 0);
  stats_.control_bytes += response_blob.size();
  if (knobs_.timeline) {
    timeline_.push_back({negotiation_start, comm_.now(),
                         "cycle " + std::to_string(stats_.cycles), "negotiation"});
  }

  // ---- every rank decodes and executes the same response list ----
  util::wire::Reader reader(response_blob, "hvd response");
  const bool keep_going = reader.get<std::uint8_t>("keep going") != 0;
  std::vector<std::string> ordered;
  const auto cached_count = reader.get<std::uint32_t>("cached count");
  for (std::uint32_t i = 0; i < cached_count; ++i) {
    ordered.push_back(cache_names_.at(reader.get<std::uint32_t>("cache slot")));
  }
  const auto fresh_count = reader.get<std::uint32_t>("fresh count");
  for (std::uint32_t i = 0; i < fresh_count; ++i) {
    const std::string name = reader.get_string<std::uint16_t>("tensor name");
    note_cached(name);
    ordered.push_back(name);
  }
  stats_.tensors_negotiated += ordered.size();

  // Greedy fusion up to the threshold; an oversized tensor goes alone.
  std::vector<std::string> batch;
  std::size_t batch_bytes = 0;
  auto flush = [&] {
    if (batch.empty()) return;
    execute_batch(batch);
    batch.clear();
    batch_bytes = 0;
  };
  for (const std::string& name : ordered) {
    const auto it = pending_.find(name);
    if (it == pending_.end()) {
      throw std::logic_error("hvd: response for unknown tensor '" + name + "'");
    }
    const std::size_t bytes = it->second.request.bytes;
    if (!batch.empty() && batch_bytes + bytes > knobs_.fusion_threshold) flush();
    batch.push_back(name);
    batch_bytes += bytes;
    if (batch_bytes >= knobs_.fusion_threshold) flush();
  }
  flush();

  return keep_going;
}

namespace {

void half_sum(std::byte* acc_raw, const std::byte* in_raw, std::size_t n) {
  auto* acc = reinterpret_cast<std::uint16_t*>(acc_raw);
  const auto* in = reinterpret_cast<const std::uint16_t*>(in_raw);
  util::halves_add_inplace(acc, in, n);
}

const mpi::Communicator::Reducer kFloatSum = mpi::detail::make_reducer<float>(mpi::ReduceOp::kSum);
const mpi::Communicator::Reducer kHalfSum{sizeof(std::uint16_t), &half_sum};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

// One sequence for every codec and both modes: price the wire layout,
// pack, exchange (allreduce when the codec is reducible, ring allgather
// otherwise), unpack. A timing-only batch carries no payload, so its wire
// stays empty and the comm engines price the same calls without moving
// bytes — the two modes cannot disagree on virtual time.
void HorovodRuntime::execute_batch(const std::vector<std::string>& names) {
  ++stats_.fused_batches;
  const double exec_start = comm_.now();
  const CompressionAlgo codec = knobs_.compression;
  std::vector<GradientCompressor::Chunk> chunks;
  std::vector<std::size_t> counts;
  chunks.reserve(names.size());
  counts.reserve(names.size());
  std::size_t total_bytes = 0;
  for (const std::string& name : names) {
    const TensorRequest& request = pending_.at(name).request;
    chunks.push_back({&name, request.data});
    counts.push_back((request.bytes + sizeof(float) - 1) / sizeof(float));
    total_bytes += request.bytes;
  }
  stats_.bytes_reduced += total_bytes;
  const WireLayout layout = wire_layout(codec, counts, knobs_.topk_ratio);
  stats_.bytes_on_wire += layout.wire_bytes;
  const bool payload = !chunks.front().data.empty();
  // One fp32 tensor reduces in place (Horovod skips the fusion buffer);
  // any other batch pays one device copy to pack and one to unpack (the
  // codec conversions ride the same copy kernels).
  const bool in_place = names.size() == 1 && codec == CompressionAlgo::kNone;
  const auto charge_copy = [&] {
    if (!in_place && comm_.timing_enabled()) {
      comm_.compute(copy_model_.copy_time(total_bytes, gpu::CopyKind::kDeviceToDevice));
    }
  };
  const float world = static_cast<float>(comm_.size());

  // ---- pack ----
  std::span<std::byte> wire;  // stays empty in a timing-only batch
  const auto pack_start = std::chrono::steady_clock::now();
  if (payload && in_place) {
    wire = std::as_writable_bytes(chunks.front().data);
  } else if (payload && layout.reducible) {
    if (fusion_buffer_.size_bytes() < layout.wire_bytes) fusion_buffer_.resize(layout.wire_bytes);
    wire = fusion_buffer_.bytes().first(layout.wire_bytes);
    std::size_t offset = 0;
    for (const GradientCompressor::Chunk& chunk : chunks) {
      if (codec == CompressionAlgo::kFp16) {
        util::floats_to_halves(chunk.data.data(),
                               reinterpret_cast<std::uint16_t*>(wire.data()) + offset,
                               chunk.data.size());
      } else {
        std::copy(chunk.data.begin(), chunk.data.end(),
                  reinterpret_cast<float*>(wire.data()) + offset);
      }
      offset += chunk.data.size();
    }
  } else if (payload) {
    // Error feedback happens inside encode (residual in, compression
    // error out).
    wire = compressor_.encode(codec, chunks, knobs_.topk_ratio, knobs_.error_feedback);
    if (wire.size() != layout.wire_bytes) {
      throw std::logic_error("hvd: encoded blob size differs from its priced wire layout");
    }
  }
  if (codec != CompressionAlgo::kNone) stats_.compress_pack_s += seconds_since(pack_start);
  charge_copy();

  // ---- exchange ----
  if (layout.reducible) {
    comm_.allreduce_custom(wire.data(), layout.elem_size, layout.wire_bytes / layout.elem_size,
                           codec == CompressionAlgo::kFp16 ? kHalfSum : kFloatSum,
                           mpi::MemSpace::kDevice, knobs_.algo, knobs_.hierarchical_allreduce);
  } else {
    gathered_.resize(wire.size() * static_cast<std::size_t>(comm_.size()));
    comm_.allgather(wire, gathered_, mpi::MemSpace::kDevice, layout.wire_bytes);
  }

  // ---- unpack and average ----
  const auto unpack_start = std::chrono::steady_clock::now();
  if (payload && !layout.reducible) {
    // Every rank averages all contributions in rank order, so replicas
    // stay bitwise identical.
    compressor_.decode_average(codec, chunks, gathered_, comm_.size());
  } else if (payload) {
    std::size_t offset = 0;
    for (const GradientCompressor::Chunk& chunk : chunks) {
      if (codec == CompressionAlgo::kFp16) {
        util::halves_to_floats_div(reinterpret_cast<const std::uint16_t*>(wire.data()) + offset,
                                   chunk.data.data(), chunk.data.size(), world);
      } else {
        const float* summed = reinterpret_cast<const float*>(wire.data()) + offset;
        for (std::size_t i = 0; i < chunk.data.size(); ++i) chunk.data[i] = summed[i] / world;
      }
      offset += chunk.data.size();
    }
  }
  if (codec != CompressionAlgo::kNone) stats_.compress_unpack_s += seconds_since(unpack_start);
  charge_copy();

  if (knobs_.timeline) {
    timeline_.push_back({exec_start, comm_.now(),
                         names.size() == 1 ? names.front()
                                           : names.front() + " (+" +
                                                 std::to_string(names.size() - 1) + " fused)",
                         "allreduce"});
  }
  for (const std::string& name : names) {
    pending_.erase(name);
    std::erase(submit_order_, name);
  }
}

void HorovodRuntime::broadcast(std::span<float> data, int root) {
  comm_.bcast(std::as_writable_bytes(data), root, mpi::MemSpace::kDevice);
}

void HorovodRuntime::write_timeline(std::ostream& out) const {
  util::json::Value events = util::json::Value::array();
  for (const TimelineEvent& event : timeline_) {
    util::json::Value e = util::json::Value::object();
    e.set("name", event.name);
    e.set("cat", event.phase);
    e.set("ph", "X");
    e.set("ts", event.start_s * 1e6);
    e.set("dur", (event.end_s - event.start_s) * 1e6);
    e.set("pid", 0);
    e.set("tid", comm_.rank());
    events.push_back(std::move(e));
  }
  out << util::json::write(events) << '\n';
}

void HorovodRuntime::synchronize() {
  std::uint64_t local_cycles = 0;
  bool keep_going = true;
  while (keep_going) {
    if (++local_cycles > max_cycles_) {
      throw std::runtime_error(
          "hvd::synchronize: negotiation did not converge (mismatched submissions across "
          "ranks?)");
    }
    keep_going = cycle();
  }
  if (!pending_.empty()) {
    throw std::logic_error("hvd::synchronize: finished with tensors still pending");
  }
}

}  // namespace dlscale::hvd
