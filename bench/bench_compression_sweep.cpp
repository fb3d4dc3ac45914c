// Extension (optional feature): gradient-compression codec sweep —
// fp32 / fp16 / int8 / top-k on the allreduce wire (DESIGN.md §12).
//
// Two views, because the codecs live in two different regimes:
//
// 1. REAL PAYLOAD at 4 ranks: every DLv3+ layer gradient is an actual
//    float tensor pushed through the full runtime (negotiation, fusion,
//    encode, exchange, decode). This measures what the simulator cannot:
//    bytes on the wire per step, wall-clock pack/unpack cost, and the
//    virtual step time including the codec's exchange pattern.
//
// 2. TIMING-ONLY WORLD SWEEP: the allgather-style exchange int8/top-k
//    use moves (W-1) x blob per rank, so compressed wire volume GROWS
//    with world size while the fp32 ring stays ~2 x bytes. The sweep
//    shows the honest crossover — compression wins small worlds on
//    bytes, and the advantage narrows as W grows (the fp16 codec keeps
//    the reduction-friendly ring and scales like fp32).
//
// The fp16 rows reproduce the original bench_fp16_compression structure:
// halving wire bytes matters where communication is exposed (Spectrum
// default) and is nearly free where the tuned MVAPICH2-GDR config
// already hides it.
#include <cstdio>
#include <string>
#include <vector>

#include "dlscale/hvd/horovod.hpp"
#include "dlscale/models/workload.hpp"
#include "dlscale/perf/simulator.hpp"
#include "dlscale/util/rng.hpp"
#include "dlscale/util/table.hpp"

using namespace dlscale;

namespace {

struct CodecResult {
  std::uint64_t wire_bytes = 0;
  double pack_ms = 0.0;
  double unpack_ms = 0.0;
  double step_s = 0.0;  ///< virtual time of the exchange
};

hvd::Knobs codec_knobs(hvd::CompressionAlgo algo, float topk_ratio) {
  hvd::Knobs knobs = hvd::Knobs::paper_tuned();
  knobs.cycle_time_s = 1e-4;
  knobs.compression = algo;
  knobs.topk_ratio = topk_ratio;
  return knobs;
}

/// One full gradient exchange of every DLv3+ layer, real floats, at
/// `ranks` ranks in a timed single-node world.
CodecResult run_real_payload(int ranks, hvd::CompressionAlgo algo, float topk_ratio) {
  const auto workload = models::WorkloadSpec::deeplab_v3plus(4);
  CodecResult out;
  mpi::WorldOptions options;
  options.topology = net::Topology::single_node(ranks);
  options.profile = net::MpiProfile::mvapich2_gdr_like();
  options.timing = true;
  mpi::run_world(options, [&](mpi::Communicator& comm) {
    hvd::HorovodRuntime runtime(comm, codec_knobs(algo, topk_ratio));
    // Per-rank gradients: deterministic, distinct per rank, realistic
    // dynamic range.
    util::Rng rng(1234 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<std::vector<float>> grads;
    grads.reserve(workload.layers.size());
    for (const auto& layer : workload.layers) {
      auto& grad = grads.emplace_back(layer.param_bytes / sizeof(float));
      for (auto& x : grad) x = static_cast<float>(rng.uniform(-0.05, 0.05));
    }
    // Warmup step (primes the response cache and EF residuals), then the
    // measured step.
    for (std::size_t i = 0; i < grads.size(); ++i) {
      runtime.submit({workload.layers[i].name, grads[i], 0, comm.now()});
    }
    runtime.synchronize();
    const double t0 = comm.now();
    runtime.reset_stats();
    for (std::size_t i = 0; i < grads.size(); ++i) {
      runtime.submit({workload.layers[i].name, grads[i], 0, comm.now()});
    }
    runtime.synchronize();
    if (comm.rank() == 0) {
      const auto& stats = runtime.stats();
      out.wire_bytes = stats.bytes_on_wire;
      out.pack_ms = stats.compress_pack_s * 1e3;
      out.unpack_ms = stats.compress_unpack_s * 1e3;
      out.step_s = comm.now() - t0;
    }
  });
  return out;
}

/// Timing-only exchange of the fused DLv3+ gradient at `gpus` ranks.
double run_timing_only(int gpus, hvd::CompressionAlgo algo, float topk_ratio) {
  const auto workload = models::WorkloadSpec::deeplab_v3plus(4);
  double elapsed = 0.0;
  mpi::WorldOptions options;
  options.topology = gpus <= 6 ? net::Topology::single_node(gpus)
                               : net::Topology::summit(gpus / 6);
  options.profile = net::MpiProfile::mvapich2_gdr_like();
  options.timing = true;
  mpi::run_world(options, [&](mpi::Communicator& comm) {
    hvd::HorovodRuntime runtime(comm, codec_knobs(algo, topk_ratio));
    runtime.submit({"grads", {}, workload.total_param_bytes(), comm.now()});
    runtime.synchronize();
    if (comm.rank() == 0) elapsed = comm.now();
  });
  return elapsed;
}

}  // namespace

int main() {
  const auto workload = models::WorkloadSpec::deeplab_v3plus(4);
  const double fp32_bytes = static_cast<double>(workload.total_param_bytes());
  std::printf("DLv3+ gradient: %.1f MiB fp32 across %zu layers\n\n", fp32_bytes / (1 << 20),
              workload.layers.size());

  struct Codec {
    const char* label;
    hvd::CompressionAlgo algo;
    float topk_ratio;
  };
  const Codec codecs[] = {
      {"fp32", hvd::CompressionAlgo::kNone, 0.01f},
      {"fp16", hvd::CompressionAlgo::kFp16, 0.01f},
      {"int8", hvd::CompressionAlgo::kInt8, 0.01f},
      {"topk 1%", hvd::CompressionAlgo::kTopK, 0.01f},
  };

  // View 1: real payload at 4 ranks.
  util::Table real("Real-payload codec sweep — DLv3+ gradients @ 4 ranks");
  real.set_header({"codec", "wire/step", "reduction", "pack (ms)", "unpack (ms)",
                   "step (virt ms)", "speedup"});
  double fp32_step = 0.0;
  for (const Codec& codec : codecs) {
    const CodecResult result = run_real_payload(4, codec.algo, codec.topk_ratio);
    if (codec.algo == hvd::CompressionAlgo::kNone) fp32_step = result.step_s;
    const double reduction =
        fp32_bytes / static_cast<double>(result.wire_bytes ? result.wire_bytes : 1);
    real.add_row({codec.label,
                  util::Table::num(static_cast<double>(result.wire_bytes) / (1 << 20), 2) +
                      " MiB",
                  util::Table::num(reduction, 1) + "x",
                  util::Table::num(result.pack_ms, 2), util::Table::num(result.unpack_ms, 2),
                  util::Table::num(result.step_s * 1e3, 2),
                  codec.algo == hvd::CompressionAlgo::kNone
                      ? "-"
                      : util::Table::num(fp32_step / result.step_s, 2) + "x"});
    std::fprintf(stderr, "... real payload %s done\n", codec.label);
  }
  real.print();

  // View 2: where the allgather exchange stops paying.
  util::Table sweep("Virtual exchange time vs world size (ms, timing-only)");
  sweep.set_header({"codec", "4 GPUs", "36 GPUs", "132 GPUs"});
  for (const Codec& codec : codecs) {
    std::vector<std::string> row{codec.label};
    for (int gpus : {4, 36, 132}) {
      row.push_back(util::Table::num(run_timing_only(gpus, codec.algo, codec.topk_ratio) * 1e3,
                                     2));
    }
    sweep.add_row(row);
    std::fprintf(stderr, "... world sweep %s done\n", codec.label);
  }
  sweep.print();

  // View 3: the original fp16 table — compression vs library quality at
  // the paper's 132-GPU scale (simulated end-to-end training step).
  util::Table fp16("fp16 compression x library, DLv3+ @ 132 GPUs (simulated)");
  fp16.set_header({"library", "knobs", "fp16", "img/s", "efficiency", "gain"});
  struct Row {
    net::MpiProfile profile;
    hvd::Knobs knobs;
  };
  const Row rows[] = {
      {net::MpiProfile::spectrum_like(), hvd::Knobs::horovod_defaults()},
      {net::MpiProfile::spectrum_like(), hvd::Knobs::paper_tuned()},
      {net::MpiProfile::mvapich2_gdr_like(), hvd::Knobs::horovod_defaults()},
      {net::MpiProfile::mvapich2_gdr_like(), hvd::Knobs::paper_tuned()},
  };
  for (const Row& row : rows) {
    double baseline = 0.0;
    for (bool on : {false, true}) {
      perf::ScalingConfig config;
      config.workload = workload;
      config.nodes = 22;
      config.flop_efficiency = perf::Calibration::paper_defaults().deeplab_efficiency;
      config.mpi_profile = row.profile;
      config.knobs = row.knobs;
      config.knobs.compression = on ? hvd::CompressionAlgo::kFp16 : hvd::CompressionAlgo::kNone;
      config.warmup_iterations = 1;
      config.iterations = 1;
      const auto result = perf::simulate(config);
      if (!on) baseline = result.images_per_s;
      fp16.add_row({row.profile.name, row.knobs.hierarchical_allreduce ? "tuned" : "default",
                    on ? "on" : "off", util::Table::num(result.images_per_s, 1),
                    util::Table::pct(result.scaling_efficiency),
                    on ? util::Table::num(result.images_per_s / baseline, 2) + "x" : "-"});
    }
    std::fprintf(stderr, "... fp16 x %s %s done\n", row.profile.name.c_str(),
                 row.knobs.hierarchical_allreduce ? "tuned" : "default");
  }
  fp16.print();

  std::printf(
      "\nShape check: int8 cuts wire bytes ~4x and top-k@1%% >10x at small worlds,\n"
      "where the allgather exchange is cheap; the advantage narrows as the world\n"
      "grows because gathered compressed blobs scale with W while the fp32/fp16\n"
      "rings stay flat. fp16 keeps the ring and so is the safe large-world codec;\n"
      "compression substitutes for — not compounds with — a fast MPI library.\n");
  return 0;
}
