// End-to-end train-step benchmark (google-benchmark): the full Trainer
// path — forward, streamed backward through the gradient-ready sink, comm
// hook, SGD update — so trainer-level regressions show up next to the
// kernel microbenchmarks. Serial (NoComm) isolates compute; the
// distributed variant adds the Horovod negotiation/fusion machinery over
// a 2-rank simmpi world.
//
// Custom main (no benchmark_main): prints the memory-planner report first
// — packed arena bytes vs the naive every-Tensor-its-own-bytes sum per
// model width (DESIGN.md §10) — and peak RSS after the benches run.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "dlscale/train/trainer.hpp"
#include "dlscale/util/mem_stats.hpp"

namespace dt = dlscale::train;
namespace dm = dlscale::mpi;

namespace {

dt::TrainConfig bench_config(int width) {
  dt::TrainConfig config;
  config.model = {.in_channels = 3, .num_classes = 4, .input_size = 16, .width = width};
  config.dataset = {.image_size = 16, .num_classes = 4, .max_shapes = 2, .noise = 0.1f,
                    .seed = 99};
  config.train_samples = 64;
  config.eval_samples = 8;
  config.batch_per_rank = 2;
  config.epochs = 1;
  config.knobs.cycle_time_s = 1e-4;
  return config;
}

void BM_TrainStepSerial(benchmark::State& state) {
  const auto config = bench_config(static_cast<int>(state.range(0)));
  dt::NoComm hook;
  dt::Trainer trainer(config, hook);
  const dlscale::data::SyntheticShapes dataset(config.dataset);
  const dlscale::data::Sample batch = dataset.make_batch({0, 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.train_step(batch, 0.05));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrainStepSerial)->Arg(4)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_TrainEpochDistributed(benchmark::State& state) {
  // Whole epochs (simmpi worlds are scoped to run_world, so persistent
  // per-iteration trainers are not an option here): 2 ranks, shard of 32
  // samples each, negotiation + fusion + metric reduction included.
  const auto config = bench_config(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    dm::run_world(2, [&](dm::Communicator& comm) {
      dt::HorovodHook hook(comm, config);
      benchmark::DoNotOptimize(dt::Trainer(config, hook).run());
    });
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrainEpochDistributed)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

/// One traced step per model width: what the liveness planner packs the
/// step's activation footprint down to versus naive per-Tensor storage.
void print_memory_plan_report() {
  std::printf("Activation memory plan (one train step, batch 2)\n");
  std::printf("%-8s %14s %14s %8s\n", "width", "naive_bytes", "packed_bytes", "ratio");
  for (int width : {4, 8, 16}) {
    const auto config = bench_config(width);
    dt::NoComm hook;
    dt::Trainer trainer(config, hook);
    const dlscale::data::SyntheticShapes dataset(config.dataset);
    trainer.train_step(dataset.make_batch({0, 1}), 0.05);
    const dlscale::util::MemoryPlan& plan = trainer.step_arena().plan();
    std::printf("%-8d %14zu %14zu %7.1f%%\n", width, plan.naive_bytes, plan.peak_bytes,
                plan.naive_bytes == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(plan.peak_bytes) /
                          static_cast<double>(plan.naive_bytes));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  print_memory_plan_report();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf("\npeak RSS: %.1f MiB\n",
              static_cast<double>(dlscale::util::peak_rss_bytes()) / (1024.0 * 1024.0));
  return 0;
}
