// Elastic recovery cost: 4 -> 3 ranks, mid-epoch rank failure.
//
// The paper's Summit runs budget for node failure by checkpointing and
// resubmitting; the elastic trainer instead shrinks the communicator and
// continues on the survivors (DESIGN.md section 11). This bench injects a
// kill on rank 2 mid-epoch and reports what the recovery cost: iteration
// attempts replayed from the last checkpoint, wall-clock time spent in
// shrink + rebuild + restore, and the virtual-time position of the
// failure. A healthy 4-rank run of the same config anchors the accuracy
// comparison: the degraded run should land in the same mIOU band.
#include <cstdio>

#include "dlscale/train/elastic.hpp"
#include "dlscale/util/table.hpp"

using namespace dlscale;

namespace {

constexpr int kKillRank = 2;
constexpr int kKillStep = 40;

train::TrainConfig make_config() {
  train::TrainConfig config;
  config.model = {.in_channels = 3, .num_classes = 6, .input_size = 24, .width = 8};
  config.dataset = {.image_size = 24, .num_classes = 6, .max_shapes = 3, .noise = 0.12f,
                    .seed = 2020};
  config.train_samples = 96;
  config.eval_samples = 48;
  config.batch_per_rank = 2;
  config.epochs = 8;
  config.schedule = {0.08, 0.9, 0};
  config.knobs.cycle_time_s = 1e-4;
  config.seed = 7;
  return config;
}

mpi::WorldOptions world_options() {
  mpi::WorldOptions options;
  options.topology = net::Topology::single_node(4);
  options.profile = net::MpiProfile::mvapich2_gdr_like();
  options.timing = true;
  return options;
}

}  // namespace

int main() {
  // Healthy reference: same config, nobody dies.
  train::TrainReport healthy;
  {
    mpi::WorldOptions options = world_options();
    mpi::run_world(options, [&](mpi::Communicator& comm) {
      const train::TrainConfig config = make_config();
      train::HorovodHook hook(comm, config);
      auto result = train::Trainer(config, hook).run();
      if (comm.rank() == 0) healthy = std::move(result);
    });
  }
  std::fprintf(stderr, "... healthy 4-rank run done (mIOU %.3f)\n", healthy.final_miou());

  // Degraded run: rank 2 is killed at step 40; survivors shrink to 3
  // ranks and restore from the last per-epoch checkpoint.
  train::TrainReport degraded;
  std::vector<train::RecoveryEvent> recoveries;
  {
    mpi::WorldOptions options = world_options();
    options.faults.kills = {{kKillRank, kKillStep}};
    mpi::run_world(options, [&](mpi::Communicator& comm) {
      train::ElasticConfig config;
      config.train = make_config();
      config.checkpoint_path = "/tmp/dlscale_bench_elastic.ckpt";
      config.checkpoint_every_epochs = 1;
      train::ElasticTrainer elastic(comm, config);
      auto result = elastic.run();
      if (elastic.comm().rank() == 0) {
        degraded = std::move(result);
        recoveries = elastic.recoveries();
      }
    });
    std::remove("/tmp/dlscale_bench_elastic.ckpt");
  }
  std::fprintf(stderr, "... elastic 4->3 run done (mIOU %.3f)\n", degraded.final_miou());

  util::Table table("Elastic recovery — rank 2 killed at step 40, 4 -> 3 ranks");
  table.set_header({"run", "ranks", "steps", "final loss", "final mIOU"});
  table.add_row({"healthy", "4", util::Table::num(static_cast<long long>(healthy.steps)),
                 util::Table::num(healthy.epochs.back().train_loss, 4),
                 util::Table::pct(healthy.final_miou())});
  table.add_row({"elastic (1 failure)", "4 -> 3",
                 util::Table::num(static_cast<long long>(degraded.steps)),
                 util::Table::num(degraded.epochs.back().train_loss, 4),
                 util::Table::pct(degraded.final_miou())});
  table.print();

  std::printf("\n== Recovery cost ==\n");
  util::Table cost;
  cost.set_header({"failed rank", "at step", "resumed at", "steps to recover",
                   "recovery wall (ms)", "failure virtual t (s)"});
  for (const auto& event : recoveries) {
    cost.add_row({util::Table::num(static_cast<long long>(event.failed_global_rank)),
                  util::Table::num(static_cast<long long>(event.step_at_failure)),
                  util::Table::num(static_cast<long long>(event.resumed_step)),
                  util::Table::num(static_cast<long long>(event.steps_replayed)),
                  util::Table::num(event.wall_recovery_s * 1e3, 2),
                  util::Table::num(event.virtual_time_s, 3)});
  }
  cost.print();

  std::printf(
      "\nShape check: the elastic run loses rank %d at step %d, replays the steps since\n"
      "the last checkpoint on 3 survivors, and still converges into the healthy run's\n"
      "mIOU band — failure costs replayed steps and a sub-second rebuild, not the job.\n",
      kKillRank, kKillStep);
  return 0;
}
