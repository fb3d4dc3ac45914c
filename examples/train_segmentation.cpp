// End-to-end distributed semantic-segmentation training — the paper's
// workload in miniature, on real (synthetic) data with real gradients.
//
// Trains the mini DeepLab-v3+ on the shape-segmentation dataset across 4
// data-parallel ranks, with every gradient streamed into the Horovod core
// as backward finalizes it, then demonstrates a full Trainer-state
// checkpoint: save mid-run, restore, continue, verify the result matches
// an uninterrupted run exactly.
//
// Usage: ./build/examples/train_segmentation [ranks] [epochs]
//                                            [--inject-kill rank=R,step=S]
//                                            [--compression none|fp16|int8|topk]
//
// --inject-kill rank=2,step=40 kills rank 2 at optimisation step 40:
// training switches to the elastic path (train::ElasticTrainer), the
// survivors shrink the communicator, restore the last per-epoch
// checkpoint, and finish on 3 ranks; the recovery is reported at the end.
//
// --compression selects the gradient wire codec (DESIGN.md §12) —
// equivalent to DLSCALE_GRAD_COMPRESSION; int8/topk run with
// error-feedback residuals unless DLSCALE_ERROR_FEEDBACK=0.
//
// DLSCALE_AUTOTUNE=1 turns on online knob autotuning: an hvd::Autotuner
// retunes fusion/cycle/hierarchy at measurement-window boundaries while
// the model trains — observation-only, metrics are unchanged.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "dlscale/train/elastic.hpp"
#include "dlscale/util/env.hpp"
#include "dlscale/util/table.hpp"

using namespace dlscale;

namespace {

// Parses "--inject-kill rank=R,step=S" (or --inject-kill=rank=R,step=S)
// and "--compression CODEC" (or --compression=CODEC) out of argv, leaving
// positional arguments where they are.
bool parse_flags(int argc, char** argv, std::vector<int>& positional, bool& inject,
                 int& kill_rank, long& kill_step,
                 std::optional<hvd::CompressionAlgo>& compression) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* spec = nullptr;
    if (std::strcmp(arg, "--inject-kill") == 0 && i + 1 < argc) {
      spec = argv[++i];
    } else if (std::strncmp(arg, "--inject-kill=", 14) == 0) {
      spec = arg + 14;
    }
    if (spec) {
      if (std::sscanf(spec, "rank=%d,step=%ld", &kill_rank, &kill_step) != 2) return false;
      inject = true;
      continue;
    }
    const char* codec = nullptr;
    if (std::strcmp(arg, "--compression") == 0 && i + 1 < argc) {
      codec = argv[++i];
    } else if (std::strncmp(arg, "--compression=", 14) == 0) {
      codec = arg + 14;
    }
    if (codec) {
      compression = hvd::parse_compression(codec);
      if (!compression) {
        std::fprintf(stderr, "--compression: unknown codec '%s' (valid: none|fp16|int8|topk)\n",
                     codec);
        return false;
      }
      continue;
    }
    positional.push_back(std::atoi(arg));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> positional;
  bool inject = false;
  int kill_rank = -1;
  long kill_step = -1;
  std::optional<hvd::CompressionAlgo> compression;
  if (!parse_flags(argc, argv, positional, inject, kill_rank, kill_step, compression)) {
    return 1;
  }
  const int world = positional.size() > 0 ? positional[0] : 4;
  const int epochs = positional.size() > 1 ? positional[1] : 5;
  if (world < 1 || epochs < 1 ||
      (inject && (kill_rank < 0 || kill_rank >= world || kill_step < 0))) {
    std::fprintf(stderr,
                 "usage: %s [ranks >= 1] [epochs >= 1] [--inject-kill rank=R,step=S] "
                 "[--compression none|fp16|int8|topk]\n",
                 argv[0]);
    return 1;
  }

  train::TrainConfig config;
  config.model = {.in_channels = 3, .num_classes = 6, .input_size = 24, .width = 8};
  config.dataset = {.image_size = 24, .num_classes = 6, .max_shapes = 3, .noise = 0.12f,
                    .seed = 2020};
  config.train_samples = 96;
  config.eval_samples = 32;
  config.batch_per_rank = 2;
  config.epochs = epochs;
  config.schedule = {0.08, 0.9, 0};
  config.knobs = hvd::Knobs::from_env(hvd::Knobs::paper_tuned());
  config.knobs.cycle_time_s = 1e-4;
  if (compression) config.knobs.compression = *compression;
  config.autotune.enabled = util::env_bool("DLSCALE_AUTOTUNE", false);
  config.autotune.window_steps = 2;

  std::printf("%s\n", util::env_dump().c_str());
  // The collective/codec knobs decide the whole run's wire behaviour;
  // surface what was EFFECTIVELY chosen (env typos throw in from_env, but
  // "which default won" is still worth one explicit line).
  std::string effective_algo = "auto";
  for (const util::EnvRecord& record : util::env_effective()) {
    if (record.name == "DLSCALE_ALLREDUCE_ALGO" && record.from_env) {
      effective_algo = record.value;
    }
  }
  std::printf("Effective allreduce algo: %s | wire codec: %s", effective_algo.c_str(),
              hvd::to_string(config.knobs.compression));
  if (config.knobs.compression == hvd::CompressionAlgo::kTopK) {
    std::printf(" (ratio %.3f)", static_cast<double>(config.knobs.topk_ratio));
  }
  if (config.knobs.compression == hvd::CompressionAlgo::kInt8 ||
      config.knobs.compression == hvd::CompressionAlgo::kTopK) {
    std::printf(", error feedback %s", config.knobs.error_feedback ? "on" : "off");
  }
  std::printf("\n");
  std::printf("Training mini DeepLab-v3+ on %d rank(s), %d epoch(s), global batch %d%s\n", world,
              epochs, world * config.batch_per_rank,
              config.autotune.enabled ? ", online autotuning ON" : "");
  if (inject) {
    std::printf("Fault injection: rank %d dies at step %ld (elastic recovery ON)\n", kill_rank,
                kill_step);
  }
  std::printf("\n");

  mpi::WorldOptions options;
  options.topology = net::Topology::single_node(world);
  options.profile = net::MpiProfile::mvapich2_gdr_like();
  options.timing = false;  // real training: wall-clock is the budget
  if (inject) options.faults.kills = {{kill_rank, kill_step}};

  train::TrainReport report;
  std::vector<train::RecoveryEvent> recoveries;
  mpi::run_world(options, [&](mpi::Communicator& comm) {
    if (inject) {
      train::ElasticConfig elastic_config;
      elastic_config.train = config;
      elastic_config.checkpoint_path = "/tmp/dlscale_example_elastic.ckpt";
      elastic_config.checkpoint_every_epochs = 1;
      train::ElasticTrainer elastic(comm, elastic_config);
      auto result = elastic.run();
      if (elastic.comm().rank() == 0) {
        report = std::move(result);
        recoveries = elastic.recoveries();
      }
    } else {
      train::HorovodHook hook(comm, config);
      auto result = train::Trainer(config, hook).run();
      if (comm.rank() == 0) report = std::move(result);
    }
  });
  if (inject) std::remove("/tmp/dlscale_example_elastic.ckpt");

  if (!recoveries.empty()) {
    util::Table recovery("Elastic recovery");
    recovery.set_header({"failed rank", "at step", "ranks", "resumed at", "steps replayed",
                         "recovery wall (ms)"});
    for (const auto& event : recoveries) {
      recovery.add_row({util::Table::num(static_cast<long long>(event.failed_global_rank)),
                        util::Table::num(static_cast<long long>(event.step_at_failure)),
                        std::to_string(event.old_size) + " -> " + std::to_string(event.new_size),
                        util::Table::num(static_cast<long long>(event.resumed_step)),
                        util::Table::num(static_cast<long long>(event.steps_replayed)),
                        util::Table::num(event.wall_recovery_s * 1e3, 2)});
    }
    recovery.print();
    std::printf("\n");
  }

  util::Table curve("Learning curve (" + std::to_string(world) + " ranks)");
  curve.set_header({"epoch", "train loss", "eval mIOU", "eval pixel acc"});
  for (const auto& epoch : report.epochs) {
    curve.add_row({util::Table::num(static_cast<long long>(epoch.epoch)),
                   util::Table::num(epoch.train_loss, 4), util::Table::pct(epoch.eval_miou),
                   util::Table::pct(epoch.eval_pixel_accuracy)});
  }
  curve.print();
  std::printf("\nModel parameters: %zu | optimizer steps: %ld | fused allreduces: %llu\n",
              report.parameter_count, report.steps,
              static_cast<unsigned long long>(report.hvd_stats.fused_batches));

  // Checkpoint round-trip through the Trainer: train half the epochs
  // serially, save the FULL training state (weights, BatchNorm running
  // stats, SGD momentum, step counters), restore into a fresh Trainer and
  // finish; compare against one uninterrupted run of the same schedule.
  std::printf("\nTrainer checkpoint round-trip (serial reference)...\n");
  auto serial_config = config;
  serial_config.epochs = 2;
  const std::string path = "/tmp/dlscale_example_trainer_state.bin";

  train::NoComm uninterrupted_hook;
  train::Trainer uninterrupted(serial_config, uninterrupted_hook);
  const auto full_run = uninterrupted.run();

  train::NoComm first_hook;
  train::Trainer first_half(serial_config, first_hook);
  first_half.train_epoch();
  first_half.save_state(path);

  train::NoComm resumed_hook;
  train::Trainer resumed(serial_config, resumed_hook);
  resumed.load_state(path);
  const auto resumed_run = resumed.run();

  const double miou_a = full_run.final_miou();
  const double miou_b = resumed_run.final_miou();
  std::printf("uninterrupted mIOU %.4f, save/restore/continue mIOU %.4f -> %s\n", miou_a, miou_b,
              miou_a == miou_b ? "identical (checkpoint OK)" : "MISMATCH");
  std::remove(path.c_str());
  return miou_a == miou_b ? 0 : 1;
}
