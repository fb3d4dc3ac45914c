// E7 (ablation: HOROVOD_HIERARCHICAL_ALLREDUCE).
//
// Flat vs hierarchical allreduce across message sizes and node counts for
// both library profiles, using each library's own algorithm selection.
// The interesting reproduced structure: under the staged Spectrum path
// the two are close (the per-process staging pipeline is the bottleneck),
// while MVAPICH2-GDR's topology-aware flat ring wins outright at large
// sizes — so the hierarchical knob matters most where the library's flat
// path is weak.
#include <cstdio>

#include "dlscale/mpi/comm.hpp"
#include "dlscale/util/env.hpp"
#include "dlscale/util/table.hpp"

using namespace dlscale;

namespace {

double measure(const net::MpiProfile& profile, int nodes, std::size_t bytes, bool hierarchical) {
  mpi::WorldOptions options;
  options.topology = net::Topology::summit(nodes);
  options.profile = profile;
  options.timing = true;
  double elapsed = 0.0;
  mpi::run_world(options, [&](mpi::Communicator& comm) {
    if (hierarchical) {
      // Warm the cached sub-communicators, then measure.
      comm.allreduce_sim(64, mpi::MemSpace::kDevice, std::nullopt, /*hierarchical=*/true);
    }
    comm.barrier();
    const double t0 = comm.now();
    constexpr int kReps = 2;
    for (int rep = 0; rep < kReps; ++rep) {
      comm.allreduce_sim(bytes, mpi::MemSpace::kDevice, std::nullopt, hierarchical);
    }
    comm.barrier();
    if (comm.rank() == 0) elapsed = (comm.now() - t0) / kReps;
  });
  return elapsed;
}

}  // namespace

int main() {
  const std::size_t sizes[] = {64 << 10, 1 << 20, 8 << 20, 64 << 20};

  for (const auto& profile :
       {net::MpiProfile::spectrum_like(), net::MpiProfile::mvapich2_gdr_like()}) {
    for (int nodes : {4, 22}) {
      util::Table table("E7 — Flat vs hierarchical allreduce, " + profile.name + ", " +
                        std::to_string(nodes * 6) + " GPUs");
      table.set_header({"message size", "flat (ms)", "hierarchical (ms)", "hier/flat"});
      for (std::size_t bytes : sizes) {
        const double flat = measure(profile, nodes, bytes, false);
        const double hier = measure(profile, nodes, bytes, true);
        table.add_row({util::format_bytes(bytes), util::Table::num(flat * 1e3, 2),
                       util::Table::num(hier * 1e3, 2), util::Table::num(hier / flat, 2)});
      }
      table.print();
      std::printf("\n");
    }
  }
  std::printf(
      "Shape check: hierarchy is roughly neutral under Spectrum's staged pipeline and\n"
      "counterproductive for MVAPICH2-GDR's already-optimal large-message ring;\n"
      "its real value in the paper's tuned configuration is protecting the weak\n"
      "flat path of the default library at scale.\n");
  return 0;
}
