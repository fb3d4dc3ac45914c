// OSU-microbenchmark-style CLI over the simulated cluster.
//
// The paper's methodology starts from osu_allreduce/osu_bw runs on Summit
// to pick the MPI library; this tool reproduces that workflow against the
// simulated network so users can probe any (collective, library, scale,
// buffer space) combination without writing code.
//
// Usage:
//   osu_like [--collective allreduce|bcast|allgather|alltoall|pt2pt]
//            [--library mvapich|spectrum] [--nodes N] [--host] [--hier]
#include <cstdio>
#include <cstring>
#include <string>

#include "dlscale/mpi/comm.hpp"
#include "dlscale/util/env.hpp"
#include "dlscale/util/table.hpp"

using namespace dlscale;

namespace {

struct Options {
  std::string collective = "allreduce";
  std::string library = "mvapich";
  int nodes = 4;
  mpi::MemSpace space = mpi::MemSpace::kDevice;
  bool hierarchical = false;
};

double run_once(const Options& options, std::size_t bytes) {
  mpi::WorldOptions world;
  world.topology = net::Topology::summit(options.nodes);
  world.profile = options.library == "spectrum" ? net::MpiProfile::spectrum_like()
                                                : net::MpiProfile::mvapich2_gdr_like();
  world.timing = true;
  double elapsed = 0.0;
  mpi::run_world(world, [&](mpi::Communicator& comm) {
    comm.barrier();
    const double t0 = comm.now();
    if (options.collective == "allreduce") {
      comm.allreduce_sim(bytes, options.space, std::nullopt, options.hierarchical);
    } else if (options.collective == "bcast") {
      std::vector<std::byte> none;
      comm.bcast(none, 0, options.space, bytes);
    } else if (options.collective == "allgather") {
      std::vector<std::byte> mine(bytes / static_cast<std::size_t>(comm.size()) + 1);
      std::vector<std::byte> out(mine.size() * static_cast<std::size_t>(comm.size()));
      comm.allgather(mine, out, options.space);
    } else if (options.collective == "alltoall") {
      const std::size_t block = bytes / static_cast<std::size_t>(comm.size()) + 1;
      std::vector<std::byte> send(block * static_cast<std::size_t>(comm.size()));
      std::vector<std::byte> recv(send.size());
      comm.alltoall(send, recv, options.space);
    } else {  // pt2pt: first rank of node 0 -> first rank of node 1
      if (comm.rank() == 0) comm.send(6 % comm.size(), 1, {}, options.space, bytes);
      if (comm.rank() == 6 % comm.size() && comm.size() > 1) {
        comm.recv(0, 1, {}, options.space, bytes);
      }
    }
    comm.barrier();
    if (comm.rank() == 0) elapsed = comm.now() - t0;
  });
  return elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--collective") {
      options.collective = next();
    } else if (arg == "--library") {
      options.library = next();
    } else if (arg == "--nodes") {
      options.nodes = std::atoi(next().c_str());
    } else if (arg == "--host") {
      options.space = mpi::MemSpace::kHost;
    } else if (arg == "--hier") {
      options.hierarchical = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--collective allreduce|bcast|allgather|alltoall|pt2pt]\n"
                   "          [--library mvapich|spectrum] [--nodes N] [--host] [--hier]\n",
                   argv[0]);
      return 1;
    }
  }
  if (options.nodes < 1) {
    std::fprintf(stderr, "--nodes must be >= 1\n");
    return 1;
  }

  util::Table table("osu_" + options.collective + " — " + options.library + ", " +
                    std::to_string(options.nodes * 6) + " GPUs, " +
                    (options.space == mpi::MemSpace::kDevice ? "device" : "host") + " buffers" +
                    (options.hierarchical ? ", hierarchical" : ""));
  table.set_header({"size", "latency (us)", "bandwidth (GB/s)"});
  for (std::size_t bytes = 4; bytes <= (256u << 20); bytes *= 4) {
    const double elapsed = run_once(options, bytes);
    table.add_row({util::format_bytes(bytes), util::Table::num(elapsed * 1e6, 1),
                   util::Table::num(static_cast<double>(bytes) / elapsed / 1e9, 3)});
  }
  table.print();
  return 0;
}
