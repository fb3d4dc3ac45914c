// dlbench: runs one workload of the benchmark and reports it.
//
//   dlbench --workload NAME --seed N [--seconds S] [--trace 0|1] [--smoke]
//           [--spec BENCHMARK.json] [--out DIR] [--git-rev REV]
//
// An untraced run reports every end-to-end metric of BENCHMARK.json, a
// traced run every per-layer metric (0 where the workload does not
// exercise that layer). Each metric is printed by name with its unit,
// the run is written to DIR/BENCH_<workload>.json (traced:
// BENCH_<workload>.trace.json, plus the Chrome trace
// DIR/trace_<workload>.json), and the last stdout line is one JSON
// object {correct, attempted, failed, metrics}. Exits 1 when a
// correctness check fails, 2 on bad usage.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "dlscale/util/simd.hpp"
#include "dlscale/util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

namespace json = dlscale::util::json;
using dlbench::Options;
using dlbench::Result;
using dlbench::SpanLogs;

struct Workload {
  const char* name;
  Result (*run)(const Options&, SpanLogs&);
};

const Workload kWorkloads[] = {
    {"train-compute", dlbench::run_train_compute},
    {"train-hvd",
     [](const Options& o, SpanLogs& s) { return dlbench::run_train_hvd(o, false, s); }},
    {"train-hvd-int8",
     [](const Options& o, SpanLogs& s) { return dlbench::run_train_hvd(o, true, s); }},
    {"sim-summit", dlbench::run_sim_summit},
    {"serve-http", dlbench::run_serve_http},
    {"serve-inproc", dlbench::run_serve_inproc},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "dlbench: %s\nusage: dlbench --workload NAME --seed N [--seconds S] "
               "[--trace 0|1] [--smoke] [--spec FILE] [--out DIR] [--git-rev REV]\n",
               why.c_str());
  std::exit(2);
}

struct Args {
  Options options;
  std::string spec_path = "BENCHMARK.json";
  std::string git_rev = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  Options& o = args.options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        o.workload = value();
      } else if (flag == "--seed") {
        o.seed = std::stoull(value());
        have_seed = true;
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value());
      } else if (flag == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (flag == "--smoke") {
        o.smoke = true;
      } else if (flag == "--spec") {
        args.spec_path = value();
      } else if (flag == "--out") {
        o.out_dir = value();
      } else if (flag == "--git-rev") {
        args.git_rev = value();
      } else {
        usage("unknown argument " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (o.workload.empty() || !have_seed) usage("--workload and --seed are required");
  if (!(o.seconds > 0.0 && o.seconds <= 120.0)) usage("--seconds must be in (0, 120]");
  if (o.smoke) {
    o.seconds = std::min(o.seconds, 1.0);
    o.setup_repeats = 1;
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Options& options = args.options;
  try {
    const auto spec = json::from_json<dlbench::BenchSpec>(dlbench::read_file(args.spec_path));
    const Workload* workload = nullptr;
    for (const Workload& w : kWorkloads) {
      if (options.workload == w.name) workload = &w;
    }
    bool listed = false;
    for (const dlbench::WorkloadSpec& w : spec.workloads) {
      listed = listed || w.name == options.workload;
    }
    if (workload == nullptr || !listed) usage("unknown workload " + options.workload);
    std::filesystem::create_directories(options.out_dir);

    SpanLogs spans;
    Result result = workload->run(options, spans);

    dlbench::BenchRecord record;
    record.workload = options.workload;
    record.seed = options.seed;
    record.seconds = options.seconds;
    record.trace = options.trace;
    record.git_rev = args.git_rev;
    record.build_type = DLBENCH_BUILD_TYPE;
    record.simd_level = dlscale::util::simd_level_name(dlscale::util::simd_level());
    record.kernel_threads = dlscale::util::global_thread_count();
    record.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
    record.attempted = result.attempted;
    record.failed = result.failed;
    record.loss_digest = result.loss_digest;

    // The reported set is exactly BENCHMARK.json's list for this mode.
    const auto& wanted = options.trace ? spec.per_layer : spec.end_to_end;
    json::Value metrics = json::Value::object();
    std::printf("%s (seed %llu, %s run, %.1f s window)\n", options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.trace ? "traced" : "untraced", options.seconds);
    for (const dlbench::MetricSpec& m : wanted) {
      const auto it = result.metrics.find(m.name);
      double value = 0.0;
      if (it == result.metrics.end()) {
        result.check(options.trace, "workload did not report " + m.name);
      } else {
        value = it->second.first;
        result.check(it->second.second == m.unit, m.name + " measured in " + it->second.second +
                                                      ", declared in " + m.unit);
      }
      std::printf("  %-34s %14.6g %s%s\n", m.name.c_str(), value, m.unit.c_str(),
                  it == result.metrics.end() ? "  (layer not exercised)" : "");
      json::Value entry = json::Value::object();
      entry.set("value", value);
      entry.set("unit", m.unit);
      metrics.set(m.name, std::move(entry));
      record.metrics.push_back({m.name, value, m.unit, options.trace ? "layer" : "e2e"});
    }
    if (!result.loss_digest.empty()) std::printf("  loss_digest %s\n", result.loss_digest.c_str());
    for (const std::string& failure : result.failures) {
      std::printf("  CHECK FAILED: %s\n", failure.c_str());
    }
    record.correct = result.failures.empty();
    record.failures = result.failures;

    const std::string stem = options.out_dir + "/BENCH_" + options.workload;
    std::FILE* f = std::fopen((stem + (options.trace ? ".trace.json" : ".json")).c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write the record under " + options.out_dir);
    const std::string text = json::to_json(record, /*pretty=*/true) + "\n";
    const bool written = std::fputs(text.c_str(), f) >= 0;
    if (std::fclose(f) != 0 || !written) throw std::runtime_error("cannot finish " + stem);
    if (options.trace) {
      std::vector<const dlbench::SpanLog*> logs;
      for (const auto& log : spans) logs.push_back(log.get());
      const std::string trace = options.out_dir + "/trace_" + options.workload + ".json";
      dlbench::write_chrome_trace(trace, logs);
      if (!json::parse(dlbench::read_file(trace)).is_array()) {
        throw std::runtime_error(trace + " is not a JSON array");
      }
    }

    json::Value line = json::Value::object();
    line.set("correct", record.correct);
    line.set("attempted", record.attempted);
    line.set("failed", record.failed);
    line.set("metrics", std::move(metrics));
    std::printf("%s\n", json::write(line).c_str());
    return record.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dlbench: %s: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
}
