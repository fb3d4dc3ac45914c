// Shared pieces of the dlbench program: run options, the per-run result
// (metrics + correctness checks), the BENCH_<workload>.json record
// schema, the span log behind --trace, and small timing helpers.
//
// Every layer is measured from outside, around calls into public dlscale
// functions; nothing here reaches into library internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "dlscale/util/json.hpp"

namespace dlbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return 1e3 * seconds_between(a, b);
}
[[nodiscard]] inline double us_between(Clock::time_point a, Clock::time_point b) {
  return 1e6 * seconds_between(a, b);
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12.0;  ///< length of the timed window
  bool trace = false;     ///< per-layer run: spans on, per-layer metrics out
  bool smoke = false;     ///< ~1 s schema/correctness check at reduced size
  int setup_repeats = 5;  ///< setups per run; setup_s is their median
  std::string out_dir = ".";
};

/// A metric as BENCHMARK.json declares it. Per-layer metrics have no bound.
struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  ///< "higher" or "lower"
  double bound = 0.0;  ///< allowed worsening, as a share of the parent's median

  static constexpr auto json_fields() {
    namespace json = dlscale::util::json;
    return std::make_tuple(json::field("name", &MetricSpec::name),
                           json::field("unit", &MetricSpec::unit),
                           json::field("better", &MetricSpec::better),
                           json::field("bound", &MetricSpec::bound));
  }
};

struct WorkloadSpec {
  std::string name;
  std::string why;

  static constexpr auto json_fields() {
    namespace json = dlscale::util::json;
    return std::make_tuple(json::field("name", &WorkloadSpec::name),
                           json::field("why", &WorkloadSpec::why));
  }
};

/// BENCHMARK.json: the benchmark's workloads and metrics.
struct BenchSpec {
  std::vector<std::string> command;
  std::vector<std::string> paths;
  int run_seconds = 0;
  std::vector<WorkloadSpec> workloads;
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;

  static constexpr auto json_fields() {
    namespace json = dlscale::util::json;
    return std::make_tuple(json::field("command", &BenchSpec::command),
                           json::field("paths", &BenchSpec::paths),
                           json::field("run_seconds", &BenchSpec::run_seconds),
                           json::field("workloads", &BenchSpec::workloads),
                           json::field("end_to_end", &BenchSpec::end_to_end),
                           json::field("per_layer", &BenchSpec::per_layer));
  }
};

/// Whole contents of a file; throws std::runtime_error when unreadable.
[[nodiscard]] std::string read_file(const std::string& path);

/// One metric of a record. `kind` is "e2e" or "layer".
struct MetricEntry {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string kind;

  static constexpr auto json_fields() {
    namespace json = dlscale::util::json;
    return std::make_tuple(json::field("name", &MetricEntry::name),
                           json::field("value", &MetricEntry::value),
                           json::field("unit", &MetricEntry::unit),
                           json::field("kind", &MetricEntry::kind));
  }
};

/// One BENCH_<workload>.json: what ran, where, and what it measured.
struct BenchRecord {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string git_rev;
  std::string build_type;
  std::string simd_level;
  int kernel_threads = 0;
  int nproc = 0;
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string loss_digest;  ///< train-*: digest of the first steps' losses
  std::vector<std::string> failures;
  std::vector<MetricEntry> metrics;

  static constexpr auto json_fields() {
    namespace json = dlscale::util::json;
    return std::make_tuple(json::field("workload", &BenchRecord::workload),
                           json::field("seed", &BenchRecord::seed),
                           json::field("seconds", &BenchRecord::seconds),
                           json::field("trace", &BenchRecord::trace),
                           json::field("git_rev", &BenchRecord::git_rev),
                           json::field("build_type", &BenchRecord::build_type),
                           json::field("simd_level", &BenchRecord::simd_level),
                           json::field("kernel_threads", &BenchRecord::kernel_threads),
                           json::field("nproc", &BenchRecord::nproc),
                           json::field("correct", &BenchRecord::correct),
                           json::field("attempted", &BenchRecord::attempted),
                           json::field("failed", &BenchRecord::failed),
                           json::field("loss_digest", &BenchRecord::loss_digest),
                           json::field("failures", &BenchRecord::failures),
                           json::field("metrics", &BenchRecord::metrics));
  }
};

/// What a workload hands back to main().
struct Result {
  std::map<std::string, std::pair<double, std::string>> metrics;  ///< name -> (value, unit)
  std::vector<std::string> failures;  ///< correctness checks that did not hold
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string loss_digest;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records a correctness check; a false `ok` is a failure of the run.
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Completion rates (units/s) over consecutive chunks of a window. A
/// chunk closes at the first completion at least `chunk_s` after the
/// previous one closed; its rate is the units completed in it over its
/// exact span, so rates carry no counting granularity. `done_at` holds
/// completion offsets (seconds from the window start) of `units_each`
/// work units apiece. A quantile of these rates keeps short stalls of a
/// shared machine out of a reported throughput.
[[nodiscard]] std::vector<double> chunk_rates(std::vector<double> done_at, double window_s,
                                              double chunk_s, double units_each);

/// FNV-1a over raw bytes (parameter checksums, loss digests).
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                  std::uint64_t hash = 0xcbf29ce484222325ull);

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mib();

// ---------------------------------------------------------------------------
// Spans (--trace).
// ---------------------------------------------------------------------------

/// In-memory span log of one thread (a rank, the load sender, ...). The
/// summed duration of every span name covers all spans; the first
/// `capacity` spans are also kept verbatim for the Chrome-trace file. A
/// disabled log records nothing.
class SpanLog {
 public:
  struct Event {
    const char* name;
    double start_us;  ///< since process start
    double end_us;
    std::uint64_t id;  ///< step or request id shared by related spans
  };

  SpanLog(bool enabled, int tid, std::size_t capacity = 5000)
      : enabled_(enabled), tid_(tid), capacity_(capacity) {}

  [[nodiscard]] int tid() const noexcept { return tid_; }

  void record(const char* name, std::uint64_t id, Clock::time_point start, Clock::time_point end);

  /// Summed duration of every span named `name`, in microseconds.
  [[nodiscard]] double total_us(const std::string& name) const;
  [[nodiscard]] const std::vector<Event>& events() const noexcept { return events_; }

 private:
  bool enabled_;
  int tid_;
  std::size_t capacity_;
  std::vector<Event> events_;
  std::map<std::string, double> total_us_;
};

/// Writes the logs as one Chrome/Perfetto trace (JSON array format).
void write_chrome_trace(const std::string& path, const std::vector<const SpanLog*>& logs);

}  // namespace dlbench
