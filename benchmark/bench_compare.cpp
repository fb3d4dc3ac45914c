// bench_compare: judges a change against its parent from two sets of
// untraced records.
//
//   bench_compare [--spec BENCHMARK.json] --base DIR... --change DIR...
//
// Each DIR holds the BENCH_<workload>.json records of one pass
// (run.sh --out DIR). The i-th base and i-th change directory form a
// pair; run the two sides alternately. For every (workload, end-to-end
// metric) it prints one row:
//
//   worse       the change's median is worse than the parent's by more
//               than the metric's bound in BENCHMARK.json;
//   unresolved  the parent's quartile spread exceeds the bound (unless
//               every change run beats every parent run);
//   improved    >= 10 pairs, the change wins >= 9/10 of them, and the
//               medians differ by more than the parent's quartile spread;
//   unchanged   otherwise.
//
// Quartiles follow Python's statistics.quantiles(values, n=4). Exits 1
// when a row is worse or a record failed its correctness checks.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

namespace json = dlscale::util::json;
using dlbench::BenchRecord;

struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
};

/// statistics.quantiles(values, n=4), method "exclusive".
Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Quartiles q;
  if (v.empty()) return q;
  if (v.size() == 1) return {v[0], v[0], v[0]};
  const auto m = static_cast<long>(v.size()) + 1;
  double cut[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, static_cast<long>(v.size()) - 1);
    const long delta = i * m - j * 4;
    cut[i - 1] = (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                  v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

/// Records of one side: index = pass, entries may be missing.
using Side = std::vector<std::vector<BenchRecord>>;

Side load_side(const std::vector<std::string>& dirs) {
  Side side;
  for (const std::string& dir : dirs) {
    std::vector<BenchRecord> records;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) != 0 || name.find(".trace.") != std::string::npos ||
          entry.path().extension() != ".json") {
        continue;
      }
      records.push_back(json::from_json<BenchRecord>(dlbench::read_file(entry.path().string())));
    }
    side.push_back(std::move(records));
  }
  return side;
}

/// The metric's value in the pass's record of `workload`; NaN when absent.
double value_of(const std::vector<BenchRecord>& pass, const std::string& workload,
                const std::string& metric) {
  for (const BenchRecord& r : pass) {
    if (r.workload != workload || r.trace) continue;
    for (const dlbench::MetricEntry& m : r.metrics) {
      if (m.name == metric) return m.value;
    }
  }
  return std::nan("");
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: bench_compare [--spec BENCHMARK.json] --base DIR... --change DIR...\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path = "BENCHMARK.json";
  std::vector<std::string> base_dirs, change_dirs;
  std::vector<std::string>* target = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--spec") {
      if (i + 1 >= argc) usage();
      spec_path = argv[++i];
      target = nullptr;
    } else if (arg == "--base") {
      target = &base_dirs;
    } else if (arg == "--change") {
      target = &change_dirs;
    } else if (target != nullptr) {
      target->push_back(arg);
    } else {
      usage();
    }
  }
  if (base_dirs.empty() || change_dirs.empty()) usage();

  try {
    const auto spec = json::from_json<dlbench::BenchSpec>(dlbench::read_file(spec_path));
    const Side base = load_side(base_dirs);
    const Side change = load_side(change_dirs);

    int status = 0;
    for (const Side* side : {&base, &change}) {
      for (const auto& pass : *side) {
        for (const BenchRecord& r : pass) {
          if (!r.correct) {
            std::printf("INCORRECT %s seed %llu: %zu failed checks\n", r.workload.c_str(),
                        static_cast<unsigned long long>(r.seed), r.failures.size());
            status = 1;
          }
        }
      }
    }

    std::printf("%-15s %-15s %12s %8s %12s %8s %6s %6s  %s\n", "workload", "metric", "base_med",
                "iqr%", "change_med", "gap%", "bound%", "wins", "verdict");
    for (const dlbench::WorkloadSpec& w : spec.workloads) {
      for (const dlbench::MetricSpec& m : spec.end_to_end) {
        const double sign = m.better == "higher" ? 1.0 : -1.0;
        std::vector<double> b, c;
        int pairs = 0, wins = 0;
        for (std::size_t i = 0; i < std::max(base.size(), change.size()); ++i) {
          const double bv = i < base.size() ? value_of(base[i], w.name, m.name) : std::nan("");
          const double cv = i < change.size() ? value_of(change[i], w.name, m.name) : std::nan("");
          if (!std::isnan(bv)) b.push_back(bv);
          if (!std::isnan(cv)) c.push_back(cv);
          if (!std::isnan(bv) && !std::isnan(cv)) {
            ++pairs;
            if (sign * (cv - bv) > 0.0) ++wins;
          }
        }
        if (b.empty() || c.empty()) {
          std::printf("%-15s %-15s %12s %8s %12s %8s %6s %6s  missing\n", w.name.c_str(),
                      m.name.c_str(), "-", "-", "-", "-", "-", "-");
          continue;
        }
        const Quartiles qb = quartiles(b);
        const Quartiles qc = quartiles(c);
        const double scale = std::fabs(qb.median) > 0.0 ? std::fabs(qb.median) : 1.0;
        const double gap = sign * (qc.median - qb.median) / scale;  // > 0: change is better
        const double spread = (qb.q3 - qb.q1) / scale;
        const auto [b_min, b_max] = std::minmax_element(b.begin(), b.end());
        const auto [c_min, c_max] = std::minmax_element(c.begin(), c.end());
        const bool all_better = sign > 0 ? *c_min > *b_max : *c_max < *b_min;
        const char* verdict = "unchanged";
        if (spread > m.bound && !all_better) {
          verdict = "unresolved";
        } else if (gap < -m.bound) {
          verdict = "worse";
          status = 1;
        } else if (pairs >= 10 && 10 * wins >= 9 * pairs && gap > 0.0 &&
                   std::fabs(qc.median - qb.median) > qb.q3 - qb.q1) {
          verdict = "improved";
        }
        std::printf("%-15s %-15s %12.5g %8.2f %12.5g %8.2f %6.1f %3d/%-2d  %s\n", w.name.c_str(),
                    m.name.c_str(), qb.median, 100.0 * spread, qc.median, 100.0 * gap,
                    100.0 * m.bound, wins, pairs, verdict);
      }
    }
    return status;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }
}
