// The six dlbench workloads. Each runs its setup `setup_repeats` times,
// then one timed window of `seconds`, checks its outputs, and returns its
// metrics: end-to-end ones in an untraced run, per-layer ones (from the
// span logs it appends to `spans`) in a traced run.
#pragma once

#include <memory>
#include <vector>

#include "common.hpp"

namespace dlbench {

using SpanLogs = std::vector<std::unique_ptr<SpanLog>>;

Result run_train_compute(const Options& options, SpanLogs& spans);
Result run_train_hvd(const Options& options, bool int8, SpanLogs& spans);
Result run_sim_summit(const Options& options, SpanLogs& spans);
Result run_serve_http(const Options& options, SpanLogs& spans);
Result run_serve_inproc(const Options& options, SpanLogs& spans);

}  // namespace dlbench
