#include "dlscale/http/protocol.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dlscale::http {

nn::Precision parse_precision(const std::string& text) {
  if (text == "fp32") return nn::Precision::kFp32;
  if (text == "bf16") return nn::Precision::kBf16;
  if (text == "int8") return nn::Precision::kInt8;
  throw std::invalid_argument("unknown precision \"" + text +
                              "\" (valid: fp32, bf16, int8)");
}

models::MiniDeepLabV3Plus::Config to_model_config(const ModelArch& arch) {
  models::MiniDeepLabV3Plus::Config config;
  config.in_channels = arch.in_channels;
  config.num_classes = arch.num_classes;
  config.input_size = arch.input_size;
  config.width = arch.width;
  config.separable_backbone = arch.separable_backbone;
  return config;
}

ModelArch to_model_arch(const models::MiniDeepLabV3Plus::Config& config) {
  ModelArch arch;
  arch.in_channels = config.in_channels;
  arch.num_classes = config.num_classes;
  arch.input_size = config.input_size;
  arch.width = config.width;
  arch.separable_backbone = config.separable_backbone;
  return arch;
}

serve::ServeConfig to_serve_config(const ModelSpec& spec) {
  serve::ServeConfig config;
  config.model = to_model_config(spec.model);
  config.name = spec.name;
  config.workers = spec.workers;
  config.max_batch = spec.max_batch;
  config.max_wait_us = spec.max_wait_us;
  config.queue_capacity = static_cast<std::size_t>(spec.queue_capacity);
  config.quantize.precision = parse_precision(spec.precision);
  return config;
}

ModelSpec to_model_spec(const serve::ServeConfig& config, const std::string& checkpoint) {
  ModelSpec spec;
  spec.name = config.name;
  spec.checkpoint = checkpoint;
  spec.workers = config.workers;
  spec.max_batch = config.max_batch;
  spec.max_wait_us = config.max_wait_us;
  spec.queue_capacity = config.queue_capacity;
  spec.precision = nn::precision_name(config.quantize.precision);
  spec.model = to_model_arch(config.model);
  return spec;
}

ServerSpec load_server_spec(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open server spec \"" + path + "\"");
  std::ostringstream text;
  text << in.rdbuf();
  return json::from_json<ServerSpec>(text.str());
}

void register_models(const ServerSpec& spec, serve::ModelRegistry& registry) {
  for (const ModelSpec& model : spec.models) {
    registry.add_model(model.name, to_serve_config(model), model.checkpoint);
  }
}

ModelStatsJson to_stats_json(const std::string& name, const serve::ServerStats& stats) {
  ModelStatsJson out;
  out.name = name;
  out.precision = stats.precision;
  out.model_version = stats.model_version;
  out.accepted = stats.accepted;
  out.rejected_full = stats.rejected_full;
  out.rejected_closed = stats.rejected_closed;
  out.completed = stats.completed;
  out.batches = stats.batches;
  out.reloads = stats.reloads;
  out.queue_depth = stats.queue_depth;
  out.fp32_requests = stats.fp32_requests;
  out.quantized_requests = stats.quantized_requests;
  out.mean_batch_size = stats.mean_batch_size;
  out.queue_p50_us = stats.queue_p50_us;
  out.queue_p95_us = stats.queue_p95_us;
  out.queue_p99_us = stats.queue_p99_us;
  out.total_p50_us = stats.total_p50_us;
  out.total_p95_us = stats.total_p95_us;
  out.total_p99_us = stats.total_p99_us;
  out.total_mean_us = stats.total_mean_us;
  out.total_max_us = stats.total_max_us;
  return out;
}

}  // namespace dlscale::http
