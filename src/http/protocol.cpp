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

serve::ServeConfig to_serve_config(const ModelSpec& spec) {
  serve::ServeConfig config;
  config.model = spec.model;
  config.name = spec.name;
  config.workers = spec.workers;
  config.max_batch = spec.max_batch;
  config.max_wait_us = spec.max_wait_us;
  config.queue_capacity = static_cast<std::size_t>(spec.queue_capacity);
  config.quantize.precision = parse_precision(spec.precision);
  return config;
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

}  // namespace dlscale::http
