#include "dlscale/serve/model_registry.hpp"

#include <stdexcept>

namespace dlscale::serve {

namespace {

std::string known_list(const std::vector<std::string>& known) {
  if (known.empty()) return "none registered";
  std::string out;
  for (const std::string& name : known) {
    if (!out.empty()) out += ", ";
    out += "\"" + name + "\"";
  }
  return out;
}

}  // namespace

UnknownModelError::UnknownModelError(std::string model, std::vector<std::string> known)
    : std::invalid_argument("unknown model \"" + model + "\" (known: " + known_list(known) + ")"),
      model_(std::move(model)),
      known_(std::move(known)) {}

ModelRegistry::~ModelRegistry() { shutdown(); }

Server& ModelRegistry::add_model(const std::string& name, ServeConfig config,
                                 const std::string& checkpoint_path) {
  if (name.empty()) throw std::invalid_argument("model name must be non-empty");
  {
    std::lock_guard lock(mutex_);
    for (const auto& [existing, server] : models_) {
      if (existing == name) {
        throw std::invalid_argument("model \"" + name + "\" is already registered");
      }
    }
  }
  // Build OUTSIDE the lock: checkpoint load + calibration is the slow
  // part, and other models must keep serving meanwhile. A racing
  // add_model of the same name is resolved below.
  config.name = name;
  auto server = std::make_shared<Server>(std::move(config), checkpoint_path);
  std::lock_guard lock(mutex_);
  for (const auto& [existing, existing_server] : models_) {
    if (existing == name) {
      throw std::invalid_argument("model \"" + name + "\" is already registered");
    }
  }
  models_.emplace_back(name, std::move(server));
  return *models_.back().second;
}

std::shared_ptr<Server> ModelRegistry::find(const std::string& name) const {
  std::lock_guard lock(mutex_);
  for (const auto& [existing, server] : models_) {
    if (existing == name) return server;
  }
  return nullptr;
}

Server& ModelRegistry::at(const std::string& name) const {
  auto server = find(name);
  if (server == nullptr) throw UnknownModelError(name, names());
  return *server;
}

std::vector<std::string> ModelRegistry::names() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(models_.size());
  for (const auto& [name, server] : models_) out.push_back(name);
  return out;
}

std::size_t ModelRegistry::size() const {
  std::lock_guard lock(mutex_);
  return models_.size();
}

std::vector<ServerStats> ModelRegistry::stats_all() const {
  // Snapshot the map, then collect stats unlocked: Server::stats takes
  // the server's own mutex and must not nest inside ours.
  std::vector<std::pair<std::string, std::shared_ptr<Server>>> snapshot;
  {
    std::lock_guard lock(mutex_);
    snapshot = models_;
  }
  std::vector<ServerStats> out;
  out.reserve(snapshot.size());
  for (const auto& [name, server] : snapshot) out.push_back(server->stats());
  return out;
}

void ModelRegistry::shutdown() {
  std::vector<std::pair<std::string, std::shared_ptr<Server>>> snapshot;
  {
    std::lock_guard lock(mutex_);
    snapshot = models_;
  }
  for (const auto& [name, server] : snapshot) server->shutdown();
}

}  // namespace dlscale::serve
