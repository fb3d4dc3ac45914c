// Multi-model registry: many NAMED models, each with its own serving
// engine (DESIGN.md §13).
//
// The millions-of-users shape is multi-tenant: one process serves many
// named models, each with its own ServeConfig — worker pool, dynamic
// batch ceiling, admission bound, serving precision — and its own
// counters, queue depth, and latency histograms. The registry is a
// name -> Server map; everything per-model (queue, batcher, workers,
// replica hot-reload via ReplicaRegistry) lives in the Server, so model
// isolation is total: one model's overload sheds ITS queue, one model's
// reload swaps ITS replicas, and /stats reports them separately.
//
// Concurrency: the map is guarded by a mutex; Servers are held by
// shared_ptr so a connection thread that resolved a model keeps it
// alive for the whole request even if the registry shuts down
// meanwhile. Models can be added while serving; there is deliberately
// no remove — production registries drain models by closing their
// admissions (at(name).shutdown()), and dropping the map entry would turn
// lookups into lifetime puzzles for no operational win.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "dlscale/serve/server.hpp"

namespace dlscale::serve {

/// Lookup of a model name that is not registered. Carries the name plus
/// the registered set so the HTTP 404 body can list what IS servable.
class UnknownModelError : public std::invalid_argument {
 public:
  UnknownModelError(std::string model, std::vector<std::string> known);
  [[nodiscard]] const std::string& model() const noexcept { return model_; }
  [[nodiscard]] const std::vector<std::string>& known() const noexcept { return known_; }

 private:
  std::string model_;
  std::vector<std::string> known_;
};

class ModelRegistry {
 public:
  ModelRegistry() = default;
  /// Shuts every model down (drain semantics — see Server::shutdown).
  ~ModelRegistry();

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers `name` serving the checkpoint at `checkpoint_path` under
  /// `config` (config.name is overwritten with `name` so errors and
  /// stats agree with the registry key). Spins the model's workers up
  /// immediately. Throws std::invalid_argument on a duplicate name and
  /// whatever Server's constructor throws on a bad checkpoint.
  Server& add_model(const std::string& name, ServeConfig config,
                    const std::string& checkpoint_path);

  /// The model's serving engine, or nullptr when unknown. The returned
  /// shared_ptr pins the Server across the caller's request lifetime.
  [[nodiscard]] std::shared_ptr<Server> find(const std::string& name) const;

  /// Like find() but throws UnknownModelError naming the known set.
  [[nodiscard]] Server& at(const std::string& name) const;

  /// Registered names in registration order.
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const;

  /// Point-in-time stats of every model in registration order — the
  /// /stats payload. Per-model actions go through at(name): reload(),
  /// stats(), shutdown().
  [[nodiscard]] std::vector<ServerStats> stats_all() const;

  /// Drains every model. Idempotent; called by the destructor.
  void shutdown();

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, std::shared_ptr<Server>>> models_;  ///< guarded by mutex_
};

}  // namespace dlscale::serve
