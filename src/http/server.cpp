#include "dlscale/http/server.hpp"

#include <cstring>
#include <utility>

#include "dlscale/tensor/tensor.hpp"

namespace dlscale::http {

namespace {

Response error_response(int status, ErrorResponse body) {
  return json_response(status, body);
}

Response simple_error(int status, const std::string& message) {
  ErrorResponse body;
  body.error = message;
  return error_response(status, std::move(body));
}

std::vector<int> shape_vector(const tensor::Shape& shape) {
  return std::vector<int>(shape.begin(), shape.end());
}

}  // namespace

HttpServer::HttpServer(serve::ModelRegistry& registry, HttpConfig config)
    : registry_(registry),
      config_(config),
      listener_(static_cast<std::uint16_t>(config.port), config.backlog) {
  acceptor_ = std::thread([this] { accept_loop(); });
}

HttpServer::~HttpServer() { shutdown(); }

bool HttpServer::draining() const {
  std::lock_guard lock(mutex_);
  return draining_;
}

void HttpServer::begin_drain() {
  std::lock_guard lock(mutex_);
  draining_ = true;
}

void HttpServer::shutdown(bool drain_models) {
  {
    std::lock_guard lock(mutex_);
    if (shut_down_) return;
    shut_down_ = true;
    draining_ = true;  // healthz flips first; connections keep answering
  }
  // Phase 1: drain the models. Queues close, admitted requests are
  // answered — predict handlers blocked on futures all complete here,
  // while /healthz keeps reporting "draining" to anyone asking.
  if (drain_models) registry_.shutdown();
  // Phase 2: stop the front door and wake every parked connection read.
  listener_.unblock();
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::unique_ptr<Conn>> conns;
  {
    std::lock_guard lock(mutex_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    conn->socket.shutdown_both();
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

FrontendStatsJson HttpServer::frontend_stats() const {
  FrontendStatsJson out;
  out.port = listener_.port();
  std::lock_guard lock(mutex_);
  out.draining = draining_;
  out.connections = connections_;
  out.requests = requests_;
  out.http_errors = http_errors_;
  return out;
}

void HttpServer::accept_loop() {
  for (;;) {
    auto socket = listener_.accept();
    if (!socket) return;  // unblocked by shutdown (or fatal accept error)
    if (config_.recv_timeout_ms > 0) socket->set_recv_timeout_ms(config_.recv_timeout_ms);
    std::lock_guard lock(mutex_);
    if (shut_down_) return;  // raced with shutdown: drop the connection
    reap_finished_locked();
    ++connections_;
    auto conn = std::make_unique<Conn>();
    conn->socket = std::move(*socket);
    Conn* raw = conn.get();
    conns_.push_back(std::move(conn));
    raw->thread = std::thread([this, raw] { connection_loop(raw); });
  }
}

void HttpServer::reap_finished_locked() {
  for (std::size_t i = 0; i < conns_.size();) {
    if (conns_[i]->done) {
      if (conns_[i]->thread.joinable()) conns_[i]->thread.join();
      conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void HttpServer::connection_loop(Conn* conn) {
  // The Conn owns the fd and outlives this thread (entries are only
  // destroyed after join), so shutdown_both() from shutdown() can never
  // hit a recycled fd. The Connection below BORROWS the fd — it is
  // released back before the wrapper destructs, never double-closed.
  Connection connection(util::Socket(conn->socket.fd()));
  bool keep_going = true;
  while (keep_going) {
    Response response;
    bool have_response = false;
    try {
      auto request = connection.read_request(static_cast<std::size_t>(config_.max_body_bytes));
      if (!request) break;  // EOF / timeout / reset
      response = handle(*request);
      have_response = true;
      keep_going = request->keep_alive();
    } catch (const HttpError& e) {
      response = simple_error(e.status, e.what());
      have_response = true;
      keep_going = false;  // framing is suspect; close after answering
    } catch (const std::exception& e) {
      response = simple_error(500, e.what());
      have_response = true;
      keep_going = false;
    }
    if (have_response) {
      if (!keep_going) response.headers.push_back({"Connection", "close"});
      {
        std::lock_guard lock(mutex_);
        ++requests_;
        if (response.status >= 400) ++http_errors_;
      }
      if (!connection.write(response)) break;  // peer hung up
    }
  }
  // Hand the borrowed fd back before the Connection's Socket closes it.
  (void)connection.socket().release();
  std::lock_guard lock(mutex_);
  conn->done = true;
}

Response HttpServer::handle(const Request& request) {
  const std::string& target = request.target;
  if (target == "/healthz") {
    if (request.method != "GET") return simple_error(405, "healthz is GET-only");
    return handle_healthz();
  }
  if (target == "/stats") {
    if (request.method != "GET") return simple_error(405, "stats is GET-only");
    return handle_stats();
  }
  constexpr std::string_view kModels = "/v1/models/";
  if (target.size() > kModels.size() && std::string_view(target).starts_with(kModels)) {
    const std::string_view rest = std::string_view(target).substr(kModels.size());
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string_view::npos || colon == 0) {
      return simple_error(404, "model routes are /v1/models/{name}:predict|:reload");
    }
    const std::string name(rest.substr(0, colon));
    const std::string_view verb = rest.substr(colon + 1);
    if (verb == "predict") {
      if (request.method != "POST") return simple_error(405, "predict is POST-only");
      return handle_predict(name, request);
    }
    if (verb == "reload") {
      if (request.method != "POST") return simple_error(405, "reload is POST-only");
      return handle_reload(name, request);
    }
    return simple_error(404, "unknown model verb \"" + std::string(verb) + "\"");
  }
  return simple_error(404, "no route for \"" + target + "\"");
}

Response HttpServer::handle_predict(const std::string& name, const Request& request) {
  const std::shared_ptr<serve::Server> server = registry_.find(name);
  if (server == nullptr) {
    ErrorResponse body;
    body.error = "unknown model";
    body.model = name;
    body.known_models = registry_.names();
    return error_response(404, std::move(body));
  }
  PredictRequest predict;
  try {
    predict = util::json::from_json<PredictRequest>(request.body);
  } catch (const util::json::Error& e) {
    return simple_error(400, std::string("bad predict body: ") + e.what());
  }
  // Pre-tensor validation: shape arity, positivity, a count that fits
  // size_t, and agreement with the image must hold before the bytes are
  // trusted.
  const auto bad_shape = [&](std::string error) {
    ErrorResponse body;
    body.error = std::move(error);
    body.model = name;
    body.got_shape = predict.shape;
    return error_response(400, std::move(body));
  };
  if (predict.shape.size() != 3 && predict.shape.size() != 4) {
    return bad_shape("shape must have 3 (C,S,S) or 4 (1,C,S,S) dims");
  }
  const tensor::Shape shape(predict.shape);
  std::size_t numel = 0;
  try {
    numel = shape.numel();
  } catch (const std::exception& e) {  // non-positive dim or size_t overflow
    return bad_shape(e.what());
  }
  if (numel != predict.image.size()) {
    return bad_shape("image has " + std::to_string(predict.image.size()) +
                     " floats but shape wants " + std::to_string(numel));
  }
  tensor::Tensor image(shape);
  std::memcpy(image.ptr(), predict.image.data(), numel * sizeof(float));

  serve::RejectReason why = serve::RejectReason::kNone;
  std::optional<std::future<serve::Response>> future;
  try {
    future = server->submit(std::move(image), &why);
  } catch (const serve::ShapeError& e) {
    // The named rejection of DESIGN.md §13: which model, expected vs
    // got — never a failure inside a worker forward.
    ErrorResponse body;
    body.error = e.what();
    body.model = e.model();
    body.expected_shape = shape_vector(e.expected());
    body.got_shape = shape_vector(e.got());
    return error_response(400, std::move(body));
  }
  if (!future) {
    ErrorResponse body;
    body.model = name;
    if (why == serve::RejectReason::kQueueFull) {
      body.error = "queue full — load shed, retry later";
      return error_response(429, std::move(body));
    }
    body.error = "model is draining (shutdown in progress)";
    return error_response(503, std::move(body));
  }
  serve::Response served;
  try {
    served = future->get();
  } catch (const std::exception& e) {
    return simple_error(500, std::string("inference failed: ") + e.what());
  }

  PredictResponse body;
  body.model = name;
  body.model_version = served.model_version;
  body.precision = nn::precision_name(served.precision);
  body.batch_size = served.batch_size;
  body.shape = shape_vector(served.logits.shape());
  body.logits.assign(served.logits.ptr(), served.logits.ptr() + served.logits.numel());
  body.labels = std::move(served.labels);
  body.queue_us = served.queue_us;
  body.total_us = served.total_us;
  return json_response(200, body);
}

Response HttpServer::handle_reload(const std::string& name, const Request& request) {
  const std::shared_ptr<serve::Server> server = registry_.find(name);
  if (server == nullptr) {
    ErrorResponse body;
    body.error = "unknown model";
    body.model = name;
    body.known_models = registry_.names();
    return error_response(404, std::move(body));
  }
  ReloadRequest reload;
  try {
    reload = util::json::from_json<ReloadRequest>(request.body);
  } catch (const util::json::Error& e) {
    return simple_error(400, std::string("bad reload body: ") + e.what());
  }
  if (reload.checkpoint.empty()) {
    return simple_error(400, "reload needs a \"checkpoint\" path");
  }
  try {
    std::optional<serve::QuantizeSpec> spec;
    if (!reload.precision.empty()) {
      spec.emplace();
      spec->precision = parse_precision(reload.precision);
    }
    server->reload(reload.checkpoint, std::move(spec));
  } catch (const std::exception& e) {
    // Strong guarantee: the old weights keep serving; tell the operator
    // why the swap was refused.
    ErrorResponse body;
    body.error = e.what();
    body.model = name;
    return error_response(400, std::move(body));
  }
  // One snapshot, so version and precision come from one generation.
  serve::ServerStats stats = server->stats();
  ReloadResponse body;
  body.model = name;
  body.model_version = stats.model_version;
  body.precision = std::move(stats.precision);
  return json_response(200, body);
}

Response HttpServer::handle_healthz() {
  HealthzResponse body;
  const bool drain = draining();
  body.status = drain ? "draining" : "ok";
  body.accepting = !drain;
  body.models = registry_.size();
  return json_response(200, body);
}

Response HttpServer::handle_stats() {
  StatsResponse body;
  body.server = frontend_stats();
  body.models = registry_.stats_all();
  return json_response(200, body);
}

}  // namespace dlscale::http
