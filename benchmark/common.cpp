#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "dlscale/util/mem_stats.hpp"

namespace dlbench {

namespace {

// Time zero of every trace file: process start.
const Clock::time_point g_trace_epoch = Clock::now();

double since_epoch_us(Clock::time_point at) { return us_between(g_trace_epoch, at); }

}  // namespace

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<double> chunk_rates(std::vector<double> done_at, double window_s, double chunk_s,
                                double units_each) {
  std::sort(done_at.begin(), done_at.end());
  std::vector<double> rates;
  double from = 0.0;
  double units = 0.0;
  for (const double t : done_at) {
    if (t < 0.0 || t >= window_s) continue;
    units += units_each;
    if (t - from >= chunk_s) {
      rates.push_back(units / (t - from));
      from = t;
      units = 0.0;
    }
  }
  return rates;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

double peak_rss_mib() {
  return static_cast<double>(dlscale::util::peak_rss_bytes()) / (1024.0 * 1024.0);
}

// ---- SpanLog ----

void SpanLog::record(const char* name, std::uint64_t id, Clock::time_point start,
                     Clock::time_point end) {
  if (!enabled_) return;
  total_us_[name] += us_between(start, end);
  if (events_.size() < capacity_) {
    events_.push_back({name, since_epoch_us(start), since_epoch_us(end), id});
  }
}

double SpanLog::total_us(const std::string& name) const {
  const auto it = total_us_.find(name);
  return it == total_us_.end() ? 0.0 : it->second;
}

void write_chrome_trace(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  // Complete ("X") events; names are fixed ASCII identifiers, so no
  // string escaping is needed.
  std::fputs("[", f);
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const SpanLog::Event& e : log->events()) {
      std::fprintf(f, "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                   first ? "" : ",", e.name, log->tid(), e.start_us, e.end_us - e.start_us,
                   static_cast<unsigned long long>(e.id));
      first = false;
    }
  }
  std::fputs("\n]\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot finish " + path);
}

}  // namespace dlbench
