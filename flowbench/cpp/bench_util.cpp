#include "bench_util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "core/parallel.hpp"
#include "db/codec.hpp"
#include "db/hash.hpp"
#include "obs/json.hpp"

namespace flowbench {

double wallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB on Linux
}

Timed timeCall(const std::function<void()>& fn) {
  const double w0 = wallSeconds();
  const double c0 = cpuSeconds();
  fn();
  Timed t;
  t.wallMs = (wallSeconds() - w0) * 1e3;
  t.cpuMs = (cpuSeconds() - c0) * 1e3;
  return t;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tailOf(std::vector<double> v) {
  static constexpr double kPercents[] = {99.9, 99.0, 95.0, 90.0, 75.0};
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  for (const double p : kPercents) {
    // Nearest rank: the k-th smallest sample, k = ceil(p/100 * n).
    const auto k = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    if (k >= 1 && v.size() - k >= 10) return Tail{p, v[k - 1]};
  }
  return Tail{};
}

std::uint64_t hashBytes(const std::function<void(m3d::db::BinWriter&)>& encode) {
  m3d::db::BinWriter w;
  encode(w);
  return m3d::db::fnv1a64(w.buffer().data(), w.buffer().size());
}

std::uint64_t hashNetlist(const m3d::Netlist& nl) { return m3d::db::hashNetlist(nl); }

std::uint64_t hashRoutes(const m3d::RoutingResult& r) {
  return hashBytes([&](m3d::db::BinWriter& w) { m3d::db::encodeRoutingResult(w, r); });
}

std::uint64_t hashParasitics(const std::vector<m3d::NetParasitics>& p) {
  return hashBytes([&](m3d::db::BinWriter& w) { m3d::db::encodeParasitics(w, p); });
}

std::uint64_t hashVerify(const m3d::VerifyReport& v) {
  return hashBytes([&](m3d::db::BinWriter& w) { m3d::db::encodeVerifyReport(w, v); });
}

std::uint64_t hashClock(const m3d::ClockModel& c) {
  return hashBytes([&](m3d::db::BinWriter& w) { m3d::db::encodeClockModel(w, c); });
}

std::uint64_t artifactHash(const m3d::FlowOutput& out) {
  std::ostringstream os;
  m3d::obs::JsonWriter jw(os, /*pretty=*/false);
  m3d::writeDesignMetricsJson(jw, out.metrics);
  const std::string metricsJson = os.str();
  return hashBytes([&](m3d::db::BinWriter& w) {
    m3d::db::encodeNetlist(w, out.tile->netlist);
    m3d::db::encodeRoutingResult(w, out.routes);
    m3d::db::encodeParasitics(w, out.paras);
    m3d::db::encodeClockModel(w, out.clock);
    m3d::db::encodeVerifyReport(w, out.verify);
    w.str(metricsJson);
  });
}

std::string hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// --- SpanLog --------------------------------------------------------------------

int SpanLog::open(const std::string& traceId, const std::string& name, int parent) {
  spans_.push_back(Span{traceId, name, wallSeconds(), 0.0, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int span) { spans_[static_cast<std::size_t>(span)].end = wallSeconds(); }

bool SpanLog::writeJson(const std::string& path, const std::string& envJson) const {
  std::ofstream f(path);
  if (!f) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  f << "{\"schema\":\"flowbench.trace/1\",\"env\":" << envJson << ",\"spans\":[\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%zu,\"trace\":\"%s\",\"name\":\"%s\",\"start_ms\":%.6f,"
                  "\"end_ms\":%.6f,\"parent\":%d}%s\n",
                  i, s.traceId.c_str(), s.name.c_str(), (s.start - t0) * 1e3,
                  (s.end - t0) * 1e3, s.parent, i + 1 < spans_.size() ? "," : "");
    f << buf;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

// --- Results --------------------------------------------------------------------

void Results::add(const std::string& name, double value, const std::string& unit,
                  std::size_t samples, bool inResult, const std::string& note) {
  if (!std::isfinite(value)) {
    attempt("metric " + name, "non-finite value");
    value = 0.0;
  }
  metrics_.push_back(Metric{name, value, unit, samples, inResult, note});
}

void Results::attempt(const std::string& what, const std::string& why) {
  ++attempted_;
  if (!why.empty()) {
    ++failed_;
    std::cout << "FAILED " << what << ": " << why << "\n";
  }
}

void Results::print(const std::string& envLine) const {
  char buf[512];
  std::snprintf(buf, sizeof buf, "%-34s %16s  %-6s %7s  %s\n", "metric", "value", "unit",
                "samples", "note");
  std::cout << buf;
  for (const Metric& m : metrics_) {
    std::snprintf(buf, sizeof buf, "%-34s %16.6g  %-6s %7zu  %s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples, m.inResult ? "" : "[table only] ", m.note.c_str());
    std::cout << buf;
  }
  const double ratio = attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 0.0;
  std::snprintf(buf, sizeof buf, "%-34s %16.6g  %-6s %7d  failed %d of %d attempted\n",
                "fail_ratio", ratio, "ratio", attempted_, failed_, attempted_);
  std::cout << buf;
  std::cout << "env " << envLine << "\n";

  std::ostringstream js;
  js << "{\"correct\": " << (failed_ == 0 ? "true" : "false") << ", \"attempted\": " << attempted_
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!m.inResult) continue;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name.c_str(), m.value,
                  m.unit.c_str());
    js << buf;
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

std::string envJson(const RunConfig& cfg, int threads) {
  std::ostringstream os;
  os << "{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"threads\":" << m3d::par::resolveThreads(threads) << ",\"build_type\":\""
     << FLOWBENCH_BUILD_TYPE << "\",\"workload\":\"" << cfg.workload << "\",\"seed\":" << cfg.seed
     << ",\"seconds\":" << cfg.seconds << ",\"trace\":" << (cfg.trace ? 1 : 0)
     << ",\"smoke\":" << (cfg.smoke ? 1 : 0) << ",\"source\":\"" << cfg.sourceDigest << "\"}";
  return os.str();
}

}  // namespace flowbench
