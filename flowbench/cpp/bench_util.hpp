#pragma once

/// \file bench_util.hpp
/// Shared pieces of the flow benchmark: clocks, order statistics, content
/// hashes of flow state, the span recorder of the traced run, and the
/// result sink that prints the metric table and the final JSON line.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "db/serialize.hpp"
#include "flows/flow_common.hpp"

namespace flowbench {

/// Command-line settings shared by every workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;          ///< every workload path in seconds of work.
  bool injectFault = false;    ///< smoke self-test: corrupt one replay output.
  std::string outDir;          ///< scratch + trace output (inside the checkout).
  std::string sourceDigest;    ///< identity of the source tree under test.
};

// --- clocks ---------------------------------------------------------------

double wallSeconds();       ///< steady clock [s].
double cpuSeconds();        ///< process CPU time, all threads [s].
double peakRssMb();         ///< process peak RSS [MB].

/// Wall and CPU time of one call; cpuUtil() = CPU-s / (wall-s x threads).
struct Timed {
  double wallMs = 0.0;
  double cpuMs = 0.0;
  double cpuUtil(int threads) const {
    return wallMs > 0.0 ? cpuMs / (wallMs * static_cast<double>(threads)) : 0.0;
  }
};
Timed timeCall(const std::function<void()>& fn);

// --- statistics -------------------------------------------------------------

double median(std::vector<double> v);

/// Highest nearest-rank percentile with at least ten samples above it
/// (percent = 0 when the run has too few samples for any).
struct Tail {
  double percent = 0.0;
  double value = 0.0;
};
Tail tailOf(std::vector<double> v);

// --- content hashes ---------------------------------------------------------

std::uint64_t hashBytes(const std::function<void(m3d::db::BinWriter&)>& encode);
std::uint64_t hashNetlist(const m3d::Netlist& nl);
std::uint64_t hashRoutes(const m3d::RoutingResult& r);
std::uint64_t hashParasitics(const std::vector<m3d::NetParasitics>& p);
std::uint64_t hashVerify(const m3d::VerifyReport& v);
std::uint64_t hashClock(const m3d::ClockModel& c);
/// Identity of a finished flow: netlist, routes, parasitics, clock model,
/// verify report and the metrics JSON.
std::uint64_t artifactHash(const m3d::FlowOutput& out);
std::string hex(std::uint64_t h);

// --- traced-run spans ---------------------------------------------------------

/// In-memory span log of the traced run, written as JSON at exit. Spans of
/// one flow or job share a trace id; parent is an index into the log (-1 =
/// root).
class SpanLog {
 public:
  int open(const std::string& traceId, const std::string& name, int parent);
  void close(int span);
  bool writeJson(const std::string& path, const std::string& envJson) const;

 private:
  struct Span {
    std::string traceId;
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };
  std::vector<Span> spans_;
};

/// RAII span around one replayed call.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& traceId, const std::string& name, int parent)
      : log_(log), id_(log.open(traceId, name, parent)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// --- results ------------------------------------------------------------------

/// Metrics of one run plus the correctness tally. Every metric carries its
/// unit and sample count; `inResult` metrics go into the final JSON line,
/// the rest are printed in the table only.
class Results {
 public:
  void add(const std::string& name, double value, const std::string& unit, std::size_t samples,
           bool inResult, const std::string& note = "");
  /// Counts one operation; a non-empty \p why marks it failed and is printed.
  void attempt(const std::string& what, const std::string& why = "");
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  /// Prints the table, the environment line and the final JSON line.
  void print(const std::string& envLine) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
    bool inResult = false;
    std::string note;
  };
  std::vector<Metric> metrics_;
  int attempted_ = 0;
  int failed_ = 0;
};

/// One-line JSON environment record (nproc, threads, build, seed, source).
std::string envJson(const RunConfig& cfg, int threads);

}  // namespace flowbench
