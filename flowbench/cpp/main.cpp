/// \file main.cpp
/// Flow benchmark program. Usage:
///   flowbench --workload <cold_large_t1|cold_large_t4|eco_serve_small>
///             --seed <n> --seconds <s> --trace <0|1> --out <dir> --source <digest>
///   flowbench --smoke [--inject-fault] --out <dir>
/// Prints a metric table, an environment line, and as the last line one
/// JSON object {correct, attempted, failed, metrics}. Exits 1 when any
/// correctness check failed.

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "obs/log.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace flowbench;

/// The flows read M3D_* environment overrides (threads, cache dir, router
/// knobs, trace/report outputs); the benchmark defines its own settings.
void clearFlowEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("M3D_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
}

int usage(const char* msg) {
  std::cerr << "flowbench: " << msg
            << "\nusage: flowbench --workload W --seed N --seconds S --trace 0|1 --out DIR "
               "[--source DIGEST]\n       flowbench --smoke [--inject-fault] --out DIR\n";
  return 2;
}

/// Runs one workload into \p res; returns the thread count it used.
int runWorkload(const RunConfig& cfg, Results& res, SpanLog& spans) {
  if (cfg.workload == "cold_large_t1" || cfg.workload == "cold_large_t4") {
    const int threads = cfg.workload == "cold_large_t1" ? 1 : 4;
    runCold(cfg, threads, res, spans);
    return threads;
  }
  runEco(cfg, res, spans);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  clearFlowEnvironment();
  m3d::obs::setLogLevel(m3d::obs::LogLevel::kError);
  RunConfig cfg;
  cfg.sourceDigest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool hasValue = i + 1 < argc;
    if (a == "--smoke") {
      cfg.smoke = true;
    } else if (a == "--inject-fault") {
      cfg.injectFault = true;
    } else if (!hasValue) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      cfg.workload = argv[++i];
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      cfg.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--out") {
      cfg.outDir = argv[++i];
    } else if (a == "--source") {
      cfg.sourceDigest = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (cfg.outDir.empty()) return usage("--out is required");
  std::filesystem::create_directories(cfg.outDir);

  Results res;
  SpanLog spans;
  if (cfg.smoke) {
    // Every workload path, timed and traced, in one process (cold flows on
    // the tiny tile, the serve path on its small tile); the two cold thread
    // counts must agree bit for bit (the hash record).
    cfg.seconds = 1.0;
    for (const char* w : {"cold_large_t1", "cold_large_t4", "eco_serve_small"}) {
      for (const bool trace : {false, true}) {
        cfg.workload = w;
        cfg.trace = trace;
        std::cout << "== smoke " << w << (trace ? " (traced)" : "") << "\n";
        runWorkload(cfg, res, spans);
      }
    }
    res.print(envJson(cfg, 0));
    return res.failed() == 0 ? 0 : 1;
  }

  if (cfg.workload != "cold_large_t1" && cfg.workload != "cold_large_t4" &&
      cfg.workload != "eco_serve_small") {
    return usage(("unknown workload '" + cfg.workload + "'").c_str());
  }
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");
  const int threads = runWorkload(cfg, res, spans);
  const std::string env = envJson(cfg, threads);
  if (cfg.trace) {
    const std::string path =
        (std::filesystem::path(cfg.outDir) /
         ("trace_" + cfg.workload + "_" + std::to_string(cfg.seed) + ".json"))
            .string();
    res.attempt("write trace", spans.writeJson(path, env) ? "" : "cannot write " + path);
    std::cout << "trace spans written to " << path << "\n";
  }
  if (res.attempted() == 0) res.attempt("workload", "nothing ran");
  res.print(env);
  return res.failed() == 0 ? 0 : 1;
}
