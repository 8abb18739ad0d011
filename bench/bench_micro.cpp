/// \file bench_micro.cpp
/// google-benchmark micro-benchmarks of the engine components: placer,
/// legalizer, router, extraction and STA throughput on synthetic clouds.

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <random>

#include "bench_common.hpp"
#include "core/macro3d.hpp"
#include "core/parallel.hpp"
#include "db/design_db.hpp"
#include "db/stage_cache.hpp"
#include "extract/extraction.hpp"
#include "flows/case_study.hpp"
#include "flows/flow_checkpoint.hpp"
#include "lib/stdcell_factory.hpp"
#include "netlist/logic_cloud.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "tech/combined_beol.hpp"
#include "sta/sta.hpp"
#include "verify/verify.hpp"

namespace {

using namespace m3d;

struct CloudBench {
  CloudBench(int gates, int regs) : tech(makeCaseStudyTech()), lib(makeStdCellLib(tech)),
                                    nl(&lib) {
    const PortId clkPort = nl.addPort("clk", PinDir::kInput, Side::kWest, true);
    clk = nl.addNet("clk");
    nl.connectPort(clk, clkPort);
    Rng rng(42);
    CloudSpec spec;
    spec.prefix = "b";
    spec.numGates = gates;
    spec.numRegs = regs;
    spec.clockNet = clk;
    buildLogicCloud(nl, rng, spec);

    const double sideUm = std::sqrt(gates * 3.0);
    fp.die = Rect{0, 0, snapUp(umToDbu(sideUm), tech.siteWidth),
                  snapUp(umToDbu(sideUm), tech.rowHeight)};
    fp.rowHeight = tech.rowHeight;
    fp.siteWidth = tech.siteWidth;
    assignPorts(nl, fp.die);
  }

  TechNode tech;
  Library lib;
  Netlist nl;
  Floorplan fp;
  NetId clk = kInvalidId;
};

void BM_GlobalPlace(benchmark::State& state) {
  CloudBench b(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)) / 5);
  for (auto _ : state) {
    const PlaceResult r = globalPlace(b.nl, b.fp);
    benchmark::DoNotOptimize(r.hpwlUm);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GlobalPlace)->Arg(500)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_Legalize(benchmark::State& state) {
  CloudBench b(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)) / 5);
  globalPlace(b.nl, b.fp);
  for (auto _ : state) {
    const LegalizeResult r = legalize(b.nl, b.fp);
    benchmark::DoNotOptimize(r.avgDisplacementUm);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Legalize)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_Route(benchmark::State& state) {
  CloudBench b(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)) / 5);
  globalPlace(b.nl, b.fp);
  for (auto _ : state) {
    RouteGrid grid(b.nl, b.fp.die, b.tech.beol);
    const RoutingResult r = routeDesign(b.nl, grid);
    benchmark::DoNotOptimize(r.totalWirelengthUm);
  }
  state.SetItemsProcessed(state.iterations() * b.nl.numNets());
}
BENCHMARK(BM_Route)->Arg(500)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_ExtractAndSta(benchmark::State& state) {
  CloudBench b(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)) / 5);
  globalPlace(b.nl, b.fp);
  RouteGrid grid(b.nl, b.fp.die, b.tech.beol);
  const RoutingResult routes = routeDesign(b.nl, grid);
  for (auto _ : state) {
    const auto paras = extractDesign(b.nl, grid, routes);
    Sta sta(b.nl, paras);
    benchmark::DoNotOptimize(sta.findMinPeriod());
  }
  state.SetItemsProcessed(state.iterations() * b.nl.numNets());
}
BENCHMARK(BM_ExtractAndSta)->Arg(500)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_StaOnly(benchmark::State& state) {
  CloudBench b(static_cast<int>(state.range(0)), static_cast<int>(state.range(0)) / 5);
  globalPlace(b.nl, b.fp);
  RouteGrid grid(b.nl, b.fp.die, b.tech.beol);
  const RoutingResult routes = routeDesign(b.nl, grid);
  const auto paras = extractDesign(b.nl, grid, routes);
  Sta sta(b.nl, paras);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sta.worstSlack(2e-9));
  }
  state.SetItemsProcessed(state.iterations() * b.nl.numNets());
}
BENCHMARK(BM_StaOnly)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_CombinedBeolBuild(benchmark::State& state) {
  const TechNode logic = makeTech28(6);
  const TechNode macro = makeTech28(4);
  for (auto _ : state) {
    const Beol c = buildCombinedBeol(logic.beol, macro.beol, F2fViaSpec{});
    benchmark::DoNotOptimize(c.numMetals());
  }
}
BENCHMARK(BM_CombinedBeolBuild);

// --- Thread-scaling entries: identical work at 1/2/4/8 threads. ------------
// Every parallel stage is deterministic, so these measure pure schedule
// overhead/speedup -- the results are bit-identical across the Arg values.

void BM_ParallelForHpwl(benchmark::State& state) {
  CloudBench b(8000, 1600);
  std::mt19937_64 rng(7);
  for (InstId i = 0; i < b.nl.numInstances(); ++i) {
    b.nl.instance(i).pos =
        Point{static_cast<Dbu>(rng() % static_cast<std::uint64_t>(b.fp.die.xhi)),
              static_cast<Dbu>(rng() % static_cast<std::uint64_t>(b.fp.die.yhi))};
  }
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.nl.totalHpwl(threads));
  }
  state.SetItemsProcessed(state.iterations() * b.nl.numNets());
}
BENCHMARK(BM_ParallelForHpwl)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Fork/join cost of one pool job: an empty parallelFor over 24 one-item
// chunks (the router's batch size), so only scheduling is timed.
void BM_PoolForkJoin(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  std::vector<int> sink(24);
  for (auto _ : state) {
    par::parallelFor(
        0, 24, 1, [&](std::int64_t i) { benchmark::DoNotOptimize(sink[static_cast<std::size_t>(i)]); },
        threads);
  }
}
BENCHMARK(BM_PoolForkJoin)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMicrosecond);

void BM_RouteThreads(benchmark::State& state) {
  CloudBench b(2000, 400);
  globalPlace(b.nl, b.fp);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    RouteGrid grid(b.nl, b.fp.die, b.tech.beol);
    RouterOptions opt;
    opt.numThreads = threads;
    const RoutingResult r = routeDesign(b.nl, grid, opt);
    benchmark::DoNotOptimize(r.totalWirelengthUm);
  }
  state.SetItemsProcessed(state.iterations() * b.nl.numNets());
}
BENCHMARK(BM_RouteThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_StaThreads(benchmark::State& state) {
  CloudBench b(8000, 1600);
  globalPlace(b.nl, b.fp);
  RouteGrid grid(b.nl, b.fp.die, b.tech.beol);
  const RoutingResult routes = routeDesign(b.nl, grid);
  const auto paras = extractDesign(b.nl, grid, routes);
  const int threads = static_cast<int>(state.range(0));
  Sta sta(b.nl, paras, nullptr, kTypicalCorner, threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sta.worstSlack(2e-9));
  }
  state.SetItemsProcessed(state.iterations() * b.nl.numNets());
}
BENCHMARK(BM_StaThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// --- Signoff verifier benchmarks (large-cache tile, Macro-3D flow) ---------

/// One large-cache Macro-3D implementation, built once and shared by every
/// BM_Verify* entry and by writeVerifyBenchJson.
const FlowOutput& verifiedTile() {
  static const FlowOutput out = [] {
    FlowOptions opt;
    opt.maxFreqRounds = 2;
    opt.report.logSummary = false;
    return runFlowMacro3D(makeLargeCacheTileConfig(), opt);
  }();
  return out;
}

VerifyOptions onlyFamily(bool drc, bool connectivity, bool placement, bool f2f) {
  VerifyOptions opt;
  opt.drc = drc;
  opt.connectivity = connectivity;
  opt.placement = placement;
  opt.f2f = f2f;
  return opt;
}

void benchVerify(benchmark::State& state, const VerifyOptions& vopt) {
  const FlowOutput& o = verifiedTile();
  for (auto _ : state) {
    const VerifyReport rep = verifyDesign(o.tile->netlist, o.fp, *o.grid, o.routes, vopt);
    benchmark::DoNotOptimize(rep.errors + rep.warnings);
  }
}

void BM_VerifyDrc(benchmark::State& state) {
  benchVerify(state, onlyFamily(true, false, false, false));
}
BENCHMARK(BM_VerifyDrc)->Unit(benchmark::kMillisecond);

void BM_VerifyConnectivity(benchmark::State& state) {
  benchVerify(state, onlyFamily(false, true, false, false));
}
BENCHMARK(BM_VerifyConnectivity)->Unit(benchmark::kMillisecond);

void BM_VerifyPlacement(benchmark::State& state) {
  benchVerify(state, onlyFamily(false, false, true, false));
}
BENCHMARK(BM_VerifyPlacement)->Unit(benchmark::kMillisecond);

void BM_VerifyF2f(benchmark::State& state) {
  benchVerify(state, onlyFamily(false, false, false, true));
}
BENCHMARK(BM_VerifyF2f)->Unit(benchmark::kMillisecond);

void BM_VerifyFull(benchmark::State& state) {
  benchVerify(state, VerifyOptions{});
}
BENCHMARK(BM_VerifyFull)->Unit(benchmark::kMillisecond);

// --- Design-database benchmarks (small-cache tile, Macro-3D flow) ----------

/// One small-cache Macro-3D implementation shared by the BM_Db* entries.
/// Non-const: BM_StageCacheHit restores the checkpoint back into the live
/// output (idempotent -- the checkpoint holds exactly this state).
FlowOutput& dbBenchTile() {
  static FlowOutput out = [] {
    FlowOptions opt;
    opt.maxFreqRounds = 2;
    opt.report.logSummary = false;
    return runFlowMacro3D(bench::smallTile(), opt);
  }();
  return out;
}

std::string dbBenchDir() {
  const auto dir = std::filesystem::temp_directory_path() / "m3d_bench_db";
  std::filesystem::create_directories(dir);
  return dir.string();
}

void BM_DbSave(benchmark::State& state) {
  const FlowOutput& o = dbBenchTile();
  const std::string path = dbBenchDir() + "/bm_save.m3ddb";
  for (auto _ : state) {
    const db::DbStatus st = saveStageCheckpoint(o, o.trace, 6, 0x1234u, path);
    if (!st.ok()) state.SkipWithError("save failed");
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(std::filesystem::file_size(path)));
  std::filesystem::remove(path);
}
BENCHMARK(BM_DbSave)->Unit(benchmark::kMillisecond);

void BM_DbLoad(benchmark::State& state) {
  const FlowOutput& o = dbBenchTile();
  const std::string path = dbBenchDir() + "/bm_load.m3ddb";
  saveStageCheckpoint(o, o.trace, 6, 0x1234u, path);
  for (auto _ : state) {
    FlowOutput loaded;
    const db::DbStatus st = loadFlowCheckpoint(path, loaded);
    if (!st.ok()) state.SkipWithError("load failed");
    benchmark::DoNotOptimize(loaded.metrics.fclkMhz);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(std::filesystem::file_size(path)));
  std::filesystem::remove(path);
}
BENCHMARK(BM_DbLoad)->Unit(benchmark::kMillisecond);

/// Full in-pipeline cache-hit path: key lookup (existence check) plus
/// restore of the signoff checkpoint into the live flow output -- the cost
/// a warm pipeline pays per restored stage.
void BM_StageCacheHit(benchmark::State& state) {
  FlowOutput& o = dbBenchTile();
  const db::StageCache cache(dbBenchDir() + "/cache", true);
  const std::uint64_t key = 0x5eedu;
  const std::string path = cache.path(6, "signoff", key);
  saveStageCheckpoint(o, o.trace, 6, key, path);
  for (auto _ : state) {
    if (!cache.has(6, "signoff", key)) state.SkipWithError("expected a cache hit");
    std::string trace;
    const db::DbStatus st = restoreStageCheckpoint(path, o, trace);
    if (!st.ok()) state.SkipWithError("restore failed");
    benchmark::DoNotOptimize(trace.size());
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_StageCacheHit)->Unit(benchmark::kMillisecond);

/// Per-family verifier wall clock (best of three) on the large-cache tile,
/// written to BENCH_verify.json together with the verdict the run produced
/// and a 1-vs-8-thread determinism cross-check.
void writeVerifyBenchJson() {
  using Clock = std::chrono::steady_clock;
  const auto timeS = [](const auto& fn) {
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      fn();
      best = std::min(best, std::chrono::duration<double>(Clock::now() - t0).count());
    }
    return best;
  };

  const FlowOutput& o = verifiedTile();
  const Netlist& nl = o.tile->netlist;

  bench::BenchJson bj("verify");
  bj.config("bench", "signoff verifier runtime per checker family (large-cache tile, Macro-3D)");
  bj.scalar("hardware_threads", static_cast<double>(par::hardwareConcurrency()));
  bj.scalar("nets", static_cast<double>(nl.numNets()));
  bj.scalar("instances", static_cast<double>(nl.numInstances()));

  const struct {
    const char* name;
    VerifyOptions opt;
  } families[] = {
      {"drc", onlyFamily(true, false, false, false)},
      {"connectivity", onlyFamily(false, true, false, false)},
      {"placement", onlyFamily(false, false, true, false)},
      {"f2f", onlyFamily(false, false, false, true)},
      {"full", VerifyOptions{}},
  };
  for (const auto& fam : families) {
    VerifyReport rep;
    const double s = timeS(
        [&] { rep = verifyDesign(nl, o.fp, *o.grid, o.routes, fam.opt); });
    bj.scalar(std::string(fam.name) + "_s", s);
    bj.scalar(std::string(fam.name) + "_violations",
              static_cast<double>(rep.errors + rep.warnings));
  }

  VerifyOptions t1 = VerifyOptions{};
  t1.numThreads = 1;
  VerifyOptions t8 = VerifyOptions{};
  t8.numThreads = 8;
  const VerifyReport rep1 = verifyDesign(nl, o.fp, *o.grid, o.routes, t1);
  const VerifyReport rep8 = verifyDesign(nl, o.fp, *o.grid, o.routes, t8);
  if (!(rep1 == rep8)) {
    std::cerr << "VERIFY DETERMINISM VIOLATION between 1 and 8 threads\n";
    bj.scalar("determinism_violation", 1.0);
  }
  bj.scalar("errors", static_cast<double>(rep1.errors));
  bj.scalar("warnings", static_cast<double>(rep1.warnings));
  bj.scalar("clean", rep1.clean() ? 1.0 : 0.0);
  bj.scalar("f2f_bumps", static_cast<double>(rep1.f2fBumpCount));
  bj.write();
}

/// Direct wall-clock thread-scaling measurement, written to
/// BENCH_parallel.json. Runs the router, the STA sweep, and the
/// parallel-reduce HPWL kernel at 1/2/4/8 threads (best of three), checking
/// along the way that the results stay bit-identical. On a single-core host
/// the speedups sit near 1.0 by construction -- the json records
/// hardware_threads so downstream tooling can tell saturation from
/// regression.
void writeParallelScalingJson() {
  using Clock = std::chrono::steady_clock;
  const auto timeS = [](const auto& fn) {
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      fn();
      best = std::min(best, std::chrono::duration<double>(Clock::now() - t0).count());
    }
    return best;
  };

  bench::BenchJson bj("parallel");
  bj.config("bench", "thread scaling: router / sta / parallel-reduce hpwl");
  bj.scalar("hardware_threads", static_cast<double>(par::hardwareConcurrency()));

  CloudBench b(2000, 400);
  globalPlace(b.nl, b.fp);
  RouteGrid staGrid(b.nl, b.fp.die, b.tech.beol);
  const RoutingResult staRoutes = routeDesign(b.nl, staGrid);
  const auto paras = extractDesign(b.nl, staGrid, staRoutes);

  const int counts[] = {1, 2, 4, 8};
  double routeT1 = 0.0, staT1 = 0.0, hpwlT1 = 0.0;
  double refWl = 0.0;
  std::int64_t refHpwl = 0;
  for (const int t : counts) {
    double wl = 0.0;
    const double routeS = timeS([&] {
      RouteGrid grid(b.nl, b.fp.die, b.tech.beol);
      RouterOptions opt;
      opt.numThreads = t;
      wl = routeDesign(b.nl, grid, opt).totalWirelengthUm;
    });
    const Sta sta(b.nl, paras, nullptr, kTypicalCorner, t);
    const double staS = timeS([&] {
      for (int i = 0; i < 20; ++i) benchmark::DoNotOptimize(sta.worstSlack(2e-9));
    });
    std::int64_t hp = 0;
    const double hpwlS = timeS([&] {
      for (int i = 0; i < 50; ++i) hp = b.nl.totalHpwl(t);
    });
    if (t == 1) {
      routeT1 = routeS;
      staT1 = staS;
      hpwlT1 = hpwlS;
      refWl = wl;
      refHpwl = hp;
    } else if (wl != refWl || hp != refHpwl) {
      std::cerr << "DETERMINISM VIOLATION at " << t << " threads\n";
      bj.scalar("determinism_violation", 1.0);
    }
    const std::string suffix = "_t" + std::to_string(t);
    bj.scalar("route_s" + suffix, routeS);
    bj.scalar("route_speedup" + suffix, routeT1 / routeS);
    bj.scalar("sta_s" + suffix, staS);
    bj.scalar("sta_speedup" + suffix, staT1 / staS);
    bj.scalar("hpwl_s" + suffix, hpwlS);
    bj.scalar("hpwl_speedup" + suffix, hpwlT1 / hpwlS);
  }
  bj.write();
}

/// Cold-vs-warm stage-cache timing on the small-cache Macro-3D flow plus
/// container-level save/load wall clock, written to BENCH_db.json. The cold
/// run writes all seven stage checkpoints into a fresh cache directory; the
/// warm run restores them and must be measurably faster and bit-identical
/// (the json records both times, the speedup, and the identity check).
void writeDbBenchJson() {
  using Clock = std::chrono::steady_clock;
  namespace fs = std::filesystem;
  const auto timeOnceS = [](const auto& fn) {
    const auto t0 = Clock::now();
    fn();
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const auto bestOf3S = [](const auto& fn) {
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      fn();
      best = std::min(best, std::chrono::duration<double>(Clock::now() - t0).count());
    }
    return best;
  };

  const fs::path dir = fs::temp_directory_path() / "m3d_bench_db_flow";
  std::error_code ec;
  fs::remove_all(dir, ec);

  FlowOptions opt;
  opt.maxFreqRounds = 2;
  opt.report.logSummary = false;
  opt.checkpointDir = dir.string();

  // Cold (empty cache, writes checkpoints) vs warm (restores every stage).
  // Single-shot timings: a repeat of the cold run would itself be warm.
  FlowOutput cold;
  const double coldS =
      timeOnceS([&] { cold = runFlowMacro3D(bench::smallTile(), opt); });
  FlowOutput warm;
  const double warmS =
      timeOnceS([&] { warm = runFlowMacro3D(bench::smallTile(), opt); });

  std::uint64_t cacheBytes = 0;
  int cacheFiles = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++cacheFiles;
    cacheBytes += entry.file_size();
  }

  const bool identical = warm.verify == cold.verify &&
                         warm.metrics.fclkMhz == cold.metrics.fclkMhz &&
                         warm.metrics.totalWirelengthM == cold.metrics.totalWirelengthM &&
                         warm.metrics.emeanFj == cold.metrics.emeanFj;
  if (!identical) std::cerr << "STAGE CACHE WARM RUN NOT BIT-IDENTICAL\n";

  // Container-level cost of one full-state checkpoint (signoff stage).
  const std::string ckpt = (dir / "bench_signoff.m3ddb").string();
  const double saveS =
      bestOf3S([&] { saveStageCheckpoint(cold, cold.trace, 6, 0x1234u, ckpt); });
  double loadedFclk = 0.0;
  const double loadS = bestOf3S([&] {
    FlowOutput loaded;
    loadFlowCheckpoint(ckpt, loaded);
    loadedFclk = loaded.metrics.fclkMhz;
  });
  const auto ckptBytes = static_cast<double>(fs::file_size(ckpt));

  bench::BenchJson bj("db");
  bj.config("bench",
            "design database: cold vs warm stage-cached Macro-3D flow (small-cache tile)");
  bj.scalar("hardware_threads", static_cast<double>(par::hardwareConcurrency()));
  bj.scalar("cold_s", coldS);
  bj.scalar("warm_s", warmS);
  bj.scalar("warm_speedup", warmS > 0.0 ? coldS / warmS : 0.0);
  bj.scalar("warm_bit_identical", identical ? 1.0 : 0.0);
  bj.scalar("cache_files", static_cast<double>(cacheFiles));
  bj.scalar("cache_bytes", static_cast<double>(cacheBytes));
  bj.scalar("checkpoint_bytes", ckptBytes);
  bj.scalar("checkpoint_save_s", saveS);
  bj.scalar("checkpoint_load_s", loadS);
  bj.scalar("fclk_mhz", cold.metrics.fclkMhz);
  bj.scalar("loaded_fclk_mhz", loadedFclk);
  bj.write();

  fs::remove_all(dir, ec);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  writeParallelScalingJson();
  writeVerifyBenchJson();
  writeDbBenchJson();
  return 0;
}
