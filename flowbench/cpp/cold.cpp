/// \file cold.cpp
/// Cold-flow workloads (cold_large_t1 / cold_large_t4) and their traced
/// module replay.

#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "core/macro3d.hpp"
#include "flows/flows.hpp"
#include "io/fsutil.hpp"
#include "opt/net_buffering.hpp"
#include "place/legalizer.hpp"
#include "serve/job_runner.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace m3d;

namespace flowbench {

FlowOptions baseFlowOptions(int threads) {
  FlowOptions opt;
  opt.numThreads = threads;
  opt.report.logSummary = false;
  return opt;
}

namespace {

/// The paper's large-cache tile with its own netlist seed (the tiny tile in
/// smoke mode). The run seed does not reach the netlist: the 2D flow fails
/// signoff on other large-tile netlists (see flowbench/METRICS.md).
TileConfig coldTile(const RunConfig& cfg) {
  return cfg.smoke ? serve::tileConfigFor("tiny", 1) : makeLargeCacheTileConfig();
}

/// Correctness of one finished cold flow ("" = pass).
std::string flowProblem(const FlowOutput& out) {
  if (out.verify.errors > 0) return "verifyDesign: " + out.verify.verdictLine();
  if (out.metrics.verifyViolations != 0) return "signoff verification did not run";
  if (out.routes.unroutedNets > 0) {
    return std::to_string(out.routes.unroutedNets) + " unrouted nets";
  }
  if (!(out.metrics.fclkMhz > 0.0) || !std::isfinite(out.metrics.fclkMhz)) {
    return "non-finite signoff fclk";
  }
  return "";
}

/// Runs one flow, counting a throw or a failed check as a failed operation.
bool runChecked(bool macro3d, const TileConfig& tile, const FlowOptions& opt, Results& res,
                const std::string& what, FlowOutput* out, double* wallMs) {
  std::string why;
  try {
    *wallMs = timeCall([&] {
                *out = macro3d ? runFlowMacro3D(tile, opt) : runFlow2D(tile, opt);
              }).wallMs;
    why = flowProblem(*out);
  } catch (const std::exception& e) {
    why = std::string("threw: ") + e.what();
  }
  if (!why.empty()) res.attempt(what, why);
  return why.empty();
}

/// Cross-run determinism record: the artifact hashes of this tile and
/// source tree, shared by every cold workload run in the same checkout.
/// The first run writes it; later runs (other thread counts) must match.
void checkHashRecord(const RunConfig& cfg, const TileConfig& tile, int threads,
                     std::uint64_t hash2d, std::uint64_t hashM3d, Results& res) {
  const fs::path dir = fs::path(cfg.outDir) / "hashes";
  fs::create_directories(dir);
  const fs::path file =
      dir / (tile.name + "-" + std::to_string(tile.seed) + "-" + cfg.sourceDigest + ".txt");
  const std::string mine = hex(hash2d) + " " + hex(hashM3d);
  std::ifstream in(file);
  std::string prev;
  int prevThreads = 0;
  if (in >> prevThreads && std::getline(in >> std::ws, prev)) {
    res.attempt("determinism vs " + std::to_string(prevThreads) + "-thread run",
                prev == mine ? "" : "artifact hashes " + mine + " != " + prev);
    std::cout << "determinism: " << threads << "-thread artifacts "
              << (prev == mine ? "match" : "DIFFER from") << " the recorded " << prevThreads
              << "-thread run\n";
    return;
  }
  std::ofstream(file) << threads << " " << mine << "\n";
}

void timedLoop(const RunConfig& cfg, int threads, Results& res) {
  const TileConfig tile = coldTile(cfg);
  const FlowOptions opt = baseFlowOptions(threads);
  const int setupReps = cfg.smoke ? 1 : 3;

  // Set-up, repeated: build the tile configuration and run one untimed
  // warm-up Macro-3D flow (the first flow of a process runs slower). The
  // warm-up artifacts are the reference for the timed repetitions.
  std::vector<double> setupS;
  std::uint64_t refM3d = 0;
  for (int r = 0; r < setupReps; ++r) {
    const double t0 = wallSeconds();
    FlowOutput out;
    double ms = 0.0;
    if (!runChecked(true, coldTile(cfg), opt, res, "warm-up Macro-3D flow", &out, &ms)) return;
    setupS.push_back(wallSeconds() - t0);
    const std::uint64_t h = artifactHash(out);
    if (r == 0) refM3d = h;
    res.attempt("warm-up Macro-3D flow", h == refM3d ? "" : "artifact hash differs between warm-ups");
  }

  std::vector<double> ms2d, msM3d;
  std::uint64_t ref2d = 0;
  FlowOutput last2d, lastM3d;
  const int minPairs = cfg.smoke ? 1 : 3;
  const double start = wallSeconds();
  while (wallSeconds() - start < cfg.seconds || static_cast<int>(msM3d.size()) < minPairs) {
    double ms = 0.0;
    if (runChecked(false, tile, opt, res, "cold 2D flow", &last2d, &ms)) {
      const std::uint64_t h = artifactHash(last2d);
      if (ms2d.empty()) ref2d = h;
      res.attempt("cold 2D flow", h == ref2d ? "" : "artifact hash differs between repetitions");
      ms2d.push_back(ms);
    }
    if (runChecked(true, tile, opt, res, "cold Macro-3D flow", &lastM3d, &ms)) {
      const std::uint64_t h = artifactHash(lastM3d);
      res.attempt("cold Macro-3D flow",
                  h == refM3d ? "" : "artifact hash differs from the warm-up flow");
      msM3d.push_back(ms);
    }
    if (res.failed() > 0 && ms2d.empty() && msM3d.empty()) break;
  }
  if (ms2d.empty() || msM3d.empty()) return;
  checkHashRecord(cfg, tile, threads, ref2d, refM3d, res);

  const DesignMetrics& m3 = lastM3d.metrics;
  const DesignMetrics& m2 = last2d.metrics;
  std::cout << "artifacts: 2d=" << hex(ref2d) << " m3d=" << hex(refM3d) << " tile=" << tile.name
            << " seed=" << tile.seed << "\n";
  res.add("setup_s", median(setupS), "s", setupS.size(), true,
          "warm-up Macro-3D flow (builds the tile)");
  res.add("primary_ms", median(msM3d), "ms", msM3d.size(), true, "cold runFlowMacro3D wall");
  res.add("secondary_ms", median(ms2d), "ms", ms2d.size(), true, "cold runFlow2D wall");
  double flowMs = 0.0;
  for (const double ms : ms2d) flowMs += ms;
  for (const double ms : msM3d) flowMs += ms;
  res.add("ops_per_s", static_cast<double>(ms2d.size() + msM3d.size()) / (flowMs / 1e3), "1/s",
          ms2d.size() + msM3d.size(), true, "cold flows per second of flow wall time");
  res.add("peak_rss_mb", peakRssMb(), "MB", 1, true);
  res.add("fclk_m3d_mhz", m3.fclkMhz, "MHz", 1, true, "Macro-3D signoff fclk");
  res.add("f2f_bumps", static_cast<double>(m3.f2fBumps), "count", 1, true,
          "Macro-3D F2F bumps");
  res.add("flow_m3d_s", median(msM3d) / 1e3, "s", msM3d.size(), false);
  res.add("flow_2d_s", median(ms2d) / 1e3, "s", ms2d.size(), false);
  res.add("fclk_2d_mhz", m2.fclkMhz, "MHz", 1, false);
  res.add("fclk_gain_pct", (m3.fclkMhz / m2.fclkMhz - 1.0) * 100.0, "%", 1, false,
          "paper: +28.2 %");
  res.add("overflow_edges", m2.overflowedEdges + m3.overflowedEdges, "count", 1, false,
          "2D + Macro-3D");
}

// --- traced replay ------------------------------------------------------------------

/// Replays every module of one cold flow from outside and hash-checks each
/// output against the flow's own next-stage checkpoint.
void replayFlow(const RunConfig& cfg, bool macro3d, int threads, Results& res, SpanLog& spans) {
  const std::string v = macro3d ? "m3d" : "2d";
  const TileConfig tile = coldTile(cfg);
  FlowOptions opt = baseFlowOptions(threads);
  opt.checkpointDir = (fs::path(cfg.outDir) / ("ckpt_" + v)).string();
  opt.resume = false;
  fs::remove_all(opt.checkpointDir);

  // The flow itself, writing all seven stage checkpoints.
  FlowOutput flow;
  double flowMs = 0.0;
  {
    ScopedSpan s(spans, v, "flow", -1);
    if (!runChecked(macro3d, tile, opt, res, "traced " + v + " flow", &flow, &flowMs)) return;
  }

  Tracer tr(spans, v);
  std::vector<double> loadMs;
  FlowOutput ck[7];
  std::string ckTrace;
  LegalizerOptions lopt;
  lopt.partialBlockageResolution = opt.partialBlockageResolution;

  // place, on the rebuilt entry state: module seeding, global place,
  // repeaters, then the stage's final legalization.
  EntryState entry = rebuildEntryState(macro3d, tile, opt, &tr);
  const StagePaths sp = stagePaths(entry, opt);
  Netlist& nl = entry.out.tile->netlist;
  PlaceResult pr;
  const Timed placeT = tr.run("place", [&] {
    seedPlacementByModules(*entry.out.tile, entry.out.fp);
    PlacerOptions popt = opt.placer;
    popt.useExistingPositions = true;
    popt.legalizer.partialBlockageResolution = opt.partialBlockageResolution;
    popt.numThreads = threads;
    pr = globalPlace(nl, entry.out.fp, popt);
    bufferLongNets(nl, entry.out.fp);
  });
  const Timed legalT = tr.run("place.legalize", [&] { legalize(nl, entry.out.fp, lopt); });
  if (cfg.injectFault) nl.instance(nl.numInstances() - 1).pos.x += 1;
  if (!loadCheckpoint(tr, sp.paths[0], ck[0], nullptr, loadMs, res)) return;
  checkEqual(res, v + " place", hashNetlist(nl), hashNetlist(ck[0].tile->netlist));

  // pre-route opt on the place checkpoint: estimated parasitics, presizing,
  // max-frequency sizing, legalization of the inserted buffers.
  MaxFreqOptResult optR;
  Netlist& n0 = ck[0].tile->netlist;
  const Timed preT = tr.run("opt.pre", [&] {
    const EstimationOptions eopt = makeEstimationOptions(ck[0].routingBeol, 1.0);
    EstimatedParasitics provider(eopt);
    std::vector<NetParasitics> paras = estimateDesign(n0, eopt);
    presizeForLoad(n0, paras, provider);
    OptimizerOptions o = opt.optBase;
    o.numThreads = threads;
    optR = optimizeForMaxFrequency(n0, paras, provider, nullptr, o, opt.maxFreqRounds);
    legalize(n0, ck[0].fp, lopt);
  });
  if (!loadCheckpoint(tr, sp.paths[1], ck[1], nullptr, loadMs, res)) return;
  checkEqual(res, v + " pre_route_opt", hashNetlist(n0), hashNetlist(ck[1].tile->netlist));

  // cts on the pre_route_opt checkpoint.
  Netlist& n1 = ck[1].tile->netlist;
  const Timed ctsT = tr.run("cts", [&] {
    synthesizeClockTree(n1, ck[1].tile->groups.clockNet, ck[1].fp, opt.cts);
    legalize(n1, ck[1].fp, lopt);
  });
  if (!loadCheckpoint(tr, sp.paths[2], ck[2], nullptr, loadMs, res)) return;
  checkEqual(res, v + " cts", hashNetlist(n1), hashNetlist(ck[2].tile->netlist));

  // route on the cts checkpoint (the route stage builds its grid).
  RoutingResult routes;
  const Timed routeT = tr.run("route", [&] {
    const FlowOutput& c = ck[2];
    RouteGrid grid(c.tile->netlist, c.fp.die, c.routingBeol, opt.grid);
    RouterOptions ropt = opt.router;
    ropt.numThreads = threads;
    routes = routeDesign(c.tile->netlist, grid, ropt);
  });
  if (!loadCheckpoint(tr, sp.paths[3], ck[3], nullptr, loadMs, res)) return;
  checkEqual(res, v + " route", hashRoutes(routes), hashRoutes(ck[3].routes));

  // extract + clock model on the route checkpoint.
  FlowOutput& c3 = ck[3];
  Timed extractT;
  {
    const RouteGrid grid(c3.tile->netlist, c3.fp.die, c3.routingBeol, opt.grid);  // reused in the flow
    extractT = tr.run("extract", [&] {
      c3.paras = extractDesign(c3.tile->netlist, grid, c3.routes);
      c3.clock = updateClockModel(c3.tile->netlist, c3.paras, c3.cts);
    });
  }
  if (!loadCheckpoint(tr, sp.paths[4], ck[4], nullptr, loadMs, res)) return;
  checkEqual(res, v + " extract", hashParasitics(c3.paras), hashParasitics(ck[4].paras));
  checkEqual(res, v + " clock model", hashClock(c3.clock), hashClock(ck[4].clock));

  // post-route opt cannot be replayed from outside (its footprint guard is
  // private to the pipeline): read the flow's own post_route_opt span.
  const obs::Span* postSpan = flow.report.root.find("post_route_opt");
  const double postMs = postSpan != nullptr ? static_cast<double>(postSpan->durNs) * 1e-6 : 0.0;
  res.attempt(v + " post_route_opt span", postSpan != nullptr ? "" : "span missing");

  // signoff on the post_route_opt checkpoint.
  if (!loadCheckpoint(tr, sp.paths[5], ck[5], nullptr, loadMs, res) ||
      !loadCheckpoint(tr, sp.paths[6], ck[6], &ckTrace, loadMs, res)) {
    return;
  }
  const SignoffTimes so =
      replaySignoff(tr, ck[5], ck[6], ckTrace, sp, opt,
                    (fs::path(cfg.outDir) / ("resave_" + v + ".m3ddb")).string(), res);

  std::int64_t ckptBytes = 0;
  for (const std::string& p : sp.paths) ckptBytes += std::max<std::int64_t>(io::fileSizeBytes(p), 0);
  fs::remove_all(opt.checkpointDir);

  const double replayed = entry.netlist.wallMs + entry.floorplan.wallMs + placeT.wallMs +
                          legalT.wallMs + preT.wallMs + ctsT.wallMs + routeT.wallMs +
                          extractT.wallMs + postMs + so.sta.wallMs + so.power.wallMs +
                          so.verify.wallMs;
  std::cout << "trace " << v << ": flow " << flowMs << " ms, replayed modules " << replayed
            << " ms, coverage " << replayed / flowMs << "\n";

  const auto layer = [&](const std::string& name, double value, const std::string& unit) {
    res.add(name + "." + v, value, unit, 1, true);
  };
  layer("netlist.self_ms", entry.netlist.wallMs, "ms");
  layer("floorplan.self_ms", entry.floorplan.wallMs, "ms");
  layer("place.self_ms", placeT.wallMs, "ms");
  layer("place.cpu_util", placeT.cpuUtil(threads), "ratio");
  layer("place.iterations", pr.iterations, "count");
  layer("place.legalize_ms", legalT.wallMs, "ms");
  layer("opt.pre_ms", preT.wallMs, "ms");
  layer("opt.post_ms", postMs, "ms");
  layer("opt.cells_resized", optR.cellsResized, "count");
  layer("opt.buffers_inserted", optR.buffersInserted, "count");
  layer("cts.self_ms", ctsT.wallMs, "ms");
  layer("route.self_ms", routeT.wallMs, "ms");
  layer("route.cpu_util", routeT.cpuUtil(threads), "ratio");
  layer("route.nodes_popped", static_cast<double>(routes.nodesPopped), "count");
  layer("route.nodes_relaxed", static_cast<double>(routes.nodesRelaxed), "count");
  layer("route.iterations", routes.iterationsUsed, "count");
  layer("route.window_fallbacks", static_cast<double>(routes.windowFallbacks), "count");
  layer("extract.self_ms", extractT.wallMs, "ms");
  layer("sta.self_ms", so.sta.wallMs, "ms");
  layer("power.self_ms", so.power.wallMs, "ms");
  layer("verify.self_ms", so.verify.wallMs, "ms");
  layer("verify.cpu_util", so.verify.cpuUtil(threads), "ratio");
  layer("db.restore_ms", median(loadMs), "ms");
  layer("db.save_ms", so.save.wallMs, "ms");
  layer("db.bytes_written", static_cast<double>(ckptBytes), "bytes");
  layer("trace.coverage", replayed / flowMs, "ratio");
}

}  // namespace

void runCold(const RunConfig& cfg, int threads, Results& res, SpanLog& spans) {
  if (!cfg.trace) {
    timedLoop(cfg, threads, res);
    return;
  }
  // One untimed warm-up flow, then the traced replays of both flows.
  FlowOutput warm;
  double ms = 0.0;
  runChecked(true, coldTile(cfg), baseFlowOptions(threads), res, "warm-up Macro-3D flow", &warm,
             &ms);
  replayFlow(cfg, /*macro3d=*/false, threads, res, spans);
  replayFlow(cfg, /*macro3d=*/true, threads, res, spans);
}

}  // namespace flowbench
