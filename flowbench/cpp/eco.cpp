/// \file eco.cpp
/// ECO serving workload (eco_serve_small) and its traced replay.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>
#include <random>
#include <thread>

#include "io/fsutil.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/job_runner.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace m3d;
using serve::JobKind;
using serve::JobResult;
using serve::JobSpec;

namespace flowbench {

namespace {

/// Two closed-loop clients, one designer per base design: client 0 iterates
/// on the M6-M6 design, client 1 on M6-M4 (Table III). Their jobs fall in
/// different coalescing batches, so the two executors serve them in
/// parallel and a client never queues behind the other's ECO.
constexpr int kClients = 2;
constexpr int kRepeatWindow = 8;  ///< repeats pick among the latest fresh ECOs.
/// Stage-cache budget (a small-tile checkpoint is ~6.6 MB, a fresh ECO
/// writes four): about 38 fresh ECOs, so eviction starts within a run while
/// the seeds and the repeat window stay resident.
constexpr std::int64_t kCacheBudgetBytes = 1ll << 30;

/// The small-cache tile in every mode: on the tiny tile, ECO reroutes of the
/// M6-M4 design fail signoff at every pitch (see flowbench/METRICS.md).
JobSpec baseSpec(int client) {
  JobSpec s;
  s.kind = JobKind::kFlow;
  s.flow = "macro3d";
  s.tile = "small";
  s.threads = 1;
  s.macroDieMetals = client == 0 ? 6 : 4;
  s.label = client == 0 ? "base-m6m6" : "base-m6m4";
  return s;
}

/// One drawn job: a fresh pitch ECO, a repeat of the client's base design
/// (origin -1) or a repeat of the client's earlier draw \p origin.
struct Draw {
  JobSpec spec;
  bool fresh = false;
  int origin = -1;
};

/// One client's seeded job sequence, in cycles of eight draws: fresh ECO,
/// repeat, fresh, repeat, fresh, repeat, fresh, base repeat. Fresh ECOs walk
/// the bump pitches 1.001 .. 1.250 um in a seeded stride, so any prefix
/// spreads evenly over the range and no pitch repeats (larger pitches leave
/// too few bump sites and fail signoff). A repeat re-submits one of the
/// kRepeatWindow latest fresh ECOs that is at least two fresh ECOs old. The
/// base repeat restores the base's signoff checkpoint -- the ECO seed --
/// and so marks it recently used: ECO jobs read the seed without an LRU
/// touch, and without these repeats eviction would drop it.
class JobSequence {
 public:
  JobSequence(std::uint64_t seed, int client)
      : client_(client), rng_(seed * 2 + static_cast<std::uint64_t>(client)) {
    pitchOffset_ = static_cast<int>(rng_() % kPitches);
  }

  Draw next() {
    const int i = static_cast<int>(draws_.size());
    Draw d;
    d.spec = baseSpec(client_);
    if (i % 8 == 7 || (i % 2 == 1 && fresh_.size() < 3)) {
      // base repeat
    } else if (i % 2 == 0 && static_cast<int>(fresh_.size()) < kPitches) {
      const int k = static_cast<int>(fresh_.size());
      d.spec.kind = JobKind::kEco;
      d.spec.f2fPitchScale = (1001 + (pitchOffset_ + k * 101) % kPitches) / 1000.0;
      d.spec.label += "-eco" + std::to_string(k);
      d.fresh = true;
      fresh_.push_back(i);
    } else {
      const int eligible = std::min<int>(kRepeatWindow, static_cast<int>(fresh_.size()) - 2);
      const auto back = static_cast<std::size_t>(rng_() % static_cast<std::uint64_t>(eligible));
      d.origin = fresh_[fresh_.size() - 3 - back];
      d.spec = draws_[static_cast<std::size_t>(d.origin)].spec;
    }
    draws_.push_back(d);
    return d;
  }

 private:
  static constexpr int kPitches = 250;  ///< 1.001 .. 1.250 um; stride 101 is coprime.
  int client_;
  std::mt19937_64 rng_;
  int pitchOffset_ = 0;
  std::vector<int> fresh_;   ///< draw indices of fresh ECOs.
  std::vector<Draw> draws_;
};

struct JobRecord {
  int client = 0;
  int draw = 0;   ///< index in the client's sequence.
  Draw d;
  double latencyMs = 0.0;
  JobResult r;
  bool ok = false;
  std::string err;
};

/// A running in-process server with its two base jobs done.
struct ServeSetup {
  std::unique_ptr<serve::Server> server;
  std::string dir;
  JobResult base[2];   ///< M6-M6, M6-M4
  bool ok = false;
};

ServeSetup bootServer(const RunConfig& cfg, int rep, Results& res) {
  ServeSetup s;
  s.dir = (fs::path(cfg.outDir) / ("serve_" + std::to_string(rep))).string();
  fs::remove_all(s.dir);
  fs::create_directories(s.dir);
  serve::ServerOptions so;
  so.socketPath = s.dir + "/s.sock";
  so.cacheDir = s.dir + "/cache";
  so.cacheMaxBytes = kCacheBudgetBytes;
  so.executors = 2;
  so.jobThreads = 1;
  s.server = std::make_unique<serve::Server>(so);
  std::string err;
  if (!s.server->start(&err)) {
    res.attempt("server start", err);
    return s;
  }
  serve::Client c;
  std::uint64_t ids[2] = {0, 0};
  bool ok = c.connect(so.socketPath, &err);
  for (int b = 0; ok && b < 2; ++b) ok = c.submit(baseSpec(b), &ids[b], &err);
  for (int b = 0; ok && b < 2; ++b) {
    serve::JobState st = serve::JobState::kQueued;
    ok = c.waitJob(ids[b], 0, &st, &err) && st == serve::JobState::kDone &&
         c.result(ids[b], &s.base[b], &err);
    if (ok && (s.base[b].metrics.verifyViolations != 0 || s.base[b].metrics.unroutedNets != 0)) {
      ok = false;
      err = "base job failed signoff";
    }
  }
  res.attempt("base jobs", ok ? "" : err.empty() ? "base job did not finish" : err);
  s.ok = ok;
  return s;
}

void stopServer(ServeSetup& s) {
  if (s.server == nullptr) return;
  s.server->requestShutdown();
  s.server->wait();
  s.server.reset();
  fs::remove_all(s.dir);
}

/// Closed loop: kClients connections, each submitting the next job of its
/// own seeded sequence as soon as the previous one returned, until
/// \p seconds have elapsed. Returns every client's records, client-major.
std::vector<std::vector<JobRecord>> jobLoop(const std::string& socket, std::uint64_t seed,
                                            double seconds, double* wallS) {
  std::vector<std::vector<JobRecord>> records(kClients);
  const double start = wallSeconds();
  std::vector<std::thread> clients;
  for (int k = 0; k < kClients; ++k) {
    clients.emplace_back([&, k] {
      JobSequence seq(seed, k);
      std::vector<JobRecord>& mine = records[static_cast<std::size_t>(k)];
      serve::Client c;
      std::string err;
      const bool connected = c.connect(socket, &err);
      do {
        JobRecord rec;
        rec.client = k;
        rec.draw = static_cast<int>(mine.size());
        rec.d = seq.next();
        const double t0 = wallSeconds();
        rec.ok = connected && c.runJob(rec.d.spec, &rec.r, &rec.err);
        rec.latencyMs = (wallSeconds() - t0) * 1e3;
        if (!connected) rec.err = err;
        mine.push_back(rec);
      } while (connected && wallSeconds() - start < seconds);
    });
  }
  for (std::thread& t : clients) t.join();
  *wallS = wallSeconds() - start;
  return records;
}

/// Checks every job of the loop; fills the latency vectors.
void checkJobs(const std::vector<JobRecord>& recs, const ServeSetup& setup, Results& res,
               std::vector<double>& ecoMs, std::vector<double>& repeatMs) {
  for (const JobRecord& rec : recs) {
    const std::string what = (rec.d.fresh ? "fresh ECO job " : "repeat job ") +
                             std::to_string(rec.client) + "." + std::to_string(rec.draw);
    if (!rec.ok) {
      res.attempt(what, "did not reach kDone: " + rec.err);
      continue;
    }
    const DesignMetrics& m = rec.r.metrics;
    std::string why;
    if (m.verifyViolations != 0) why = "signoff verification errors";
    if (m.unroutedNets != 0) why = "unrouted nets";
    if (rec.d.fresh) {
      if (rec.r.cachePrefixStages < 3) {
        why = "restored " + std::to_string(rec.r.cachePrefixStages) + " prefix stages (< 3)";
      } else if (rec.r.ecoReused <= 0) {
        why = "ECO route reused no seed net (fell back to a full route)";
      }
    } else {
      const std::uint64_t expect =
          rec.d.origin < 0 ? setup.base[rec.client].artifactHash
                           : recs[static_cast<std::size_t>(rec.d.origin)].r.artifactHash;
      if (rec.r.artifactHash != expect) {
        why = "artifact hash " + hex(rec.r.artifactHash) + " != original " + hex(expect);
      }
    }
    res.attempt(what, why);
    (rec.d.fresh ? ecoMs : repeatMs).push_back(rec.latencyMs);
  }
}

std::int64_t counterValue(const char* name) { return obs::counter(name).value(); }

void addLatency(Results& res, const std::string& name, const std::vector<double>& v) {
  res.add(name + "_p50", median(v), "ms", v.size(), false);
  const Tail t = tailOf(v);
  res.add(name + "_tail", t.value, "ms", v.size(), false,
          t.percent > 0.0 ? "p" + std::to_string(t.percent).substr(0, 4)
                          : "too few samples for a tail");
}

// --- traced replay ----------------------------------------------------------------

/// Per-job replay measurements, summed over the sampled jobs.
struct EcoReplay {
  double restoreMs = 0.0, routeMs = 0.0, extractMs = 0.0, staMs = 0.0, powerMs = 0.0;
  double verifyMs = 0.0, saveMs = 0.0, jobMs = 0.0;
  double verifyCpuUtil = 0.0, rippedRatio = 0.0, popped = 0.0;
  std::vector<double> loadMs;  ///< every checkpoint load, for the median.
};

/// Replays one fresh ECO job from the checkpoints the server published:
/// restore of the base's cts prefix and of the ECO seed, routeDesignEco on
/// the pitch-scaled combined BEOL, extract, then signoff on the job's
/// post_route_opt checkpoint. Returns false when an input was evicted.
bool replayEco(const RunConfig& cfg, const JobRecord& rec, const ServeSetup& setup,
               bool corrupt, Results& res, SpanLog& spans, EcoReplay* out) {
  serve::RunnerOptions ropt;
  ropt.cacheDir = setup.server->options().cacheDir;
  ropt.cacheMaxBytes = kCacheBudgetBytes;
  const FlowOptions opt =
      serve::flowOptionsFor(rec.d.spec, ropt, setup.base[rec.client].finalCheckpoint);
  // The job's pipeline inputs; routingBeol carries the ECO's bump pitch.
  const EntryState entry = rebuildEntryState(
      true, serve::tileConfigFor(rec.d.spec.tile, rec.d.spec.shrink), opt, nullptr);
  const StagePaths sp = stagePaths(entry, opt);
  for (std::size_t i = 2; i < 7; ++i) {
    if (!io::fileExists(sp.paths[i])) return false;
  }
  Tracer tr(spans, "eco-job-" + std::to_string(rec.client) + "." + std::to_string(rec.draw));
  res.attempt(tr.id() + " checkpoint keys",
              sp.paths[6] == rec.r.finalCheckpoint ? "" : "recomputed signoff key differs");
  FlowOutput ck[7], seed;
  std::string ckTrace;
  const std::size_t firstLoad = out->loadMs.size();
  if (!loadCheckpoint(tr, sp.paths[2], ck[2], nullptr, out->loadMs, res) ||
      !loadCheckpoint(tr, opt.ecoRouteFrom, seed, nullptr, out->loadMs, res)) {
    return false;
  }
  // The two restores the job itself performs: the cts prefix and the seed.
  const double restoreMs = out->loadMs[firstLoad] + out->loadMs[firstLoad + 1];
  Netlist& nl = ck[2].tile->netlist;
  std::unique_ptr<RouteGrid> grid;
  RoutingResult routes;
  const Timed routeT = tr.run("route.eco", [&] {
    grid = std::make_unique<RouteGrid>(nl, ck[2].fp.die, entry.out.routingBeol, opt.grid);
    const RouteGrid seedGrid(seed.tile->netlist, seed.fp.die, seed.routingBeol, opt.grid);
    RouterOptions ro = opt.router;
    ro.numThreads = opt.numThreads;
    routes = routeDesignEco(nl, *grid, seedGrid, seed.routes, ro);
  });
  if (corrupt) routes.totalWirelengthUm += 1.0;
  if (!loadCheckpoint(tr, sp.paths[3], ck[3], nullptr, out->loadMs, res)) return false;
  checkEqual(res, tr.id() + " ECO route", hashRoutes(routes), hashRoutes(ck[3].routes));

  std::vector<NetParasitics> paras;
  ClockModel clock;
  const Timed extractT = tr.run("extract", [&] {
    paras = extractDesign(nl, *grid, routes);
    clock = updateClockModel(nl, paras, ck[2].cts);
  });
  if (!loadCheckpoint(tr, sp.paths[4], ck[4], nullptr, out->loadMs, res) ||
      !loadCheckpoint(tr, sp.paths[5], ck[5], nullptr, out->loadMs, res) ||
      !loadCheckpoint(tr, sp.paths[6], ck[6], &ckTrace, out->loadMs, res)) {
    return false;
  }
  checkEqual(res, tr.id() + " extract", hashParasitics(paras), hashParasitics(ck[4].paras));
  checkEqual(res, tr.id() + " clock model", hashClock(clock), hashClock(ck[4].clock));
  const SignoffTimes so =
      replaySignoff(tr, ck[5], ck[6], ckTrace, sp, opt,
                    (fs::path(cfg.outDir) / (tr.id() + ".m3ddb")).string(), res);

  out->restoreMs += restoreMs;
  out->routeMs += routeT.wallMs;
  out->extractMs += extractT.wallMs;
  out->staMs += so.sta.wallMs;
  out->powerMs += so.power.wallMs;
  out->verifyMs += so.verify.wallMs;
  out->saveMs += so.save.wallMs;
  out->jobMs += rec.r.wallMs;
  out->verifyCpuUtil += so.verify.cpuUtil(opt.numThreads);
  const double touched = static_cast<double>(routes.ecoNetsRipped + routes.ecoNetsReused);
  out->rippedRatio += touched > 0 ? static_cast<double>(routes.ecoNetsRipped) / touched : 0.0;
  out->popped += static_cast<double>(routes.nodesPopped);
  return true;
}

}  // namespace

void runEco(const RunConfig& cfg, Results& res, SpanLog& spans) {
  const int setupReps = cfg.smoke || cfg.trace ? 1 : 3;
  std::vector<double> setupS;
  ServeSetup setup;
  for (int r = 0; r < setupReps; ++r) {
    if (r > 0) stopServer(setup);
    const double t0 = wallSeconds();
    setup = bootServer(cfg, r, res);
    if (!setup.ok) {
      stopServer(setup);
      return;
    }
    setupS.push_back(wallSeconds() - t0);
  }

  const std::int64_t hits0 = counterValue("db.stage_cache_hits");
  const std::int64_t miss0 = counterValue("db.stage_cache_misses");
  const std::int64_t evict0 = counterValue("db.stage_cache_evictions");
  const std::int64_t bytes0 = counterValue("db.stage_cache_bytes_written");
  double wallS = 0.0;
  const std::vector<std::vector<JobRecord>> perClient =
      jobLoop(setup.server->options().socketPath, cfg.seed, cfg.seconds, &wallS);
  std::vector<double> ecoMs, repeatMs;
  std::vector<JobRecord> recs;
  for (const std::vector<JobRecord>& mine : perClient) {
    checkJobs(mine, setup, res, ecoMs, repeatMs);
    recs.insert(recs.end(), mine.begin(), mine.end());
  }

  if (!cfg.trace) {
    std::vector<double> fclk, bumps;
    int coalesced = 0, fullRestores = 0;
    for (const JobRecord& rec : recs) {
      if (!rec.ok) continue;
      coalesced += rec.r.coalesced ? 1 : 0;
      if (rec.d.fresh && rec.client == 0) {
        fclk.push_back(rec.r.metrics.fclkMhz);
        bumps.push_back(static_cast<double>(rec.r.metrics.f2fBumps));
      } else if (!rec.d.fresh) {
        fullRestores += rec.r.cachePrefixStages == 7 ? 1 : 0;
      }
    }
    const std::size_t jobs = ecoMs.size() + repeatMs.size();
    res.add("setup_s", median(setupS), "s", setupS.size(), true,
            "server boot + two base Macro-3D jobs");
    res.add("primary_ms", median(ecoMs), "ms", ecoMs.size(), true,
            "fresh ECO job, submit to result");
    res.add("secondary_ms", median(repeatMs), "ms", repeatMs.size(), true,
            "repeat job, submit to result");
    res.add("ops_per_s", static_cast<double>(jobs) / wallS, "1/s", jobs, true,
            "completed jobs per second");
    res.add("peak_rss_mb", peakRssMb(), "MB", 1, true);
    res.add("fclk_m3d_mhz", median(fclk), "MHz", fclk.size(), true,
            "median over fresh M6-M6 ECOs");
    res.add("f2f_bumps", median(bumps), "count", bumps.size(), true,
            "median over fresh M6-M6 ECOs");
    addLatency(res, "eco_ms", ecoMs);
    addLatency(res, "replay_ms", repeatMs);
    res.add("jobs_per_s", static_cast<double>(jobs) / wallS, "1/s", jobs, false);
    res.add("repeat_full_restores", fullRestores, "count", repeatMs.size(), false,
            "repeat jobs that restored all 7 stages");
    res.add("coalesced_jobs", coalesced, "count", jobs, false);
    stopServer(setup);
    return;
  }

  // Traced run: per-job queue wait, the cache census of the loop, and the
  // module replay of a seeded sample of recent fresh ECO jobs.
  std::vector<double> waitMs;
  int coalesced = 0, done = 0;
  for (const JobRecord& rec : recs) {
    if (!rec.ok) continue;
    ++done;
    coalesced += rec.r.coalesced ? 1 : 0;
    waitMs.push_back(rec.latencyMs - rec.r.wallMs);
  }
  const double hits = static_cast<double>(counterValue("db.stage_cache_hits") - hits0);
  const double misses = static_cast<double>(counterValue("db.stage_cache_misses") - miss0);
  // The three latest fresh ECOs of each client: their checkpoints are the
  // least likely to have been evicted.
  std::vector<const JobRecord*> recent;
  for (const std::vector<JobRecord>& mine : perClient) {
    int taken = 0;
    for (auto it = mine.rbegin(); it != mine.rend() && taken < 3; ++it) {
      if (it->ok && it->d.fresh) {
        recent.push_back(&*it);
        ++taken;
      }
    }
  }
  std::mt19937_64 rng(cfg.seed ^ 0x5eedull);
  std::shuffle(recent.begin(), recent.end(), rng);
  EcoReplay rep;
  int replayed = 0;
  for (const JobRecord* rec : recent) {
    if (replayed == (cfg.smoke ? 1 : 3)) break;
    if (replayEco(cfg, *rec, setup, cfg.injectFault && replayed == 0, res, spans, &rep)) {
      ++replayed;
    }
  }
  res.attempt("ECO replay sample", replayed > 0 ? "" : "no fresh ECO job left to replay");
  stopServer(setup);
  if (replayed == 0) return;

  const double n = replayed;
  const auto layer = [&](const std::string& name, double value, const std::string& unit) {
    res.add(name, value, unit, static_cast<std::size_t>(replayed), true);
  };
  layer("route.eco_ms", rep.routeMs / n, "ms");
  layer("route.eco_ripped_ratio", rep.rippedRatio / n, "ratio");
  layer("route.nodes_popped.eco", rep.popped / n, "count");
  layer("extract.self_ms.eco", rep.extractMs / n, "ms");
  layer("sta.self_ms.eco", rep.staMs / n, "ms");
  layer("power.self_ms.eco", rep.powerMs / n, "ms");
  layer("verify.self_ms.eco", rep.verifyMs / n, "ms");
  layer("verify.cpu_util.eco", rep.verifyCpuUtil / n, "ratio");
  layer("db.restore_ms.eco", median(rep.loadMs), "ms");
  layer("db.save_ms.eco", rep.saveMs / n, "ms");
  res.add("db.bytes_written.eco",
          static_cast<double>(counterValue("db.stage_cache_bytes_written") - bytes0), "bytes",
          recs.size(), true);
  res.add("db.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
          recs.size(), true);
  res.add("db.evictions", static_cast<double>(counterValue("db.stage_cache_evictions") - evict0),
          "count", recs.size(), true);
  res.add("serve.queue_wait_ms", median(waitMs), "ms", waitMs.size(), true);
  res.add("serve.coalesced_ratio", done > 0 ? static_cast<double>(coalesced) / done : 0.0,
          "ratio", static_cast<std::size_t>(done), true);
  const double covered = rep.restoreMs + rep.routeMs + rep.extractMs + rep.staMs + rep.powerMs +
                         rep.verifyMs + rep.saveMs;
  layer("trace.coverage.eco", covered / rep.jobMs, "ratio");
  std::cout << "trace eco: " << replayed << " jobs replayed, " << covered / n
            << " ms of modules per job vs " << rep.jobMs / n << " ms job wall\n";
}

}  // namespace flowbench
