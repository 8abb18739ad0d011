/// \file bench_sta.cpp
/// Incremental-STA engine bench: measures what the persistent engine buys
/// over from-scratch rebuilds, checks the exact min-period solve against
/// the legacy bisection, and times the opt stage. Each part asserts value
/// equality against a reference (a timing only counts if the answers match
/// bit for bit):
///
///  A. Per-edit micro: the same resize sequence timed against (a) a fresh
///     Sta per edit and (b) one persistent engine fed applyResize +
///     invalidateNets, asserting the post-edit WNS values are identical.
///  B. Min-period: exact single-sweep findMinPeriod vs the 40-iteration
///     findMinPeriodBisect, caches busted between reps, values within
///     1e-12.
///  C. Opt stage: optimizeForMaxFrequency over a copy of the placed tile at
///     1 thread (timed) and again at 2 threads, asserting the final netlist
///     hash, min period, resize and buffer counts identical across the two
///     runs and the reported min period no better than a from-scratch Sta
///     on the final netlist allows. The full run uses the paper's
///     large-cache tile; --smoke runs the tiny tile and writes
///     BENCH_sta_smoke.json for the checked-in-baseline diff in
///     scripts/quickcheck.sh.

#include <chrono>
#include <cmath>
#include <cstring>

#include "bench_common.hpp"
#include "db/codec.hpp"
#include "opt/optimizer.hpp"

namespace {

using namespace m3d;
using namespace m3d::bench;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Same reduced tile as the determinism/serve/hpwl smoke tests.
TileConfig tinyTile() {
  TileConfig cfg;
  cfg.name = "tiny";
  cfg.cache = CacheConfig{2, 2, 4, 8};
  cfg.coreGates = 350;
  cfg.coreRegs = 70;
  cfg.l1CtrlGates = 40;
  cfg.l1CtrlRegs = 10;
  cfg.l2CtrlGates = 60;
  cfg.l2CtrlRegs = 14;
  cfg.l3CtrlGates = 80;
  cfg.l3CtrlRegs = 18;
  cfg.nocGates = 60;
  cfg.nocRegs = 14;
  cfg.nocDataBits = 3;
  return cfg;
}

/// A placed, unoptimized tile (the state the pre-route opt stage sees):
/// place + CTS only, no opt stages, no routing-dependent steps needed.
FlowOutput placedTile(const TileConfig& cfg) {
  FlowOptions fopt;
  fopt.preRouteOpt = false;
  fopt.postRouteOpt = false;
  fopt.signoff = false;
  return runFlowMacro3D(cfg, fopt);
}

/// Nets whose pin caps change when \p inst changes size.
std::vector<NetId> inputNetsOf(const Netlist& nl, InstId inst) {
  std::vector<NetId> out;
  const CellType& c = nl.cellOf(inst);
  for (std::size_t p = 0; p < c.pins.size(); ++p) {
    if (c.pins[p].dir != PinDir::kInput) continue;
    const NetId n = nl.instance(inst).pinNets[p];
    if (n != kInvalidId) out.push_back(n);
  }
  return out;
}

/// Deterministic resize sequence: every sizable cell in instance order,
/// alternating up/down so the netlist never saturates. Returns the edited
/// instances (at most \p maxEdits).
std::vector<InstId> pickEdits(const Netlist& nl, int maxEdits) {
  std::vector<InstId> edits;
  const Library& lib = nl.library();
  for (InstId i = 0; i < nl.numInstances() && static_cast<int>(edits.size()) < maxEdits; ++i) {
    const CellType& c = nl.cellOf(i);
    if (c.isMacro() || c.cls == CellClass::kFiller || c.family.empty()) continue;
    const bool up = (edits.size() % 2) == 0;
    const CellTypeId next =
        up ? lib.nextSizeUp(nl.instance(i).type) : lib.nextSizeDown(nl.instance(i).type);
    if (next == kInvalidCellType) continue;
    edits.push_back(i);
  }
  return edits;
}

/// Applies edit \p k of the sequence to \p nl and refreshes parasitics;
/// mirrors into \p sta when non-null. Returns the resize target.
void applyEdit(Netlist& nl, std::vector<NetParasitics>& paras, ParasiticsProvider& provider,
               InstId inst, bool up, Sta* sta) {
  const Library& lib = nl.library();
  const CellTypeId next =
      up ? lib.nextSizeUp(nl.instance(inst).type) : lib.nextSizeDown(nl.instance(inst).type);
  if (next == kInvalidCellType) return;
  nl.resize(inst, next);
  if (sta != nullptr) sta->applyResize(inst);
  const std::vector<NetId> dirty = inputNetsOf(nl, inst);
  provider.refresh(nl, dirty, paras);
  if (sta != nullptr) sta->invalidateNets(dirty);
}

struct MicroResult {
  double fullWallS = 0.0;
  double incrWallS = 0.0;
  std::vector<double> fullWns;
  std::vector<double> incrWns;
};

/// Part A: per-edit WNS probe cost, fresh-Sta-per-edit vs persistent.
MicroResult runEditMicro(const Netlist& base, const EstimationOptions& eopt, double period,
                         int maxEdits) {
  MicroResult r;
  const std::vector<InstId> edits = pickEdits(base, maxEdits);
  {
    Netlist nl = base;
    std::vector<NetParasitics> paras = estimateDesign(nl, eopt);
    EstimatedParasitics provider(eopt);
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < edits.size(); ++k) {
      applyEdit(nl, paras, provider, edits[k], (k % 2) == 0, nullptr);
      const Sta fresh(nl, paras, nullptr, kTypicalCorner, 1);
      r.fullWns.push_back(fresh.worstSlack(period));
    }
    r.fullWallS = secondsSince(t0);
  }
  {
    Netlist nl = base;
    std::vector<NetParasitics> paras = estimateDesign(nl, eopt);
    EstimatedParasitics provider(eopt);
    const auto t0 = Clock::now();
    Sta sta(nl, paras, nullptr, kTypicalCorner, 1);
    for (std::size_t k = 0; k < edits.size(); ++k) {
      applyEdit(nl, paras, provider, edits[k], (k % 2) == 0, &sta);
      r.incrWns.push_back(sta.worstSlack(period));
    }
    r.incrWallS = secondsSince(t0);
  }
  return r;
}

struct OptResult {
  double wallS = 0.0;
  double minPeriod = 0.0;
  double scratchMinPeriod = 0.0;  ///< from-scratch Sta on the final netlist.
  std::uint64_t netlistHash = 0;
  int cellsResized = 0;
  int buffersInserted = 0;

  bool sameArtifact(const OptResult& o) const {
    return netlistHash == o.netlistHash && minPeriod == o.minPeriod &&
           scratchMinPeriod == o.scratchMinPeriod && cellsResized == o.cellsResized &&
           buffersInserted == o.buffersInserted;
  }
};

/// Part C: the max-frequency opt recipe on \p threads STA threads.
OptResult runOpt(const Netlist& base, const EstimationOptions& eopt, int threads, int rounds,
                 int maxPasses) {
  Netlist nl = base;
  std::vector<NetParasitics> paras = estimateDesign(nl, eopt);
  EstimatedParasitics provider(eopt);
  OptimizerOptions oo;
  oo.numThreads = threads;
  oo.maxPasses = maxPasses;
  const auto t0 = Clock::now();
  const MaxFreqOptResult res = optimizeForMaxFrequency(nl, paras, provider, nullptr, oo, rounds);
  OptResult r;
  r.wallS = secondsSince(t0);
  r.minPeriod = res.minPeriod;
  r.scratchMinPeriod = Sta(nl, paras, nullptr, kTypicalCorner, 1).findMinPeriod();
  r.netlistHash = db::hashNetlist(nl);
  r.cellsResized = res.cellsResized;
  r.buffersInserted = res.buffersInserted;
  return r;
}

int runBench(bool smoke) {
  const TileConfig cfg =
      smoke ? tinyTile() : maybeShrink(makeLargeCacheTileConfig());
  BenchJson bj(smoke ? "sta_smoke" : "sta");
  bj.config("tile", cfg.name);

  std::printf("bench_sta: placing tile '%s'...\n", cfg.name.c_str());
  const FlowOutput placed = placedTile(cfg);
  const Netlist& base = placed.tile->netlist;
  const EstimationOptions eopt = makeEstimationOptions(placed.routingBeol);
  std::printf("bench_sta: %d instances, %d nets\n", base.numInstances(), base.numNets());

  bool ok = true;
  const double period = 1.5e-9;

  // --- A. per-edit micro --------------------------------------------------
  const int maxEdits = smoke ? 60 : 400;
  const MicroResult micro = runEditMicro(base, eopt, period, maxEdits);
  for (std::size_t k = 0; k < micro.fullWns.size(); ++k) {
    if (micro.fullWns[k] != micro.incrWns[k]) {
      std::printf("FAIL: edit %zu WNS mismatch: full %.17g vs incr %.17g\n", k,
                  micro.fullWns[k], micro.incrWns[k]);
      ok = false;
    }
  }
  const double editSpeedup = micro.incrWallS > 0.0 ? micro.fullWallS / micro.incrWallS : 0.0;
  std::printf("edit micro (%zu edits): full %.3f s, incr %.3f s (%.1fx)\n",
              micro.fullWns.size(), micro.fullWallS, micro.incrWallS, editSpeedup);
  bj.scalar("edit_count", static_cast<double>(micro.fullWns.size()));
  bj.scalar("edit_full_wall_s", micro.fullWallS);
  bj.scalar("edit_incr_wall_s", micro.incrWallS);
  bj.scalar("edit_speedup", editSpeedup);

  // --- B. min-period: exact vs bisection ----------------------------------
  {
    std::vector<NetParasitics> paras = estimateDesign(base, eopt);
    Sta sta(base, paras, nullptr, kTypicalCorner, 1);
    const int reps = smoke ? 5 : 20;
    double exact = 0.0;
    double bisect = 0.0;
    const auto tExact = Clock::now();
    for (int i = 0; i < reps; ++i) {
      sta.invalidateAllNets();  // bust the arrival caches each rep
      exact = sta.findMinPeriod();
    }
    const double exactWallS = secondsSince(tExact);
    const auto tBisect = Clock::now();
    for (int i = 0; i < reps; ++i) {
      sta.invalidateAllNets();
      bisect = sta.findMinPeriodBisect();
    }
    const double bisectWallS = secondsSince(tBisect);
    if (std::abs(exact - bisect) > 1e-12) {
      std::printf("FAIL: min-period mismatch: exact %.17g vs bisect %.17g\n", exact, bisect);
      ok = false;
    }
    const double speedup = exactWallS > 0.0 ? bisectWallS / exactWallS : 0.0;
    std::printf("min-period (%d reps): exact %.4f s, bisect %.4f s (%.1fx), T=%.1f ps\n", reps,
                exactWallS, bisectWallS, speedup, exact * 1e12);
    bj.scalar("min_period_ps", exact * 1e12);
    bj.scalar("minp_exact_wall_s", exactWallS);
    bj.scalar("minp_bisect_wall_s", bisectWallS);
    bj.scalar("minp_speedup", speedup);
  }

  // --- C. opt stage --------------------------------------------------------
  const int rounds = smoke ? 2 : 4;
  const int maxPasses = smoke ? 6 : 20;
  const OptResult opt = runOpt(base, eopt, /*threads=*/1, rounds, maxPasses);
  const OptResult opt2 = runOpt(base, eopt, /*threads=*/2, rounds, maxPasses);
  // optimizeForMaxFrequency reports the best period any round reached, so
  // the final netlist may time a hair slower, never faster.
  const bool hashMatch = opt.sameArtifact(opt2) && opt.minPeriod <= opt.scratchMinPeriod;
  if (!hashMatch) {
    std::printf("FAIL: opt stage diverged: hash %016llx vs %016llx, T %.17g vs %.17g "
                "(scratch %.17g)\n",
                static_cast<unsigned long long>(opt.netlistHash),
                static_cast<unsigned long long>(opt2.netlistHash), opt.minPeriod,
                opt2.minPeriod, opt.scratchMinPeriod);
    ok = false;
  }
  std::printf("opt stage (%d rounds x %d passes): %.3f s, T=%.1f ps, %d resized, %d buffers, "
              "hash %s\n",
              rounds, maxPasses, opt.wallS, opt.minPeriod * 1e12, opt.cellsResized,
              opt.buffersInserted, hashMatch ? "match" : "MISMATCH");
  bj.scalar("hash_match", hashMatch ? 1.0 : 0.0);
  bj.scalar("opt_min_period_ps", opt.minPeriod * 1e12);
  bj.scalar("opt_cells_resized", static_cast<double>(opt.cellsResized));
  bj.scalar("opt_buffers_inserted", static_cast<double>(opt.buffersInserted));
  bj.scalar("opt_incr_wall_s", opt.wallS);

  const std::string path = bj.write();
  std::printf("wrote %s\n%s\n", path.c_str(), ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return runBench(smoke);
}
