/// \file replay.cpp
/// Shared pieces of the traced module replays: spans, the rebuilt pipeline
/// entry state, checkpoint paths and loads, and the signoff replay.

#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "flows/case_study.hpp"
#include "flows/flow_checkpoint.hpp"
#include "io/fsutil.hpp"
#include "workloads.hpp"

using namespace m3d;

namespace flowbench {

Tracer::Tracer(SpanLog& log, std::string id)
    : log_(log), id_(std::move(id)), root_(log.open(id_, "replay", -1)) {}

Tracer::~Tracer() { log_.close(root_); }

Timed Tracer::run(const std::string& name, const std::function<void()>& fn) {
  ScopedSpan span(log_, id_, name, root_);
  return timeCall(fn);
}

EntryState rebuildEntryState(bool macro3d, const TileConfig& tile, const FlowOptions& opt,
                             Tracer* tr) {
  EntryState e;
  FlowOutput& out = e.out;
  const auto timed = [tr](const char* name, const std::function<void()>& fn) {
    return tr != nullptr ? tr->run(name, fn) : timeCall(fn);
  };
  e.netlist = timed("netlist", [&] {
    out.logicTech = makeCaseStudyTech(kLogicDieMetals);
    out.macroTech = macro3d ? makeCaseStudyTech(opt.macroDieMetals) : out.logicTech;
    out.lib = std::make_unique<Library>(makeStdCellLib(out.logicTech));
    out.tile = std::make_unique<Tile>(generateTile(*out.lib, out.logicTech, tile));
  });
  e.floorplan = timed("floorplan", [&] {
    Netlist& nl = out.tile->netlist;
    const NetlistStats stats = computeStats(nl);
    const Rect die2d = computeDie2D(stats, out.logicTech);
    const Rect die = macro3d ? computeDie3D(die2d, out.logicTech) : die2d;
    const bool placed =
        macro3d
            ? placeMacrosShelf(nl, out.tile->groups.macros, die, opt.macroHalo, DieId::kMacro)
            : placeMacrosRing(nl, out.tile->groups.macros, die, opt.macroHalo);
    if (!placed) throw std::runtime_error("entry-state rebuild: macro placement failed");
    out.fp.die = die;
    if (macro3d) {
      projectMacroDieMacros(nl, *out.lib, out.logicTech);
      out.routingBeol =
          buildCombinedBeol(out.logicTech.beol, out.macroTech.beol, opt.f2fVia, opt.stackOrder);
    } else {
      out.routingBeol = out.logicTech.beol;
    }
    out.fp.rowHeight = out.logicTech.rowHeight;
    out.fp.siteWidth = out.logicTech.siteWidth;
    out.fp.blockages = macroPlacementBlockages(nl, DieId::kLogic, opt.macroHalo / 2);
    if (macro3d) {
      const auto proj = macroPlacementBlockages(nl, DieId::kMacro, 0);
      out.fp.blockages.insert(out.fp.blockages.end(), proj.begin(), proj.end());
    }
    assignPorts(nl, die);
  });
  return e;
}

StagePaths stagePaths(const EntryState& entry, const FlowOptions& opt) {
  PipelineFlags flags;
  flags.preRouteOpt = opt.preRouteOpt;
  flags.postRouteOpt = opt.postRouteOpt;
  StagePaths sp;
  sp.keys = computeStageKeys(entry.out, opt, flags);
  const db::StageCache cache(opt.checkpointDir, /*resume=*/false);
  for (std::size_t i = 0; i < 7; ++i) {
    sp.paths[i] = cache.path(static_cast<int>(i), kPipelineStageNames[i], sp.keys[i]);
  }
  return sp;
}

bool loadCheckpoint(Tracer& tr, const std::string& path, FlowOutput& out, std::string* trace,
                    std::vector<double>& loadMs, Results& res) {
  db::DbStatus st;
  loadMs.push_back(tr.run("db.restore", [&] { st = loadFlowCheckpoint(path, out, trace); }).wallMs);
  res.attempt(tr.id() + " load " + path, st.ok() ? "" : st.detail);
  return st.ok();
}

void checkEqual(Results& res, const std::string& what, std::uint64_t replayed,
                std::uint64_t expected) {
  res.attempt("replay " + what,
              replayed == expected ? "" : "hash " + hex(replayed) + " != checkpoint " + hex(expected));
}

namespace {

std::uint64_t bitsOf(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

}  // namespace

SignoffTimes replaySignoff(Tracer& tr, const FlowOutput& c5, const FlowOutput& c6,
                           const std::string& c6Trace, const StagePaths& sp,
                           const FlowOptions& opt, const std::string& scratchPath,
                           Results& res) {
  const Netlist& nl = c5.tile->netlist;
  SignoffTimes t;
  double minPeriod = 0.0;
  t.sta = tr.run("sta", [&] {
    Sta sta(nl, c5.paras, &c5.clock, opt.signoffCorner, opt.numThreads);
    minPeriod = sta.findMinPeriod();
    sta.analyze(minPeriod);
  });
  // The same arithmetic as the pipeline's signoff stage (max-performance).
  const double freq = 1.0 / minPeriod;
  PowerReport pwr;
  t.power = tr.run("power", [&] { pwr = analyzePower(nl, c5.paras, c5.logicTech.vdd, freq); });
  VerifyReport vrep;
  {
    const RouteGrid grid(nl, c5.fp.die, c5.routingBeol, opt.grid);  // the flow reuses its grid
    t.verify = tr.run("verify", [&] {
      VerifyOptions vopt = opt.verify;
      vopt.numThreads = opt.numThreads;
      vrep = verifyDesign(nl, c5.fp, grid, c5.routes, vopt);
    });
  }
  checkEqual(res, tr.id() + " sta", bitsOf(freq * 1e-6), bitsOf(c6.metrics.fclkMhz));
  checkEqual(res, tr.id() + " power", bitsOf(pwr.energyPerCycle * 1e15),
             bitsOf(c6.metrics.emeanFj));
  checkEqual(res, tr.id() + " verify", hashVerify(vrep), hashVerify(c6.verify));

  db::DbStatus st;
  t.save = tr.run("db.save",
                  [&] { st = saveStageCheckpoint(c6, c6Trace, 6, sp.keys[6], scratchPath); });
  std::vector<std::uint8_t> saved, published;
  const bool same = st.ok() && io::readFileBytes(scratchPath, saved) &&
                    io::readFileBytes(sp.paths[6], published) && saved == published;
  res.attempt(tr.id() + " db save round trip", same ? "" : "re-saved signoff checkpoint differs");
  std::filesystem::remove(scratchPath);
  return t;
}

}  // namespace flowbench
