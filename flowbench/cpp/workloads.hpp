#pragma once

/// \file workloads.hpp
/// The benchmark's workloads and the module replays of its traced run.

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace flowbench {

/// Cold 2D + Macro-3D flows in a closed loop on one tile (the large-cache
/// tile; the tiny tile in smoke mode) at \p threads threads, stage cache
/// off. With cfg.trace, runs the traced module replay instead.
void runCold(const RunConfig& cfg, int threads, Results& res, SpanLog& spans);

/// In-process m3d_serve with a shared stage cache, two base Macro-3D jobs,
/// and two closed-loop clients submitting fresh pitch ECOs and repeat jobs.
/// With cfg.trace, also replays a sample of the fresh ECO jobs module by
/// module.
void runEco(const RunConfig& cfg, Results& res, SpanLog& spans);

/// Flow options of every benchmark flow: \p threads threads, no per-run
/// log summary or report file, stage cache off.
m3d::FlowOptions baseFlowOptions(int threads);

// --- replay helpers (replay.cpp) ------------------------------------------------

/// Spans of one replayed flow or job: a root span named "replay" under the
/// trace id, and one child span per timed call.
class Tracer {
 public:
  Tracer(SpanLog& log, std::string id);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Runs \p fn inside a span named \p name; returns its wall and CPU time.
  Timed run(const std::string& name, const std::function<void()>& fn);
  const std::string& id() const { return id_; }

 private:
  SpanLog& log_;
  std::string id_;
  int root_;
};

/// Pipeline entry state of a flow, rebuilt from outside with the same
/// public calls runFlow2D / runFlowMacro3D make (tile generation, die
/// sizing, macro placement, projection + combined BEOL for Macro-3D,
/// blockages, ports).
/// With a tracer, the two halves run in "netlist" and "floorplan" spans.
struct EntryState {
  m3d::FlowOutput out;
  Timed netlist;    ///< library + tile generation.
  Timed floorplan;  ///< die sizing through port assignment.
};
EntryState rebuildEntryState(bool macro3d, const m3d::TileConfig& tile,
                             const m3d::FlowOptions& opt, Tracer* tr);

/// Content keys and checkpoint paths of the seven stages the pipeline
/// writes for \p entry under \p opt (opt.checkpointDir must be set).
struct StagePaths {
  std::array<std::uint64_t, 7> keys{};
  std::array<std::string, 7> paths;
};
StagePaths stagePaths(const EntryState& entry, const m3d::FlowOptions& opt);

/// Loads a checkpoint in a "db.restore" span, appending the load time to
/// \p loadMs. Returns false (a failed check in \p res) when the file is
/// missing or corrupt.
bool loadCheckpoint(Tracer& tr, const std::string& path, m3d::FlowOutput& out,
                    std::string* trace, std::vector<double>& loadMs, Results& res);

/// One attempted check, failed when the replayed value's hash or bits
/// differ from the checkpoint's.
void checkEqual(Results& res, const std::string& what, std::uint64_t replayed,
                std::uint64_t expected);

/// Replays signoff on the post_route_opt checkpoint \p c5: STA and power
/// (checked against the fclk and energy of the signoff checkpoint \p c6),
/// and verify (checked against its verify report). Then re-saves \p c6 to
/// \p scratchPath, which must equal the published \p sp.paths[6] byte for
/// byte, and removes the copy.
struct SignoffTimes {
  Timed sta, power, verify, save;
};
SignoffTimes replaySignoff(Tracer& tr, const m3d::FlowOutput& c5, const m3d::FlowOutput& c6,
                           const std::string& c6Trace, const StagePaths& sp,
                           const m3d::FlowOptions& opt, const std::string& scratchPath,
                           Results& res);

}  // namespace flowbench
