#pragma once

/// \file placer.hpp
/// Quadratic global placement (bound-to-bound net model) with SimPL-style
/// legalization anchoring, followed by Tetris legalization.
///
/// The same engine places every flow's design — 2D, S2D (shrunk), C2D
/// (inflated) and Macro-3D (superimposed MoL floorplan) — mirroring the
/// paper's use of one commercial P&R engine for all flows.

#include "floorplan/floorplan.hpp"
#include "netlist/netlist.hpp"
#include "place/legalizer.hpp"

namespace m3d {

struct PlacerOptions {
  int maxIters = 12;              ///< solve/legalize alternations.
  /// When true, current instance positions seed the solver (hierarchical /
  /// region hints from the caller) instead of random jitter.
  bool useExistingPositions = false;
  /// Threads for the spring/HPWL accumulation (0 = auto: M3D_THREADS env,
  /// else hardware_concurrency). Chunks of nets emit spring operations into
  /// per-chunk buffers that are applied to the solver in chunk order, so the
  /// operation sequence — and the placement — is bit-identical at any
  /// thread count.
  int numThreads = 0;
  LegalizerOptions legalizer;
};

struct PlaceResult {
  bool success = false;
  double hpwlUm = 0.0;          ///< total HPWL after legalization [um].
  double quadraticHpwlUm = 0.0; ///< HPWL of the last pre-legalization solution.
  int iterations = 0;
  /// Normalized density overflow of the final placement, in [0, 1]: movable
  /// area above each bin's capacity (free area at density 0.8), summed over
  /// a power-of-two bin grid and divided by the total movable area. Cells
  /// smaller than a bin are smoothed to one bin footprint of equal area.
  double overflow = 0.0;
  LegalizeResult legal;         ///< stats of the final legalization pass.
};

/// Places all movable cells of \p nl inside \p fp. Fixed instances (macros,
/// pre-placed cells) and ports act as fixed pins. Positions are written back
/// into the netlist; the final state is legalized.
PlaceResult globalPlace(Netlist& nl, const Floorplan& fp,
                        const PlacerOptions& opt = PlacerOptions{});

}  // namespace m3d
