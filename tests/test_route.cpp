#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "lib/sram_generator.hpp"
#include "lib/macro_projection.hpp"
#include "lib/stdcell_factory.hpp"
#include "netlist/logic_cloud.hpp"
#include "netlist/netlist.hpp"
#include "place/placer.hpp"
#include "route/route_grid.hpp"
#include "route/router.hpp"
#include "tech/combined_beol.hpp"

namespace m3d {
namespace {

/// Router-tree oracle: every multi-pin net's segments must form a connected
/// tree (|edges| == |nodes| - 1, single component, no duplicate segment)
/// that touches every pin's grid node. Returns a diagnostic string (empty
/// when healthy). Catches cycles and duplicate segments, which the signoff
/// connectivity check does not.
std::string checkRoutedTrees(const Netlist& nl, const RouteGrid& grid,
                             const RoutingResult& routes) {
  std::ostringstream err;
  int reported = 0;
  for (NetId n = 0; n < nl.numNets(); ++n) {
    const Net& net = nl.net(n);
    if (net.pins.size() < 2) continue;
    const NetRoute& r = routes.nets[static_cast<std::size_t>(n)];
    if (!r.routed) {
      if (reported++ < 10) err << net.name << ": unrouted; ";
      continue;
    }

    // Gather nodes and adjacency.
    std::map<int, int> idOf;
    std::vector<std::vector<int>> adj;
    auto nodeOf = [&](int gridNode) {
      auto it = idOf.find(gridNode);
      if (it != idOf.end()) return it->second;
      const int id = static_cast<int>(adj.size());
      idOf.emplace(gridNode, id);
      adj.push_back({});
      return id;
    };
    std::set<std::pair<int, int>> seen;
    bool dup = false;
    for (const RouteSeg& s : r.segs) {
      const int a = nodeOf(s.fromNode);
      const int b = nodeOf(s.toNode);
      const auto key = std::minmax(a, b);
      if (!seen.insert({key.first, key.second}).second) dup = true;
      adj[static_cast<std::size_t>(a)].push_back(b);
      adj[static_cast<std::size_t>(b)].push_back(a);
    }
    if (dup && reported++ < 10) err << net.name << ": duplicate segment; ";

    if (r.segs.empty()) {
      // All pins must share one grid node.
      const int first = grid.pinNode(nl, net.pins[0]);
      for (const NetPin& p : net.pins) {
        if (grid.pinNode(nl, p) != first) {
          if (reported++ < 10) err << net.name << ": empty route but pins in distinct gcells; ";
          break;
        }
      }
      continue;
    }

    // Tree check: connected and |E| == |V| - 1.
    if (adj.size() != r.segs.size() + 1) {
      if (reported++ < 10) err << net.name << ": cycle (|E| != |V|-1); ";
    }
    std::vector<char> vis(adj.size(), 0);
    std::vector<int> stack{0};
    vis[0] = 1;
    std::size_t count = 1;
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      for (int v : adj[static_cast<std::size_t>(u)]) {
        if (!vis[static_cast<std::size_t>(v)]) {
          vis[static_cast<std::size_t>(v)] = 1;
          ++count;
          stack.push_back(v);
        }
      }
    }
    if (count != adj.size()) {
      if (reported++ < 10) err << net.name << ": disconnected route; ";
    }
    // Every pin node covered.
    for (const NetPin& p : net.pins) {
      if (idOf.find(grid.pinNode(nl, p)) == idOf.end()) {
        if (reported++ < 10) err << net.name << ": pin off the route tree; ";
        break;
      }
    }
  }
  return err.str();
}

class RouteFixture : public ::testing::Test {
 protected:
  RouteFixture() : tech_(makeTech28(6)), lib_(makeStdCellLib(tech_)), nl_(&lib_) {}

  InstId addInvAt(const std::string& name, Dbu xUm, Dbu yUm) {
    const InstId i = nl_.addInstance(name, lib_.findCell("INV_X1"));
    nl_.instance(i).pos = Point{umToDbu(static_cast<double>(xUm)), umToDbu(static_cast<double>(yUm))};
    return i;
  }

  NetId connect2(InstId a, InstId b) {
    const NetId n = nl_.addNet("n" + std::to_string(nl_.numNets()));
    nl_.connect(n, a, "Y");
    nl_.connect(n, b, "A");
    return n;
  }

  TechNode tech_;
  Library lib_;
  Netlist nl_;
  Rect die_{0, 0, umToDbu(100), umToDbu(100)};
};

TEST_F(RouteFixture, GridGeometry) {
  const RouteGrid grid(nl_, die_, tech_.beol);
  EXPECT_EQ(grid.nx(), 25);  // 100um / 4um
  EXPECT_EQ(grid.ny(), 25);
  EXPECT_EQ(grid.numLayers(), 6);
  EXPECT_EQ(grid.numNodes(), 25 * 25 * 6);
  EXPECT_EQ(grid.f2fCutLayer(), -1);

  const int node = grid.nodeId(3, 7, 2);
  EXPECT_EQ(grid.nodeX(node), 3);
  EXPECT_EQ(grid.nodeY(node), 7);
  EXPECT_EQ(grid.nodeLayer(node), 2);
}

TEST_F(RouteFixture, WireCapacitiesFollowPitch) {
  const RouteGrid grid(nl_, die_, tech_.beol);
  // M2 (vertical, 0.1um pitch): 4um/0.1um * 0.8 = 32 tracks.
  EXPECT_EQ(grid.wireCap(grid.wireEdgeId(5, 5, 1)), 32);
  // M1 gets the pin-access derate (0.3): 12 tracks.
  EXPECT_EQ(grid.wireCap(grid.wireEdgeId(5, 5, 0)), 12);
  // M5 (0.14um pitch, 1.5x layer): 22 tracks.
  EXPECT_EQ(grid.wireCap(grid.wireEdgeId(5, 5, 4)), 22);
  // Boundary edges have zero capacity (horizontal layer, last column).
  EXPECT_EQ(grid.wireCap(grid.wireEdgeId(24, 5, 0)), 0);
}

TEST_F(RouteFixture, TwoPinNetRoutes) {
  const InstId a = addInvAt("a", 10, 10);
  const InstId b = addInvAt("b", 80, 70);
  connect2(a, b);
  RouteGrid grid(nl_, die_, tech_.beol);
  const RoutingResult r = routeDesign(nl_, grid);
  EXPECT_EQ(r.unroutedNets, 0);
  EXPECT_EQ(r.overflowedEdges, 0);
  ASSERT_TRUE(r.nets[0].routed);
  EXPECT_FALSE(r.nets[0].segs.empty());
  // Wirelength at least the Manhattan bbox distance.
  const double manhattanUm = 70.0 + 60.0;
  EXPECT_GE(r.totalWirelengthUm, manhattanUm * 0.8);
  EXPECT_LE(r.totalWirelengthUm, manhattanUm * 2.0);
}

TEST_F(RouteFixture, SameGcellNetIsTrivial) {
  const InstId a = addInvAt("a", 10, 10);
  const InstId b = addInvAt("b", 11, 10);
  connect2(a, b);
  RouteGrid grid(nl_, die_, tech_.beol);
  const RoutingResult r = routeDesign(nl_, grid);
  EXPECT_EQ(r.unroutedNets, 0);
  EXPECT_TRUE(r.nets[0].routed);
  EXPECT_TRUE(r.nets[0].segs.empty());
  EXPECT_DOUBLE_EQ(r.totalWirelengthUm, 0.0);
}

TEST_F(RouteFixture, MultiPinNetFormsTree) {
  const InstId a = addInvAt("drv", 50, 50);
  std::vector<InstId> sinks;
  const NetId n = nl_.addNet("multi");
  nl_.connect(n, a, "Y");
  for (int i = 0; i < 6; ++i) {
    const InstId s = addInvAt("s" + std::to_string(i), 10 + 15 * i, (i % 2) ? 20 : 80);
    nl_.connect(n, s, "A");
  }
  RouteGrid grid(nl_, die_, tech_.beol);
  const RoutingResult r = routeDesign(nl_, grid);
  EXPECT_EQ(r.unroutedNets, 0);
  // Tree property: #edges < sum of point-to-point paths; every seg distinct.
  const auto& segs = r.nets[static_cast<std::size_t>(n)].segs;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    for (std::size_t j = i + 1; j < segs.size(); ++j) {
      const bool same = (segs[i].fromNode == segs[j].fromNode && segs[i].toNode == segs[j].toNode) ||
                        (segs[i].fromNode == segs[j].toNode && segs[i].toNode == segs[j].fromNode);
      EXPECT_FALSE(same) << "duplicate segment in tree";
    }
  }
}

TEST_F(RouteFixture, MacroObstructionForcesClimb2D) {
  // A full-height wall blocking M1..M4 between two cells: the route must
  // climb to M5/M6 to cross it (the paper's reason why 2D designs need at
  // least six metal layers).
  CellType wall;
  wall.name = "WALL";
  wall.cls = CellClass::kMacro;
  wall.width = umToDbu(20);
  wall.height = umToDbu(100);
  wall.substrateWidth = wall.width;
  wall.substrateHeight = wall.height;
  wall.pins.push_back(LibPin{"CLK", PinDir::kInput, 1e-15, true, "M4", Point{umToDbu(1), umToDbu(1)}});
  for (int l = 1; l <= 4; ++l) {
    wall.obstructions.push_back({"M" + std::to_string(l), Rect{0, 0, wall.width, wall.height}});
  }
  const CellTypeId wallId = lib_.addCell(wall);
  const InstId m = nl_.addInstance("blk", wallId);
  nl_.instance(m).pos = Point{umToDbu(40), 0};
  nl_.instance(m).fixed = true;

  const InstId a = addInvAt("a", 10, 50);
  const InstId b = addInvAt("b", 90, 50);
  const NetId n = connect2(a, b);
  RouteGrid grid(nl_, die_, tech_.beol);
  const RoutingResult r = routeDesign(nl_, grid);
  EXPECT_EQ(r.unroutedNets, 0);
  // The route uses at least one of the top two layers to cross the wall.
  bool usedTop = false;
  for (const RouteSeg& s : r.nets[static_cast<std::size_t>(n)].segs) {
    if (!s.isVia && s.layer >= 4) usedTop = true;
  }
  EXPECT_TRUE(usedTop);
}

TEST_F(RouteFixture, MacroPinAccessibleUnderObstruction) {
  SramSpec spec{.name = "MEM", .words = 1024, .bitsPerWord = 8};
  const CellTypeId macroId = lib_.addCell(makeSramMacro(spec, tech_));
  const InstId m = nl_.addInstance("mem", macroId);
  nl_.instance(m).pos = Point{umToDbu(40), umToDbu(40)};
  nl_.instance(m).fixed = true;

  const InstId drv = addInvAt("drv", 5, 5);
  const NetId n = nl_.addNet("to_pin");
  nl_.connect(n, drv, "Y");
  nl_.connect(n, m, "D0");  // pin on M4 inside the obstruction
  RouteGrid grid(nl_, die_, tech_.beol);
  const RoutingResult r = routeDesign(nl_, grid);
  EXPECT_EQ(r.unroutedNets, 0);
  ASSERT_TRUE(r.nets[static_cast<std::size_t>(n)].routed);
}

// ---------------------------------------------------------------------------
// Combined-stack (Macro-3D) routing.

class CombinedRouteFixture : public RouteFixture {
 protected:
  CombinedRouteFixture() {
    macroTech_ = makeTech28(4);
    combined_ = buildCombinedBeol(tech_.beol, macroTech_.beol, F2fViaSpec{},
                                  MacroDieStackOrder::kFlipped);
  }
  TechNode macroTech_;
  Beol combined_;
};

TEST_F(CombinedRouteFixture, RouteCrossesF2fToProjectedMacroPin) {
  SramSpec spec{.name = "MEM3D", .words = 1024, .bitsPerWord = 8};
  const CellType orig = makeSramMacro(spec, tech_);
  const CellTypeId projId = lib_.addCell(projectToMacroDie(orig, tech_));
  const InstId m = nl_.addInstance("mem", projId);
  nl_.instance(m).pos = Point{umToDbu(40), umToDbu(40)};
  nl_.instance(m).fixed = true;
  nl_.instance(m).die = DieId::kMacro;

  const InstId drv = addInvAt("drv", 10, 10);
  const NetId n = nl_.addNet("to_md_pin");
  nl_.connect(n, drv, "Y");
  nl_.connect(n, m, "D0");  // pin on M4_MD

  RouteGrid grid(nl_, die_, combined_);
  EXPECT_GE(grid.f2fCutLayer(), 0);
  const RoutingResult r = routeDesign(nl_, grid);
  EXPECT_EQ(r.unroutedNets, 0);
  EXPECT_GE(r.f2fBumps, 1);
  // Route must contain exactly one F2F crossing for this 2-pin net.
  int f2fCrossings = 0;
  for (const RouteSeg& s : r.nets[static_cast<std::size_t>(n)].segs) {
    if (s.isVia && s.layer == grid.f2fCutLayer()) ++f2fCrossings;
  }
  EXPECT_EQ(f2fCrossings, 1);
}

TEST_F(CombinedRouteFixture, LogicOnlyNetStaysCheapOnLogicDie) {
  const InstId a = addInvAt("a", 10, 10);
  const InstId b = addInvAt("b", 60, 60);
  const NetId n = connect2(a, b);
  RouteGrid grid(nl_, die_, combined_);
  const RoutingResult r = routeDesign(nl_, grid);
  EXPECT_EQ(r.unroutedNets, 0);
  // With free capacity everywhere the route should not cross the bond layer.
  for (const RouteSeg& s : r.nets[static_cast<std::size_t>(n)].segs) {
    if (s.isVia) {
      EXPECT_NE(s.layer, grid.f2fCutLayer());
    }
  }
  EXPECT_EQ(r.f2fBumps, 0);
  EXPECT_DOUBLE_EQ(r.wirelengthOfDieUm(combined_, DieId::kMacro), 0.0);
}

TEST_F(CombinedRouteFixture, F2fCapacityFollowsBumpPitch) {
  RouteGrid grid(nl_, die_, combined_);
  const int f2f = grid.f2fCutLayer();
  // 4um gcell, 1um pitch: (4/1)^2 * 0.5 = 8 sites.
  EXPECT_EQ(grid.viaCap(grid.viaEdgeId(5, 5, f2f)), 8);
}

TEST_F(CombinedRouteFixture, ObstructionBlocksSubstrateSideViaFlipped) {
  SramSpec spec{.name = "MEMOBS", .words = 4096, .bitsPerWord = 32};
  const CellType orig = makeSramMacro(spec, tech_);
  const CellTypeId projId = lib_.addCell(projectToMacroDie(orig, tech_));
  const InstId m = nl_.addInstance("mem", projId);
  nl_.instance(m).pos = Point{umToDbu(20), umToDbu(20)};
  nl_.instance(m).fixed = true;
  nl_.instance(m).die = DieId::kMacro;

  RouteGrid grid(nl_, die_, combined_);
  // Combined stack: logic M1..M6 = 0..5, F2F cut = 5, M4_MD = 6, ... M1_MD = 9.
  const int m4md = *combined_.findMetal("M4_MD");
  ASSERT_EQ(m4md, 6);
  const int cx = grid.mapping().xIndex(umToDbu(30));
  const int cy = grid.mapping().yIndex(umToDbu(30));
  // Wire tracks on M4_MD are gone under the macro.
  EXPECT_EQ(grid.wireCap(grid.wireEdgeId(cx, cy, m4md)), 0);
  // The via toward the macro substrate (M4_MD -> M3_MD) is blocked...
  EXPECT_EQ(grid.viaCap(grid.viaEdgeId(cx, cy, m4md)), 0);
  // ...but the pin-access via (F2F -> M4_MD) stays open.
  EXPECT_GT(grid.viaCap(grid.viaEdgeId(cx, cy, grid.f2fCutLayer())), 0);
}

TEST_F(RouteFixture, CongestionTriggersOverflowAccounting) {
  // Saturate one corridor: many parallel nets through a 1-gcell-wide channel.
  for (int i = 0; i < 60; ++i) {
    const InstId a = addInvAt("a" + std::to_string(i), 2, 2);
    const InstId b = addInvAt("b" + std::to_string(i), 97, 2);
    connect2(a, b);
  }
  // Shrink die to a narrow channel so all nets share one row of gcells.
  const Rect channel{0, 0, umToDbu(100), umToDbu(8)};
  RouteGrid grid(nl_, channel, tech_.beol);
  RouterOptions opt;
  opt.maxIterations = 2;
  const RoutingResult r = routeDesign(nl_, grid, opt);
  EXPECT_EQ(r.unroutedNets, 0);  // overflow allowed, never disconnect
  // 60 nets through a channel: either overflow is reported or capacity held.
  EXPECT_GE(r.totalOverflow, 0);
}

// ---------------------------------------------------------------------------
// Search-kernel overhaul: windowed A* and the admissible via heuristic.

TEST_F(RouteFixture, WindowFallbackStillRoutesDetour) {
  // A wall obstructing ALL six metal layers over 92 of the die's 100um
  // height: the only crossing is a detour through the 8um gap at the top,
  // ~16 gcells above the net's own bounding box. With a 1-gcell halo the
  // windowed search cannot see the gap, so the deterministic widening
  // ladder must kick in -- and the net must still route (the windowed
  // router may never lose a net the full-grid router can route).
  CellType wall;
  wall.name = "WALL6";
  wall.cls = CellClass::kMacro;
  wall.width = umToDbu(20);
  wall.height = umToDbu(92);
  wall.substrateWidth = wall.width;
  wall.substrateHeight = wall.height;
  wall.pins.push_back(
      LibPin{"CLK", PinDir::kInput, 1e-15, true, "M4", Point{umToDbu(1), umToDbu(1)}});
  for (int l = 1; l <= 6; ++l) {
    wall.obstructions.push_back({"M" + std::to_string(l), Rect{0, 0, wall.width, wall.height}});
  }
  const CellTypeId wallId = lib_.addCell(wall);
  const InstId m = nl_.addInstance("blk", wallId);
  nl_.instance(m).pos = Point{umToDbu(40), 0};
  nl_.instance(m).fixed = true;

  const InstId a = addInvAt("a", 10, 30);
  const InstId b = addInvAt("b", 90, 30);
  const NetId n = connect2(a, b);

  RouteGrid grid(nl_, die_, tech_.beol);
  RouterOptions opt;
  opt.searchHaloGcells = 1;
  const RoutingResult r = routeDesign(nl_, grid, opt);
  EXPECT_EQ(r.unroutedNets, 0);
  EXPECT_TRUE(r.nets[static_cast<std::size_t>(n)].routed);
  EXPECT_GE(r.windowFallbacks, 1);

  // The full-grid search routes the same net with zero fallbacks.
  RouteGrid fullGrid(nl_, die_, tech_.beol);
  RouterOptions fullOpt;
  fullOpt.searchHaloGcells = -1;
  const RoutingResult rf = routeDesign(nl_, fullGrid, fullOpt);
  EXPECT_EQ(rf.unroutedNets, 0);
  EXPECT_EQ(rf.windowFallbacks, 0);
}

TEST_F(RouteFixture, WindowedSearchQoRNoWorseThanFullGrid) {
  // Congested scatter: clustered 2-pin nets negotiating over several
  // iterations. The windowed kernel must not lose nets and must not end
  // with more overflow than the full-grid search (confining detours to the
  // nets' neighborhoods keeps negotiation local).
  for (int i = 0; i < 40; ++i) {
    const InstId a = addInvAt("a" + std::to_string(i), 30 + (i * 7) % 40, 30 + (i * 11) % 40);
    const InstId b = addInvAt("b" + std::to_string(i), 30 + (i * 13) % 40, 30 + (i * 5) % 40);
    connect2(a, b);
  }
  auto routeWith = [&](int halo) {
    RouteGrid grid(nl_, die_, tech_.beol);
    RouterOptions opt;
    opt.maxIterations = 8;
    opt.searchHaloGcells = halo;
    return routeDesign(nl_, grid, opt);
  };
  const RoutingResult full = routeWith(-1);
  const RoutingResult win = routeWith(1);
  EXPECT_EQ(full.unroutedNets, 0);
  EXPECT_EQ(win.unroutedNets, 0);
  EXPECT_LE(win.unroutedNets, full.unroutedNets);
  EXPECT_LE(win.totalOverflow, full.totalOverflow);
  EXPECT_LE(win.nodesPopped, full.nodesPopped);
}

TEST_F(CombinedRouteFixture, HeuristicAdmissibleWithCheapF2fVia) {
  // When the F2F bump is configured cheaper than a regular via, the layer
  // term of the A* heuristic must use the cheaper per-cut cost -- charging
  // every layer step at the regular via cost overestimates the true cost
  // of paths through the bond layer (inadmissible), which can return a
  // suboptimal route. This net's shortest path crosses the F2F cut once.
  SramSpec spec{.name = "MEMCHEAP", .words = 1024, .bitsPerWord = 8};
  const CellType orig = makeSramMacro(spec, tech_);
  const CellTypeId projId = lib_.addCell(projectToMacroDie(orig, tech_));
  const InstId m = nl_.addInstance("mem", projId);
  nl_.instance(m).pos = Point{umToDbu(40), umToDbu(40)};
  nl_.instance(m).fixed = true;
  nl_.instance(m).die = DieId::kMacro;

  const InstId drv = addInvAt("drv", 10, 10);
  const NetId n = nl_.addNet("to_md_pin");
  nl_.connect(n, drv, "Y");
  nl_.connect(n, m, "D0");  // pin on M4_MD, beyond the F2F cut

  RouteGrid grid(nl_, die_, combined_);
  RouterOptions opt;
  opt.f2fViaCost = 0.5;  // cheaper than the regular via (2.0)
  const RoutingResult r = routeDesign(nl_, grid, opt);
  EXPECT_EQ(r.unroutedNets, 0);
  ASSERT_TRUE(r.nets[static_cast<std::size_t>(n)].routed);
  int f2fCrossings = 0;
  for (const RouteSeg& s : r.nets[static_cast<std::size_t>(n)].segs) {
    if (s.isVia && s.layer == grid.f2fCutLayer()) ++f2fCrossings;
  }
  EXPECT_EQ(f2fCrossings, 1);
  // An optimal route detours at most modestly past the pin-to-pin
  // Manhattan distance (~42um); an inadmissible heuristic returning a
  // wandering path would blow past this bound.
  EXPECT_LE(r.totalWirelengthUm, 80.0);
}

TEST_F(RouteFixture, DeterministicRouting) {
  for (int i = 0; i < 10; ++i) {
    const InstId a = addInvAt("a" + std::to_string(i), 5 + i * 3, 10);
    const InstId b = addInvAt("b" + std::to_string(i), 90 - i * 2, 80);
    connect2(a, b);
  }
  RouteGrid g1(nl_, die_, tech_.beol);
  RouteGrid g2(nl_, die_, tech_.beol);
  const RoutingResult r1 = routeDesign(nl_, g1);
  const RoutingResult r2 = routeDesign(nl_, g2);
  ASSERT_EQ(r1.nets.size(), r2.nets.size());
  EXPECT_DOUBLE_EQ(r1.totalWirelengthUm, r2.totalWirelengthUm);
  for (std::size_t i = 0; i < r1.nets.size(); ++i) {
    EXPECT_EQ(r1.nets[i].segs.size(), r2.nets[i].segs.size());
  }
}

TEST(RouteChecker, RoutedTreesValidate) {
  const TechNode tech = makeTech28(6);
  Library lib = makeStdCellLib(tech);
  Netlist nl(&lib);
  const NetId clk = nl.addNet("clk");
  const PortId clkPort = nl.addPort("clk", PinDir::kInput, Side::kWest, true);
  nl.connectPort(clk, clkPort);
  Rng rng(21);
  CloudSpec spec;
  spec.prefix = "d";
  spec.numGates = 500;
  spec.numRegs = 100;
  spec.clockNet = clk;
  buildLogicCloud(nl, rng, spec);
  Floorplan fp;
  fp.die = Rect{0, 0, snapUp(umToDbu(70), tech.siteWidth), snapUp(umToDbu(70), tech.rowHeight)};
  fp.rowHeight = tech.rowHeight;
  fp.siteWidth = tech.siteWidth;
  assignPorts(nl, fp.die);
  globalPlace(nl, fp);

  RouteGrid grid(nl, fp.die, tech.beol);
  const RoutingResult routes = routeDesign(nl, grid);
  EXPECT_EQ(routes.unroutedNets, 0);
  EXPECT_EQ(checkRoutedTrees(nl, grid, routes), "");
}

TEST(RouteChecker, DetectsBrokenTree) {
  const TechNode tech = makeTech28(6);
  Library lib = makeStdCellLib(tech);
  Netlist nl(&lib);
  const InstId a = nl.addInstance("a", lib.findCell("INV_X1"));
  const InstId b = nl.addInstance("b", lib.findCell("INV_X1"));
  nl.instance(a).pos = Point{umToDbu(10), umToDbu(10)};
  nl.instance(b).pos = Point{umToDbu(60), umToDbu(60)};
  const NetId n = nl.addNet("n");
  nl.connect(n, a, "Y");
  nl.connect(n, b, "A");

  const Rect die{0, 0, umToDbu(100), umToDbu(100)};
  RouteGrid grid(nl, die, tech.beol);
  RoutingResult routes = routeDesign(nl, grid);
  ASSERT_EQ(checkRoutedTrees(nl, grid, routes), "");

  // Break the tree: drop the last segment.
  auto& segs = routes.nets[static_cast<std::size_t>(n)].segs;
  ASSERT_FALSE(segs.empty());
  segs.pop_back();
  EXPECT_NE(checkRoutedTrees(nl, grid, routes), "");
}

}  // namespace
}  // namespace m3d
