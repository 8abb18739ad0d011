#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "lib/stdcell_factory.hpp"
#include "netlist/logic_cloud.hpp"
#include "place/cg_solver.hpp"
#include "place/diffusion_pick.hpp"
#include "place/legalizer.hpp"
#include "place/placer.hpp"
#include "tech/tech_node.hpp"

namespace m3d {
namespace {

TEST(CgSolver, SolvesSmallSpdSystem) {
  // Two variables coupled by a spring, each anchored:
  //   min (x0-x1)^2 + 2*(x0-0)^2 + 2*(x1-10)^2
  CgSystem sys(2);
  sys.addEdge(0, 1, 2.0);
  sys.addFixed(0, 4.0, 0.0);
  sys.addFixed(1, 4.0, 10.0);
  std::vector<double> x{5.0, 5.0};
  sys.solve(x);
  // Analytic solution: x0 = 10/4 = 2.5, x1 = 7.5.
  EXPECT_NEAR(x[0], 2.5, 1e-4);
  EXPECT_NEAR(x[1], 7.5, 1e-4);
}

TEST(CgSolver, ChainEquilibrium) {
  // Chain of 5 nodes between fixed endpoints at 0 and 100: equal spacing.
  const int n = 5;
  CgSystem sys(n);
  for (int i = 0; i + 1 < n; ++i) sys.addEdge(i, i + 1, 1.0);
  sys.addFixed(0, 1.0, 0.0);
  sys.addFixed(n - 1, 1.0, 100.0);
  std::vector<double> x(n, 50.0);
  sys.solve(x);
  for (int i = 1; i < n; ++i) EXPECT_GT(x[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(i - 1)]);
  EXPECT_NEAR(x[2], 50.0, 1e-3);  // symmetric middle
}

TEST(CgSolver, WarmStartConverges) {
  CgSystem sys(1);
  sys.addFixed(0, 3.0, 42.0);
  std::vector<double> x{41.9};
  const int iters = sys.solve(x);
  EXPECT_NEAR(x[0], 42.0, 1e-6);
  EXPECT_LE(iters, 3);
}

// ---------------------------------------------------------------------------
// Diffusion pick: the tournament tree against the linear scan it replaced.

/// Oracle: the placer's original pick, a left-to-right scan that keeps the
/// first position holding the largest (smallest) coordinate.
std::size_t scanPick(const std::vector<int>& bucket, const std::vector<double>& x,
                     const std::vector<double>& y, DiffusionPick::Dir d) {
  const bool useX = d == DiffusionPick::kMaxX || d == DiffusionPick::kMinX;
  const bool positive = d == DiffusionPick::kMaxX || d == DiffusionPick::kMaxY;
  std::size_t pick = 0;
  double bestCoord = positive ? -1e30 : 1e30;
  for (std::size_t k = 0; k < bucket.size(); ++k) {
    const double coord = useX ? x[static_cast<std::size_t>(bucket[k])]
                              : y[static_cast<std::size_t>(bucket[k])];
    if ((positive && coord > bestCoord) || (!positive && coord < bestCoord)) {
      bestCoord = coord;
      pick = k;
    }
  }
  return pick;
}

// Seeded random buckets whose coordinates come from a handful of values, so
// most picks break ties. Random direction queries interleave with the
// swap-removes diffuse() performs; the tree must name the oracle's position
// every time, down to an empty bucket.
TEST(DiffusionPick, MatchesLinearScanOracleUnderTiesAndSwapRemoves) {
  std::mt19937_64 rng(19);
  DiffusionPick tree;  // reused across buckets, as the placer does
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t numCells = 1 + rng() % 300;
    const int distinct = 1 + static_cast<int>(rng() % 6);
    std::vector<double> x(numCells);
    std::vector<double> y(numCells);
    for (std::size_t c = 0; c < numCells; ++c) {
      x[c] = 0.5 * static_cast<double>(rng() % static_cast<std::uint64_t>(distinct));
      y[c] = -0.25 * static_cast<double>(rng() % static_cast<std::uint64_t>(distinct));
    }
    // A bucket holds a shuffled subset of the cells.
    std::vector<int> bucket(numCells);
    for (std::size_t c = 0; c < numCells; ++c) bucket[c] = static_cast<int>(c);
    std::shuffle(bucket.begin(), bucket.end(), rng);
    bucket.resize(1 + rng() % numCells);

    tree.build(bucket, x, y);
    while (!bucket.empty()) {
      ASSERT_EQ(tree.size(), bucket.size());
      const int queries = 1 + static_cast<int>(rng() % 3);
      std::size_t pos = 0;
      for (int q = 0; q < queries; ++q) {
        const auto d = static_cast<DiffusionPick::Dir>(rng() % 4);
        pos = tree.pick(d);
        ASSERT_EQ(pos, scanPick(bucket, x, y, d))
            << "trial " << trial << ", direction " << d << ", bucket size " << bucket.size();
      }
      // Mostly remove the picked cell, as diffuse() does; sometimes any.
      if (rng() % 4 == 0) pos = rng() % bucket.size();
      bucket[pos] = bucket.back();
      bucket.pop_back();
      tree.swapRemove(pos);
    }
    EXPECT_EQ(tree.size(), 0u);
  }
}

// ---------------------------------------------------------------------------

class PlaceFixture : public ::testing::Test {
 protected:
  PlaceFixture() : tech_(makeTech28(6)), lib_(makeStdCellLib(tech_)), nl_(&lib_) {}

  /// Small register-bounded cloud plus a floorplan.
  void buildCloud(int gates, int regs, Dbu dieUm) {
    const PortId clkPort = nl_.addPort("clk", PinDir::kInput, Side::kWest, true);
    const NetId clk = nl_.addNet("clk");
    nl_.connectPort(clk, clkPort);
    Rng rng(11);
    CloudSpec spec;
    spec.prefix = "c";
    spec.numGates = gates;
    spec.numRegs = regs;
    spec.clockNet = clk;
    buildLogicCloud(nl_, rng, spec);

    fp_.die = Rect{0, 0, snapUp(umToDbu(static_cast<double>(dieUm)), tech_.siteWidth),
                   snapUp(umToDbu(static_cast<double>(dieUm)), tech_.rowHeight)};
    fp_.rowHeight = tech_.rowHeight;
    fp_.siteWidth = tech_.siteWidth;
    assignPorts(nl_, fp_.die);
  }

  TechNode tech_;
  Library lib_;
  Netlist nl_;
  Floorplan fp_;
};

TEST_F(PlaceFixture, LegalizerProducesLegalPlacement) {
  buildCloud(400, 60, 60);
  // Scatter cells deterministically.
  std::mt19937_64 rng(3);
  for (InstId i = 0; i < nl_.numInstances(); ++i) {
    nl_.instance(i).pos = Point{static_cast<Dbu>(rng() % static_cast<std::uint64_t>(fp_.die.xhi)),
                                static_cast<Dbu>(rng() % static_cast<std::uint64_t>(fp_.die.yhi))};
  }
  const LegalizeResult r = legalize(nl_, fp_);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.failedCells, 0);
  EXPECT_EQ(checkLegality(nl_, fp_), "");
}

TEST_F(PlaceFixture, LegalizerAvoidsFullBlockages) {
  buildCloud(300, 50, 60);
  fp_.blockages.push_back({Rect{0, 0, fp_.die.xhi / 2, fp_.die.yhi}, 1.0});
  std::mt19937_64 rng(5);
  for (InstId i = 0; i < nl_.numInstances(); ++i) {
    nl_.instance(i).pos =
        Point{static_cast<Dbu>(rng() % static_cast<std::uint64_t>(fp_.die.xhi)),
              static_cast<Dbu>(rng() % static_cast<std::uint64_t>(fp_.die.yhi))};
  }
  const LegalizeResult r = legalize(nl_, fp_);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(checkLegality(nl_, fp_), "");
  for (InstId i = 0; i < nl_.numInstances(); ++i) {
    EXPECT_GE(nl_.instance(i).pos.x, fp_.die.xhi / 2) << nl_.instance(i).name;
  }
}

TEST_F(PlaceFixture, PartialBlockageReducesCapacityButAllowsCells) {
  buildCloud(200, 40, 60);
  fp_.blockages.push_back({fp_.die, 0.5});  // half the die capacity, striped
  std::mt19937_64 rng(7);
  for (InstId i = 0; i < nl_.numInstances(); ++i) {
    nl_.instance(i).pos =
        Point{static_cast<Dbu>(rng() % static_cast<std::uint64_t>(fp_.die.xhi)),
              static_cast<Dbu>(rng() % static_cast<std::uint64_t>(fp_.die.yhi))};
  }
  const LegalizeResult r = legalize(nl_, fp_);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(checkLegality(nl_, fp_), "");
}

TEST_F(PlaceFixture, GlobalPlaceReducesHpwlVsRandom) {
  buildCloud(600, 100, 80);
  // Random baseline.
  std::mt19937_64 rng(13);
  for (InstId i = 0; i < nl_.numInstances(); ++i) {
    nl_.instance(i).pos =
        Point{static_cast<Dbu>(rng() % static_cast<std::uint64_t>(fp_.die.xhi)),
              static_cast<Dbu>(rng() % static_cast<std::uint64_t>(fp_.die.yhi))};
  }
  legalize(nl_, fp_);
  const std::int64_t randomHpwl = nl_.totalHpwl();

  const PlaceResult pr = globalPlace(nl_, fp_);
  EXPECT_TRUE(pr.success);
  EXPECT_EQ(checkLegality(nl_, fp_), "");
  EXPECT_LT(nl_.totalHpwl(), randomHpwl / 2) << "placer should beat random by >2x";
}

TEST_F(PlaceFixture, PlacementIsDeterministic) {
  buildCloud(300, 60, 70);
  globalPlace(nl_, fp_);
  std::vector<Point> first;
  for (InstId i = 0; i < nl_.numInstances(); ++i) first.push_back(nl_.instance(i).pos);

  // Rebuild the identical problem and re-place.
  Library lib2 = makeStdCellLib(tech_);
  Netlist nl2(&lib2);
  {
    const PortId clkPort = nl2.addPort("clk", PinDir::kInput, Side::kWest, true);
    const NetId clk = nl2.addNet("clk");
    nl2.connectPort(clk, clkPort);
    Rng rng(11);
    CloudSpec spec;
    spec.prefix = "c";
    spec.numGates = 300;
    spec.numRegs = 60;
    spec.clockNet = clk;
    buildLogicCloud(nl2, rng, spec);
    assignPorts(nl2, fp_.die);
  }
  globalPlace(nl2, fp_);
  for (InstId i = 0; i < nl2.numInstances(); ++i) {
    EXPECT_EQ(nl2.instance(i).pos, first[static_cast<std::size_t>(i)]) << i;
  }
}

// Pins the exact placement of one cloud. The value was recorded before the
// diffusion pick became a tree and the x and y solves ran as two chunks; a
// change to the pick's tie-breaking, the solve order or any other placer
// arithmetic moves it. Update it only for a deliberate change of results.
TEST_F(PlaceFixture, PlacementMatchesPinnedPositionHash) {
  constexpr std::uint64_t kPinnedHash = 0x6e7feada2bb3fcadULL;
  buildCloud(300, 60, 70);
  for (const int threads : {1, 4}) {
    for (InstId i = 0; i < nl_.numInstances(); ++i) nl_.instance(i).pos = Point{0, 0};
    PlacerOptions opt;
    opt.numThreads = threads;
    ASSERT_TRUE(globalPlace(nl_, fp_, opt).success);
    std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over every (x, y)
    for (InstId i = 0; i < nl_.numInstances(); ++i) {
      for (const Dbu v : {nl_.instance(i).pos.x, nl_.instance(i).pos.y}) {
        h = (h ^ static_cast<std::uint64_t>(v)) * 0x100000001b3ULL;
      }
    }
    EXPECT_EQ(h, kPinnedHash) << "numThreads=" << threads << ", hash 0x" << std::hex << h;
  }
}

TEST_F(PlaceFixture, FixedMacrosStayPut) {
  buildCloud(200, 40, 80);
  const InstId macro = nl_.addInstance("fixed_block", lib_.findCell("DFF_X1"));
  nl_.instance(macro).pos = Point{umToDbu(30), snapUp(umToDbu(30), tech_.rowHeight)};
  nl_.instance(macro).fixed = true;
  const Point before = nl_.instance(macro).pos;
  globalPlace(nl_, fp_);
  EXPECT_EQ(nl_.instance(macro).pos, before);
}

// PlaceResult::overflow separates a pile from a spread placement, stays in
// [0, 1] and does not depend on the thread count. With maxIters = 0 the
// placer writes no positions back, so its overflow is that of the input.
TEST_F(PlaceFixture, OverflowSeparatesPiledFromPlacedAndIsThreadInvariant) {
  buildCloud(400, 80, 70);
  const Point center = fp_.die.center();
  auto pile = [&] {
    for (InstId i = 0; i < nl_.numInstances(); ++i) nl_.instance(i).pos = center;
  };

  pile();
  PlacerOptions measureOnly;
  measureOnly.maxIters = 0;
  const double piled = globalPlace(nl_, fp_, measureOnly).overflow;
  for (InstId i = 0; i < nl_.numInstances(); ++i) ASSERT_EQ(nl_.instance(i).pos, center);

  double placed[2] = {0.0, 0.0};
  const int threads[2] = {1, 8};
  for (int k = 0; k < 2; ++k) {
    pile();
    PlacerOptions opt;
    opt.numThreads = threads[k];
    const PlaceResult pr = globalPlace(nl_, fp_, opt);
    ASSERT_TRUE(pr.success);
    placed[k] = pr.overflow;
  }
  EXPECT_GE(placed[0], 0.0);
  EXPECT_LE(placed[0], 1.0);
  EXPECT_GT(piled, placed[0]);
  EXPECT_EQ(placed[1], placed[0]) << "overflow drifted at numThreads=8";
}

TEST(Legalizer, FailsGracefullyWhenNoRoom) {
  const TechNode tech = makeTech28(6);
  Library lib = makeStdCellLib(tech);
  Netlist nl(&lib);
  // 100 DFFs into a die that fits only a few.
  for (int i = 0; i < 100; ++i) {
    nl.addInstance("d" + std::to_string(i), lib.findCell("DFF_X2"));
  }
  Floorplan fp;
  fp.die = Rect{0, 0, umToDbu(10), snapUp(umToDbu(2.4), tech.rowHeight)};
  fp.rowHeight = tech.rowHeight;
  fp.siteWidth = tech.siteWidth;
  const LegalizeResult r = legalize(nl, fp);
  EXPECT_FALSE(r.success);
  EXPECT_GT(r.failedCells, 0);
}

}  // namespace
}  // namespace m3d
