/// \file bench_hpwl_ablation.cpp
/// Paper Sec. I scaling claim: F2F stacking shrinks each die dimension by
/// sqrt(2), reducing the maximum half-perimeter wirelength by "almost 30%".
/// We verify both the analytic bound and the measured placed-HPWL /
/// routed-wirelength reductions of the case study.

#include <cmath>

#include "bench_common.hpp"

using namespace m3d;
using namespace m3d::bench;

int main() {
  std::cout << "HPWL ablation bench" << (fastMode() ? " (FAST mode)" : "") << "\n\n";

  const TileConfig cfg = smallTile();
  BenchJson bj("hpwl_ablation");
  bj.config("tile", cfg.name);
  const FlowOutput d2 = runFlow2D(cfg);
  const FlowOutput m3 = runFlowMacro3D(cfg);
  bj.addFlow("2D", d2.metrics);
  bj.addFlow("Macro-3D", m3.metrics);

  const double analytic = (1.0 - 1.0 / std::sqrt(2.0)) * 100.0;
  bj.scalar("analytic_shrink_pct", analytic);

  Table t("Sec. I claim: sqrt(2) footprint shrink cuts max HPWL by ~30%");
  t.setHeader({"quantity", "paper/analytic", "measured"});
  t.addRow({"per-side shrink", "29.3%",
            pct(dbuToUm(m3.fp.die.width()), dbuToUm(d2.fp.die.width()))});
  t.addRow({"max HPWL (die half-perimeter)", "-29.3%",
            pct(dbuToUm(m3.fp.die.halfPerimeter()), dbuToUm(d2.fp.die.halfPerimeter()))});
  t.addRow({"placed HPWL", "(design dependent)",
            pct(m3.metrics.placeHpwlMm, d2.metrics.placeHpwlMm)});
  t.addRow({"routed wirelength", "-11.8% (paper Table II)",
            pct(m3.metrics.totalWirelengthM, d2.metrics.totalWirelengthM)});
  t.addRow({"critical-path wirelength", "-63.0% (paper Table II)",
            pct(m3.metrics.critPathWirelengthMm, d2.metrics.critPathWirelengthMm)});
  std::cout << t.str() << "\n";
  std::cout << "analytic per-side shrink = " << Table::num(analytic, 1) << "%\n";

  // The measured placed-HPWL reduction must fall between the analytic die
  // shrink applied to boundary-limited nets and zero (local nets do not
  // shrink); report where it lands.
  const double measured =
      (d2.metrics.placeHpwlMm - m3.metrics.placeHpwlMm) / d2.metrics.placeHpwlMm * 100.0;
  std::cout << "measured placed-HPWL reduction = " << Table::num(measured, 1)
            << "% (expected between 0% and ~29.3%+macro-adjacency bonus)" << std::endl;
  bj.scalar("measured_hpwl_reduction_pct", measured);

  bj.write();
  return 0;
}
