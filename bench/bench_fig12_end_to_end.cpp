// Reproduces Fig. 12: end-to-end cost and SLO-violation rate of Tangram vs
// Clipper, ELF, and MArk, sweeping the SLO at three uplink bandwidths.
//
// Four cameras (scenes 1, 3, 5, 7 — the paper does not fix a camera count;
// this set keeps the 20 Mbps uplink at the ~60% utilization the SLO sweep
// presumes) stream patches over a shared bandwidth-limited uplink into the
// live scheduler on the discrete-event simulator.  The SLO ranges per
// bandwidth match the paper's x-axes.

#include <iostream>
#include <vector>

#include "common/table.h"
#include "experiments/harness.h"

using namespace tangram;
using experiments::StrategyKind;

int main() {
  // Build traces once; the sweep replays them.
  std::vector<experiments::SceneTrace> traces;
  for (const int idx : {1, 3, 5, 7}) {
    experiments::TraceConfig trace_config;
    traces.push_back(
        experiments::build_trace(video::panda4k_scene(idx), trace_config));
  }
  std::vector<const experiments::SceneTrace*> cameras;
  for (const auto& t : traces) cameras.push_back(&t);

  struct Sweep {
    double bandwidth_mbps;
    std::vector<double> slos;
    double mark_timeout;
  };
  const Sweep sweeps[] = {
      {20.0, {1.0, 1.1, 1.2, 1.3, 1.4}, 0.50},
      {40.0, {0.8, 0.9, 1.0, 1.1, 1.2}, 0.30},
      {80.0, {0.6, 0.7, 0.8, 0.9, 1.0}, 0.15},
  };
  const StrategyKind kinds[] = {StrategyKind::kTangram, StrategyKind::kClipper,
                                StrategyKind::kElf, StrategyKind::kMArk};

  for (const auto& sweep : sweeps) {
    std::cout << "\n=== Bandwidth = " << sweep.bandwidth_mbps << " Mbps ===\n";
    common::Table table({"SLO (s)", "Method", "Cost ($)", "Cost/frame ($)",
                         "SLO Violation (%)", "Invocations"});
    for (const double slo : sweep.slos) {
      for (const auto kind : kinds) {
        experiments::EndToEndConfig config;
        config.bandwidth_mbps = sweep.bandwidth_mbps;
        config.slo_s = slo;
        config.mark.timeout_s = sweep.mark_timeout;
        // In the end-to-end study ELF is the trigger-in-sequence baseline on
        // the same patch stream (no RP over-coverage).
        config.elf.area_expansion = 1.0;
        const auto result =
            experiments::run_end_to_end(cameras, kind, config);
        table.add_row(
            {common::Table::num(slo, 1), experiments::to_string(kind),
             common::Table::num(result.total_cost, 4),
             common::Table::num(result.total_cost / result.eval_frames, 5),
             common::Table::num(result.violation_rate() * 100.0, 2),
             std::to_string(result.invocations)});
      }
    }
    table.print();
  }

  std::cout << "\nPaper reference: Tangram achieves the lowest cost under "
               "every configuration with violations < 5%; savings up to "
               "61.20% vs Clipper, 31.03% vs ELF, 66.35% vs MArk.\n";
  return 0;
}
