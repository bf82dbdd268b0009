// Municipal surveillance: ten 4K cameras (the full PANDA4K-style catalogue)
// share one metro uplink and one serverless deployment.  The example
// contrasts Tangram's stitching scheduler with a conventional batch-size +
// timeout server (MArk) at the same 1-second SLO, the workload the paper's
// introduction motivates.

#include <iostream>

#include "common/table.h"
#include "experiments/harness.h"

using namespace tangram;

int main() {
  std::cout << "building edge traces for 10 cameras (GMM + partitioning; "
               "takes a few seconds)...\n";
  std::vector<experiments::SceneTrace> traces;
  for (const auto& spec : video::panda4k_catalog()) {
    experiments::TraceConfig edge;
    traces.push_back(experiments::build_trace(spec, edge));
  }
  std::vector<const experiments::SceneTrace*> cameras;
  for (const auto& t : traces) cameras.push_back(&t);

  experiments::EndToEndConfig config;
  config.bandwidth_mbps = 80.0;  // shared metro uplink
  config.slo_s = 1.0;

  common::Table table({"Scheduler", "Cost ($)", "$/hour of video",
                       "Violation (%)", "Invocations", "p99 latency (s)"});
  for (const auto kind : {experiments::StrategyKind::kTangram,
                          experiments::StrategyKind::kMArk,
                          experiments::StrategyKind::kElf}) {
    const auto r = experiments::run_end_to_end(cameras, kind, config);
    const double hours = r.makespan_s / 3600.0;
    table.add_row({experiments::to_string(kind),
                   common::Table::num(r.total_cost, 4),
                   common::Table::num(r.total_cost / hours, 3),
                   common::Table::num(r.violation_rate() * 100.0, 2),
                   std::to_string(r.invocations),
                   common::Table::num(r.e2e_latency.quantile(0.99), 3)});
  }

  std::cout << "\n--- 10-camera city deployment, 80 Mbps uplink, SLO 1 s ---\n";
  table.print();
  std::cout << "\nTangram batches patches from all ten cameras into shared "
               "canvases, so quiet intersections ride along with busy ones "
               "instead of paying for their own invocations.\n";
  return 0;
}
