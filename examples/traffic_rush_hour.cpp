// Traffic monitoring through a rush hour: the workload triples and then
// subsides, the situation where fixed IaaS provisioning either violates
// SLOs (under-provisioned) or burns money (over-provisioned).  The example
// shows the serverless platform scaling with Tangram's batches and compares
// against a fixed two-instance IaaS deployment on the same arrival stream.

#include <iostream>

#include "common/table.h"
#include "experiments/harness.h"
#include "serverless/cost.h"

using namespace tangram;

namespace {

// Three phases of one intersection camera: calm -> rush hour -> calm.
std::vector<experiments::SceneTrace> build_phases() {
  std::vector<experiments::SceneTrace> phases;
  const int populations[] = {80, 260, 100};
  for (int i = 0; i < 3; ++i) {
    video::SceneSpec spec = video::panda4k_scene(3);  // Xili Crossroad
    spec.seed += static_cast<std::uint64_t>(i) * 101;
    spec.base_population = populations[i];
    spec.roi_proportion = 0.05 * populations[i] / 393.0 + 0.03;
    spec.total_frames = 160;  // 100 training + 60 evaluation seconds
    experiments::TraceConfig edge;
    phases.push_back(experiments::build_trace(spec, edge));
  }
  return phases;
}

}  // namespace

int main() {
  std::cout << "simulating an intersection camera through rush hour...\n";
  const auto phases = build_phases();
  const char* names[] = {"06:00 calm", "08:00 rush", "10:00 calm"};

  common::Table table({"Phase", "patches/s", "Serverless cost ($)",
                       "Violation (%)", "Instances used",
                       "Fixed 2-GPU IaaS ($)"});

  for (int i = 0; i < 3; ++i) {
    experiments::EndToEndConfig config;
    config.bandwidth_mbps = 80.0;
    config.slo_s = 1.0;
    const auto r = experiments::run_end_to_end(
        {&phases[static_cast<std::size_t>(i)]},
        experiments::StrategyKind::kTangram, config);

    // Cost of keeping two function-sized IaaS instances up for the same
    // wall-clock span, whether or not they are busy.
    const double iaas_cost =
        2.0 * r.makespan_s *
        serverless::resource_rate(config.platform.resources);

    table.add_row(
        {names[i],
         common::Table::num(r.patches_completed / r.makespan_s, 1),
         common::Table::num(r.total_cost, 4),
         common::Table::num(r.violation_rate() * 100.0, 2),
         std::to_string(r.fleet_size),
         common::Table::num(iaas_cost, 4)});
  }

  std::cout << "\n--- rush-hour elasticity (60 s per phase, SLO 1 s) ---\n";
  table.print();
  std::cout << "\nServerless pay-per-use tracks the load curve; the fixed "
               "deployment pays the same in every phase and would need to be "
               "sized for the rush-hour peak.\n";
  return 0;
}
