// Ablation A6: what cross-camera multiplexing buys.
//
// Tangram's scheduler stitches patches from *all* cameras into shared
// canvases, so a quiet intersection rides along with a busy one.  This bench
// quantifies that by comparing:
//   (a) one shared scheduler over N cameras             (the paper's design)
//   (b) N isolated schedulers, one per camera           (no multiplexing)
// and, orthogonally, shared vs dedicated uplinks at the same aggregate
// bandwidth.  It also demonstrates mixed SLO classes sharing one scheduler
// (the invoker's earliest-deadline rule handles heterogeneous deadlines).

#include <iostream>

#include "common/table.h"
#include "experiments/harness.h"

using namespace tangram;

int main() {
  std::vector<experiments::SceneTrace> traces;
  for (const int idx : {1, 3, 5, 7}) {
    experiments::TraceConfig trace_config;
    traces.push_back(
        experiments::build_trace(video::panda4k_scene(idx), trace_config));
  }
  std::vector<const experiments::SceneTrace*> cameras;
  for (const auto& t : traces) cameras.push_back(&t);

  experiments::EndToEndConfig base;
  base.bandwidth_mbps = 40.0;
  base.slo_s = 1.0;

  std::cout << "Ablation: cross-camera multiplexing (4 cameras, 40 Mbps "
               "aggregate, SLO = 1.0 s)\n\n";
  common::Table table({"Configuration", "Cost ($)", "Violation (%)",
                       "Invocations", "patches/batch p50"});

  // (a) one scheduler over all cameras (the paper's design).
  {
    const auto r = experiments::run_end_to_end(
        cameras, experiments::StrategyKind::kTangram, base);
    table.add_row({"shared scheduler, shared uplink",
                   common::Table::num(r.total_cost, 4),
                   common::Table::num(r.violation_rate() * 100.0, 2),
                   std::to_string(r.invocations),
                   common::Table::num(r.batch_patches.quantile(0.5), 1)});
  }

  // (b) isolated scheduler per camera; each gets a fair bandwidth share.
  {
    double cost = 0.0;
    std::size_t violations = 0, completed = 0, invocations = 0;
    common::Sampler batch_patches;
    for (const auto* cam : cameras) {
      experiments::EndToEndConfig solo = base;
      solo.bandwidth_mbps = base.bandwidth_mbps / cameras.size();
      const auto r = experiments::run_end_to_end(
          {cam}, experiments::StrategyKind::kTangram, solo);
      cost += r.total_cost;
      violations += r.slo_violations;
      completed += r.patches_completed;
      invocations += r.invocations;
      for (const double v : r.batch_patches.values()) batch_patches.add(v);
    }
    table.add_row({"per-camera schedulers, split uplink",
                   common::Table::num(cost, 4),
                   common::Table::num(100.0 * violations / completed, 2),
                   std::to_string(invocations),
                   common::Table::num(batch_patches.quantile(0.5), 1)});
  }

  // (c) shared scheduler but dedicated per-camera uplinks of the same
  // aggregate capacity.
  {
    experiments::EndToEndConfig dedicated = base;
    dedicated.dedicated_uplinks = true;
    dedicated.bandwidth_mbps = base.bandwidth_mbps / cameras.size();
    const auto r = experiments::run_end_to_end(
        cameras, experiments::StrategyKind::kTangram, dedicated);
    table.add_row({"shared scheduler, dedicated uplinks",
                   common::Table::num(r.total_cost, 4),
                   common::Table::num(r.violation_rate() * 100.0, 2),
                   std::to_string(r.invocations),
                   common::Table::num(r.batch_patches.quantile(0.5), 1)});
  }
  table.print();

  // Mixed SLO classes on one scheduler.
  std::cout << "\nMixed SLO classes (cameras 1-2: 0.6 s, cameras 3-4: "
               "1.6 s), one shared scheduler:\n\n";
  experiments::EndToEndConfig mixed = base;
  mixed.per_stream_slo = {0.6, 0.6, 1.6, 1.6};
  const auto r = experiments::run_end_to_end(
      cameras, experiments::StrategyKind::kTangram, mixed);
  std::cout << "cost $" << common::Table::num(r.total_cost, 4)
            << ", violation " << common::Table::num(r.violation_rate() * 100, 2)
            << "%, p99 latency " << common::Table::num(r.e2e_latency.quantile(0.99), 3)
            << " s\n";

  std::cout << "\nExpected: the shared scheduler packs denser batches and "
               "fewer invocations than per-camera isolation at equal "
               "aggregate bandwidth — the multiplexing gain the paper's "
               "shared-canvas design exists to capture.\n";
  return 0;
}
