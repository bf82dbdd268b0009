// Multi-stream scale-out sweep (beyond the paper's single-camera study).
//
// Part 1 — scaling: N cameras register as first-class streams of ONE
// TangramSystem facade and the sweep doubles N from 1 to 64, on a single
// shared invoker shard (the paper's layout) so the scheduler-scaling numbers
// stay comparable across PRs.  Reported per point: scheduler throughput in
// patches per *wall-clock* second (the incremental packing engine is what
// keeps this flat-ish as N grows), p50/p99 queue-to-invoke latency in
// simulated time, SLO-miss rate, and the worst-stream miss rate.
//
// Part 2 — sharding + capacity pools: the mixed-SLO fleet scenario.  A
// tight 0.25 s class shares the fleet with a loose 2 s class under a
// constrained instance pool.  On one shared shard, every tight arrival over
// the loose backlog forces the mixed canvas set out early (Algorithm 2's
// t_remain goes negative), so the loose class is fragmented into a storm of
// small invocations that lands on the platform right before each tight
// dispatch — head-of-line blocking by correlated contention.  One shard per
// SLO class (InvokerPool admission router) keeps the loose backlog off the
// tight class's dispatch path; reserved-concurrency CapacityPools then keep
// the loose class's big batches from occupying every platform instance, so
// the tight shard's invocations start without queueing.
//
// Part 3 — autoscaling: the same reserved-pool fleet under static and
// queue-pressure AutoscalePolicy limits, reporting per-pool instance peaks,
// cold starts, and backlog-depth quantiles — the provisioning axis of the
// BENCH_multistream artifact.
//
// Part 4 — adaptive rebalancing: the drifting-class-mix fleet.  Every
// stream registers with per-patch SLOs (the router can't see the classes up
// front), starts loose, and a quarter of the fleet drifts to the tight
// class mid-trace.  The fixed router leaves everything on one shard —
// exactly the head-of-line pathology Part 2 solves when classes are known
// at registration.  RebalancePolicy::class_mix_drift migrates each stream
// to its observed class's shard once the drift shows up in its patches;
// enabling StealPolicy on top lets an idle shard raid a backlogged peer's
// queue tail.  Reported per cell: tight/loose-class misses, cost, and the
// adaptivity counters (migrations / steals / stolen bytes / ticks).
//
// Every sweep cell is an independent deterministic simulation, so the grid
// runs on a ParallelSweepRunner worker pool (--jobs N; 0 = one worker per
// hardware thread) with results bit-identical to --jobs 1.  Part 1 adds a
// city-scale axis (256 -> 10000 streams, hashed shards, bounded telemetry
// reservoirs); each point reports wall-clock ms and the process peak-RSS
// high-water mark after the cell (VmHWM — monotone across cells, so within
// one run it only identifies which cell first pushed the peak).  The city
// axis is an OVERLOAD axis: it keeps the default 64 instances, so from 1024
// streams on 97-99.8% of patches miss their SLO and its wall numbers time a
// deep platform backlog, not steady-state scheduling.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "common/alloc_probe.h"
#include "common/table.h"
#include "experiments/harness.h"
#include "experiments/parallel_runner.h"
#include "serverless/forecast.h"

// Process-global allocation counter behind the dispatch-path telemetry: the
// zero-allocation dispatch pipeline keeps steady-state batch dispatch off
// the heap, so allocs-per-patch over a whole cell is dominated by start-up
// growth and should shrink PR over PR.  The shared probe's relaxed counter
// is enough — it is only read around a serial cell.
TANGRAM_DEFINE_ALLOC_PROBE_HOOK();

using namespace tangram;

namespace {

std::vector<double> stream_slos(std::size_t n) {
  const double classes[] = {1.0, 0.8, 1.5};
  std::vector<double> slos(n);
  for (std::size_t i = 0; i < n; ++i) slos[i] = classes[i % 3];
  return slos;
}

// One row of the machine-readable perf trajectory (--json): enough to diff
// scheduler and event-engine throughput across PRs without re-parsing the
// human tables.
struct SweepPoint {
  std::string layout;  // "single" | "hashed<K>" (the city axis)
  std::size_t streams = 0;
  std::size_t shards = 0;
  std::size_t patches = 0;
  double wall_ms = 0.0;
  long peak_rss_kb = -1;  // VmHWM after the cell; -1 = probe unavailable
  int jobs = 1;           // worker-pool size the grid ran on
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double patches_per_wall_sec = 0.0;
  std::size_t invocations = 0;
  std::size_t batches = 0;
  double cost_usd = 0.0;
  double miss_rate = 0.0;
  double q2i_p50_s = 0.0;
  double q2i_p99_s = 0.0;
  std::uint64_t cold_starts = 0;
  int fleet_size = 0;
};

// One mixed-SLO fleet configuration of Part 2/3 (layout x autoscale policy),
// with the per-pool provisioning telemetry future PRs diff against.
struct FleetPoint {
  std::string layout;     // "single" | "sharded" | "sharded+reserved"
  std::string autoscale;  // "static" | "queue-pressure"
  std::size_t invocations = 0;
  std::size_t tight_done = 0, tight_miss = 0;
  std::size_t loose_done = 0, loose_miss = 0;
  double cost_usd = 0.0;
  std::uint64_t cold_starts = 0;
  int fleet_size = 0;
  std::vector<serverless::PoolTelemetry> pools;
};

// One cell of the Part 4 drifting-class-mix study: how a rebalance policy
// handles streams whose SLO class is invisible at registration and changes
// mid-trace.
struct RebalancePoint {
  std::string policy;  // "fixed" | "drift" | "drift+steal"
  std::size_t shards = 0;
  std::size_t tight_done = 0, tight_miss = 0;
  std::size_t loose_done = 0, loose_miss = 0;
  double cost_usd = 0.0;
  std::size_t migrations = 0;
  std::size_t steals = 0;
  std::size_t steal_bytes = 0;
  std::uint64_t ticks = 0;
};

// One cell of the Part 5 predictive-provisioning study: an autoscale policy
// (reactive or forecast-driven, with or without pre-warming) against one
// arrival shape of the mixed-SLO fleet.
struct ForecastPoint {
  // "static" | "queue-pressure" | "ewma+prewarm" | "windowed-max+prewarm"
  std::string policy;
  std::string trace;   // "steady" | "step"
  std::size_t invocations = 0;
  std::size_t tight_done = 0, tight_miss = 0;
  std::size_t loose_done = 0, loose_miss = 0;
  double cost_usd = 0.0;
  std::uint64_t cold_starts = 0;
  std::uint64_t prewarm_boots = 0;
  double prewarm_cost = 0.0;
  std::uint64_t autoscale_samples = 0;
  std::size_t horizon = 1;
  bool forecast_active = false;
  std::vector<serverless::PoolTelemetry> pools;
};

// Allocation profile of one serial dispatch-heavy cell (--json
// "dispatch_path"): total operator-new calls per completed patch, the
// cross-PR regression number for the zero-allocation dispatch pipeline.
struct DispatchPathPoint {
  std::size_t streams = 0;
  std::size_t patches = 0;
  std::uint64_t allocs = 0;
  double allocs_per_patch = 0.0;
  double wall_ms = 0.0;
  double patches_per_wall_sec = 0.0;
};

double backlog_quantile(const common::Sampler& depth, double q) {
  return depth.count() ? depth.quantile(q) : 0.0;
}

void write_json(const std::string& path, const std::vector<SweepPoint>& sweep,
                const std::vector<FleetPoint>& fleet,
                const std::vector<RebalancePoint>& rebalance,
                const std::vector<ForecastPoint>& forecast,
                const DispatchPathPoint& dispatch) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_multistream_scale: cannot write " << path << "\n";
    return;
  }
  out << "{\n  \"benchmark\": \"multistream_scale\",\n  \"sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    out << "    {\"layout\": \"" << p.layout
        << "\", \"streams\": " << p.streams << ", \"shards\": " << p.shards
        << ", \"patches\": " << p.patches << ", \"wall_ms\": " << p.wall_ms
        << ", \"peak_rss_kb\": " << p.peak_rss_kb << ", \"jobs\": " << p.jobs
        << ", \"events\": " << p.events
        << ", \"events_per_sec\": " << p.events_per_sec
        << ", \"patches_per_wall_sec\": " << p.patches_per_wall_sec
        << ", \"invocations\": " << p.invocations
        << ", \"batches\": " << p.batches << ", \"cost_usd\": " << p.cost_usd
        << ", \"miss_rate\": " << p.miss_rate
        << ", \"q2i_p50_s\": " << p.q2i_p50_s
        << ", \"q2i_p99_s\": " << p.q2i_p99_s
        << ", \"cold_starts\": " << p.cold_starts
        << ", \"fleet_size\": " << p.fleet_size << "}"
        << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"fleet\": [\n";
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const FleetPoint& f = fleet[i];
    out << "    {\"layout\": \"" << f.layout << "\", \"autoscale\": \""
        << f.autoscale << "\", \"invocations\": " << f.invocations
        << ", \"tight_done\": " << f.tight_done
        << ", \"tight_miss\": " << f.tight_miss
        << ", \"loose_done\": " << f.loose_done
        << ", \"loose_miss\": " << f.loose_miss
        << ", \"cost_usd\": " << f.cost_usd
        << ", \"cold_starts\": " << f.cold_starts
        << ", \"fleet_size\": " << f.fleet_size << ", \"pools\": [";
    for (std::size_t p = 0; p < f.pools.size(); ++p) {
      const serverless::PoolTelemetry& pool = f.pools[p];
      out << (p ? ", " : "") << "{\"name\": \"" << pool.name
          << "\", \"reserved\": " << pool.reserved
          << ", \"burst_limit\": " << pool.burst_limit
          << ", \"final_limit\": " << pool.limit
          << ", \"peak_in_use\": " << pool.peak_in_use
          << ", \"dispatched\": " << pool.dispatched
          << ", \"cold_starts\": " << pool.cold_starts
          << ", \"backlog_p50\": " << backlog_quantile(pool.backlog_depth, 0.5)
          << ", \"backlog_p99\": " << backlog_quantile(pool.backlog_depth, 0.99)
          << ", \"autoscale_ticks\": " << pool.series.size() << "}";
    }
    out << "]}" << (i + 1 < fleet.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"rebalance\": [\n";
  for (std::size_t i = 0; i < rebalance.size(); ++i) {
    const RebalancePoint& r = rebalance[i];
    out << "    {\"policy\": \"" << r.policy
        << "\", \"shards\": " << r.shards
        << ", \"tight_done\": " << r.tight_done
        << ", \"tight_miss\": " << r.tight_miss
        << ", \"loose_done\": " << r.loose_done
        << ", \"loose_miss\": " << r.loose_miss
        << ", \"cost_usd\": " << r.cost_usd
        << ", \"migrations\": " << r.migrations
        << ", \"steals\": " << r.steals
        << ", \"steal_bytes\": " << r.steal_bytes
        << ", \"ticks\": " << r.ticks << "}"
        << (i + 1 < rebalance.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"forecast\": [\n";
  for (std::size_t i = 0; i < forecast.size(); ++i) {
    const ForecastPoint& f = forecast[i];
    out << "    {\"policy\": \"" << f.policy << "\", \"trace\": \"" << f.trace
        << "\", \"invocations\": " << f.invocations
        << ", \"tight_done\": " << f.tight_done
        << ", \"tight_miss\": " << f.tight_miss
        << ", \"loose_done\": " << f.loose_done
        << ", \"loose_miss\": " << f.loose_miss
        << ", \"cost_usd\": " << f.cost_usd
        << ", \"cold_starts\": " << f.cold_starts
        << ", \"prewarm_boots\": " << f.prewarm_boots
        << ", \"prewarm_cost\": " << f.prewarm_cost
        << ", \"autoscale_samples\": " << f.autoscale_samples
        << ", \"horizon\": " << f.horizon << ", \"pools\": [";
    for (std::size_t p = 0; p < f.pools.size(); ++p) {
      const serverless::PoolTelemetry& pool = f.pools[p];
      const auto acc = serverless::forecast::accuracy(
          pool.demand_history, pool.forecast_history, f.horizon);
      out << (p ? ", " : "") << "{\"name\": \"" << pool.name
          << "\", \"samples\": " << pool.demand_history.size()
          << ", \"prewarm_boots\": " << pool.prewarm_boots
          << ", \"prewarm_cost\": " << pool.prewarm_cost
          << ", \"mae\": " << acc.mae << ", \"rmse\": " << acc.rmse
          << ", \"bias\": " << acc.bias << "}";
    }
    out << "]}" << (i + 1 < forecast.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"dispatch_path\": {\"streams\": " << dispatch.streams
      << ", \"patches\": " << dispatch.patches
      << ", \"allocs\": " << dispatch.allocs
      << ", \"allocs_per_patch\": " << dispatch.allocs_per_patch
      << ", \"wall_ms\": " << dispatch.wall_ms
      << ", \"patches_per_wall_sec\": " << dispatch.patches_per_wall_sec
      << "}\n}\n";
  std::cout << "\nwrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  int jobs = 0;                     // 0 = one worker per hardware thread
  std::size_t max_streams = 4096;   // cap on the city axis (10000 is opt-in)
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--max-streams") == 0 && i + 1 < argc) {
      max_streams = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else {
      std::cerr << "usage: bench_multistream_scale [--json <path>] "
                   "[--jobs <n>] [--max-streams <n>]\n";
      return 2;
    }
  }
  const int resolved_jobs = experiments::ParallelSweepRunner::resolve_jobs(jobs);
  // One trace, aliased per stream: every camera sees the same workload, so
  // the sweep isolates scheduler scaling from workload drift.
  experiments::TraceConfig trace_config;
  const auto trace =
      experiments::build_trace(video::panda4k_scene(5), trace_config);

  std::cout << "=== Multi-stream scale-out: 1 -> " << max_streams
            << " streams, one shared TangramSystem per cell, --jobs "
            << resolved_jobs << " ===\n";
  if (max_streams >= 1024)
    std::cout << "(hashed8 rows from 1024 streams on are an overload axis: "
                 "64 instances, almost every patch misses its SLO)\n";
  common::Table table({"Streams", "Layout", "Shards", "Patches",
                       "Wall (ms)", "Peak RSS (MB)", "Patches/s (wall)",
                       "q2i p50 (s)", "q2i p99 (s)", "SLO miss (%)",
                       "Batches", "Cost ($)"});

  // The sweep grid: the comparable 1..64 single-shard series first, then the
  // city axis on hashed shards with bounded (512-sample) telemetry
  // reservoirs so per-sim memory stays fixed as streams grow.  The city
  // axis overloads the fixed 64-instance fleet from 1024 streams on (97%
  // of patches miss there, 99.8% at 4096), so those points measure the
  // platform backlog under overload.
  struct SweepSpec {
    std::size_t streams;
    const char* layout;
  };
  std::vector<SweepSpec> specs;
  for (const std::size_t n : {1u, 2u, 4u, 8u, 16u, 32u, 64u})
    specs.push_back({n, "single"});
  constexpr int kCityShards = 8;
  constexpr std::size_t kCityReservoir = 512;
  for (const std::size_t n : {256u, 1024u, 4096u, 10000u})
    if (n <= max_streams) specs.push_back({n, "hashed8"});

  // All cells share one platform/canvas/slack/seed config, so the offline
  // profiling campaign runs once for the whole grid (bit-identical to
  // per-cell profiling; see TangramSystem::Config::profiled_estimator).
  std::vector<experiments::MultiStreamCell> cells;
  for (const SweepSpec& spec : specs) {
    experiments::MultiStreamCell cell;
    cell.cameras.assign(spec.streams, &trace);
    cell.config.per_stream_slo = stream_slos(spec.streams);
    if (std::strcmp(spec.layout, "single") == 0) {
      // Single shared shard: keeps this scaling series comparable with the
      // pre-pool runs; the sharding study is Part 2 below.
      cell.config.sharding = core::ShardPolicy::single();
    } else {
      cell.config.sharding = core::ShardPolicy::hashed(kCityShards);
      cell.config.telemetry_reservoir = kCityReservoir;
    }
    cells.push_back(std::move(cell));
  }
  const auto shared_profile =
      experiments::profile_estimator(cells.front().config);
  for (auto& cell : cells) cell.config.profiled_estimator = shared_profile;
  const auto outcomes = experiments::run_multistream_cells(cells, jobs);

  std::vector<SweepPoint> sweep;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const experiments::MultiStreamResult& result = outcomes[i].result;
    const double wall_s = outcomes[i].timing.wall_ms / 1000.0;
    const auto q2i = result.pooled_queue_to_invoke();

    SweepPoint point;
    point.layout = specs[i].layout;
    point.streams = specs[i].streams;
    point.shards = result.shards;
    point.patches = result.patches_completed;
    point.wall_ms = outcomes[i].timing.wall_ms;
    point.peak_rss_kb = outcomes[i].timing.peak_rss_kb;
    point.jobs = resolved_jobs;
    point.events = result.events_executed;
    point.events_per_sec =
        static_cast<double>(result.events_executed) / wall_s;
    point.patches_per_wall_sec =
        static_cast<double>(result.patches_completed) / wall_s;
    point.invocations = result.invocations;
    point.batches = result.batches;
    point.cost_usd = result.total_cost;
    point.miss_rate = result.violation_rate();
    point.q2i_p50_s = q2i.quantile(0.50);
    point.q2i_p99_s = q2i.quantile(0.99);
    point.cold_starts = result.cold_starts;
    point.fleet_size = result.fleet_size;
    sweep.push_back(point);

    table.add_row(
        {std::to_string(point.streams), point.layout,
         std::to_string(result.shards),
         std::to_string(result.patches_completed),
         common::Table::num(point.wall_ms, 1),
         point.peak_rss_kb >= 0
             ? common::Table::num(static_cast<double>(point.peak_rss_kb) /
                                      1024.0,
                                  1)
             : "n/a",
         common::Table::num(static_cast<double>(result.patches_completed) /
                                wall_s,
                            0),
         common::Table::num(q2i.quantile(0.50), 4),
         common::Table::num(q2i.quantile(0.99), 4),
         common::Table::num(100.0 * result.violation_rate(), 2),
         std::to_string(result.batches),
         common::Table::num(result.total_cost, 4)});
  }
  table.print();
  // Index of the 64-stream single-shard point (last of the first series).
  const experiments::MultiStreamResult& last_result = outcomes[6].result;

  // --- Dispatch-path allocation telemetry ----------------------------------
  // Serial re-run of the 64-stream single-shard cell with the process-global
  // allocation counter sampled around it: whole-run operator-new calls per
  // completed patch.  Steady-state dispatch is allocation-free (pinned by
  // test_dispatch_alloc), so this number is start-up growth amortized over
  // the cell and falls as recycling coverage widens.
  DispatchPathPoint dispatch_point;
  {
    experiments::MultiStreamCell cell = cells[6];
    const double wall_start_ms = experiments::wall_clock_ms();
    const std::size_t allocs_start = common::alloc_probe_calls();
    const auto result =
        experiments::run_multistream(cell.cameras, cell.config);
    dispatch_point.allocs = common::alloc_probe_calls() - allocs_start;
    dispatch_point.wall_ms = experiments::wall_clock_ms() - wall_start_ms;
    dispatch_point.streams = cell.cameras.size();
    dispatch_point.patches = result.patches_completed;
    dispatch_point.allocs_per_patch =
        result.patches_completed
            ? static_cast<double>(dispatch_point.allocs) /
                  static_cast<double>(result.patches_completed)
            : 0.0;
    dispatch_point.patches_per_wall_sec =
        dispatch_point.wall_ms > 0.0
            ? 1000.0 * static_cast<double>(result.patches_completed) /
                  dispatch_point.wall_ms
            : 0.0;
  }
  std::cout << "\ndispatch path (64 streams, serial): "
            << dispatch_point.allocs << " allocs / "
            << dispatch_point.patches << " patches = "
            << common::Table::num(dispatch_point.allocs_per_patch, 2)
            << " allocs/patch, "
            << common::Table::num(dispatch_point.wall_ms, 1) << " ms\n";

  // Per-stream SLO-miss telemetry at the 64-stream point, by SLO class.
  std::cout << "\n=== Per-stream telemetry at 64 streams (by SLO class) ===\n";
  common::Table per_class({"SLO class (s)", "Streams", "Patches", "Miss (%)",
                           "e2e p99 (s)", "q2i p99 (s)"});
  for (const double slo_class : {0.8, 1.0, 1.5}) {
    std::size_t streams = 0, patches = 0, misses = 0;
    common::Sampler e2e, q2i;
    for (const auto& stream : last_result.streams) {
      if (stream.slo_s != slo_class) continue;
      ++streams;
      patches += stream.patches_completed;
      misses += stream.slo_violations;
      for (const double v : stream.e2e_latency.values()) e2e.add(v);
      for (const double v : stream.queue_to_invoke.values()) q2i.add(v);
    }
    per_class.add_row(
        {common::Table::num(slo_class, 1), std::to_string(streams),
         std::to_string(patches),
         common::Table::num(patches ? 100.0 * static_cast<double>(misses) /
                                          static_cast<double>(patches)
                                    : 0.0,
                            2),
         common::Table::num(e2e.quantile(0.99), 4),
         common::Table::num(q2i.quantile(0.99), 4)});
  }
  per_class.print();

  // --- Part 2: shard + capacity-pool axes — the mixed-SLO fleet ------------
  const double kTightSlo = 0.25;
  const double kLooseSlo = 2.0;
  const std::size_t kFleet = 32;
  const int kFleetInstances = 16;
  const int kTightReserved = 4;  // guaranteed tight-class concurrency
  std::cout << "\n=== Sharding + reserved concurrency: mixed-SLO fleet, "
            << kFleet << " streams (1 tight : 3 loose), " << kFleetInstances
            << " instances ===\n";
  std::vector<const experiments::SceneTrace*> fleet(kFleet, &trace);
  experiments::MultiStreamConfig fleet_config;
  fleet_config.platform.max_instances = kFleetInstances;
  for (std::size_t i = 0; i < kFleet; ++i)
    fleet_config.per_stream_slo.push_back(i % 4 == 0 ? kTightSlo : kLooseSlo);
  // Capacity plan: the tight shard gets kTightReserved guaranteed instances;
  // the loose shard is capped so its big batches can't occupy the reserve.
  fleet_config.pool_for_shard = experiments::reserved_tight_pool_plan(
      /*tight_slo_threshold=*/0.5, kTightReserved,
      /*loose_burst_limit=*/kFleetInstances - kTightReserved);
  // The campaign depends on the latency model / canvas / slack / seed, none
  // of which the fleet changes (max_instances doesn't enter profiling), so
  // the sweep's estimator serves the three run_sharded legs and the Part 3
  // policy grid too.
  fleet_config.profiled_estimator = shared_profile;
  fleet_config.jobs = jobs;
  const auto comparison = experiments::run_sharded(fleet, fleet_config);

  std::vector<FleetPoint> fleet_points;
  const auto record_fleet = [&](const char* layout, const char* policy,
                                const experiments::MultiStreamResult& r) {
    FleetPoint f;
    f.layout = layout;
    f.autoscale = policy;
    f.invocations = r.invocations;
    std::tie(f.tight_done, f.tight_miss) =
        r.class_completions_misses(kTightSlo);
    std::tie(f.loose_done, f.loose_miss) =
        r.class_completions_misses(kLooseSlo);
    f.cost_usd = r.total_cost;
    f.cold_starts = r.cold_starts;
    f.fleet_size = r.fleet_size;
    f.pools = r.pools;
    fleet_points.push_back(std::move(f));
    return fleet_points.size() - 1;
  };

  common::Table shard_table({"Layout", "Shards", "Invocations",
                             "Tight misses", "Loose misses", "Miss (%)",
                             "Cold starts", "Canv/batch", "Cost ($)"});
  const auto add_layout = [&](const char* label,
                              const experiments::MultiStreamResult& r) {
    const auto [tight_done, tight_miss] =
        r.class_completions_misses(kTightSlo);
    const auto [loose_done, loose_miss] =
        r.class_completions_misses(kLooseSlo);
    shard_table.add_row(
        {label, std::to_string(r.shards), std::to_string(r.invocations),
         std::to_string(tight_miss) + "/" + std::to_string(tight_done),
         std::to_string(loose_miss) + "/" + std::to_string(loose_done),
         common::Table::num(100.0 * r.violation_rate(), 2),
         std::to_string(r.cold_starts),
         common::Table::num(r.batch_canvases.mean(), 2),
         common::Table::num(r.total_cost, 4)});
  };
  add_layout("single shard", comparison.single);
  add_layout("per SLO class", comparison.sharded);
  add_layout("per class + reserved", comparison.sharded_reserved);
  shard_table.print();
  record_fleet("single", "static", comparison.single);
  record_fleet("sharded", "static", comparison.sharded);
  record_fleet("sharded+reserved", "static", comparison.sharded_reserved);

  const std::size_t tight_single =
      comparison.single.class_completions_misses(kTightSlo).second;
  const std::size_t tight_sharded =
      comparison.sharded.class_completions_misses(kTightSlo).second;
  const std::size_t tight_reserved =
      comparison.sharded_reserved.class_completions_misses(kTightSlo).second;
  std::cout << "tight-class misses: " << tight_single << " (single) -> "
            << tight_sharded << " (sharded) -> " << tight_reserved
            << " (sharded+reserved)"
            << (tight_reserved <= tight_sharded ? "  [reserve holds]" : "")
            << "\n";

  // Per-pool provisioning telemetry of the reserved layout.
  std::cout << "\n=== Capacity pools (sharded + reserved, static limits) "
               "===\n";
  common::Table pool_table({"Pool", "Reserved", "Burst", "Peak in use",
                            "Dispatched", "Cold starts", "Backlog p50",
                            "Backlog p99"});
  for (const auto& pool : comparison.sharded_reserved.pools)
    pool_table.add_row(
        {pool.name, std::to_string(pool.reserved),
         std::to_string(pool.burst_limit), std::to_string(pool.peak_in_use),
         std::to_string(pool.dispatched), std::to_string(pool.cold_starts),
         common::Table::num(backlog_quantile(pool.backlog_depth, 0.5), 1),
         common::Table::num(backlog_quantile(pool.backlog_depth, 0.99), 1)});
  pool_table.print();

  // --- Part 3: autoscaling axis — per-pool limit dynamics ------------------
  std::cout << "\n=== Autoscaling: reserved-pool fleet under each "
               "AutoscalePolicy ===\n";
  common::Table auto_table({"Policy", "Invocations", "Tight misses",
                            "Miss (%)", "Cold starts", "Pool peaks",
                            "Ticks", "Cost ($)"});
  const auto add_policy_row = [&](const char* name,
                                  const experiments::MultiStreamResult& r) {
    const auto [tight_done, tight_miss] =
        r.class_completions_misses(kTightSlo);
    std::string peaks;
    std::size_t ticks = 0;
    for (const auto& pool : r.pools) {
      if (!peaks.empty()) peaks += " ";
      peaks += pool.name + ":" + std::to_string(pool.peak_in_use);
      ticks = std::max(ticks, pool.series.size());
    }
    auto_table.add_row(
        {name, std::to_string(r.invocations),
         std::to_string(tight_miss) + "/" + std::to_string(tight_done),
         common::Table::num(100.0 * r.violation_rate(), 2),
         std::to_string(r.cold_starts), peaks, std::to_string(ticks),
         common::Table::num(r.total_cost, 4)});
  };
  // The static leg IS comparison.sharded_reserved (already simulated and
  // recorded above); only the moving policy needs a fresh run.
  add_policy_row("static", comparison.sharded_reserved);
  const struct {
    const char* name;
    serverless::AutoscalePolicy policy;
  } policies[] = {
      {"queue-pressure",
       serverless::AutoscalePolicy::queue_pressure(2, 0.5, 1)},
  };
  // Moving policies are independent cells; run them on the worker pool like
  // the Part 1 grid.
  std::vector<experiments::MultiStreamCell> policy_cells;
  for (const auto& entry : policies) {
    experiments::MultiStreamCell cell;
    cell.cameras = fleet;
    cell.config = fleet_config;
    cell.config.sharding = core::ShardPolicy::per_slo_class();
    cell.config.platform.autoscale = entry.policy;
    policy_cells.push_back(std::move(cell));
  }
  const auto policy_outcomes =
      experiments::run_multistream_cells(policy_cells, jobs);
  for (std::size_t i = 0; i < policy_outcomes.size(); ++i) {
    record_fleet("sharded+reserved", policies[i].name,
                 policy_outcomes[i].result);
    add_policy_row(policies[i].name, policy_outcomes[i].result);
  }
  auto_table.print();

  // --- Part 4: adaptive rebalancing — the drifting-class-mix fleet ---------
  std::cout << "\n=== Adaptive rebalancing: drifting class mix, " << kFleet
            << " streams (all register per-patch; 1 in 4 drifts "
            << kLooseSlo << "s -> " << kTightSlo << "s mid-trace) ===\n";
  const double trace_duration_s =
      static_cast<double>(trace.eval_frame_count()) / trace.spec.fps;
  experiments::MultiStreamConfig drift_config;
  drift_config.platform.max_instances = kFleetInstances;
  drift_config.drift_at_s = trace_duration_s * 0.5;
  for (std::size_t i = 0; i < kFleet; ++i) {
    drift_config.per_stream_slo.push_back(kLooseSlo);
    drift_config.drift_to_slo.push_back(i % 4 == 0 ? kTightSlo : 0.0);
  }
  // No capacity plan: shards materialize from OBSERVED classes mid-run, so a
  // registration-keyed pool plan has nothing to key on.  Profiling is
  // unaffected by the drift axis, so the shared campaign still serves.
  drift_config.profiled_estimator = shared_profile;
  drift_config.jobs = jobs;

  core::RebalancePolicy drift_steal = core::RebalancePolicy::class_mix_drift();
  drift_steal.steal.enabled = true;
  const struct {
    const char* name;
    core::RebalancePolicy policy;
  } rebalancers[] = {
      {"fixed", core::RebalancePolicy::none()},
      {"drift", core::RebalancePolicy::class_mix_drift()},
      {"drift+steal", drift_steal},
  };
  std::vector<experiments::MultiStreamCell> rebalance_cells;
  for (const auto& entry : rebalancers) {
    experiments::MultiStreamCell cell;
    cell.cameras = fleet;
    cell.config = drift_config;
    cell.config.rebalance = entry.policy;
    rebalance_cells.push_back(std::move(cell));
  }
  const auto rebalance_outcomes =
      experiments::run_multistream_cells(rebalance_cells, jobs);

  std::vector<RebalancePoint> rebalance_points;
  common::Table rebalance_table({"Policy", "Shards", "Tight misses",
                                 "Loose misses", "Migrations", "Steals",
                                 "Stolen KB", "Ticks", "Cost ($)"});
  for (std::size_t i = 0; i < rebalance_outcomes.size(); ++i) {
    const experiments::MultiStreamResult& r = rebalance_outcomes[i].result;
    RebalancePoint point;
    point.policy = rebalancers[i].name;
    point.shards = r.shards;
    std::tie(point.tight_done, point.tight_miss) =
        r.patch_class_misses(kTightSlo);
    std::tie(point.loose_done, point.loose_miss) =
        r.patch_class_misses(kLooseSlo);
    point.cost_usd = r.total_cost;
    point.migrations = r.rebalance.migrations;
    point.steals = r.rebalance.steals;
    point.steal_bytes = r.rebalance.steal_bytes;
    point.ticks = r.rebalance.ticks;
    rebalance_table.add_row(
        {point.policy, std::to_string(point.shards),
         std::to_string(point.tight_miss) + "/" +
             std::to_string(point.tight_done),
         std::to_string(point.loose_miss) + "/" +
             std::to_string(point.loose_done),
         std::to_string(point.migrations), std::to_string(point.steals),
         common::Table::num(
             static_cast<double>(point.steal_bytes) / 1024.0, 1),
         std::to_string(point.ticks), common::Table::num(point.cost_usd, 4)});
    rebalance_points.push_back(std::move(point));
  }
  rebalance_table.print();
  const RebalancePoint& fixed_pt = rebalance_points[0];
  const RebalancePoint& drift_pt = rebalance_points[1];
  std::cout << "tight-class misses: " << fixed_pt.tight_miss
            << " (fixed) -> " << drift_pt.tight_miss << " (drift) -> "
            << rebalance_points[2].tight_miss << " (drift+steal)"
            << (drift_pt.tight_miss <= fixed_pt.tight_miss &&
                        drift_pt.cost_usd <= fixed_pt.cost_usd + 1e-9
                    ? "  [rebalancing holds]"
                    : "")
            << "\n";

  // --- Part 5: predictive provisioning — forecast + pre-warm axis ----------
  // The Part 2/3 reserved-pool fleet under forecast-driven AutoscalePolicy
  // variants, on two arrival shapes: "steady" (every stream from t=0 — the
  // comparable Part 2/3 scenario) and "step" (wave -> valley -> wave via
  // per_stream_start_s with a short keepalive, so the fleet cools in the
  // valley and only a pre-warming policy can pay cold-start setup before the
  // second wave lands).  Forecast accuracy (MAE/RMSE/bias at the policy's
  // horizon) comes from the per-pool demand/forecast series.
  std::cout << "\n=== Predictive provisioning: forecast + pre-warm over the "
               "reserved-pool fleet ===\n";
  const struct {
    const char* name;
    serverless::AutoscalePolicy policy;
  } forecast_policies[] = {
      {"static", serverless::AutoscalePolicy::static_policy()},
      {"queue-pressure", serverless::AutoscalePolicy::queue_pressure(2, 0.5, 1)},
      {"ewma+prewarm",
       [] {
         auto p = serverless::AutoscalePolicy::ewma(0.5, 1, 0.5, 0);
         p.prewarm = true;
         return p;
       }()},
      {"windowed-max+prewarm",
       [] {
         auto p = serverless::AutoscalePolicy::windowed_max(24, 0.5, 0);
         p.prewarm = true;
         return p;
       }()},
  };
  // The step shape: the first half of the fleet runs the whole trace from
  // t=0; the second half arrives together after the first wave has drained
  // (a valley long enough for a 4 s keepalive to cool every instance).
  std::vector<double> step_starts(kFleet, trace_duration_s + 6.0);
  for (std::size_t i = 0; i < kFleet / 2; ++i) step_starts[i] = 0.0;
  const struct {
    const char* name;
    std::vector<double> starts;
    double keepalive_s;
  } forecast_traces[] = {
      {"steady", {}, fleet_config.platform.keepalive_s},
      {"step", step_starts, 4.0},
  };

  std::vector<experiments::MultiStreamCell> forecast_cells;
  for (const auto& trace_leg : forecast_traces) {
    for (const auto& entry : forecast_policies) {
      experiments::MultiStreamCell cell;
      cell.cameras = fleet;
      cell.config = fleet_config;
      cell.config.sharding = core::ShardPolicy::per_slo_class();
      cell.config.platform.autoscale = entry.policy;
      cell.config.per_stream_start_s = trace_leg.starts;
      cell.config.platform.keepalive_s = trace_leg.keepalive_s;
      // Same reserve/cap bands as Part 2/3, plus forecast headroom on the
      // tight pool only: the tight limit pads above the point forecast
      // (record-breaking bursts would otherwise eat a throttle once each),
      // while the loose pool stays exactly at its forecast so its backlog
      // cannot crowd the fleet during wave transitions.
      cell.config.pool_for_shard = experiments::reserved_tight_pool_plan(
          0.5, kTightReserved, kFleetInstances - kTightReserved,
          /*tight_forecast_headroom=*/4);
      forecast_cells.push_back(std::move(cell));
    }
  }
  const auto forecast_outcomes =
      experiments::run_multistream_cells(forecast_cells, jobs);

  std::vector<ForecastPoint> forecast_points;
  common::Table forecast_table({"Trace", "Policy", "Tight misses",
                                "Loose misses", "Cold starts", "Prewarm boots",
                                "Prewarm ($)", "MAE", "Cost ($)"});
  constexpr std::size_t kForecastPolicies = std::size(forecast_policies);
  for (std::size_t i = 0; i < forecast_outcomes.size(); ++i) {
    const experiments::MultiStreamResult& r = forecast_outcomes[i].result;
    const auto& trace_leg = forecast_traces[i / kForecastPolicies];
    const auto& policy_entry = forecast_policies[i % kForecastPolicies];
    ForecastPoint point;
    point.policy = policy_entry.name;
    point.trace = trace_leg.name;
    point.invocations = r.invocations;
    std::tie(point.tight_done, point.tight_miss) =
        r.class_completions_misses(kTightSlo);
    std::tie(point.loose_done, point.loose_miss) =
        r.class_completions_misses(kLooseSlo);
    point.cost_usd = r.total_cost;
    point.cold_starts = r.cold_starts;
    point.prewarm_boots = r.prewarm_boots;
    point.prewarm_cost = r.prewarm_cost;
    point.autoscale_samples = r.autoscale_samples;
    point.horizon = r.forecast_horizon;
    point.forecast_active = r.forecast_active;
    point.pools = r.pools;

    // Fleet-level forecast error: sample-weighted MAE across the pools.
    double abs_err_sum = 0.0;
    std::size_t err_samples = 0;
    for (const auto& pool : point.pools) {
      const auto acc = serverless::forecast::accuracy(
          pool.demand_history, pool.forecast_history, point.horizon);
      abs_err_sum += acc.mae * static_cast<double>(acc.samples);
      err_samples += acc.samples;
    }
    forecast_table.add_row(
        {point.trace, point.policy,
         std::to_string(point.tight_miss) + "/" +
             std::to_string(point.tight_done),
         std::to_string(point.loose_miss) + "/" +
             std::to_string(point.loose_done),
         std::to_string(point.cold_starts),
         std::to_string(point.prewarm_boots),
         common::Table::num(point.prewarm_cost, 6),
         point.forecast_active
             ? common::Table::num(
                   err_samples ? abs_err_sum /
                                     static_cast<double>(err_samples)
                               : 0.0,
                   3)
             : "n/a",
         common::Table::num(point.cost_usd, 4)});
    forecast_points.push_back(std::move(point));
  }
  forecast_table.print();

  // Headline: on each trace, the best forecast+pre-warm policy (fewest tight
  // misses, cost as tiebreak) against the static-reserved baseline and the
  // reactive queue-pressure cost bar.
  for (std::size_t leg = 0; leg < forecast_outcomes.size() / kForecastPolicies;
       ++leg) {
    const std::size_t base = leg * kForecastPolicies;
    const ForecastPoint& static_pt = forecast_points[base];
    const ForecastPoint& reactive_pt = forecast_points[base + 1];
    const ForecastPoint* best = &forecast_points[base + 2];
    for (std::size_t p = 3; p < kForecastPolicies; ++p) {
      const ForecastPoint& cand = forecast_points[base + p];
      if (cand.tight_miss < best->tight_miss ||
          (cand.tight_miss == best->tight_miss &&
           cand.cost_usd < best->cost_usd))
        best = &cand;
    }
    std::cout << static_pt.trace << " trace: tight misses "
              << static_pt.tight_miss << " (static) / "
              << reactive_pt.tight_miss << " (queue-pressure) -> "
              << best->tight_miss << " (" << best->policy << "), cost $"
              << common::Table::num(best->cost_usd, 4) << " vs $"
              << common::Table::num(reactive_pt.cost_usd, 4)
              << " (queue-pressure)"
              << (best->tight_miss <= static_pt.tight_miss &&
                          best->cost_usd <= reactive_pt.cost_usd + 1e-9
                      ? "  [forecast holds]"
                      : "")
              << "\n";
  }

  if (!json_path.empty())
    write_json(json_path, sweep, fleet_points, rebalance_points,
               forecast_points, dispatch_point);
  return 0;
}
