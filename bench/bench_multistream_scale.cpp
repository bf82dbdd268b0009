// Multi-stream scale-out sweep (beyond the paper's single-camera study).
//
// Part 1 — scaling: N cameras register as first-class streams of ONE
// TangramSystem facade and the sweep doubles N from 1 to 64, on a single
// shared invoker shard (the paper's layout) so the scheduler-scaling numbers
// stay comparable from one version to the next.  Reported per point, all in
// simulated time: p50/p99 queue-to-invoke latency, SLO-miss rate, batches
// and cost, plus the per-SLO-class miss rates at 64 streams.
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
// cold starts, and backlog-depth quantiles.
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
// Part 5 — predictive provisioning: forecast-driven autoscaling with
// pre-warming on two arrival shapes of the Part 2/3 fleet.
//
// Every sweep cell is an independent deterministic simulation, run one
// after another on the calling thread.  stdout and --json carry simulation
// results only, so both are byte-identical from run to run; ctest diffs them
// against bench/expected/ (label `outputs`).  Wall-clock throughput, peak
// RSS and allocations per patch are measured by benchmark/ under
// BENCHMARK.json's bounds.  Part 1 adds a city-scale axis (256 -> 10000
// streams, hashed shards, bounded telemetry reservoirs).  The city axis is
// an OVERLOAD axis: it keeps the default 64 instances, so from 1024 streams
// on 97-99.8% of patches miss their SLO.

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "common/table.h"
#include "experiments/harness.h"
#include "serverless/forecast.h"

using namespace tangram;
using experiments::MultiStreamConfig;
using experiments::MultiStreamResult;
using experiments::SceneTrace;

namespace {

constexpr double kTightSlo = 0.25;
constexpr double kLooseSlo = 2.0;

std::vector<double> stream_slos(std::size_t n) {
  const double classes[] = {1.0, 0.8, 1.5};
  std::vector<double> slos(n);
  for (std::size_t i = 0; i < n; ++i) slos[i] = classes[i % 3];
  return slos;
}

double backlog_quantile(const common::Sampler& depth, double q) {
  return depth.count() ? depth.quantile(q) : 0.0;
}

// "misses/completions" of one (completions, misses) tally.
std::string misses_of(const std::pair<std::size_t, std::size_t>& tally) {
  return std::to_string(tally.second) + "/" + std::to_string(tally.first);
}

std::size_t tight_misses(const MultiStreamResult& r) {
  return r.class_completions_misses(kTightSlo).second;
}

// The --json document: one array per part, each row appended straight from
// the result its cell just produced.
struct JsonDoc {
  std::ostringstream sweep, fleet, rebalance, forecast;

  // Starts the next row of `rows`: the previous row's separator, the indent.
  static std::ostream& row(std::ostringstream& rows) {
    rows << (rows.tellp() > 0 ? ",\n" : "") << "    ";
    return rows;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "bench_multistream_scale: cannot write " << path << "\n";
      return;
    }
    out << "{\n  \"benchmark\": \"multistream_scale\",\n  \"sweep\": [\n"
        << sweep.str() << "\n  ],\n  \"fleet\": [\n"
        << fleet.str() << "\n  ],\n  \"rebalance\": [\n"
        << rebalance.str() << "\n  ],\n  \"forecast\": [\n"
        << forecast.str() << "\n  ]\n}\n";
    std::cout << "\nwrote " << path << "\n";
  }
};

// Appends one Parts 2-3 "fleet" row: a shard layout under an autoscale
// policy, with per-pool provisioning telemetry.
void fleet_row(JsonDoc& json, const char* layout, const char* autoscale,
               const MultiStreamResult& r) {
  const auto [tight_done, tight_miss] = r.class_completions_misses(kTightSlo);
  const auto [loose_done, loose_miss] = r.class_completions_misses(kLooseSlo);
  std::ostream& out = JsonDoc::row(json.fleet);
  out << "{\"layout\": \"" << layout << "\", \"autoscale\": \"" << autoscale
      << "\", \"invocations\": " << r.invocations
      << ", \"tight_done\": " << tight_done
      << ", \"tight_miss\": " << tight_miss
      << ", \"loose_done\": " << loose_done
      << ", \"loose_miss\": " << loose_miss
      << ", \"cost_usd\": " << r.total_cost
      << ", \"cold_starts\": " << r.cold_starts
      << ", \"fleet_size\": " << r.fleet_size << ", \"pools\": [";
  for (std::size_t p = 0; p < r.pools.size(); ++p) {
    const serverless::PoolTelemetry& pool = r.pools[p];
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
  out << "]}";
}

// Runs `count` cells of `cameras`, cell i on `base` with tweak(i, config)
// applied; results come back in cell order.
std::vector<MultiStreamResult> run_tweaked(
    const std::vector<const SceneTrace*>& cameras,
    const MultiStreamConfig& base, std::size_t count,
    const std::function<void(std::size_t, MultiStreamConfig&)>& tweak) {
  std::vector<MultiStreamResult> results;
  for (std::size_t i = 0; i < count; ++i) {
    MultiStreamConfig config = base;
    tweak(i, config);
    results.push_back(experiments::run_multistream(cameras, config));
  }
  return results;
}

// Parses a whole non-negative decimal number (no sign, no blanks, no
// trailing characters, no overflow) into `out`; false leaves `out` as is.
bool parse_count(std::string_view text, std::size_t& out) {
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, out);
  return error == std::errc{} && stop == end;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::size_t max_streams = 4096;  // cap on the city axis (10000 is opt-in)
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--max-streams") == 0 && i + 1 < argc &&
               parse_count(argv[i + 1], max_streams)) {
      ++i;
    } else {
      std::cerr << "usage: bench_multistream_scale [--json <path>] "
                   "[--max-streams <n>]\n";
      return 2;
    }
  }
  JsonDoc json;
  // One trace, aliased per stream: every camera sees the same workload, so
  // the sweep isolates scheduler scaling from workload drift.
  experiments::TraceConfig trace_config;
  const auto trace =
      experiments::build_trace(video::panda4k_scene(5), trace_config);

  std::cout << "=== Multi-stream scale-out: 1 -> " << max_streams
            << " streams, one shared TangramSystem per cell ===\n";
  if (max_streams >= 1024)
    std::cout << "(hashed8 rows from 1024 streams on are an overload axis: "
                 "64 instances, almost every patch misses its SLO)\n";
  common::Table table({"Streams", "Layout", "Shards", "Patches",
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

  // All cells share the default platform/canvas/slack/seed config, so the
  // offline profiling campaign runs once for the whole grid (bit-identical to
  // per-cell profiling; see TangramSystem::Config::profiled_estimator).
  const auto shared_profile =
      experiments::profile_estimator(MultiStreamConfig{});
  std::vector<MultiStreamResult> sweep;
  for (const SweepSpec& spec : specs) {
    MultiStreamConfig config;
    config.per_stream_slo = stream_slos(spec.streams);
    if (std::strcmp(spec.layout, "single") == 0) {
      // Single shared shard: keeps this scaling series comparable with the
      // pre-pool runs; the sharding study is Part 2 below.
      config.sharding = core::ShardPolicy::single();
    } else {
      config.sharding = core::ShardPolicy::hashed(kCityShards);
      config.telemetry_reservoir = kCityReservoir;
    }
    config.profiled_estimator = shared_profile;
    const std::vector<const SceneTrace*> cameras(spec.streams, &trace);
    const MultiStreamResult& r =
        sweep.emplace_back(experiments::run_multistream(cameras, config));
    const auto q2i = r.pooled_queue_to_invoke();
    table.add_row({std::to_string(spec.streams), spec.layout,
                   std::to_string(r.shards),
                   std::to_string(r.patches_completed),
                   common::Table::num(q2i.quantile(0.50), 4),
                   common::Table::num(q2i.quantile(0.99), 4),
                   common::Table::num(100.0 * r.violation_rate(), 2),
                   std::to_string(r.batches),
                   common::Table::num(r.total_cost, 4)});
    JsonDoc::row(json.sweep)
        << "{\"layout\": \"" << spec.layout
        << "\", \"streams\": " << spec.streams
        << ", \"shards\": " << r.shards
        << ", \"patches\": " << r.patches_completed
        << ", \"events\": " << r.events_executed
        << ", \"invocations\": " << r.invocations
        << ", \"batches\": " << r.batches << ", \"cost_usd\": " << r.total_cost
        << ", \"miss_rate\": " << r.violation_rate()
        << ", \"q2i_p50_s\": " << q2i.quantile(0.50)
        << ", \"q2i_p99_s\": " << q2i.quantile(0.99)
        << ", \"cold_starts\": " << r.cold_starts
        << ", \"fleet_size\": " << r.fleet_size << "}";
  }
  table.print();

  // Per-stream SLO-miss telemetry at the 64-stream point (the last of the
  // single-shard series), by SLO class.
  std::cout << "\n=== Per-stream telemetry at 64 streams (by SLO class) ===\n";
  common::Table per_class({"SLO class (s)", "Streams", "Patches", "Miss (%)",
                           "e2e p99 (s)", "q2i p99 (s)"});
  for (const double slo_class : {0.8, 1.0, 1.5}) {
    std::size_t streams = 0, patches = 0, misses = 0;
    common::Sampler e2e, q2i;
    for (const auto& stream : sweep[6].streams) {
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
  const std::size_t kFleet = 32;
  const int kFleetInstances = 16;
  const int kTightReserved = 4;  // guaranteed tight-class concurrency
  std::cout << "\n=== Sharding + reserved concurrency: mixed-SLO fleet, "
            << kFleet << " streams (1 tight : 3 loose), " << kFleetInstances
            << " instances ===\n";
  const std::vector<const SceneTrace*> fleet(kFleet, &trace);
  MultiStreamConfig fleet_config;
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
  // the sweep's estimator serves the three run_sharded legs and every later
  // part too.
  fleet_config.profiled_estimator = shared_profile;
  const auto comparison = experiments::run_sharded(fleet, fleet_config);

  common::Table shard_table({"Layout", "Shards", "Invocations",
                             "Tight misses", "Loose misses", "Miss (%)",
                             "Cold starts", "Canv/batch", "Cost ($)"});
  const auto add_layout = [&](const char* label, const char* layout,
                              const MultiStreamResult& r) {
    shard_table.add_row(
        {label, std::to_string(r.shards), std::to_string(r.invocations),
         misses_of(r.class_completions_misses(kTightSlo)),
         misses_of(r.class_completions_misses(kLooseSlo)),
         common::Table::num(100.0 * r.violation_rate(), 2),
         std::to_string(r.cold_starts),
         common::Table::num(r.batch_canvases.mean(), 2),
         common::Table::num(r.total_cost, 4)});
    fleet_row(json, layout, "static", r);
  };
  add_layout("single shard", "single", comparison.single);
  add_layout("per SLO class", "sharded", comparison.sharded);
  add_layout("per class + reserved", "sharded+reserved",
             comparison.sharded_reserved);
  shard_table.print();

  const std::size_t tight_sharded = tight_misses(comparison.sharded);
  const std::size_t tight_reserved = tight_misses(comparison.sharded_reserved);
  std::cout << "tight-class misses: " << tight_misses(comparison.single)
            << " (single) -> " << tight_sharded << " (sharded) -> "
            << tight_reserved << " (sharded+reserved)"
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
                                  const MultiStreamResult& r) {
    std::string peaks;
    std::size_t ticks = 0;
    for (const auto& pool : r.pools) {
      if (!peaks.empty()) peaks += " ";
      peaks += pool.name + ":" + std::to_string(pool.peak_in_use);
      ticks = std::max(ticks, pool.series.size());
    }
    auto_table.add_row(
        {name, std::to_string(r.invocations),
         misses_of(r.class_completions_misses(kTightSlo)),
         common::Table::num(100.0 * r.violation_rate(), 2),
         std::to_string(r.cold_starts), peaks, std::to_string(ticks),
         common::Table::num(r.total_cost, 4)});
  };
  // The static leg IS comparison.sharded_reserved (already simulated and
  // recorded above); only the moving policy needs a fresh run.
  add_policy_row("static", comparison.sharded_reserved);
  MultiStreamConfig queue_pressure_config = fleet_config;
  queue_pressure_config.sharding = core::ShardPolicy::per_slo_class();
  queue_pressure_config.platform.autoscale =
      serverless::AutoscalePolicy::queue_pressure(2, 0.5, 1);
  const auto queue_pressure =
      experiments::run_multistream(fleet, queue_pressure_config);
  fleet_row(json, "sharded+reserved", "queue-pressure", queue_pressure);
  add_policy_row("queue-pressure", queue_pressure);
  auto_table.print();

  // --- Part 4: adaptive rebalancing — the drifting-class-mix fleet ---------
  std::cout << "\n=== Adaptive rebalancing: drifting class mix, " << kFleet
            << " streams (all register per-patch; 1 in 4 drifts "
            << kLooseSlo << "s -> " << kTightSlo << "s mid-trace) ===\n";
  const double trace_duration_s =
      static_cast<double>(trace.eval_frame_count()) / trace.spec.fps;
  MultiStreamConfig drift_config;
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
  const auto rebalance_runs =
      run_tweaked(fleet, drift_config, std::size(rebalancers),
                  [&](std::size_t i, MultiStreamConfig& config) {
                    config.rebalance = rebalancers[i].policy;
                  });

  common::Table rebalance_table({"Policy", "Shards", "Tight misses",
                                 "Loose misses", "Migrations", "Steals",
                                 "Stolen KB", "Ticks", "Cost ($)"});
  std::vector<std::size_t> drift_tight;
  for (std::size_t i = 0; i < rebalance_runs.size(); ++i) {
    const MultiStreamResult& r = rebalance_runs[i];
    const auto tight = r.patch_class_misses(kTightSlo);
    const auto loose = r.patch_class_misses(kLooseSlo);
    drift_tight.push_back(tight.second);
    rebalance_table.add_row(
        {rebalancers[i].name, std::to_string(r.shards), misses_of(tight),
         misses_of(loose), std::to_string(r.rebalance.migrations),
         std::to_string(r.rebalance.steals),
         common::Table::num(
             static_cast<double>(r.rebalance.steal_bytes) / 1024.0, 1),
         std::to_string(r.rebalance.ticks),
         common::Table::num(r.total_cost, 4)});
    JsonDoc::row(json.rebalance)
        << "{\"policy\": \"" << rebalancers[i].name
        << "\", \"shards\": " << r.shards << ", \"tight_done\": " << tight.first
        << ", \"tight_miss\": " << tight.second
        << ", \"loose_done\": " << loose.first
        << ", \"loose_miss\": " << loose.second
        << ", \"cost_usd\": " << r.total_cost
        << ", \"migrations\": " << r.rebalance.migrations
        << ", \"steals\": " << r.rebalance.steals
        << ", \"steal_bytes\": " << r.rebalance.steal_bytes
        << ", \"ticks\": " << r.rebalance.ticks << "}";
  }
  rebalance_table.print();
  std::cout << "tight-class misses: " << drift_tight[0] << " (fixed) -> "
            << drift_tight[1] << " (drift) -> " << drift_tight[2]
            << " (drift+steal)"
            << (drift_tight[1] <= drift_tight[0] &&
                        rebalance_runs[1].total_cost <=
                            rebalance_runs[0].total_cost + 1e-9
                    ? "  [rebalancing holds]"
                    : "")
            << "\n";

  // --- Part 5: predictive provisioning — forecast + pre-warm axis ----------
  // The Part 2/3 reserved-pool fleet under forecast-driven AutoscalePolicy
  // variants, on two arrival shapes: "steady" (every stream from t=0 — the
  // comparable Part 2/3 scenario) and "step" (wave -> valley -> wave via
  // per_stream_start_s with a short keepalive, so the fleet cools in the
  // valley and only a pre-warming policy can pay cold-start setup before the
  // second wave lands).  Forecast accuracy (MAE/RMSE/bias one tick ahead)
  // comes from the per-pool demand/forecast series.
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
         auto p = serverless::AutoscalePolicy::ewma(0.5, 0.5, 0);
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
  constexpr std::size_t kForecastPolicies = std::size(forecast_policies);

  // Same reserve/cap bands as Part 2/3, plus forecast headroom on the tight
  // pool only: the tight limit pads above the point forecast (record-breaking
  // bursts would otherwise eat a throttle once each), while the loose pool
  // stays exactly at its forecast so its backlog cannot crowd the fleet
  // during wave transitions.
  MultiStreamConfig forecast_config = fleet_config;
  forecast_config.sharding = core::ShardPolicy::per_slo_class();
  forecast_config.pool_for_shard = experiments::reserved_tight_pool_plan(
      0.5, kTightReserved, kFleetInstances - kTightReserved,
      /*tight_forecast_headroom=*/4);
  const auto forecast_runs = run_tweaked(
      fleet, forecast_config, std::size(forecast_traces) * kForecastPolicies,
      [&](std::size_t i, MultiStreamConfig& config) {
        const auto& trace_leg = forecast_traces[i / kForecastPolicies];
        config.platform.autoscale =
            forecast_policies[i % kForecastPolicies].policy;
        config.per_stream_start_s = trace_leg.starts;
        config.platform.keepalive_s = trace_leg.keepalive_s;
      });

  common::Table forecast_table({"Trace", "Policy", "Tight misses",
                                "Loose misses", "Cold starts", "Prewarm boots",
                                "Prewarm ($)", "MAE", "Cost ($)"});
  for (std::size_t i = 0; i < forecast_runs.size(); ++i) {
    const MultiStreamResult& r = forecast_runs[i];
    const char* trace_name = forecast_traces[i / kForecastPolicies].name;
    const char* policy_name = forecast_policies[i % kForecastPolicies].name;
    const auto tight = r.class_completions_misses(kTightSlo);
    const auto loose = r.class_completions_misses(kLooseSlo);
    std::ostream& out = JsonDoc::row(json.forecast);
    out << "{\"policy\": \"" << policy_name << "\", \"trace\": \""
        << trace_name << "\", \"invocations\": " << r.invocations
        << ", \"tight_done\": " << tight.first
        << ", \"tight_miss\": " << tight.second
        << ", \"loose_done\": " << loose.first
        << ", \"loose_miss\": " << loose.second
        << ", \"cost_usd\": " << r.total_cost
        << ", \"cold_starts\": " << r.cold_starts
        << ", \"prewarm_boots\": " << r.prewarm_boots
        << ", \"prewarm_cost\": " << r.prewarm_cost
        << ", \"autoscale_samples\": " << r.autoscale_samples
        << ", \"pools\": [";
    // Fleet-level forecast error: sample-weighted MAE across the pools.
    double abs_err_sum = 0.0;
    std::size_t err_samples = 0;
    for (std::size_t p = 0; p < r.pools.size(); ++p) {
      const serverless::PoolTelemetry& pool = r.pools[p];
      const auto acc = serverless::forecast::accuracy(
          pool.demand_history, pool.forecast_history, 1);
      abs_err_sum += acc.mae * static_cast<double>(acc.samples);
      err_samples += acc.samples;
      out << (p ? ", " : "") << "{\"name\": \"" << pool.name
          << "\", \"samples\": " << pool.demand_history.size()
          << ", \"prewarm_boots\": " << pool.prewarm_boots
          << ", \"prewarm_cost\": " << pool.prewarm_cost
          << ", \"mae\": " << acc.mae << ", \"rmse\": " << acc.rmse
          << ", \"bias\": " << acc.bias << "}";
    }
    out << "]}";
    const double mae =
        err_samples ? abs_err_sum / static_cast<double>(err_samples) : 0.0;
    forecast_table.add_row(
        {trace_name, policy_name, misses_of(tight), misses_of(loose),
         std::to_string(r.cold_starts), std::to_string(r.prewarm_boots),
         common::Table::num(r.prewarm_cost, 6),
         r.forecast_active ? common::Table::num(mae, 3) : "n/a",
         common::Table::num(r.total_cost, 4)});
  }
  forecast_table.print();

  // Headline: on each trace, the best forecast+pre-warm policy (fewest tight
  // misses, cost as tiebreak) against the static-reserved baseline and the
  // reactive queue-pressure cost bar.
  for (std::size_t leg = 0; leg < std::size(forecast_traces); ++leg) {
    const MultiStreamResult* runs = &forecast_runs[leg * kForecastPolicies];
    std::size_t best = 2;
    for (std::size_t p = 3; p < kForecastPolicies; ++p)
      if (tight_misses(runs[p]) < tight_misses(runs[best]) ||
          (tight_misses(runs[p]) == tight_misses(runs[best]) &&
           runs[p].total_cost < runs[best].total_cost))
        best = p;
    std::cout << forecast_traces[leg].name << " trace: tight misses "
              << tight_misses(runs[0]) << " (static) / "
              << tight_misses(runs[1]) << " (queue-pressure) -> "
              << tight_misses(runs[best]) << " ("
              << forecast_policies[best].name << "), cost $"
              << common::Table::num(runs[best].total_cost, 4) << " vs $"
              << common::Table::num(runs[1].total_cost, 4)
              << " (queue-pressure)"
              << (tight_misses(runs[best]) <= tight_misses(runs[0]) &&
                          runs[best].total_cost <= runs[1].total_cost + 1e-9
                      ? "  [forecast holds]"
                      : "")
              << "\n";
  }

  if (!json_path.empty()) json.write(json_path);
  return 0;
}
