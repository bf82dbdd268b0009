// Experiment runners shared by the bench binaries.
//
// Three execution modes:
//  * per_frame_cost(): the Fig. 8 / Fig. 9 methodology — every frame is one
//    request (Tangram 4x4 stitches the frame's patches onto canvases as a
//    single request; Full/Masked send the whole frame; ELF triggers one
//    invocation per patch), so cost and bandwidth can be compared without
//    SLO dynamics;
//  * run_end_to_end(): the Fig. 12-14 methodology — cameras stream patches
//    over a shared bandwidth-limited uplink into a live scheduler on the
//    discrete-event simulator (Tangram is the TangramSystem facade on one
//    shard, one stream per camera; ELF, Clipper and MArk are baselines::
//    strategies), with SLO-violation accounting.  Full/Masked Frame are
//    per-frame-only and throw std::invalid_argument here;
//  * run_multistream(): the scale-out scenario beyond the paper — N cameras
//    registered as first-class streams on ONE TangramSystem facade (shared
//    invoker + platform, cross-stream canvas stitching), with per-stream
//    SLO classes and per-stream telemetry.  This is what
//    bench_multistream_scale sweeps from 1 stream to city scale (10k).
//
// Both live runners take a FleetConfig (the fields they share), stream
// their cameras through one patch emitter (one pending frame event per
// camera, and each in-flight patch parked in a recycled slot so uplink
// delivery allocates nothing per patch) and fill one MultiStreamResult
// through one completion callback and one collector.
//
// Every runner is an independent deterministic simulation over shared
// immutable traces, so grids of them parallelize across threads via
// ParallelSweepRunner (run_multistream_cells, run_sharded with jobs > 1)
// with bit-identical results to serial execution.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/strategies.h"
#include "common/stats.h"
#include "core/system.h"
#include "experiments/parallel_runner.h"
#include "experiments/trace.h"
#include "serverless/platform.h"

namespace tangram::experiments {

enum class StrategyKind {
  kTangram,
  kFullFrame,
  kMaskedFrame,
  kElf,
  kClipper,
  kMArk,
};

[[nodiscard]] std::string to_string(StrategyKind kind);

// The fields both live runners share: camera i streams over a
// `bandwidth_mbps` uplink into a cloud stack built from canvas / slack /
// heuristic / platform / latency / seed.
struct FleetConfig {
  double bandwidth_mbps = 40.0;
  double slo_s = 1.0;  // default SLO class
  // Override the SLO class of camera i; cameras beyond the vector use
  // slo_s.  Lets mixed SLO classes share one scheduler — the invoker
  // handles heterogeneous deadlines natively.
  std::vector<double> per_stream_slo;
  common::Size canvas{1024, 1024};
  double slack_sigma = 3.0;
  core::PackHeuristic heuristic = core::PackHeuristic::kGuillotineBssf;
  serverless::PlatformConfig platform;  // paper: 2 vCPU / 4 GB / 6 GB VRAM
  // GPU speed profile: default = the paper's RTX 4090 testbed (Fig. 12-14);
  // use serverless::alibaba_function_compute_params() for the Fig. 8/9 study.
  serverless::LatencyModelParams latency;
  double edge_latency_s = 0.02;  // on-edge partition + encode time
  bool stagger_cameras = true;   // offset camera phases
  std::uint64_t seed = 7;
};

struct EndToEndConfig : FleetConfig {
  baselines::ClipperOptions clipper;
  baselines::MArkOptions mark;
  baselines::ElfOptions elf;
  // false: all cameras share one `bandwidth_mbps` uplink (the paper's
  // setting).  true: each camera gets its own `bandwidth_mbps` link
  // (e.g. per-site cellular uplinks).
  bool dedicated_uplinks = false;
};

// --- multi-stream scale-out scenario ----------------------------------------

// Every stream gets its own `bandwidth_mbps` uplink.
struct MultiStreamConfig : FleetConfig {
  // Delay stream i's first frame by this many seconds (streams beyond the
  // vector start at 0).  Scripted step-load / ramp scenarios for the
  // provisioning study reuse ONE trace with staged starts instead of
  // building extra traces; an empty vector (or 0 entries) adds an exact
  // 0.0 to every capture time, so the default stays byte-identical.
  std::vector<double> per_stream_start_s;
  // Invoker-pool layout (default: one shard per SLO class).
  // core::ShardPolicy::single() reproduces the pre-pool single-invoker runs
  // byte-for-byte.
  core::ShardPolicy sharding;
  // Adaptive re-routing layer: stream migration between shards plus
  // cross-shard work stealing (core::RebalancePolicy).  The default — none()
  // with stealing off — schedules no timer and is byte-identical to the
  // route-once runs.
  core::RebalancePolicy rebalance;
  // Drifting-class-mix scenario: when drift_at_s >= 0, every stream
  // registers with slo_s = 0 (the SLO rides on each patch, so the
  // registration-time router sees ONE per-patch class — the fixed-sharding
  // pathology) and a patch captured at t >= drift_at_s from stream i carries
  // drift_to_slo[i] instead of the stream's base class (entries <= 0, or
  // streams beyond the vector, keep the base).  Per-class accounting for
  // these runs is in MultiStreamResult::patch_classes.
  double drift_at_s = -1.0;
  std::vector<double> drift_to_slo;
  // Capacity-pool wiring: maps each invoker shard to a reserved-concurrency
  // pool carved out of platform.max_instances (see TangramSystem::Config).
  // Null = every shard on the platform's default pool (legacy behaviour).
  // Autoscaling is configured through platform.autoscale.
  core::TangramSystem::PoolAssignFn pool_for_shard;
  // Reservoir capacity for every telemetry Sampler in the run (fleet e2e,
  // per-stream, per-shard, and platform); 0 = retain all samples.  Set for
  // city-scale cells so per-sim telemetry memory stays fixed (see
  // common/stats.h).
  std::size_t telemetry_reservoir = 0;
  // Prebuilt profiling campaign shared across runs with equivalent platform
  // / canvas / slack / seed configs (see TangramSystem::Config); null =
  // profile during construction.
  std::shared_ptr<const core::LatencyEstimator> profiled_estimator;
  // Worker threads for multi-leg runners (run_sharded): each leg is an
  // independent sim, so legs run concurrently with bit-identical results.
  // 1 = serial (default); 0 = hardware_concurrency.
  int jobs = 1;
};

// Ready-made capacity plan for mixed-SLO fleets: shards whose SLO class is
// <= tight_slo_threshold share a "tight" pool with `tight_reserved`
// guaranteed instances; every other shard shares a "loose" pool capped at
// `loose_burst_limit` concurrent instances (<= 0: uncapped).  Under a
// forecast-driven autoscaler, `tight_forecast_headroom` spare slots pad the
// tight pool's actuated limit above the point forecast (-1: inherit
// AutoscalePolicy::headroom); the loose pool always inherits, so its
// backlog keeps getting throttled to observed demand.
[[nodiscard]] core::TangramSystem::PoolAssignFn reserved_tight_pool_plan(
    double tight_slo_threshold, int tight_reserved, int loose_burst_limit,
    int tight_forecast_headroom = -1);

// The result of a live run, from either runner.  A baseline run (ELF,
// Clipper, MArk) has no scheduler: it leaves `streams` empty and `shards`
// and `batches` at 0, and its batch samplers empty.
struct MultiStreamResult {
  std::vector<core::StreamStats> streams;  // per-stream telemetry
  std::size_t shards = 0;                  // invoker-pool shards created
  std::size_t patches_sent = 0;
  std::size_t patches_completed = 0;
  std::size_t slo_violations = 0;
  double total_cost = 0.0;
  std::size_t invocations = 0;
  std::size_t batches = 0;
  std::size_t stragglers = 0;  // fault injection counters
  std::size_t retries = 0;
  double makespan_s = 0.0;
  std::uint64_t events_executed = 0;  // simulator events fired during the run
  // Capture -> inference finish per patch, fleet-wide, in completion order
  // (bounded by MultiStreamConfig::telemetry_reservoir).
  common::Sampler e2e_latency;
  common::Sampler exec_latency;  // per invocation
  common::Sampler batch_canvases;
  common::Sampler batch_patches;
  common::Sampler canvas_efficiency;
  std::size_t total_bytes = 0;
  double transmission_busy_s = 0.0;  // total link-occupied time
  double execution_busy_s = 0.0;     // total billed function time
  std::size_t eval_frames = 0;
  // Platform capacity telemetry: one entry per capacity pool (default pool
  // first), each with instance peaks, cold starts, backlog-depth quantiles,
  // and the autoscaler's per-tick time series when a policy is active.
  std::vector<serverless::PoolTelemetry> pools;
  std::uint64_t cold_starts = 0;     // environments booted
  common::Sampler cold_start_setup;  // setup seconds per cold start
  int fleet_size = 0;                // instance slots (concurrency peak)

  // --- predictive-provisioning telemetry -------------------------------------
  // Summed across EVERY capacity pool (never pool-0-only); per-pool series
  // (demand/forecast histories) stay on `pools`.
  bool forecast_active = false;  // a forecast policy drove limits
  std::uint64_t autoscale_samples = 0;  // AutoscaleSample entries, all pools
  std::uint64_t prewarm_boots = 0;
  double prewarm_cost = 0.0;  // already included in total_cost

  // --- adaptive-rebalancing telemetry ----------------------------------------
  struct RebalanceTelemetry {
    bool enabled = false;  // a migration policy and/or stealing was active
    std::uint64_t ticks = 0;
    std::size_t migrations = 0;
    std::size_t steals = 0;
    std::size_t steal_bytes = 0;
    // Per-shard occupancy series, one sample per rebalance tick.
    std::vector<std::vector<core::ShardOccupancySample>> shard_occupancy;
  };
  RebalanceTelemetry rebalance;

  // Completions / SLO misses keyed by the SLO class each PATCH carried —
  // the class accounting that stays meaningful when streams register with
  // slo_s = 0 and drift between classes (class_completions_misses() keys on
  // the registered stream class, which such runs don't have).  Sorted by
  // slo_s ascending; deterministic_json emits it only for drifting or
  // rebalancing runs.
  struct SloClassTally {
    double slo_s = 0.0;
    std::size_t completed = 0;
    std::size_t misses = 0;
  };
  std::vector<SloClassTally> patch_classes;
  bool per_patch_drift = false;  // the run used MultiStreamConfig drift

  [[nodiscard]] double violation_rate() const {
    return patches_completed
               ? static_cast<double>(slo_violations) / patches_completed
               : 0.0;
  }
  // Queue-to-invoke latency pooled across all streams.
  [[nodiscard]] common::Sampler pooled_queue_to_invoke() const;
  // Completions / SLO misses summed over the streams of one SLO class.
  [[nodiscard]] std::pair<std::size_t, std::size_t> class_completions_misses(
      double slo_class) const;
  // Completions / SLO misses of one PER-PATCH SLO class (patch_classes).
  [[nodiscard]] std::pair<std::size_t, std::size_t> patch_class_misses(
      double slo_class) const;
};

// Live streaming run over the shared uplink; one camera per entry in
// `cameras` (entries may alias the same trace for load scaling).  Tangram
// runs as run_multistream does on ShardPolicy::single(), and reports alike.
[[nodiscard]] MultiStreamResult run_end_to_end(
    const std::vector<const SceneTrace*>& cameras, StrategyKind kind,
    const EndToEndConfig& config);

// One camera per entry in `cameras` (entries may alias the same trace for
// load scaling); camera i becomes stream i of a single shared TangramSystem.
// Throws std::invalid_argument on a non-finite drift class or start offset,
// a negative start offset, or a NaN or +inf drift_at_s.
[[nodiscard]] MultiStreamResult run_multistream(
    const std::vector<const SceneTrace*>& cameras,
    const MultiStreamConfig& config);

// --- parallel sweep grids ---------------------------------------------------

// One cell of a sweep grid: a camera fleet (entries alias traces owned by
// the caller, which must outlive the run) plus its runner config.
struct MultiStreamCell {
  std::vector<const SceneTrace*> cameras;
  MultiStreamConfig config;
};

// Run the offline profiling campaign for `config` once, for sharing across
// every cell whose platform / canvas / slack / seed config is equivalent
// (stream counts, SLO classes, sharding, and pool plans may differ) — see
// TangramSystem::Config::profiled_estimator.  Byte-identical to per-cell
// profiling.
[[nodiscard]] std::shared_ptr<const core::LatencyEstimator> profile_estimator(
    const MultiStreamConfig& config);

// Run every cell through run_multistream() on a ParallelSweepRunner worker
// pool (jobs <= 0: hardware_concurrency).  Cells are independent sims over
// shared immutable traces, so the returned results — ordered by cell index —
// are bit-identical for every job count (tests/test_parallel_runner.cpp).
[[nodiscard]] std::vector<MultiStreamResult> run_multistream_cells(
    const std::vector<MultiStreamCell>& cells, int jobs);

// Serialize every simulation-deterministic field of a result (counters,
// cost, makespan, sampler statistics and quantiles, per-stream and per-pool
// telemetry) to a canonical JSON string with full double precision.  Two
// runs are byte-equal here iff the simulations behaved identically — the
// comparison key for the serial-vs-parallel determinism guarantee.
[[nodiscard]] std::string deterministic_json(const MultiStreamResult& result);

// The 1-vs-K-shards comparison: the same cameras and mixed SLO classes run
// on identical arrival schedules — once on a single shared invoker shard
// (the paper's layout, head-of-line blocking included), once with one shard
// per SLO class behind the admission router, and (when the config wires
// capacity pools via pool_for_shard) once more with per-class shards
// dispatching into reserved-concurrency pools.  No leg rebalances: each
// runs with config.rebalance stripped, so the legs differ in layout and
// capacity alone.
struct ShardedRunResult {
  MultiStreamResult single;   // ShardPolicy::single()
  MultiStreamResult sharded;  // ShardPolicy::per_slo_class()
  // per_slo_class() + config.pool_for_shard; only meaningful when
  // has_reserved is true (the config wired pools).
  MultiStreamResult sharded_reserved;
  bool has_reserved = false;
};

// The legs share one offline profiling campaign (built once, shared by
// const& — profiling draws from a private model copy, so this is
// byte-identical to per-leg profiling) and run as independent sims on
// config.jobs workers (1 = serial; the results never depend on jobs).
[[nodiscard]] ShardedRunResult run_sharded(
    const std::vector<const SceneTrace*>& cameras,
    const MultiStreamConfig& config);

// Per-frame single-request accounting (no SLO dynamics).
struct PerFrameCostResult {
  std::string strategy;
  double total_cost = 0.0;
  std::size_t total_bytes = 0;
  double execution_s = 0.0;
  std::size_t invocations = 0;
  std::size_t eval_frames = 0;
};

[[nodiscard]] PerFrameCostResult per_frame_cost(const SceneTrace& trace,
                                                StrategyKind kind,
                                                const EndToEndConfig& config);

}  // namespace tangram::experiments
