#include "experiments/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>

#include "net/link.h"
#include "serverless/forecast.h"
#include "sim/simulator.h"

namespace tangram::experiments {

std::string to_string(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kTangram: return "Tangram";
    case StrategyKind::kFullFrame: return "FullFrame";
    case StrategyKind::kMaskedFrame: return "MaskedFrame";
    case StrategyKind::kElf: return "ELF";
    case StrategyKind::kClipper: return "Clipper";
    case StrategyKind::kMArk: return "MArk";
  }
  return "?";
}

namespace {

// The SLO class of camera `cam`: its per_stream_slo entry, else slo_s.
double base_slo(const FleetConfig& config, std::size_t cam) {
  return cam < config.per_stream_slo.size() ? config.per_stream_slo[cam]
                                            : config.slo_s;
}

// Throws std::invalid_argument, naming the camera, unless `ok`.
void require(bool ok, const char* runner, std::size_t cam, const char* what,
             double value, const char* rule) {
  if (!ok)
    throw std::invalid_argument(std::string(runner) + ": camera cam-" +
                                std::to_string(cam) + " has " + what + " " +
                                std::to_string(value) + "; it must be " +
                                rule);
}

// Throws unless every camera's SLO class is positive and finite.  Otherwise
// every patch would silently miss (<= 0), none would (+inf), or, for NaN,
// none would or the run would stop midway.
void check_slo_classes(const char* runner, const FleetConfig& config,
                       std::size_t cameras) {
  for (std::size_t cam = 0; cam < cameras; ++cam) {
    const double slo = base_slo(config, cam);
    require(slo > 0.0 && std::isfinite(slo), runner, cam, "SLO class", slo,
            "positive and finite");
  }
}

// Throws unless drift_at_s is neither NaN nor +inf (negative = no drift) and
// each camera's drift class is finite (<= 0 = keep the base class) and its
// start offset finite and >= 0.  Otherwise the run would silently skip the
// drift, meet every SLO, or stop midway.
void check_scenario(const MultiStreamConfig& config, std::size_t cameras) {
  if (!(config.drift_at_s < std::numeric_limits<double>::infinity()))
    throw std::invalid_argument(
        "run_multistream: drift_at_s is " + std::to_string(config.drift_at_s) +
        "; it must be a finite time, or negative for no drift");
  for (std::size_t cam = 0; cam < cameras; ++cam) {
    const double drift =
        cam < config.drift_to_slo.size() ? config.drift_to_slo[cam] : 0.0;
    require(std::isfinite(drift), "run_multistream", cam, "drift class",
            drift, "finite");
    const double start = cam < config.per_stream_start_s.size()
                             ? config.per_stream_start_s[cam]
                             : 0.0;
    require(start >= 0.0 && std::isfinite(start), "run_multistream", cam,
            "start offset", start, "finite and >= 0");
  }
}

// The one place a runner config maps onto a TangramSystem config, so
// run_multistream, run_end_to_end (whose Tangram is a one-shard
// MultiStreamConfig) and the shared-profiling path (run_sharded, grids) can
// never drift apart.
core::TangramSystem::Config system_config_of(const MultiStreamConfig& config) {
  core::TangramSystem::Config system_config;
  system_config.canvas = config.canvas;
  system_config.slack_sigma = config.slack_sigma;
  system_config.heuristic = config.heuristic;
  system_config.platform = config.platform;
  system_config.function_latency = config.latency;
  system_config.sharding = config.sharding;
  system_config.rebalance = config.rebalance;
  system_config.pool_for_shard = config.pool_for_shard;
  system_config.telemetry_reservoir = config.telemetry_reservoir;
  if (config.telemetry_reservoir > 0 &&
      system_config.platform.telemetry_reservoir == 0)
    system_config.platform.telemetry_reservoir = config.telemetry_reservoir;
  system_config.profiled_estimator = config.profiled_estimator;
  system_config.seed = config.seed;
  return system_config;
}

// Registers camera i of a fresh system as its stream i.  `per_patch_slo`
// registers slo_s = 0, so each patch keeps the SLO it was stamped with.
void register_cameras(core::TangramSystem& system, const FleetConfig& config,
                      std::size_t cameras, bool per_patch_slo) {
  for (std::size_t cam = 0; cam < cameras; ++cam)
    system.register_stream({"cam-" + std::to_string(cam),
                            per_patch_slo ? 0.0 : base_slo(config, cam)});
}

// Streams each camera's evaluation frames over `bandwidth_mbps` uplinks (one
// shared, or one per camera) into the sink, every patch stamped with its
// camera's SLO class.  One pending frame event per camera (frame i
// schedules frame i + 1) keeps the event queue O(cameras); capture times
// are start + phase + i * interval, as an up-front schedule computes them,
// and cameras of one frame rate keep its same-timestamp order
// (HarnessTest.TangramEndToEndMatchesGolden pins both).  In-flight patches
// wait in recycled slots, so a delivery event captures only [this, slot]
// and fits the simulator's inline storage: no allocation.
class PatchEmitter {
 public:
  using Sink = std::function<void(const core::Patch&)>;

  // Camera i starts start_s[i] seconds late (0 beyond the vector).
  PatchEmitter(sim::Simulator& sim,
               const std::vector<const SceneTrace*>& cameras,
               const FleetConfig& config, bool dedicated_uplinks,
               std::vector<double> start_s, Sink sink)
      : sim_(sim),
        cameras_(cameras),
        config_(config),
        start_s_(std::move(start_s)),
        sink_(std::move(sink)) {
    for (std::size_t i = 0; i < (dedicated_uplinks ? cameras.size() : 1); ++i)
      links_.push_back(std::make_unique<net::Link>(sim, config.bandwidth_mbps));
  }
  PatchEmitter(const PatchEmitter&) = delete;
  PatchEmitter& operator=(const PatchEmitter&) = delete;

  // Schedules every camera's first frame.
  void start() {
    for (std::size_t cam = 0; cam < cameras_.size(); ++cam)
      if (cameras_[cam]->eval_frame_count() > 0) schedule(cam, 0);
  }

  [[nodiscard]] std::size_t patches_sent() const { return next_patch_id_ - 1; }
  [[nodiscard]] std::size_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::size_t eval_frames() const {
    std::size_t frames = 0;
    for (const SceneTrace* c : cameras_) frames += c->eval_frame_count();
    return frames;
  }
  [[nodiscard]] double link_busy_s() const {
    double busy = 0.0;
    for (const auto& link : links_) busy += link->transmission_time().sum();
    return busy;
  }

 private:
  void schedule(std::size_t cam, std::size_t i) {
    const double interval = 1.0 / cameras_[cam]->spec.fps;
    const double phase = config_.stagger_cameras
                             ? interval * static_cast<double>(cam) /
                                   static_cast<double>(cameras_.size())
                             : 0.0;
    const double start = cam < start_s_.size() ? start_s_[cam] : 0.0;
    const double capture = start + phase + static_cast<double>(i) * interval;
    sim_.schedule_at(capture + config_.edge_latency_s,
                     [this, cam, i, capture] { emit(cam, i, capture); });
  }

  void emit(std::size_t cam, std::size_t i, double capture) {
    const FrameRecord& frame = cameras_[cam]->eval_frame(i);
    net::Link& link = *links_[links_.size() == 1 ? 0 : cam];
    for (std::size_t p = 0; p < frame.patches.size(); ++p) {
      if (free_.empty()) {
        free_.push_back(static_cast<std::uint32_t>(parked_.size()));
        parked_.emplace_back();
      }
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      core::Patch patch;
      patch.id = next_patch_id_++;
      patch.camera_id = static_cast<int>(cam);
      patch.frame_index = frame.frame_index;
      patch.region = frame.patches[p];
      patch.generation_time = capture;
      patch.bytes = frame.patch_bytes[p];
      patch.slo = base_slo(config_, cam);
      bytes_sent_ += patch.bytes;
      parked_[slot] = patch;
      link.send(patch.bytes, [this, slot] {
        sink_(parked_[slot]);  // the sink never emits: the slot stays put
        free_.push_back(slot);
      });
    }
    if (i + 1 < cameras_[cam]->eval_frame_count()) schedule(cam, i + 1);
  }

  sim::Simulator& sim_;
  const std::vector<const SceneTrace*>& cameras_;
  const FleetConfig& config_;
  std::vector<double> start_s_;
  Sink sink_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::vector<core::Patch> parked_;
  std::vector<std::uint32_t> free_;  // parked_ slots not in flight
  std::uint64_t next_patch_id_ = 1;
  std::size_t bytes_sent_ = 0;
};

// The result callback every strategy reports completions through: the fleet
// e2e sampler in completion order, completions, SLO misses, and the tally
// keyed by the SLO class each patch carried.
core::TangramSystem::ResultFn tally_into(MultiStreamResult& result) {
  return [&result](const core::Patch& patch,
                   const serverless::InvocationRecord& record) {
    result.e2e_latency.add(record.finish_time - patch.generation_time);
    const bool miss = record.finish_time > patch.deadline() + 1e-9;
    ++result.patches_completed;
    if (miss) ++result.slo_violations;
    auto& classes = result.patch_classes;
    auto it = std::lower_bound(
        classes.begin(), classes.end(), patch.slo,
        [](const MultiStreamResult::SloClassTally& tally, double slo) {
          return tally.slo_s < slo;
        });
    if (it == classes.end() || it->slo_s != patch.slo)
      it = classes.insert(it, {patch.slo, 0, 0});
    ++it->completed;
    if (miss) ++it->misses;
  };
}

// Everything a result holds beyond the completion tally, copied in one
// place: the simulator's clock, the emitter's traffic, the platform's
// accounting, and the scheduler's telemetry when Tangram ran (`system`;
// null for a baseline).
void collect(MultiStreamResult& result, const sim::Simulator& sim,
             const PatchEmitter& emitter,
             const serverless::FunctionPlatform& platform,
             const core::TangramSystem* system) {
  result.makespan_s = sim.now();
  result.events_executed = sim.events_executed();
  result.patches_sent = emitter.patches_sent();
  result.total_bytes = emitter.bytes_sent();
  result.transmission_busy_s = emitter.link_busy_s();
  result.eval_frames = emitter.eval_frames();
  result.total_cost = platform.total_cost();
  result.invocations = platform.invocations();
  result.stragglers = platform.stragglers();
  result.retries = platform.retries();
  result.exec_latency = platform.execution_latency();
  result.execution_busy_s = platform.busy_seconds();
  result.pools = platform.pool_telemetry();
  result.cold_starts = platform.cold_starts();
  result.cold_start_setup = platform.cold_start_setup();
  result.fleet_size = platform.fleet_size();
  // Predictive-provisioning roll-up: sums over EVERY pool (`pools` keeps
  // the per-pool series).
  result.forecast_active = platform.config().autoscale.forecasting();
  for (const serverless::PoolTelemetry& pool : result.pools)
    result.autoscale_samples += pool.series.size();
  result.prewarm_boots = platform.prewarm_boots();
  result.prewarm_cost = platform.prewarm_cost();
  if (!system) return;

  result.streams = system->streams();
  result.shards = system->pool().shard_count();
  core::InvokerStats stats = system->pool().aggregate_stats();
  result.batches = stats.batches_invoked;
  result.batch_canvases = std::move(stats.batch_canvas_count);
  result.batch_patches = std::move(stats.batch_patch_count);
  result.canvas_efficiency = std::move(stats.canvas_efficiency);
  result.rebalance.enabled = system->config().rebalance.active();
  result.rebalance.ticks = system->pool().rebalance_ticks();
  result.rebalance.migrations = stats.migrations;
  result.rebalance.steals = stats.steals;
  result.rebalance.steal_bytes = stats.steal_bytes;
  // The pool allocates an (empty) series per shard even when no policy is
  // active; only surface them when the adaptive layer actually ran.
  if (result.rebalance.enabled)
    result.rebalance.shard_occupancy = system->pool().shard_occupancy();
}

}  // namespace

MultiStreamResult run_end_to_end(const std::vector<const SceneTrace*>& cameras,
                                 StrategyKind kind,
                                 const EndToEndConfig& config) {
  if (cameras.empty())
    throw std::invalid_argument("run_end_to_end: no cameras");
  check_slo_classes("run_end_to_end", config, cameras.size());

  sim::Simulator sim;
  MultiStreamResult result;
  const core::TangramSystem::ResultFn on_result = tally_into(result);

  // Tangram is the TangramSystem facade on one shard, one stream per camera
  // registered with the camera's SLO class; the baselines invoke a bare
  // platform.  Telemetry comes from whichever platform ran.
  std::unique_ptr<core::TangramSystem> tangram;
  std::unique_ptr<serverless::FunctionPlatform> bare;
  std::unique_ptr<baselines::Strategy> strategy;
  if (kind != StrategyKind::kTangram)
    bare = std::make_unique<serverless::FunctionPlatform>(
        sim, config.platform, config.latency, config.seed);
  switch (kind) {
    case StrategyKind::kTangram: {
      MultiStreamConfig tangram_config;
      static_cast<FleetConfig&>(tangram_config) = config;
      tangram_config.sharding = core::ShardPolicy::single();
      tangram = std::make_unique<core::TangramSystem>(
          sim, system_config_of(tangram_config), on_result);
      register_cameras(*tangram, config, cameras.size(),
                       /*per_patch_slo=*/false);
      break;
    }
    case StrategyKind::kFullFrame:
    case StrategyKind::kMaskedFrame:
      throw std::invalid_argument(
          "run_end_to_end: Full/Masked Frame are per-frame-only baselines");
    case StrategyKind::kElf:
      strategy = std::make_unique<baselines::ElfStrategy>(*bare, config.elf,
                                                          on_result);
      break;
    case StrategyKind::kClipper:
      strategy = std::make_unique<baselines::ClipperStrategy>(
          *bare, config.clipper, on_result);
      break;
    case StrategyKind::kMArk:
      strategy = std::make_unique<baselines::MArkStrategy>(
          sim, *bare, config.mark, on_result);
      break;
  }

  // Every strategy (Tangram, ELF-as-trigger-in-sequence, Clipper, MArk)
  // consumes the same Algorithm-1 patch stream; the ELF-system encode
  // (elf_patch_bytes) only enters the Fig. 9 bandwidth study via
  // per_frame_cost().
  PatchEmitter emitter(
      sim, cameras, config, config.dedicated_uplinks, /*start_s=*/{},
      [&](const core::Patch& patch) {
        if (tangram) {
          tangram->receive_patch(patch.camera_id, patch);
        } else {
          strategy->on_patch(patch);
        }
      });
  emitter.start();

  sim.run();
  if (tangram) {
    tangram->flush();
  } else {
    strategy->flush();
  }
  sim.run();

  collect(result, sim, emitter, tangram ? tangram->platform() : *bare,
          tangram.get());
  return result;
}

common::Sampler MultiStreamResult::pooled_queue_to_invoke() const {
  common::Sampler pooled;
  for (const auto& stream : streams)
    for (const double v : stream.queue_to_invoke.values()) pooled.add(v);
  return pooled;
}

std::pair<std::size_t, std::size_t> MultiStreamResult::class_completions_misses(
    double slo_class) const {
  std::size_t completed = 0, misses = 0;
  for (const auto& stream : streams) {
    if (stream.slo_s != slo_class) continue;
    completed += stream.patches_completed;
    misses += stream.slo_violations;
  }
  return {completed, misses};
}

std::pair<std::size_t, std::size_t> MultiStreamResult::patch_class_misses(
    double slo_class) const {
  for (const auto& tally : patch_classes)
    if (tally.slo_s == slo_class) return {tally.completed, tally.misses};
  return {0, 0};
}

MultiStreamResult run_multistream(const std::vector<const SceneTrace*>& cameras,
                                  const MultiStreamConfig& config) {
  if (cameras.empty())
    throw std::invalid_argument("run_multistream: no cameras");
  check_slo_classes("run_multistream", config, cameras.size());
  check_scenario(config, cameras.size());

  sim::Simulator sim;
  const bool drifting = config.drift_at_s >= 0.0;
  MultiStreamResult result;
  result.e2e_latency = common::Sampler(config.telemetry_reservoir);
  core::TangramSystem system(sim, system_config_of(config), tally_into(result));
  // Drifting runs register every stream with per-patch SLOs (slo_s = 0):
  // the registration-time router can't see the classes, only the
  // rebalancer's drift tracking can.
  register_cameras(system, config, cameras.size(), drifting);

  // Dedicated uplinks: each stream is an independent site (per-site cellular
  // modems), so scale-out stresses the scheduler, not one shared pipe.  A
  // drifting stream's patch captured at t >= drift_at_s carries its drift
  // class instead of the base class the emitter stamped.
  PatchEmitter emitter(
      sim, cameras, config, /*dedicated_uplinks=*/true,
      config.per_stream_start_s, [&](core::Patch patch) {
        const auto cam = static_cast<std::size_t>(patch.camera_id);
        if (drifting && patch.generation_time >= config.drift_at_s &&
            cam < config.drift_to_slo.size() && config.drift_to_slo[cam] > 0.0)
          patch.slo = config.drift_to_slo[cam];
        system.receive_patch(patch.camera_id, patch);
      });
  emitter.start();

  sim.run();
  system.flush();
  sim.run();

  collect(result, sim, emitter, system.platform(), &system);
  result.per_patch_drift = drifting;
  return result;
}

core::TangramSystem::PoolAssignFn reserved_tight_pool_plan(
    double tight_slo_threshold, int tight_reserved, int loose_burst_limit,
    int tight_forecast_headroom) {
  return [tight_slo_threshold, tight_reserved, loose_burst_limit,
          tight_forecast_headroom](const std::string&,
                                   const core::StreamConfig& stream) {
    serverless::CapacityPoolConfig pool;
    if (stream.slo_s > 0.0 && stream.slo_s <= tight_slo_threshold) {
      pool.name = "tight";
      pool.reserved = tight_reserved;
      pool.forecast_headroom = tight_forecast_headroom;
    } else {
      pool.name = "loose";
      pool.burst_limit = loose_burst_limit > 0 ? loose_burst_limit : -1;
    }
    return pool;
  };
}

std::shared_ptr<const core::LatencyEstimator> profile_estimator(
    const MultiStreamConfig& config) {
  return core::TangramSystem::profile_estimator(system_config_of(config));
}

ShardedRunResult run_sharded(const std::vector<const SceneTrace*>& cameras,
                             const MultiStreamConfig& config) {
  // No leg rebalances.  The single/sharded legs measure the invoker layout
  // alone: they also drop the capacity plan and any autoscale policy, so
  // they keep matching the route-once baselines byte-for-byte; only the
  // reserved leg runs the caller's provisioning config.
  MultiStreamConfig single_config = config;
  single_config.sharding = core::ShardPolicy::single();
  single_config.pool_for_shard = nullptr;
  single_config.platform.autoscale = serverless::AutoscalePolicy{};
  single_config.rebalance = core::RebalancePolicy{};
  // The legs differ only in layout/provisioning, never in the platform
  // resources, canvas, slack, or seed the offline profiling campaign
  // depends on — so profile once and share the estimator by const& instead
  // of rebuilding the identical campaign per leg.
  if (!single_config.profiled_estimator)
    single_config.profiled_estimator = profile_estimator(single_config);
  MultiStreamConfig sharded_config = single_config;
  sharded_config.sharding = core::ShardPolicy::per_slo_class();

  ShardedRunResult result;
  result.single = run_multistream(cameras, single_config);
  result.sharded = run_multistream(cameras, sharded_config);
  if (config.pool_for_shard) {
    MultiStreamConfig reserved_config = config;
    reserved_config.sharding = core::ShardPolicy::per_slo_class();
    reserved_config.rebalance = core::RebalancePolicy{};
    reserved_config.profiled_estimator = single_config.profiled_estimator;
    result.sharded_reserved = run_multistream(cameras, reserved_config);
    result.has_reserved = true;
  }
  return result;
}

namespace {

// Full-precision double formatting: 17 significant digits round-trip every
// IEEE-754 double, so any behavioural drift shows up as a byte difference.
std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_sampler(std::string& out, const char* key,
                    const common::Sampler& s) {
  out += '"';
  out += key;
  out += "\":{\"count\":" + std::to_string(s.count());
  out += ",\"mean\":" + fmt(s.mean());
  out += ",\"stddev\":" + fmt(s.stddev());
  out += ",\"min\":" + fmt(s.stats().min());
  out += ",\"max\":" + fmt(s.stats().max());
  out += ",\"p50\":" + fmt(s.empty() ? 0.0 : s.quantile(0.5));
  out += ",\"p99\":" + fmt(s.empty() ? 0.0 : s.quantile(0.99));
  out += '}';
}

}  // namespace

std::string deterministic_json(const MultiStreamResult& result) {
  std::string out = "{\"shards\":" + std::to_string(result.shards);
  out += ",\"patches_sent\":" + std::to_string(result.patches_sent);
  out += ",\"patches_completed\":" + std::to_string(result.patches_completed);
  out += ",\"slo_violations\":" + std::to_string(result.slo_violations);
  out += ",\"total_cost\":" + fmt(result.total_cost);
  out += ",\"invocations\":" + std::to_string(result.invocations);
  out += ",\"batches\":" + std::to_string(result.batches);
  out += ",\"makespan_s\":" + fmt(result.makespan_s);
  out += ",\"events_executed\":" + std::to_string(result.events_executed);
  out += ",\"cold_starts\":" + std::to_string(result.cold_starts);
  out += ",\"fleet_size\":" + std::to_string(result.fleet_size);
  out += ',';
  append_sampler(out, "batch_canvases", result.batch_canvases);
  out += ',';
  append_sampler(out, "canvas_efficiency", result.canvas_efficiency);
  out += ',';
  append_sampler(out, "cold_start_setup", result.cold_start_setup);
  out += ",\"streams\":[";
  for (std::size_t i = 0; i < result.streams.size(); ++i) {
    const core::StreamStats& s = result.streams[i];
    if (i) out += ',';
    out += "{\"name\":\"" + s.name + "\"";
    out += ",\"slo_s\":" + fmt(s.slo_s);
    out += ",\"shard\":" + std::to_string(s.shard);
    out += ",\"received\":" + std::to_string(s.patches_received);
    out += ",\"completed\":" + std::to_string(s.patches_completed);
    out += ",\"violations\":" + std::to_string(s.slo_violations);
    out += ',';
    append_sampler(out, "e2e", s.e2e_latency);
    out += ',';
    append_sampler(out, "q2i", s.queue_to_invoke);
    out += '}';
  }
  out += "],\"pools\":[";
  for (std::size_t i = 0; i < result.pools.size(); ++i) {
    const serverless::PoolTelemetry& p = result.pools[i];
    if (i) out += ',';
    out += "{\"name\":\"" + p.name + "\"";
    out += ",\"reserved\":" + std::to_string(p.reserved);
    out += ",\"burst_limit\":" + std::to_string(p.burst_limit);
    out += ",\"limit\":" + std::to_string(p.limit);
    out += ",\"peak_in_use\":" + std::to_string(p.peak_in_use);
    out += ",\"dispatched\":" + std::to_string(p.dispatched);
    out += ",\"cold_starts\":" + std::to_string(p.cold_starts);
    out += ",\"autoscale_ticks\":" + std::to_string(p.series.size());
    out += ',';
    append_sampler(out, "backlog_depth", p.backlog_depth);
    out += '}';
  }
  out += ']';
  // Forecast-driven provisioning block: emitted only when a forecast policy
  // drove the run, so static and reactive runs keep their pre-forecast byte
  // stream — same gating pattern as the rebalance block below.  Accuracy is
  // scored one tick ahead.
  if (result.forecast_active) {
    out += ",\"forecast\":{\"autoscale_samples\":" +
           std::to_string(result.autoscale_samples);
    out += ",\"prewarm_boots\":" + std::to_string(result.prewarm_boots);
    out += ",\"prewarm_cost\":" + fmt(result.prewarm_cost);
    out += ",\"pools\":[";
    for (std::size_t i = 0; i < result.pools.size(); ++i) {
      const serverless::PoolTelemetry& p = result.pools[i];
      const serverless::forecast::Accuracy acc = serverless::forecast::accuracy(
          p.demand_history, p.forecast_history, 1);
      if (i) out += ',';
      out += "{\"name\":\"" + p.name + "\"";
      out += ",\"samples\":" + std::to_string(p.demand_history.size());
      out += ",\"prewarm_boots\":" + std::to_string(p.prewarm_boots);
      out += ",\"prewarm_cost\":" + fmt(p.prewarm_cost);
      out += ",\"mae\":" + fmt(acc.mae);
      out += ",\"rmse\":" + fmt(acc.rmse);
      out += ",\"bias\":" + fmt(acc.bias) + '}';
    }
    out += "]}";
  }
  // The adaptive-layer block exists only for runs that used it (an active
  // RebalancePolicy or the drifting-class-mix workload): every legacy
  // configuration keeps producing the exact pre-rebalancing byte stream —
  // the guarantee ladder's comparison key must not move for them.
  if (result.rebalance.enabled || result.per_patch_drift) {
    out += ",\"rebalance\":{\"ticks\":" + std::to_string(result.rebalance.ticks);
    out += ",\"migrations\":" + std::to_string(result.rebalance.migrations);
    out += ",\"steals\":" + std::to_string(result.rebalance.steals);
    out += ",\"steal_bytes\":" + std::to_string(result.rebalance.steal_bytes);
    out += ",\"shard_occupancy\":[";
    for (std::size_t s = 0; s < result.rebalance.shard_occupancy.size(); ++s) {
      if (s) out += ',';
      out += '[';
      const auto& series = result.rebalance.shard_occupancy[s];
      for (std::size_t i = 0; i < series.size(); ++i) {
        if (i) out += ',';
        out += "{\"t\":" + fmt(series[i].time);
        out += ",\"pending\":" + std::to_string(series[i].pending);
        out += ",\"streams\":" + std::to_string(series[i].streams) + '}';
      }
      out += ']';
    }
    out += "],\"patch_classes\":[";
    for (std::size_t i = 0; i < result.patch_classes.size(); ++i) {
      const auto& tally = result.patch_classes[i];
      if (i) out += ',';
      out += "{\"slo_s\":" + fmt(tally.slo_s);
      out += ",\"completed\":" + std::to_string(tally.completed);
      out += ",\"misses\":" + std::to_string(tally.misses) + '}';
    }
    out += "]}";
  }
  out += '}';
  return out;
}

PerFrameCostResult per_frame_cost(const SceneTrace& trace, StrategyKind kind,
                                  const EndToEndConfig& config) {
  PerFrameCostResult result;
  result.strategy = to_string(kind);
  result.eval_frames = trace.eval_frame_count();

  serverless::InferenceLatencyModel model(config.latency,
                                          common::Rng(config.seed, 13));
  const core::StitchSolver solver(config.heuristic);
  const auto& resources = config.platform.resources;
  const auto& pricing = config.platform.pricing;
  const double frame_mp =
      static_cast<double>(trace.spec.frame.area()) / 1.0e6;

  for (std::size_t i = 0; i < trace.eval_frame_count(); ++i) {
    const FrameRecord& frame = trace.eval_frame(i);
    switch (kind) {
      case StrategyKind::kTangram: {
        if (frame.patches.empty()) break;
        std::vector<common::Size> sizes;
        sizes.reserve(frame.patches.size());
        for (const auto& p : frame.patches) sizes.push_back(p.size());
        const auto packing = solver.pack(sizes, config.canvas);
        const double exec =
            model.mean_batch_latency(packing.canvas_count, config.canvas);
        result.total_cost +=
            serverless::invocation_cost(exec, resources, pricing);
        result.execution_s += exec;
        result.total_bytes += frame.total_patch_bytes();
        ++result.invocations;
        break;
      }
      case StrategyKind::kFullFrame: {
        const double exec = model.mean_image_latency(frame_mp, false);
        result.total_cost +=
            serverless::invocation_cost(exec, resources, pricing);
        result.execution_s += exec;
        result.total_bytes += frame.full_frame_bytes;
        ++result.invocations;
        break;
      }
      case StrategyKind::kMaskedFrame: {
        const double exec = model.mean_image_latency(frame_mp, true);
        result.total_cost +=
            serverless::invocation_cost(exec, resources, pricing);
        result.execution_s += exec;
        result.total_bytes += frame.masked_frame_bytes;
        ++result.invocations;
        break;
      }
      case StrategyKind::kElf: {
        for (const auto& p : frame.patches) {
          const double mp = static_cast<double>(p.area()) *
                            config.elf.area_expansion / 1.0e6;
          const double exec = model.mean_image_latency(mp, false);
          result.total_cost +=
              serverless::invocation_cost(exec, resources, pricing);
          result.execution_s += exec;
          ++result.invocations;
        }
        result.total_bytes += frame.total_elf_bytes();
        break;
      }
      case StrategyKind::kClipper:
      case StrategyKind::kMArk:
        throw std::invalid_argument(
            "per_frame_cost: Clipper/MArk are end-to-end-only baselines");
    }
  }
  return result;
}

}  // namespace tangram::experiments
