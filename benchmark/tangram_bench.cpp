// tangram_bench: the Tangram benchmark.
//
//   tangram_bench --workload <name> --seed <n> [--seconds <s>]
//                 [--trace <path>] [--scale <f>]
//
// Replays one camera-fleet workload through the library's public API only:
// experiments::build_trace (or core::EdgeCamera::on_frame for the live
// edge), net::Link::send, core::TangramSystem::{register_stream,
// receive_patch, flush}, sim::Simulator::{schedule_at, run, step}, and the
// ResultFn callback.  The replay mirrors experiments::run_multistream — a
// chained per-camera frame emitter, dedicated 40 Mbps links, 20 ms edge
// latency — and adds laps over each trace's evaluation frames.  Load is open
// loop in simulated time (every camera sends 1 frame/s whatever the system
// does); the wall clock replays as fast as it can, so generator lateness is
// zero by construction.
//
// A run sets up several times (traces, profiling, system construction, edge
// warm-up: the median is setup_s) and replays a fixed number of times, about
// --seconds of replay on the reference box (the median is patches_per_s).
// Every simulated-time metric is a pure function of the workload and seed,
// so all replays must agree on them exactly.  With --trace, half the replays
// run traced; spans come from this file only, are aggregated per name, and
// the first 200k are written to <path> as Chrome trace-event JSON.
//
// The last line of stdout is one JSON object: correctness, patches attempted
// and failed, and every metric with its unit.  Any violated correctness gate
// makes the exit code 1.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/alloc_probe.h"
#include "common/rng.h"
#include "core/edge.h"
#include "core/system.h"
#include "experiments/accuracy.h"
#include "experiments/harness.h"
#include "experiments/parallel_runner.h"
#include "experiments/trace.h"
#include "latency_histogram.h"
#include "net/link.h"
#include "sim/simulator.h"
#include "span_tracer.h"
#include "video/scene_catalog.h"

TANGRAM_DEFINE_ALLOC_PROBE_HOOK();

namespace tangram_bench {
namespace {

namespace core = tangram::core;
namespace experiments = tangram::experiments;
namespace serverless = tangram::serverless;
namespace video = tangram::video;

constexpr double kEdgeLatencyS = 0.02;
constexpr double kCameraLinkMbps = 40.0;
constexpr int kInstances = 64;
constexpr std::size_t kTelemetryReservoir = 1024;
// PANDA scenes 1, 5 and 10: sparse, medium and dense (6.8, 4.2 and 12.3
// patches per frame).
constexpr std::array<int, 3> kScenes = {1, 5, 10};
constexpr std::size_t kMaxTraceEvents = 200000;

// flash_crowd: every camera is on for 20 s, then off for 40 s.
constexpr std::uint64_t kWaveOnFrames = 20;
constexpr double kWavePeriodS = 60.0;
// class_drift: a flipping camera spends 60 s at 2 s, then 60 s at 0.5 s.
constexpr double kFlipHalfPeriodS = 60.0;
// edge_live: frames each camera renders and trains its GMM on during setup,
// and how many replayed frames per camera feed the accuracy measurement.
constexpr int kEdgeWarmupFrames = 100;
constexpr std::size_t kEdgeAccuracyFrames = 40;
// edge_live shares one uplink: 12 cameras, four per scene, emit about
// 4 x (362 + 280 + 1074) KiB/s = 56 Mbps, so 86 Mbps runs it near 65%.
constexpr double kEdgeUplinkMbps = 86.0;

enum class Kind { kSteadyMixed, kFlashCrowd, kClassDrift, kEdgeLive };

struct Workload {
  const char* name;
  Kind kind;
  std::size_t cameras;
  std::vector<double> classes;  // SLO classes in seconds, tightest first
  // Frames each camera emits per replay (simulated seconds of load,
  // on-frames only for flash_crowd).
  std::uint64_t frames_per_camera;
  // Wall seconds one replay takes on the reference box (a 4-core x86 VM);
  // only used to turn --seconds into a fixed number of replays.
  double nominal_replay_s;
};

// Trace replays last about 2 s; edge_live's 6 s replay is the shortest that
// completes 10k patches, so its p99.9 has ten samples beyond it.
Workload workload_by_name(const std::string& name) {
  if (name == "steady_mixed")
    return {"steady_mixed", Kind::kSteadyMixed, 320, {0.8, 1.0, 1.5}, 1250,
            2.0};
  if (name == "flash_crowd")
    return {"flash_crowd", Kind::kFlashCrowd, 512, {0.5, 2.0},
            24 * kWaveOnFrames, 2.0};
  if (name == "class_drift")
    return {"class_drift", Kind::kClassDrift, 256, {0.5, 2.0}, 1440, 2.0};
  if (name == "edge_live")
    return {"edge_live", Kind::kEdgeLive, 12, {0.8, 1.0, 1.5}, 110, 6.3};
  throw std::invalid_argument("unknown workload '" + name +
                              "' (steady_mixed, flash_crowd, class_drift, "
                              "edge_live)");
}

// What the seed decides.  Camera slot i watches scene i mod 3 and gets an
// SLO class balanced within its scene (class_drift: slot i flips when i mod 4
// is 0, at a phase fixed by i).  On the trace workloads the seed shuffles
// which camera index -- and so which stagger phase, stream id and link --
// holds which slot; the multiset of slots, and so the offered load, is the
// same for every seed.  edge_live keeps its 12 slots in place, because with
// so few cameras reordering their phases alone moves the median latency by
// 4%, and the seed draws each camera's sensor noise instead.
struct Fleet {
  std::vector<std::size_t> slot;
  std::vector<int> scene;          // index into kScenes
  std::vector<double> slo;         // registered (class_drift: base) class
  std::vector<double> flip_phase;  // class_drift only; < 0 never flips
};

Fleet make_fleet(const Workload& w, std::size_t cameras, std::uint64_t seed) {
  tangram::common::Rng rng(seed, 101);
  Fleet fleet;
  fleet.slot.resize(cameras);
  std::iota(fleet.slot.begin(), fleet.slot.end(), std::size_t{0});
  for (std::size_t i = cameras; w.kind != Kind::kEdgeLive && i > 1; --i) {
    const int j = rng.uniform_int(0, static_cast<int>(i) - 1);
    std::swap(fleet.slot[i - 1], fleet.slot[static_cast<std::size_t>(j)]);
  }
  const std::size_t flippers = (cameras + 3) / 4;
  for (const std::size_t i : fleet.slot) {
    fleet.scene.push_back(static_cast<int>(i % kScenes.size()));
    double slo = w.classes.back();
    double flip_phase = -1.0;
    switch (w.kind) {
      case Kind::kSteadyMixed:
      case Kind::kEdgeLive:
        slo = w.classes[(i / kScenes.size()) % w.classes.size()];
        break;
      case Kind::kFlashCrowd:
        // An eighth of the fleet is tight; the reserve below is sized to it.
        if (i % 8 == 0) slo = w.classes.front();
        break;
      case Kind::kClassDrift:
        if (i % 4 == 0)
          flip_phase = 2.0 * kFlipHalfPeriodS * static_cast<double>(i / 4) /
                       static_cast<double>(flippers);
        break;
    }
    fleet.slo.push_back(slo);
    fleet.flip_phase.push_back(flip_phase);
  }
  return fleet;
}

// The run_multistream configuration this workload corresponds to; the
// replay builds its system from it exactly as the harness does, and the
// steady_mixed cross-check hands it to run_multistream itself.
experiments::MultiStreamConfig multistream_config(const Workload& w,
                                                  const Fleet& fleet) {
  experiments::MultiStreamConfig config;
  config.bandwidth_mbps = kCameraLinkMbps;
  config.edge_latency_s = kEdgeLatencyS;
  config.platform.max_instances = kInstances;
  config.telemetry_reservoir = kTelemetryReservoir;
  config.per_stream_slo = fleet.slo;
  switch (w.kind) {
    case Kind::kFlashCrowd: {
      // Valleys outlast the keepalive, so every wave meets a cooled fleet;
      // the forecaster pre-warms ahead of it.  The tight eighth of the fleet
      // gets a reserve sized to its wave-time demand: 24 instances hold its
      // misses near 4% (cold wave starts) while the loose class, capped at
      // the other 40, queues through each wave and drains in the valley.
      constexpr int kTightReserved = 24;
      config.platform.keepalive_s = 4.0;
      auto autoscale = serverless::AutoscalePolicy::windowed_max(24, 0.5, 0);
      autoscale.prewarm = true;
      config.platform.autoscale = autoscale;
      config.pool_for_shard = experiments::reserved_tight_pool_plan(
          w.classes[0], kTightReserved, kInstances - kTightReserved,
          /*tight_forecast_headroom=*/4);
      break;
    }
    case Kind::kClassDrift: {
      auto rebalance = core::RebalancePolicy::class_mix_drift();
      rebalance.steal.enabled = true;
      config.rebalance = rebalance;
      break;
    }
    case Kind::kSteadyMixed:
    case Kind::kEdgeLive:
      break;
  }
  return config;
}

// MultiStreamConfig -> TangramSystem::Config, field for field as the
// harness maps it.
core::TangramSystem::Config system_config(
    const experiments::MultiStreamConfig& config) {
  core::TangramSystem::Config system;
  system.canvas = config.canvas;
  system.slack_sigma = config.slack_sigma;
  system.heuristic = config.heuristic;
  system.platform = config.platform;
  system.function_latency = config.latency;
  system.sharding = config.sharding;
  system.rebalance = config.rebalance;
  system.pool_for_shard = config.pool_for_shard;
  system.telemetry_reservoir = config.telemetry_reservoir;
  if (config.telemetry_reservoir > 0 &&
      system.platform.telemetry_reservoir == 0)
    system.platform.telemetry_reservoir = config.telemetry_reservoir;
  system.profiled_estimator = config.profiled_estimator;
  system.seed = config.seed;
  return system;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// One live camera: its scene generator and the edge pipeline that watches it.
struct EdgeRig {
  video::SyntheticScene scene;
  core::EdgeCamera camera;
};

// One replay: the simulator, the links, the system under test, and the
// ledger every completion is checked and counted in.
class Replay {
 public:
  Replay(const Workload& w, const Fleet& fleet,
         const experiments::MultiStreamConfig& config,
         std::vector<const experiments::SceneTrace*> traces,
         std::vector<std::unique_ptr<EdgeRig>> edge,
         std::vector<std::uint64_t> frames_per_camera, SpanTracer* tracer)
      : kind_(w.kind),
        tight_slo_(w.classes.front()),
        fleet_(fleet),
        traces_(std::move(traces)),
        edge_(std::move(edge)),
        frames_of_(std::move(frames_per_camera)),
        tracer_(tracer),
        system_(sim_, system_config(config),
                [this](const core::Patch& patch,
                       const serverless::InvocationRecord& record) {
                  on_result(patch, record);
                }) {
    const std::size_t cameras = fleet_.slo.size();
    const std::size_t links = kind_ == Kind::kEdgeLive ? 1 : cameras;
    for (std::size_t i = 0; i < links; ++i)
      links_.push_back(std::make_unique<tangram::net::Link>(
          sim_, kind_ == Kind::kEdgeLive ? kEdgeUplinkMbps
                                         : config.bandwidth_mbps));
    interval_.resize(cameras);
    phase_.resize(cameras);
    for (std::size_t cam = 0; cam < cameras; ++cam) {
      const double fps = kind_ == Kind::kEdgeLive
                             ? edge_[cam]->scene.spec().fps
                             : traces_[cam]->spec.fps;
      interval_[cam] = 1.0 / fps;
      phase_[cam] = interval_[cam] * static_cast<double>(cam) /
                    static_cast<double>(cameras);
      core::StreamConfig stream;
      stream.name = "cam-" + std::to_string(cam);
      // class_drift registers per-patch SLOs: the class rides on each patch
      // and only the rebalancer's drift tracking sees it.
      stream.slo_s = kind_ == Kind::kClassDrift ? 0.0 : fleet_.slo[cam];
      streams_.push_back(system_.register_stream(std::move(stream)));
    }
    if (kind_ == Kind::kEdgeLive) {
      accuracy_frames_.resize(cameras);
      for (auto& frames : accuracy_frames_) frames.reserve(kEdgeAccuracyFrames);
    }
  }

  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  // The timed region: the whole open-loop replay, then flush and drain.
  void run() {
    start();
    drain();
    {
      ScopedSpan span(tracer_, SpanName::kSchedFlush);
      system_.flush();
    }
    drain();
  }

  // Capacity probe: replay until done, or report failure as soon as the
  // platform backlog shows the fleet is past what it can serve (a backlog
  // that never drains is also what makes an overloaded replay quadratic).
  bool run_probe(double max_miss_rate) {
    constexpr double kChunkS = 10.0;
    constexpr std::size_t kBacklogLimit = 2000;
    start();
    for (double horizon = kChunkS; !sim_.idle(); horizon += kChunkS) {
      sim_.run_until(horizon);
      if (system_.platform().queued_requests() > kBacklogLimit) return false;
    }
    system_.flush();
    sim_.run();
    return static_cast<double>(late_ + failed()) <=
           max_miss_rate * static_cast<double>(sent_);
  }

  // Correctness gates; returns a description of every violation.
  [[nodiscard]] std::vector<std::string> violations() const {
    std::vector<std::string> out;
    if (duplicate_completions_ > 0)
      out.push_back(std::to_string(duplicate_completions_) +
                    " patch ids completed more than once");
    if (unknown_completions_ > 0)
      out.push_back(std::to_string(unknown_completions_) +
                    " completions carry an id that was never sent");
    if (stage_mismatches_ > 0)
      out.push_back(std::to_string(stage_mismatches_) +
                    " patches whose five stages do not sum to e2e");
    std::size_t received = 0, system_completed = 0;
    for (const core::StreamStats& s : system_.streams()) {
      received += s.patches_received;
      system_completed += s.patches_completed;
    }
    if (received != sent_)
      out.push_back("system received " + std::to_string(received) +
                    " patches, the replay sent " + std::to_string(sent_));
    if (system_completed != completed_)
      out.push_back("system counted " + std::to_string(system_completed) +
                    " completions, the replay saw " +
                    std::to_string(completed_));
    if (completed_ > sent_)
      out.push_back("more completions than patches sent");
    if (!sim_.idle() || system_.pool().pending_patches() != 0 ||
        system_.platform().queued_requests() != 0)
      out.push_back("work left queued after flush and drain");
    return out;
  }

  [[nodiscard]] std::size_t sent() const { return sent_; }
  [[nodiscard]] std::size_t completed() const { return completed_; }
  // Patches sent but never completed: every sent patch ends either
  // completed (exactly once, checked above) or failed.
  [[nodiscard]] std::size_t failed() const { return sent_ - completed_; }
  [[nodiscard]] std::size_t late() const { return late_; }
  [[nodiscard]] const core::TangramSystem& system() const { return system_; }

  // Every simulated-time metric, plus a fingerprint over the completion
  // stream; all of it is deterministic for a given workload and seed.
  [[nodiscard]] std::vector<Metric> sim_metrics(
      std::uint64_t* fingerprint) const;

  [[nodiscard]] const std::vector<std::vector<experiments::FrameRecord>>&
  accuracy_frames() const {
    return accuracy_frames_;
  }

 private:
  // Each camera's first frame; every frame then schedules the next.
  void start() {
    for (std::size_t cam = 0; cam < frames_of_.size(); ++cam)
      if (frames_of_[cam] > 0)
        sim_.schedule_at(capture_time(cam, 0) + kEdgeLatencyS,
                         [this, cam] { emit(cam, 0); });
  }

  void drain() {
    if (tracer_ == nullptr) {
      sim_.run();
      return;
    }
    while (!sim_.idle()) {
      ScopedSpan span(tracer_, SpanName::kSimStep);
      sim_.step();
    }
  }

  [[nodiscard]] double capture_time(std::size_t cam, std::uint64_t k) const {
    if (kind_ == Kind::kFlashCrowd)
      return phase_[cam] +
             static_cast<double>(k / kWaveOnFrames) * kWavePeriodS +
             static_cast<double>(k % kWaveOnFrames) * interval_[cam];
    // run_multistream's arithmetic, term for term (its stream start is 0).
    return 0.0 + phase_[cam] + static_cast<double>(k) * interval_[cam];
  }

  [[nodiscard]] double slo_at(std::size_t cam, double capture) const {
    const double phase = fleet_.flip_phase[cam];
    if (phase < 0.0) return fleet_.slo[cam];
    const bool tight =
        std::fmod(capture + phase, 2.0 * kFlipHalfPeriodS) >= kFlipHalfPeriodS;
    return tight ? tight_slo_ : fleet_.slo[cam];
  }

  void emit(std::size_t cam, std::uint64_t k) {
    ScopedSpan span(tracer_, SpanName::kHarnessEmit);
    const double capture = capture_time(cam, k);
    ++frames_;
    // Camera 0 opens every flash_crowd wave; the previous wave's backlog
    // should have drained in the valley before it.
    if (kind_ == Kind::kFlashCrowd && cam == 0 && k > 0 &&
        k % kWaveOnFrames == 0 && system_.platform().queued_requests() > 0)
      ++undrained_waves_;
    if (kind_ == Kind::kEdgeLive) {
      emit_edge(cam, k, capture);
    } else {
      const experiments::SceneTrace& trace = *traces_[cam];
      const experiments::FrameRecord& frame = trace.eval_frame(
          static_cast<std::size_t>(k % trace.eval_frame_count()));
      for (std::size_t p = 0; p < frame.patches.size(); ++p) {
        core::Patch patch;
        patch.camera_id = static_cast<int>(cam);
        patch.frame_index = frame.frame_index;
        patch.region = frame.patches[p];
        patch.bytes = frame.patch_bytes[p];
        send(cam, patch, capture);
      }
    }
    if (k + 1 < frames_of_[cam])
      sim_.schedule_at(capture_time(cam, k + 1) + kEdgeLatencyS,
                       [this, cam, k] { emit(cam, k + 1); });
  }

  void emit_edge(std::size_t cam, std::uint64_t k, double capture) {
    EdgeRig& rig = *edge_[cam];
    video::FrameTruth truth;
    {
      ScopedSpan span(tracer_, SpanName::kEdgeScene);
      truth = rig.scene.next_frame();
    }
    video::Image pixels;
    {
      ScopedSpan span(tracer_, SpanName::kEdgeRender);
      pixels = rig.camera.rasterizer().render(truth);
    }
    std::vector<core::Patch> patches;
    {
      ScopedSpan span(tracer_, SpanName::kEdgeOnFrame);
      patches = rig.camera.on_frame(truth, &pixels);
    }
    if (k < kEdgeAccuracyFrames) {
      experiments::FrameRecord record;
      record.frame_index = truth.frame_index;
      record.objects = truth.objects;
      for (const core::Patch& patch : patches)
        record.patches.push_back(patch.region);
      accuracy_frames_[cam].push_back(std::move(record));
    }
    for (core::Patch& patch : patches) send(cam, patch, capture);
  }

  void send(std::size_t cam, core::Patch patch, double capture) {
    patch.id = next_patch_id_++;
    patch.generation_time = capture;
    const double slo =
        kind_ == Kind::kClassDrift ? slo_at(cam, capture) : fleet_.slo[cam];
    if (kind_ == Kind::kClassDrift) patch.slo = slo;
    ++sent_;
    if (slo == tight_slo_) ++tight_sent_;
    bytes_sent_ += patch.bytes;
    // Park the patch so the delivery event captures only [this, slot] and
    // rides the simulator's inline event storage.
    std::uint32_t slot;
    if (parked_free_.empty()) {
      slot = static_cast<std::uint32_t>(parked_.size());
      parked_.push_back(patch);
    } else {
      slot = parked_free_.back();
      parked_free_.pop_back();
      parked_[slot] = patch;
    }
    tangram::net::Link& link = *links_[kind_ == Kind::kEdgeLive ? 0 : cam];
    link.send(patch.bytes, [this, slot] { deliver(slot); });
  }

  void deliver(std::uint32_t slot) {
    const core::Patch patch = parked_[slot];
    parked_free_.push_back(slot);
    ScopedSpan span(tracer_, SpanName::kSchedReceivePatch);
    system_.receive_patch(streams_[static_cast<std::size_t>(patch.camera_id)],
                          patch);
  }

  void on_result(const core::Patch& patch,
                 const serverless::InvocationRecord& record) {
    ScopedSpan span(tracer_, SpanName::kHarnessResult);
    if (patch.id == 0 || patch.id >= next_patch_id_) {
      ++unknown_completions_;
      return;
    }
    if (patch.id >= seen_.size()) seen_.resize(next_patch_id_, false);
    if (seen_[patch.id]) {
      ++duplicate_completions_;
      return;
    }
    seen_[patch.id] = true;
    ++completed_;

    // e2e = uplink + scheduler wait + platform queue + cold start + exec.
    const double e2e = record.finish_time - patch.generation_time;
    const double uplink = patch.arrival_time - patch.generation_time;
    const double wait = record.submit_time - patch.arrival_time;
    const double queue =
        record.start_time - record.setup_s - record.submit_time;
    const double exec = record.finish_time - record.start_time;
    if (std::abs(uplink + wait + queue + record.setup_s + exec - e2e) > 1e-9)
      ++stage_mismatches_;
    e2e_.add(e2e);
    uplink_.add(uplink);
    wait_.add(wait);
    queue_.add(queue);

    const bool late = record.finish_time > patch.deadline() + 1e-9;
    late_ += late;
    late_dispatches_ += record.submit_time > patch.deadline() + 1e-9;
    if (patch.slo == tight_slo_) {
      ++tight_completed_;
      tight_late_ += late;
    }
    std::uint64_t finish_bits;
    std::memcpy(&finish_bits, &record.finish_time, sizeof finish_bits);
    fingerprint_ = (fingerprint_ ^ patch.id) * 0x100000001b3ULL;
    fingerprint_ = (fingerprint_ ^ finish_bits) * 0x100000001b3ULL;
  }

  Kind kind_;
  double tight_slo_;
  const Fleet& fleet_;
  std::vector<const experiments::SceneTrace*> traces_;
  std::vector<std::unique_ptr<EdgeRig>> edge_;
  std::vector<std::uint64_t> frames_of_;
  SpanTracer* tracer_;

  tangram::sim::Simulator sim_;
  std::vector<std::unique_ptr<tangram::net::Link>> links_;
  core::TangramSystem system_;
  std::vector<core::StreamId> streams_;
  std::vector<double> interval_;
  std::vector<double> phase_;
  std::vector<core::Patch> parked_;
  std::vector<std::uint32_t> parked_free_;
  std::vector<std::vector<experiments::FrameRecord>> accuracy_frames_;

  // Ledger.
  std::uint64_t next_patch_id_ = 1;
  std::uint64_t frames_ = 0;
  std::size_t sent_ = 0;
  std::size_t completed_ = 0;
  std::size_t late_ = 0;
  std::size_t late_dispatches_ = 0;
  std::size_t tight_sent_ = 0;
  std::size_t tight_completed_ = 0;
  std::size_t tight_late_ = 0;
  std::size_t bytes_sent_ = 0;
  std::size_t duplicate_completions_ = 0;
  std::size_t unknown_completions_ = 0;
  std::size_t stage_mismatches_ = 0;
  std::size_t undrained_waves_ = 0;
  std::vector<bool> seen_;
  LatencyHistogram e2e_, uplink_, wait_, queue_;
  std::uint64_t fingerprint_ = 0xcbf29ce484222325ULL;
};

std::vector<Metric> Replay::sim_metrics(std::uint64_t* fingerprint) const {
  const auto n = [](std::size_t v) { return static_cast<double>(v); };
  const double sent = n(sent_);
  const double completed = n(completed_);
  const double frames = static_cast<double>(frames_);
  const std::size_t never = failed();
  const serverless::FunctionPlatform& platform = system_.platform();
  const core::InvokerStats sched = system_.pool().aggregate_stats();
  const double makespan = sim_.now();

  double link_busy = 0.0;
  for (const auto& link : links_) link_busy += link->transmission_time().sum();
  double backlog_p99 = 0.0;
  std::size_t autoscale_ticks = 0;
  for (const serverless::PoolTelemetry& pool : platform.pool_telemetry()) {
    if (!pool.backlog_depth.empty())
      backlog_p99 = std::max(backlog_p99, pool.backlog_depth.quantile(0.99));
    autoscale_ticks = std::max(autoscale_ticks, pool.series.size());
  }
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  std::vector<Metric> m = {
      {"slo_miss_rate", "frac", ratio(n(late_ + never), sent)},
      {"tight_miss_rate", "frac",
       ratio(n(tight_late_ + (tight_sent_ - tight_completed_)),
             n(tight_sent_))},
      {"failed_frac", "frac", ratio(n(failed()), sent)},
      {"e2e_p50_ms", "ms", 1e3 * e2e_.quantile(0.50)},
      {"e2e_p999_ms", "ms", 1e3 * e2e_.quantile(0.999)},
      {"cost_per_1k_patches_usd", "usd",
       1e3 * ratio(system_.total_cost(), completed)},
      {"uplink_kb_per_frame", "KiB", ratio(n(bytes_sent_) / 1024.0, frames)},
      {"edge.patches_per_frame", "count", ratio(sent, frames)},
      {"edge.kb_per_patch", "KiB", ratio(n(bytes_sent_) / 1024.0, sent)},
      {"net.uplink_ms.p50", "ms", 1e3 * uplink_.quantile(0.50)},
      {"net.uplink_ms.p99", "ms", 1e3 * uplink_.quantile(0.99)},
      {"net.link_util", "frac", ratio(link_busy, n(links_.size()) * makespan)},
      {"sched.wait_ms.p50", "ms", 1e3 * wait_.quantile(0.50)},
      {"sched.wait_ms.p99", "ms", 1e3 * wait_.quantile(0.99)},
      {"sched.batches", "count", n(sched.batches_invoked)},
      {"sched.patches_per_batch", "count", sched.batch_patch_count.mean()},
      {"sched.canvases_per_batch", "count", sched.batch_canvas_count.mean()},
      {"sched.canvas_fill", "frac", sched.canvas_efficiency.mean()},
      {"sched.forced_flush_frac", "frac",
       ratio(n(sched.forced_flushes), n(sched.batches_invoked))},
      {"sched.incremental_adds", "count", n(sched.incremental_adds)},
      {"sched.full_repacks", "count", n(sched.full_repacks)},
      {"sched.migrations", "count", n(sched.migrations)},
      {"sched.steals", "count", n(sched.steals)},
      {"sched.rebalance_ticks", "count",
       static_cast<double>(system_.pool().rebalance_ticks())},
      {"sched.late_dispatch_frac", "frac",
       ratio(n(late_dispatches_), completed)},
      {"platform.queue_ms.p50", "ms", 1e3 * queue_.quantile(0.50)},
      {"platform.queue_ms.p99", "ms", 1e3 * queue_.quantile(0.99)},
      {"platform.backlog_p99", "count", backlog_p99},
      {"platform.undrained_waves", "count", n(undrained_waves_)},
      {"platform.cold_starts", "count",
       static_cast<double>(platform.cold_starts())},
      {"platform.cold_start_ms_total", "ms",
       1e3 * platform.cold_start_setup().stats().sum()},
      {"platform.prewarm_boots", "count",
       static_cast<double>(platform.prewarm_boots())},
      {"platform.autoscale_ticks", "count", n(autoscale_ticks)},
      {"platform.invocations", "count",
       static_cast<double>(platform.invocations())},
      {"platform.exec_ms_p50", "ms",
       platform.execution_latency().empty()
           ? 0.0
           : 1e3 * platform.execution_latency().quantile(0.5)},
      {"platform.busy_s", "s", platform.busy_seconds()},
      {"platform.utilization", "frac",
       ratio(platform.busy_seconds(), kInstances * makespan)},
      {"sim.events_per_patch", "count",
       ratio(static_cast<double>(sim_.events_executed()), completed)},
      {"io.frames", "count", frames},
      {"io.patches_sent", "count", sent},
      {"io.patches_completed", "count", completed},
      {"io.patches_failed", "count", n(failed())},
  };
  std::uint64_t h = fingerprint_;
  for (const Metric& metric : m) {
    std::uint64_t bits;
    std::memcpy(&bits, &metric.value, sizeof bits);
    h = (h ^ bits) * 0x100000001b3ULL;
  }
  *fingerprint = h;
  return m;
}

// --- setup ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;
  double scale = 1.0;
};

// Scenes as the workload replays them.  A scaled-down (smoke) run trains and
// evaluates on a handful of frames instead of the full sequence.
video::SceneSpec scene_spec(int index, const Options& options) {
  video::SceneSpec spec = video::panda4k_scene(index);
  if (options.scale < 1.0) {
    spec.training_frames = 10;
    spec.total_frames = 20;
  }
  return spec;
}

using Traces = std::vector<std::unique_ptr<experiments::SceneTrace>>;
using EdgeFrames = std::vector<std::vector<experiments::FrameRecord>>;

// What one set-up cost; total_s() is what setup_s reports.
struct SetupCost {
  double build_trace_s = 0.0;
  double profile_s = 0.0;
  double edge_warmup_s = 0.0;
  double system_s = 0.0;
  double allocs = 0.0;
  [[nodiscard]] double total_s() const {
    return build_trace_s + profile_s + edge_warmup_s + system_s;
  }
};

struct Setup {
  Traces traces;  // by scene; empty when the set-up reused another's
  std::unique_ptr<Replay> replay;
  SetupCost cost;
};

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(SpanTracer::now_ns() - start_ns) / 1e9;
}

// Everything a replay needs before it starts: traces (built, or `reuse`d
// from an earlier set-up), profiling, edge warm-up, and the system itself.
// Each camera emits `frames` frames; 0 means the workload's length, scaled.
Setup set_up(const Workload& w, const Fleet& fleet, const Options& options,
             SpanTracer* tracer, const Traces* reuse = nullptr,
             std::uint64_t frames = 0) {
  Setup setup;
  const tangram::common::AllocationProbe allocs;
  const std::size_t cameras = fleet.slo.size();
  std::vector<const experiments::SceneTrace*> camera_traces;
  std::vector<std::unique_ptr<EdgeRig>> edge;
  if (w.kind != Kind::kEdgeLive) {
    if (reuse == nullptr) {
      ScopedSpan span(tracer, SpanName::kSetupBuildTrace);
      const std::int64_t t0 = SpanTracer::now_ns();
      for (const int scene : kScenes)
        setup.traces.push_back(std::make_unique<experiments::SceneTrace>(
            experiments::build_trace(scene_spec(scene, options))));
      setup.cost.build_trace_s = seconds_since(t0);
      reuse = &setup.traces;
    }
    for (std::size_t cam = 0; cam < cameras; ++cam)
      camera_traces.push_back(
          (*reuse)[static_cast<std::size_t>(fleet.scene[cam])].get());
  }
  experiments::MultiStreamConfig config = multistream_config(w, fleet);
  {
    ScopedSpan span(tracer, SpanName::kSetupProfile);
    const std::int64_t t0 = SpanTracer::now_ns();
    config.profiled_estimator = experiments::profile_estimator(config);
    setup.cost.profile_s = seconds_since(t0);
  }
  if (w.kind == Kind::kEdgeLive) {
    ScopedSpan span(tracer, SpanName::kSetupEdgeWarmup);
    const std::int64_t t0 = SpanTracer::now_ns();
    const int warmup = options.scale < 1.0 ? 10 : kEdgeWarmupFrames;
    for (std::size_t cam = 0; cam < cameras; ++cam) {
      video::SceneSpec spec = scene_spec(
          kScenes[static_cast<std::size_t>(fleet.scene[cam])], options);
      spec.seed += 7919 * fleet.slot[cam];  // every slot has its own crowd
      core::EdgeCamera::Config camera;
      camera.camera_id = static_cast<int>(cam);
      camera.slo_s = fleet.slo[cam];
      camera.seed = fleet.slot[cam] + 1 + 7919 * options.seed;
      auto rig = std::make_unique<EdgeRig>(
          EdgeRig{video::SyntheticScene(spec),
                  core::EdgeCamera(spec.frame, camera)});
      for (int f = 0; f < warmup; ++f)
        (void)rig->camera.on_frame(rig->scene.next_frame());
      edge.push_back(std::move(rig));
    }
    setup.cost.edge_warmup_s = seconds_since(t0);
  }
  {
    ScopedSpan span(tracer, SpanName::kSetupSystem);
    const std::int64_t t0 = SpanTracer::now_ns();
    if (frames == 0)
      frames = static_cast<std::uint64_t>(std::max(
          1.0, std::round(static_cast<double>(w.frames_per_camera) *
                          options.scale)));
    setup.replay = std::make_unique<Replay>(
        w, fleet, config, std::move(camera_traces), std::move(edge),
        std::vector<std::uint64_t>(cameras, frames), tracer);
    setup.cost.system_s = seconds_since(t0);
  }
  setup.cost.allocs = static_cast<double>(allocs.allocations());
  return setup;
}

// --- one replay --------------------------------------------------------------

struct ReplayResult {
  bool traced = false;
  double replay_s = 0.0;
  double patches_per_s = 0.0;
  double allocs_per_patch = 0.0;
  std::vector<Metric> sim;
  std::uint64_t fingerprint = 0;
  std::vector<std::string> violations;
  std::size_t sent = 0, failed = 0;
};

// The timed region, then the ledger's metrics and gates.  The first replay
// also hands back the edge frames it recorded, for the accuracy metric.
ReplayResult run_replay(Setup& setup, SpanTracer* tracer,
                        EdgeFrames& edge_frames) {
  ReplayResult result;
  result.traced = tracer != nullptr;
  Replay& replay = *setup.replay;
  const tangram::common::AllocationProbe allocs;
  const std::int64_t t0 = SpanTracer::now_ns();
  replay.run();
  result.replay_s = seconds_since(t0);
  const auto replay_allocs = static_cast<double>(allocs.allocations());

  const auto completed = static_cast<double>(replay.completed());
  result.patches_per_s = completed / result.replay_s;
  result.allocs_per_patch = completed > 0 ? replay_allocs / completed : 0.0;
  result.sim = replay.sim_metrics(&result.fingerprint);
  result.violations = replay.violations();
  result.sent = replay.sent();
  result.failed = replay.failed();
  if (edge_frames.empty()) edge_frames = replay.accuracy_frames();
  return result;
}

// --- post-replay measurements (outside every timed region) ----------------

// experiments::stitched_canvas_ap over the frames replayed, weighted by how
// many camera-frames each trace contributed.
double accuracy_ap50(const Workload& w, const Fleet& fleet,
                     const Options& options, const Traces& traces,
                     const EdgeFrames& edge_frames) {
  double weighted = 0.0, weight = 0.0;
  if (w.kind == Kind::kEdgeLive) {
    for (std::size_t cam = 0; cam < edge_frames.size(); ++cam) {
      experiments::SceneTrace trace;
      trace.spec = scene_spec(
          kScenes[static_cast<std::size_t>(fleet.scene[cam])], options);
      trace.spec.training_frames = 0;
      trace.frames = edge_frames[cam];
      const auto frames = static_cast<double>(trace.frames.size());
      if (frames == 0) continue;
      weighted += frames * experiments::stitched_canvas_ap(trace);
      weight += frames;
    }
    return weight > 0 ? weighted / weight : 0.0;
  }
  for (std::size_t s = 0; s < kScenes.size(); ++s) {
    const auto cameras = static_cast<double>(std::count(
        fleet.scene.begin(), fleet.scene.end(), static_cast<int>(s)));
    if (cameras == 0) continue;
    weighted += cameras * experiments::stitched_canvas_ap(*traces[s]);
    weight += cameras;
  }
  return weight > 0 ? weighted / weight : 0.0;
}

// The replay must be run_multistream's program, not a variant: at one lap
// over each camera's evaluation frames the two agree exactly.
std::vector<std::string> cross_check(const Workload& w, const Fleet& fleet,
                                     const Traces& traces) {
  std::vector<std::string> out;
  experiments::MultiStreamConfig config = multistream_config(w, fleet);
  config.profiled_estimator = experiments::profile_estimator(config);
  std::vector<const experiments::SceneTrace*> cameras;
  std::vector<std::uint64_t> one_lap;
  for (const int scene : fleet.scene) {
    cameras.push_back(traces[static_cast<std::size_t>(scene)].get());
    one_lap.push_back(cameras.back()->eval_frame_count());
  }
  Replay replay(w, fleet, config, cameras, {}, std::move(one_lap), nullptr);
  replay.run();
  const experiments::MultiStreamResult harness =
      experiments::run_multistream(cameras, config);
  const auto check = [&](const char* what, double ours, double theirs) {
    if (ours != theirs)
      out.push_back(std::string("cross-check ") + what + ": replay " +
                    std::to_string(ours) + " vs run_multistream " +
                    std::to_string(theirs));
  };
  check("patches_completed", static_cast<double>(replay.completed()),
        static_cast<double>(harness.patches_completed));
  check("slo_violations", static_cast<double>(replay.late()),
        static_cast<double>(harness.slo_violations));
  check("invocations",
        static_cast<double>(replay.system().platform().invocations()),
        static_cast<double>(harness.invocations));
  check("total_cost", replay.system().total_cost(), harness.total_cost);
  return out;
}

// Largest steady_mixed fleet whose slo_miss_rate stays within the paper's
// 5% bound: bisection over [128, 768] cameras at 8-camera resolution, each
// probe a 600-frame replay.
double capacity_cameras(const Workload& w, const Options& options) {
  constexpr double kMaxMissRate = 0.05;
  constexpr std::uint64_t kProbeFrames = 600;
  std::size_t lo = 128, hi = 768;
  while (hi - lo > 8) {
    const std::size_t mid = (lo + hi) / 2 / 8 * 8;
    const Fleet fleet = make_fleet(w, mid, options.seed);
    Setup setup = set_up(w, fleet, options, nullptr, nullptr, kProbeFrames);
    (setup.replay->run_probe(kMaxMissRate) ? lo : hi) = mid;
  }
  return static_cast<double>(lo);
}

// --- output ----------------------------------------------------------------

void append_json_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  out += buf;
}

int run(const Options& options) {
  const Workload w = workload_by_name(options.workload);
  const Fleet fleet = make_fleet(w, w.cameras, options.seed);
  const bool tracing = !options.trace_path.empty();

  // Set-ups.  A trace workload sets up kTraceSetups times and replays over
  // the first set-up's traces; an edge replay needs freshly warmed cameras,
  // so edge_live sets up once per replay.
  constexpr int kTraceSetups = 3;
  const bool live = w.kind == Kind::kEdgeLive;
  std::unique_ptr<SpanTracer> tracer;
  if (tracing) tracer = std::make_unique<SpanTracer>(kMaxTraceEvents);
  std::vector<SetupCost> setups;
  Traces traces;
  for (int i = 0; !live && i < kTraceSetups; ++i) {
    Setup setup = set_up(w, fleet, options, tracer.get());
    setups.push_back(setup.cost);
    if (traces.empty()) traces = std::move(setup.traces);
    std::fprintf(stderr, "[%s] set-up %d: %.3f s\n", w.name, i + 1,
                 setup.cost.total_s());
  }

  // Replays: a fixed count, so every commit measures the same work; with
  // --trace, half of the budget untraced and half traced.
  std::vector<ReplayResult> reps;
  EdgeFrames edge_frames;
  const auto replay_n = [&](SpanTracer* span_tracer, double budget_s) {
    const auto n =
        std::max<long>(2, std::lround(budget_s / w.nominal_replay_s));
    for (long i = 0; i < n; ++i) {
      Setup setup = set_up(w, fleet, options, span_tracer,
                           live ? nullptr : &traces);
      if (live) setups.push_back(setup.cost);
      reps.push_back(run_replay(setup, span_tracer, edge_frames));
      std::fprintf(stderr, "[%s] replay %zu%s: %.3f s, %.0f patches/s\n",
                   w.name, reps.size(), span_tracer ? " (traced)" : "",
                   reps.back().replay_s, reps.back().patches_per_s);
    }
  };
  if (tracing) {
    replay_n(nullptr, options.seconds / 2);
    replay_n(tracer.get(), options.seconds / 2);
  } else {
    replay_n(nullptr, options.seconds);
  }
  const double peak_rss_mb =
      static_cast<double>(experiments::peak_rss_kb()) / 1024.0;

  // Correctness gates.
  std::vector<std::string> violations;
  for (const ReplayResult& rep : reps)
    for (const std::string& v : rep.violations) violations.push_back(v);
  for (std::size_t i = 1; i < reps.size(); ++i)
    if (reps[i].fingerprint != reps[0].fingerprint)
      violations.push_back("replay " + std::to_string(i + 1) +
                           (reps[i].traced ? " (traced)" : "") +
                           " disagrees with replay 1 on simulated-time "
                           "metrics");
  if (w.kind == Kind::kSteadyMixed)
    for (const std::string& v : cross_check(w, fleet, traces))
      violations.push_back(v);

  // Medians of the wall-clock measurements.
  const auto replay_median = [&](auto field, bool traced) {
    std::vector<double> v;
    for (const ReplayResult& rep : reps)
      if (rep.traced == traced) v.push_back(field(rep));
    return median(v);
  };
  const auto setup_median = [&](auto field) {
    std::vector<double> v;
    for (const SetupCost& cost : setups) v.push_back(field(cost));
    return median(v);
  };
  std::vector<Metric> metrics = {
      {"patches_per_s", "1/s",
       replay_median([](const ReplayResult& r) { return r.patches_per_s; },
                     false)},
      {"setup_s", "s",
       setup_median([](const SetupCost& c) { return c.total_s(); })},
      {"peak_rss_mb", "MiB", peak_rss_mb},
      {"accuracy_ap50", "AP",
       accuracy_ap50(w, fleet, options, traces, edge_frames)},
      {"setup.build_trace_s", "s",
       setup_median([](const SetupCost& c) { return c.build_trace_s; })},
      {"setup.profile_s", "s",
       setup_median([](const SetupCost& c) { return c.profile_s; })},
      {"setup.system_s", "s",
       setup_median([](const SetupCost& c) { return c.system_s; })},
      {"setup.edge_warmup_s", "s",
       setup_median([](const SetupCost& c) { return c.edge_warmup_s; })},
      {"mem.allocs_per_patch", "count",
       replay_median([](const ReplayResult& r) { return r.allocs_per_patch; },
                     false)},
      {"mem.setup_allocs", "count",
       setup_median([](const SetupCost& c) { return c.allocs; })},
  };
  for (const Metric& m : reps.front().sim) metrics.push_back(m);
  if (w.kind == Kind::kSteadyMixed && tracing)
    metrics.push_back(
        {"capacity_cameras", "count", capacity_cameras(w, options)});

  if (tracing) {
    double traced_replay_ns = 0.0;
    for (const ReplayResult& rep : reps)
      if (rep.traced) traced_replay_ns += 1e9 * rep.replay_s;
    const auto agg = [&](SpanName name) -> const SpanTracer::Aggregate& {
      return tracer->aggregate(name);
    };
    const auto share = [&](SpanName name) {
      return static_cast<double>(agg(name).self_ns) / traced_replay_ns;
    };
    const double traced_pps = replay_median(
        [](const ReplayResult& r) { return r.patches_per_s; }, true);
    const double untraced_pps = replay_median(
        [](const ReplayResult& r) { return r.patches_per_s; }, false);
    const auto& flush = agg(SpanName::kSchedFlush);
    const std::vector<Metric> layer = {
        {"edge.on_frame.p50_ms", "ms",
         agg(SpanName::kEdgeOnFrame).quantile_ns(0.5) / 1e6},
        {"edge.on_frame.p99_ms", "ms",
         agg(SpanName::kEdgeOnFrame).quantile_ns(0.99) / 1e6},
        {"edge.on_frame.self_share", "frac", share(SpanName::kEdgeOnFrame)},
        {"edge.render.self_share", "frac", share(SpanName::kEdgeRender)},
        {"edge.scene.self_share", "frac", share(SpanName::kEdgeScene)},
        {"sched.receive_patch.p50_us", "us",
         agg(SpanName::kSchedReceivePatch).quantile_ns(0.5) / 1e3},
        {"sched.receive_patch.p99_us", "us",
         agg(SpanName::kSchedReceivePatch).quantile_ns(0.99) / 1e3},
        {"sched.receive_patch.self_share", "frac",
         share(SpanName::kSchedReceivePatch)},
        {"sched.flush_ms", "ms",
         static_cast<double>(flush.total_ns) / 1e6 /
             static_cast<double>(std::max<std::uint64_t>(1, flush.count))},
        {"sim.step.p99_us", "us",
         agg(SpanName::kSimStep).quantile_ns(0.99) / 1e3},
        {"sim.step.self_share", "frac", share(SpanName::kSimStep)},
        {"harness.self_share", "frac",
         share(SpanName::kHarnessEmit) + share(SpanName::kHarnessResult)},
        {"trace.overhead_frac", "frac",
         untraced_pps > 0 ? 1.0 - traced_pps / untraced_pps : 0.0},
    };
    metrics.insert(metrics.end(), layer.begin(), layer.end());
    if (!tracer->write_chrome_json(options.trace_path))
      violations.push_back("cannot write trace to " + options.trace_path);
  }

  // Human-readable table, then the one-line result.
  std::printf("workload %s  seed %llu  reps %zu\n", w.name,
              static_cast<unsigned long long>(options.seed), reps.size());
  for (const Metric& m : metrics)
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& v : violations)
    std::fprintf(stderr, "CORRECTNESS VIOLATION: %s\n", v.c_str());

  std::string json = "{\"correct\":";
  json += violations.empty() ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(reps.front().sent);
  json += ",\"failed\":" + std::to_string(reps.front().failed);
  json += ",\"reps\":" + std::to_string(reps.size());
  json += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ',';
    json += "\"" + metrics[i].name + "\":{\"value\":";
    append_json_number(json, metrics[i].value);
    json += ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return violations.empty() ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: tangram_bench --workload <steady_mixed|flash_crowd|"
               "class_drift|edge_live> --seed <n> [--seconds <s>] "
               "[--trace <path>] [--scale <f>]\n");
  return 2;
}

}  // namespace
}  // namespace tangram_bench

int main(int argc, char** argv) {
  tangram_bench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace_path = argv[++i];
    } else if (arg == "--scale" && has_value) {
      options.scale = std::strtod(argv[++i], nullptr);
    } else {
      return tangram_bench::usage();
    }
  }
  if (options.workload.empty() || !(options.scale > 0.0) ||
      !(options.seconds >= 0.0))
    return tangram_bench::usage();
  try {
    return tangram_bench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tangram_bench: %s\n", e.what());
    return 1;
  }
}
