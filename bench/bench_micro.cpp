// Micro-benchmarks (google-benchmark): throughput of the hot components —
// the patch-stitching solver (batch and incremental), the per-arrival repack
// loop of Algorithm 2 (from-scratch vs. StitchSession), adaptive frame
// partitioning, GMM background subtraction (untrained and trained), blob
// extraction, a whole live edge frame, the event queue, the latency
// estimator lookup, and the serverless platform's backlog drain.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/alloc_probe.h"
#include "common/rng.h"
#include "core/edge.h"
#include "core/estimator.h"
#include "core/free_rect_index.h"
#include "core/invoker.h"
#include "core/partitioner.h"
#include "core/stitcher.h"
#include "serverless/platform.h"
#include "sim/simulator.h"
#include "video/raster.h"
#include "video/scene_catalog.h"
#include "vision/components.h"
#include "vision/gmm.h"

// Global allocation tally for BM_DispatchPath's allocs_per_patch counter
// (shared probe, malloc passthrough; the relaxed increment is noise for
// every other benchmark in this binary).
TANGRAM_DEFINE_ALLOC_PROBE_HOOK();

using namespace tangram;

namespace {

std::vector<common::Size> random_patches(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed, 9);
  std::vector<common::Size> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({rng.uniform_int(40, 900), rng.uniform_int(60, 1000)});
  }
  return out;
}

void BM_StitchSolverPack(benchmark::State& state) {
  const auto patches =
      random_patches(static_cast<std::size_t>(state.range(0)), 11);
  const core::StitchSolver solver;
  for (auto _ : state) {
    auto result = solver.pack(patches, {1024, 1024});
    benchmark::DoNotOptimize(result.canvas_count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StitchSolverPack)->Arg(8)->Arg(32)->Arg(128);

// One batch window of Algorithm 2 with the paper's literal line 8: after
// every arrival, re-run the solver over the whole queue.  O(n^2) placements
// per window.
void BM_RepackFromScratch(benchmark::State& state) {
  const auto patches =
      random_patches(static_cast<std::size_t>(state.range(0)), 17);
  const core::StitchSolver solver;
  for (auto _ : state) {
    int canvases = 0;
    for (std::size_t k = 1; k <= patches.size(); ++k) {
      auto result =
          solver.pack(std::span(patches.data(), k), {1024, 1024});
      canvases = result.canvas_count;
    }
    benchmark::DoNotOptimize(canvases);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RepackFromScratch)->Arg(16)->Arg(64)->Arg(256);

// The same batch window through the incremental engine: one session add per
// arrival, identical placements.  O(n) placements per window.
void BM_RepackIncremental(benchmark::State& state) {
  const auto patches =
      random_patches(static_cast<std::size_t>(state.range(0)), 17);
  for (auto _ : state) {
    core::StitchSession session({1024, 1024});
    for (const auto& patch : patches) session.add(patch);
    benchmark::DoNotOptimize(session.canvas_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RepackIncremental)->Arg(16)->Arg(64)->Arg(256);

// The invoker's un-admit path: tentative add, inspect, rollback.
void BM_SessionCheckpointRollback(benchmark::State& state) {
  const auto patches = random_patches(64, 19);
  core::StitchSession session({1024, 1024});
  for (const auto& patch : patches) session.add(patch);
  const common::Size probe{333, 444};
  for (auto _ : state) {
    const auto checkpoint = session.checkpoint();
    session.add(probe);
    session.rollback(checkpoint);
    benchmark::DoNotOptimize(session.canvas_count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionCheckpointRollback);

void BM_PartitionFrame(benchmark::State& state) {
  common::Rng rng(7, 3);
  std::vector<common::Rect> rois;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    rois.push_back({rng.uniform_int(0, 3600), rng.uniform_int(0, 2000),
                    rng.uniform_int(20, 240), rng.uniform_int(40, 480)});
  }
  const core::PartitionConfig config;
  for (auto _ : state) {
    auto patches = core::partition_patches({3840, 2160}, rois, config);
    benchmark::DoNotOptimize(patches.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PartitionFrame)->Arg(16)->Arg(128)->Arg(1024);

void BM_GmmApply(benchmark::State& state) {
  auto spec = video::test_scene(5);
  spec.frame = {1920, 1080};
  video::SyntheticScene scene(spec);
  video::RasterConfig raster_config;
  raster_config.analysis = {static_cast<int>(state.range(0)),
                            static_cast<int>(state.range(0)) * 9 / 16};
  video::FrameRasterizer rasterizer(spec.frame, raster_config);
  vision::GmmBackgroundSubtractor gmm(raster_config.analysis);

  std::vector<video::Image> frames;
  for (int i = 0; i < 8; ++i) frames.push_back(rasterizer.render(scene.next_frame()));

  std::size_t i = 0;
  for (auto _ : state) {
    auto mask = gmm.apply(frames[i % frames.size()]);
    benchmark::DoNotOptimize(mask.data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations() *
                          raster_config.analysis.area());
}
BENCHMARK(BM_GmmApply)->Arg(320)->Arg(480)->Arg(960);

// Frames a PANDA camera renders and trains its GMM on before its masks are
// representative (the scenes' training prefix).
constexpr int kGmmTrainingFrames = 100;

// GMM as a live edge camera runs it: PANDA scene `range(0)` at the default
// 480x270 analysis resolution, trained for kGmmTrainingFrames frames, then
// timed on each frame that follows (rendered untimed).  BM_GmmApply cycles
// untrained frames of a test scene instead, where far more pixels miss or
// re-rank their components.
void BM_GmmApplyTrained(benchmark::State& state) {
  const auto spec = video::panda4k_scene(static_cast<int>(state.range(0)));
  video::SyntheticScene scene(spec);
  video::FrameRasterizer rasterizer(spec.frame, video::RasterConfig{});
  vision::GmmBackgroundSubtractor gmm(rasterizer.analysis_size());
  for (int f = 0; f < kGmmTrainingFrames; ++f)
    (void)gmm.apply(rasterizer.render(scene.next_frame()));
  for (auto _ : state) {
    state.PauseTiming();
    const video::Image frame = rasterizer.render(scene.next_frame());
    state.ResumeTiming();
    auto mask = gmm.apply(frame);
    benchmark::DoNotOptimize(mask.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          rasterizer.analysis_size().area());
}
BENCHMARK(BM_GmmApplyTrained)
    ->Arg(1)
    ->Arg(5)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond);

// GMM across a live edge fleet, as edge_live runs it: range(0) cameras,
// camera c on PANDA scene 1, 5 or 10 (c mod 3) with its own sensor noise,
// each trained for kGmmTrainingFrames frames, then applied round-robin, one
// frame per camera in turn (frames rendered untimed).  Twelve mixtures of
// 4.7 MB (K = 3 at 480x270) are far more than the caches hold, so every
// apply streams its mixture from memory; BM_GmmApplyTrained keeps one
// camera's mixture warm and cannot show that cost.
void BM_GmmApplyFleet(benchmark::State& state) {
  constexpr int kFleetScenes[] = {1, 5, 10};
  constexpr std::size_t kFramesPerCamera = 4;
  const auto cameras = static_cast<std::size_t>(state.range(0));
  std::vector<vision::GmmBackgroundSubtractor> gmms;
  gmms.reserve(cameras);
  std::vector<std::vector<video::Image>> frames(cameras);
  for (std::size_t c = 0; c < cameras; ++c) {
    const auto spec = video::panda4k_scene(kFleetScenes[c % 3]);
    video::SyntheticScene scene(spec);
    video::RasterConfig raster;
    raster.seed = 99 + c;
    video::FrameRasterizer rasterizer(spec.frame, raster);
    auto& gmm = gmms.emplace_back(rasterizer.analysis_size());
    for (int f = 0; f < kGmmTrainingFrames; ++f)
      (void)gmm.apply(rasterizer.render(scene.next_frame()));
    for (std::size_t f = 0; f < kFramesPerCamera; ++f)
      frames[c].push_back(rasterizer.render(scene.next_frame()));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t c = i % cameras;
    auto mask = gmms[c].apply(frames[c][(i / cameras) % kFramesPerCamera]);
    benchmark::DoNotOptimize(mask.data());
    benchmark::ClobberMemory();
    ++i;
  }
  state.SetItemsProcessed(state.iterations() *
                          video::RasterConfig{}.analysis.area());
}
BENCHMARK(BM_GmmApplyFleet)->Arg(12)->Unit(benchmark::kMillisecond);

// Rendering as a live edge camera does it: PANDA scene `range(0)` at the
// default 480x270 analysis resolution, cycling the 16 frames that follow the
// scene's kGmmTrainingFrames-frame training prefix (generated untimed).  Most
// of the time is the per-pixel sensor noise.
void BM_Render(benchmark::State& state) {
  const auto spec = video::panda4k_scene(static_cast<int>(state.range(0)));
  video::SyntheticScene scene(spec);
  video::FrameRasterizer rasterizer(spec.frame, video::RasterConfig{});
  for (int f = 0; f < kGmmTrainingFrames; ++f) (void)scene.next_frame();
  std::vector<video::FrameTruth> truths;
  for (int f = 0; f < 16; ++f) truths.push_back(scene.next_frame());
  std::size_t i = 0;
  for (auto _ : state) {
    const video::Image frame = rasterizer.render(truths[i % truths.size()]);
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
    ++i;
  }
  state.SetItemsProcessed(state.iterations() *
                          rasterizer.analysis_size().area());
}
BENCHMARK(BM_Render)
    ->Arg(1)
    ->Arg(5)
    ->Arg(10)
    ->Unit(benchmark::kMicrosecond);

// Dilate, label and merge boxes on real GMM masks: PANDA scene `range(0)`
// at the default 480x270 analysis resolution, after training.
void BM_ExtractBlobs(benchmark::State& state) {
  const auto spec = video::panda4k_scene(static_cast<int>(state.range(0)));
  video::SyntheticScene scene(spec);
  video::FrameRasterizer rasterizer(spec.frame, video::RasterConfig{});
  vision::GmmBackgroundSubtractor gmm(rasterizer.analysis_size());
  std::vector<video::Mask> masks;
  for (int f = 0; f < kGmmTrainingFrames + 16; ++f) {
    video::Mask mask = gmm.apply(rasterizer.render(scene.next_frame()));
    if (f >= kGmmTrainingFrames) masks.push_back(std::move(mask));
  }
  const vision::ComponentParams params;
  std::size_t boxes = 0;
  for (const auto& mask : masks)
    boxes += vision::extract_blobs(mask, params).size();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto blobs = vision::extract_blobs(masks[i % masks.size()], params);
    benchmark::DoNotOptimize(blobs.data());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["boxes_per_mask"] =
      static_cast<double>(boxes) / static_cast<double>(masks.size());
}
BENCHMARK(BM_ExtractBlobs)->Arg(1)->Arg(5)->Arg(10);

// One live edge frame: render plus EdgeCamera::on_frame (GMM, blob
// extraction, partitioning, patch encoding) on a trained PANDA camera.
// Scene generation runs untimed.
void BM_EdgeOnFrame(benchmark::State& state) {
  const auto spec = video::panda4k_scene(static_cast<int>(state.range(0)));
  video::SyntheticScene scene(spec);
  core::EdgeCamera camera(spec.frame, core::EdgeCamera::Config{});
  for (int f = 0; f < kGmmTrainingFrames; ++f)
    (void)camera.on_frame(scene.next_frame());
  for (auto _ : state) {
    state.PauseTiming();
    const video::FrameTruth truth = scene.next_frame();
    state.ResumeTiming();
    const auto patches = camera.on_frame(truth);
    benchmark::DoNotOptimize(patches.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EdgeOnFrame)
    ->Arg(1)
    ->Arg(5)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    common::Rng rng(3, 1);
    int fired = 0;
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i)
      sim.schedule_at(rng.uniform(0.0, 100.0), [&fired] { ++fired; });
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueue)->Arg(1000)->Arg(10000);

// Algorithm 2's event pattern: the invoker's deadline timer is cancelled and
// re-armed on every patch arrival, and most re-arms happen before the old
// timer ever fires.  BM_EventQueue never cancels, so it misses the dominant
// cost of a real replay: dead entries (or their removal) in the heap.  Each
// iteration interleaves arrivals (cancel + re-arm over `range(1)` concurrent
// timers) with enough clock progress that some timers do fire.
void BM_EventChurn(benchmark::State& state) {
  const int arrivals = static_cast<int>(state.range(0));
  const int timers = static_cast<int>(state.range(1));
  for (auto _ : state) {
    sim::Simulator sim;
    common::Rng rng(5, 2);
    std::vector<sim::EventHandle> handles(
        static_cast<std::size_t>(timers));
    std::size_t fired = 0;
    double t = 0.0;
    for (int i = 0; i < arrivals; ++i) {
      t += rng.uniform(0.0, 1e-3);
      sim.run_until(t);
      auto& handle = handles[static_cast<std::size_t>(
          rng.uniform_int(0, timers - 1))];
      handle.cancel();
      handle = sim.schedule_at(t + rng.uniform(0.005, 0.1),
                               [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * arrivals);
}
BENCHMARK(BM_EventChurn)
    ->Args({100000, 16})
    ->Args({100000, 256})
    ->Args({100000, 4096});

// One Best-Short-Side-Fit query (tentative place + rollback, the invoker's
// admit probe) against a store holding `range(0)` free rectangles.  Grows the
// store by placing small items: each guillotine place nets roughly one extra
// free rect, so free-rect count tracks placement count.
void BM_BssfQuery(benchmark::State& state) {
  const int target_rects = static_cast<int>(state.range(0));
  core::FreeRectIndex index({1024, 1024});
  common::Rng rng(21, 4);
  while (index.free_rect_count() < static_cast<std::size_t>(target_rects))
    index.place({rng.uniform_int(20, 160), rng.uniform_int(20, 160)});

  for (auto _ : state) {
    const auto mark = index.mark();
    const auto placed =
        index.place({rng.uniform_int(20, 300), rng.uniform_int(20, 300)});
    index.rollback(mark);
    benchmark::DoNotOptimize(placed.canvas_index);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BssfQuery)->Arg(256)->Arg(4096)->Arg(65536);

void BM_EstimatorSlack(benchmark::State& state) {
  serverless::InferenceLatencyModel model;
  core::LatencyEstimator::Config config;
  config.iterations = 200;
  const core::LatencyEstimator estimator(model, {1024, 1024}, config);
  int b = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.slack(b));
    b = b % 16 + 1;
  }
}
BENCHMARK(BM_EstimatorSlack);

// A burst the platform absorbs: `range(0)` requests queue at t = 0 on a
// one-instance fleet, then drain one completion at a time.  Each completion
// dispatches the next request from its pool's queue head, so the time per
// completion (items = completions) stays flat as the backlog deepens.
void BM_BacklogDrain(benchmark::State& state) {
  const int requests = static_cast<int>(state.range(0));
  serverless::PlatformConfig config;
  config.max_instances = 1;
  serverless::LatencyModelParams latency;
  latency.jitter_sigma = 0.0;
  serverless::RequestSpec spec;
  spec.num_canvases = 1;
  for (auto _ : state) {
    sim::Simulator sim;
    serverless::FunctionPlatform platform(sim, config, latency);
    for (int i = 0; i < requests; ++i) platform.invoke(spec, {});
    sim.run();
    benchmark::DoNotOptimize(platform.invocations());
  }
  state.SetItemsProcessed(state.iterations() * requests);
}
BENCHMARK(BM_BacklogDrain)->Arg(1024)->Arg(16384)->Arg(65536);

// The full dispatch hot path, end to end: patch arrival -> Algorithm 2
// admission -> deadline-timer flush -> platform invoke -> completion event.
// Mirrors TangramSystem::dispatch()'s wiring (batch handed to the platform
// callback, touched per patch at completion).  The allocs_per_patch counter
// tallies global operator new calls across the timed loop — the number the
// zero-allocation dispatch pipeline drives to ~0.
void BM_DispatchPath(benchmark::State& state) {
  const int patches_per_window = static_cast<int>(state.range(0));
  sim::Simulator sim;
  serverless::PlatformConfig pconfig;
  pconfig.max_instances = 8;
  serverless::FunctionPlatform platform(sim, pconfig);
  core::LatencyEstimator::Config econfig;
  econfig.iterations = 200;
  const core::LatencyEstimator estimator(platform.latency_model(),
                                         {1024, 1024}, econfig);

  core::InvokerConfig iconfig;
  iconfig.max_canvases = platform.max_canvases_per_batch();
  iconfig.telemetry_reservoir = 64;
  iconfig.batch_pool = std::make_shared<core::BatchPool>();
  // TangramSystem::dispatch()'s idiom: park the in-flight batch in a
  // recycled slot so the platform callback captures only [ctx, slot]
  // (std::function small-buffer, no allocation) and completion recycles
  // the batch storage.
  struct Inflight {
    std::vector<core::Batch> slots;
    std::vector<std::uint32_t> free_slots;
    core::BatchPool* pool = nullptr;
    std::uint64_t completed = 0;
  } ctx;
  ctx.pool = iconfig.batch_pool.get();
  auto dispatch = [&platform, &ctx](core::Batch&& batch) {
    serverless::RequestSpec spec;
    spec.num_canvases = batch.canvas_count();
    spec.num_items = batch.total_patches;
    std::uint32_t slot;
    if (ctx.free_slots.empty()) {
      ctx.slots.emplace_back();
      slot = static_cast<std::uint32_t>(ctx.slots.size() - 1);
    } else {
      slot = ctx.free_slots.back();
      ctx.free_slots.pop_back();
    }
    ctx.slots[slot] = std::move(batch);
    platform.invoke(
        spec, 0,
        [c = &ctx, slot](const serverless::InvocationRecord& record) {
          core::Batch done = std::move(c->slots[slot]);
          c->free_slots.push_back(slot);
          c->completed += static_cast<std::uint64_t>(done.total_patches);
          c->pool->recycle(std::move(done));
          benchmark::DoNotOptimize(record.finish_time);
        });
  };
  core::SloAwareInvoker invoker(sim, core::StitchSolver{}, estimator, iconfig,
                                dispatch);

  const auto sizes = random_patches(64, 23);
  double t = 0.0;
  std::uint64_t id = 0;
  // Warm up: fill freelists / sampler reservoirs / platform instances so the
  // timed loop measures the steady state.
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < patches_per_window; ++i) {
      t += 2e-3;
      sim.run_until(t);
      core::Patch patch;
      patch.id = id++;
      const auto& size = sizes[id % sizes.size()];
      patch.region = {0, 0, size.width, size.height};
      patch.generation_time = t;
      patch.slo = 0.25;
      patch.bytes = 1000;
      invoker.on_patch(patch);
    }
    t += 1.0;
    sim.run_until(t);
  }

  const std::size_t allocs_before = common::alloc_probe_calls();
  for (auto _ : state) {
    for (int i = 0; i < patches_per_window; ++i) {
      t += 2e-3;
      sim.run_until(t);
      core::Patch patch;
      patch.id = id++;
      const auto& size = sizes[id % sizes.size()];
      patch.region = {0, 0, size.width, size.height};
      patch.generation_time = t;
      patch.slo = 0.25;
      patch.bytes = 1000;
      invoker.on_patch(patch);
    }
    t += 1.0;
    sim.run_until(t);
  }
  const std::size_t allocs_after = common::alloc_probe_calls();
  benchmark::DoNotOptimize(ctx.completed);

  const double patches =
      static_cast<double>(state.iterations()) * patches_per_window;
  state.counters["allocs_per_patch"] =
      static_cast<double>(allocs_after - allocs_before) / patches;
  state.SetItemsProcessed(state.iterations() * patches_per_window);
}
BENCHMARK(BM_DispatchPath)->Arg(16)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
