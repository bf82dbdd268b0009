// Byte-identity goldens: every suite that pins a run's output hashes it with
// this one 64-bit FNV-1a, so a pinned constant means the same thing in every
// test file.  The 16-stream reserved-pool fleet and its goldens live here
// too, so every suite that runs that fleet shares one definition.

#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "experiments/harness.h"
#include "experiments/trace.h"
#include "video/scene_catalog.h"

namespace tangram::golden {

[[nodiscard]] inline std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// 16 streams of scene 47 (mixed 0.25 s / 2 s SLOs) on 8 instances with a
// reserved tight-class pool, hashed over deterministic_json() per
// run_sharded leg and for a direct run with 64-sample reservoirs.
constexpr std::uint64_t kFleetSingle = 0x5e0c9ecd8844f599ull;
constexpr std::uint64_t kFleetSharded = 0x6b6ec9677e4010eeull;
constexpr std::uint64_t kFleetReserved = 0x68005a79a8e4854full;
constexpr std::uint64_t kFleetReservoirDirect = 0xa584d3f64f0eeb21ull;

struct GoldenFleet {
  experiments::SceneTrace trace;
  std::vector<const experiments::SceneTrace*> fleet;
  experiments::MultiStreamConfig config;

  GoldenFleet() {
    experiments::TraceConfig tc;
    tc.raster.analysis = {240, 135};
    trace = experiments::build_trace(video::test_scene(47), tc);
    fleet.assign(16, &trace);
    for (std::size_t i = 0; i < fleet.size(); ++i)
      config.per_stream_slo.push_back(i % 4 == 0 ? 0.25 : 2.0);
    config.platform.max_instances = 8;
    config.pool_for_shard = experiments::reserved_tight_pool_plan(
        0.5, /*tight_reserved=*/2, /*loose_burst_limit=*/6);
  }
};

}  // namespace tangram::golden
