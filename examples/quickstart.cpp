// Quickstart: the minimal Tangram pipeline.
//
// One synthetic 4K camera streams for 60 seconds over a 40 Mbps uplink.  The
// edge extracts RoIs with GMM background subtraction and cuts patches with
// the adaptive frame partitioner (Algorithm 1); the cloud scheduler stitches
// patches onto 1024x1024 canvases and the SLO-aware invoker (Algorithm 2)
// decides when to call the serverless function.  Everything runs on
// simulated time, so this finishes in well under a second of wall clock.

#include <iostream>

#include "core/tangram.h"
#include "experiments/harness.h"
#include "experiments/trace.h"
#include "video/scene_catalog.h"

using namespace tangram;

int main() {
  // 1. A camera: scene 1 of the PANDA4K-style catalogue.
  video::SceneSpec camera = video::panda4k_scene(1);
  camera.total_frames = 160;  // 100 training + 60 evaluation seconds

  // 2. Run the edge pipeline once (GMM -> Algorithm 1 -> encoded patches).
  experiments::TraceConfig edge;
  edge.partition.zones_x = 4;
  edge.partition.zones_y = 4;
  std::cout << "running edge pipeline (GMM + adaptive partitioning)...\n";
  const experiments::SceneTrace trace = experiments::build_trace(camera, edge);

  // 3. Stream it through the cloud scheduler with a 1-second SLO.
  experiments::EndToEndConfig config;
  config.bandwidth_mbps = 40.0;
  config.slo_s = 1.0;
  const auto result = experiments::run_end_to_end(
      {&trace}, experiments::StrategyKind::kTangram, config);

  // 4. Report.
  std::cout << "\n--- quickstart results (60 s of 4K video, 40 Mbps, SLO 1 s) "
               "---\n";
  std::cout << "patches processed:    " << result.patches_completed << "\n";
  std::cout << "function invocations: " << result.invocations << "\n";
  std::cout << "batches of canvases:  " << result.batch_canvases.count()
            << " (mean " << result.batch_canvases.mean() << " canvases, "
            << result.batch_patches.mean() << " patches)\n";
  std::cout << "mean canvas fill:     " << result.canvas_efficiency.mean()
            << "\n";
  std::cout << "uplink bytes:         " << result.total_bytes / 1024 / 1024
            << " MiB\n";
  std::cout << "serverless cost:      $" << result.total_cost << "\n";
  std::cout << "SLO violations:       " << result.violation_rate() * 100.0
            << "%\n";
  std::cout << "p99 end-to-end:       " << result.e2e_latency.quantile(0.99)
            << " s\n";
  return 0;
}
