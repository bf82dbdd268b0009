// Umbrella header: the public Tangram API.
//
// A downstream user typically needs:
//   * partition_frame()          — edge-side Algorithm 1
//   * StitchSession              — incremental canvas packing: add() one
//                                  patch in O(free rects), checkpoint() /
//                                  rollback() tentative placements
//   * StitchSolver               — batch packing (a thin wrapper replaying
//                                  items through a fresh session; identical
//                                  placements by construction)
//   * LatencyEstimator           — offline mu + 3 sigma profiling
//   * SloAwareInvoker            — the online SLO-aware batching loop,
//                                  running on the incremental session
//   * TangramSystem              — the multi-stream facade: register_stream()
//                                  per camera/site/tenant, receive_patch()
//                                  against a stream id, per-stream SLO
//                                  classes and telemetry, one shared invoker
//                                  and platform so streams batch together
//   * FunctionPlatform           — the serverless execution backend
// plus the simulation substrate (Simulator, Link) to run everything on
// virtual time.  See examples/quickstart.cpp for the minimal single-camera
// wiring and examples/multistream_fleet.cpp for a mixed-SLO camera fleet on
// one scheduler.
//
// Build: cmake -B build -S . && cmake --build build -j
// Test:  cd build && ctest --output-on-failure -j
// Scale: build/bench_multistream_scale sweeps 1 -> 4096 streams by default.

#pragma once

#include "common/geometry.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/estimator.h"
#include "core/free_rect_index.h"
#include "core/invoker.h"
#include "core/mapping.h"
#include "core/partitioner.h"
#include "core/patch.h"
#include "core/stitcher.h"
#include "core/system.h"
#include "net/link.h"
#include "serverless/cost.h"
#include "serverless/latency_model.h"
#include "serverless/platform.h"
#include "sim/simulator.h"
