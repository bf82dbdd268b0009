#include "experiments/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "golden.h"

namespace tangram::experiments {
namespace {

TraceConfig small_config() {
  TraceConfig c;
  c.raster.analysis = {240, 135};
  return c;
}

TEST(Trace, CoversWholeSequence) {
  const auto spec = video::test_scene(3);
  const auto trace = build_trace(spec, small_config());
  EXPECT_EQ(trace.frames.size(), static_cast<std::size_t>(spec.total_frames));
  EXPECT_EQ(trace.eval_frame_count(),
            static_cast<std::size_t>(spec.evaluation_frames()));
  EXPECT_EQ(trace.eval_frame(0).frame_index, spec.training_frames);
}

TEST(Trace, FramesCarryConsistentData) {
  const auto spec = video::test_scene(5);
  const auto trace = build_trace(spec, small_config());
  for (const auto& f : trace.frames) {
    EXPECT_EQ(f.patch_bytes.size(), f.patches.size());
    EXPECT_EQ(f.elf_patch_bytes.size(), f.patches.size());
    EXPECT_GT(f.full_frame_bytes, 0u);
    EXPECT_GT(f.masked_frame_bytes, 0u);
    EXPECT_GE(f.patch_area_fraction, 0.0);
    EXPECT_LE(f.patch_area_fraction, 1.01);
  }
}

TEST(Trace, PatchesFitTheCanvas) {
  TraceConfig config = small_config();
  config.canvas = {512, 512};
  const auto trace = build_trace(video::test_scene(7), config);
  for (const auto& f : trace.frames)
    for (const auto& p : f.patches) {
      EXPECT_LE(p.width, 512);
      EXPECT_LE(p.height, 512);
    }
}

TEST(Trace, GmmWarmsUpThenExtracts) {
  const auto trace = build_trace(video::test_scene(11), small_config());
  // Early frames: the background model is cold, few/no RoIs.  Evaluation
  // frames: objects present means RoIs usually present.
  std::size_t eval_with_rois = 0;
  for (std::size_t i = 0; i < trace.eval_frame_count(); ++i)
    if (!trace.eval_frame(i).rois.empty()) ++eval_with_rois;
  EXPECT_GT(eval_with_rois, trace.eval_frame_count() / 2);
}

TEST(Trace, DeterministicAcrossBuilds) {
  const auto a = build_trace(video::test_scene(13), small_config());
  const auto b = build_trace(video::test_scene(13), small_config());
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    EXPECT_EQ(a.frames[i].patches, b.frames[i].patches);
    EXPECT_EQ(a.frames[i].full_frame_bytes, b.frames[i].full_frame_bytes);
  }
}

TEST(Trace, ElfBytesExceedPatchBytes) {
  const auto trace = build_trace(video::test_scene(17), small_config());
  std::size_t patch_total = 0, elf_total = 0;
  for (const auto& f : trace.frames) {
    patch_total += f.total_patch_bytes();
    elf_total += f.total_elf_bytes();
  }
  EXPECT_GT(elf_total, patch_total);
}

TEST(Trace, GroundTruthExtractorUsesNoPixels) {
  TraceConfig config = small_config();
  config.extractor = "Yolov3-MobileNetV2";
  const auto trace = build_trace(video::test_scene(19), config);
  std::size_t frames_with_rois = 0;
  for (const auto& f : trace.frames)
    if (!f.rois.empty()) ++frames_with_rois;
  EXPECT_GT(frames_with_rois, trace.frames.size() / 2);
}

TEST(Trace, FinerPartitionsSmallerPatchArea) {
  TraceConfig coarse = small_config();
  coarse.partition = {2, 2, 12};
  TraceConfig fine = small_config();
  fine.partition = {6, 6, 12};
  const auto spec = video::test_scene(23);
  const auto a = build_trace(spec, coarse);
  const auto b = build_trace(spec, fine);
  double coarse_area = 0, fine_area = 0;
  for (std::size_t i = 0; i < a.eval_frame_count(); ++i) {
    coarse_area += a.eval_frame(i).patch_area_fraction;
    fine_area += b.eval_frame(i).patch_area_fraction;
  }
  EXPECT_LE(fine_area, coarse_area * 1.05);
}

// Everything the edge pipeline decides per frame -- RoIs, patches and patch
// bytes -- as text, so drift anywhere in rasterization, background
// subtraction, blob extraction or partitioning changes the hash.
std::string edge_output(const SceneTrace& trace) {
  std::string out;
  const auto put_rect = [&out](const common::Rect& r) {
    out += std::to_string(r.x) + ',' + std::to_string(r.y) + ',' +
           std::to_string(r.width) + ',' + std::to_string(r.height) + ' ';
  };
  for (const auto& f : trace.frames) {
    out += "frame " + std::to_string(f.frame_index) + "\nrois ";
    for (const auto& r : f.rois) put_rect(r);
    out += "\npatches ";
    for (const auto& p : f.patches) put_rect(p);
    out += "\nbytes ";
    for (const auto b : f.patch_bytes) out += std::to_string(b) + ' ';
    out += '\n';
  }
  return out;
}

// Captured before the frame-level GMM kernel and the label-free blob
// extraction replaced the per-pixel code: the edge pipeline's output on a
// test scene, through both pixel extractors (OpticalFlow labels with a
// larger dilation radius).
TEST(Trace, EdgePipelineGolden) {
  struct Case {
    const char* extractor;
    common::Size analysis;
    std::uint64_t golden;
  };
  const Case cases[] = {
      {"GMM", {480, 270}, 0x604c71bbbb02ad61ull},
      {"GMM", {240, 135}, 0x685e07de7d18a06dull},
      {"OpticalFlow", {480, 270}, 0x0a65f99a12e103bbull},
  };
  for (const auto& c : cases) {
    TraceConfig config;
    config.extractor = c.extractor;
    config.raster.analysis = c.analysis;
    const auto trace = build_trace(video::test_scene(29), config);
    std::size_t rois = 0;
    for (const auto& f : trace.frames) rois += f.rois.size();
    EXPECT_GT(rois, trace.frames.size()) << c.extractor;
    const std::uint64_t hash = golden::fnv1a(edge_output(trace));
    EXPECT_EQ(hash, c.golden) << c.extractor << ' ' << c.analysis.width << 'x'
                              << c.analysis.height << std::hex << " got 0x"
                              << hash;
  }
}

}  // namespace
}  // namespace tangram::experiments
