#include "vision/extractors.h"

#include <gtest/gtest.h>

#include "video/scene_catalog.h"

namespace tangram::vision {
namespace {

struct PixelWorld {
  video::SceneSpec spec = video::test_scene(61);
  video::RasterConfig raster_config;
  std::unique_ptr<video::FrameRasterizer> rasterizer;
  video::SyntheticScene scene{spec};

  PixelWorld() {
    raster_config.analysis = {240, 135};
    rasterizer =
        std::make_unique<video::FrameRasterizer>(spec.frame, raster_config);
  }

  std::pair<video::FrameTruth, video::Image> next() {
    video::FrameTruth truth = scene.next_frame();
    video::Image img = rasterizer->render(truth);
    return {std::move(truth), std::move(img)};
  }
};

TEST(GmmExtractor, FindsMostObjectsAfterWarmup) {
  PixelWorld world;
  GmmRoiExtractor extractor(world.raster_config.analysis);
  std::size_t covered = 0, total = 0;
  for (int i = 0; i < 30; ++i) {
    auto [truth, img] = world.next();
    FrameInput input;
    input.frame = world.spec.frame;
    input.truth = &truth;
    input.analysis_frame = &img;
    input.rasterizer = world.rasterizer.get();
    const auto rois = extractor.extract(input);
    if (i < 15) continue;  // warm-up
    for (const auto& obj : truth.objects) {
      ++total;
      for (const auto& roi : rois)
        if (common::overlap_area(roi, obj.box) >= obj.box.area() / 2) {
          ++covered;
          break;
        }
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(covered) / total, 0.5);
}

TEST(GmmExtractor, RequiresPixelInput) {
  GmmRoiExtractor extractor({240, 135});
  FrameInput input;  // no pixels
  EXPECT_THROW((void)extractor.extract(input), std::invalid_argument);
}

TEST(OpticalFlowExtractor, FirstFrameYieldsNothing) {
  PixelWorld world;
  OpticalFlowExtractor extractor(world.raster_config.analysis);
  auto [truth, img] = world.next();
  FrameInput input;
  input.truth = &truth;
  input.analysis_frame = &img;
  input.rasterizer = world.rasterizer.get();
  EXPECT_TRUE(extractor.extract(input).empty());
}

TEST(OpticalFlowExtractor, DetectsMotionOnSecondFrame) {
  PixelWorld world;
  OpticalFlowExtractor extractor(world.raster_config.analysis);
  std::size_t found = 0;
  for (int i = 0; i < 10; ++i) {
    auto [truth, img] = world.next();
    FrameInput input;
    input.truth = &truth;
    input.analysis_frame = &img;
    input.rasterizer = world.rasterizer.get();
    found += extractor.extract(input).size();
  }
  EXPECT_GT(found, 0u);
}

TEST(LearnedExtractor, RecallDependsOnObjectSize) {
  LearnedRoiExtractor extractor(ssdlite_mobilenetv2_profile(),
                                common::Rng(5, 7));
  // 40 large and 40 tiny objects at pairwise-distinct positions (so one
  // loose RoI cannot cover several ground-truth boxes), accumulated over
  // several stochastic extraction rounds.
  video::FrameTruth truth;
  for (int i = 0; i < 40; ++i) {
    truth.objects.push_back(
        {i, {20 + (i % 8) * 460, 60 + (i / 8) * 330, 120, 260}});
    truth.objects.push_back(
        {1000 + i, {250 + (i % 8) * 460, 10 + (i / 8) * 330, 12, 24}});
  }
  FrameInput input;
  input.truth = &truth;
  std::size_t large_found = 0, tiny_found = 0;
  for (int round = 0; round < 10; ++round) {
    const auto rois = extractor.extract(input);
    for (const auto& obj : truth.objects) {
      for (const auto& roi : rois) {
        if (common::overlap_area(roi, obj.box) >= obj.box.area() / 2) {
          (obj.id < 1000 ? large_found : tiny_found) += 1;
          break;
        }
      }
    }
  }
  EXPECT_GT(large_found, 200u);  // out of 400 opportunities
  EXPECT_LT(tiny_found, large_found / 2);
}

TEST(LearnedExtractor, RequiresGroundTruth) {
  LearnedRoiExtractor extractor(yolov3_mobilenetv2_profile(),
                                common::Rng(5, 7));
  FrameInput input;
  EXPECT_THROW((void)extractor.extract(input), std::invalid_argument);
}

TEST(ExtractorFactory, BuildsAllTableIvRows) {
  const auto build = [](const char* kind) {
    return make_extractor(kind, {240, 135}, 3);
  };
  EXPECT_NE(dynamic_cast<GmmRoiExtractor*>(build("GMM").get()), nullptr);
  EXPECT_NE(dynamic_cast<OpticalFlowExtractor*>(build("OpticalFlow").get()),
            nullptr);
  for (const char* kind : {"SSDLite-MobileNetV2", "Yolov3-MobileNetV2"})
    EXPECT_NE(dynamic_cast<LearnedRoiExtractor*>(build(kind).get()), nullptr)
        << kind;
  EXPECT_THROW((void)build("nope"), std::invalid_argument);
}

}  // namespace
}  // namespace tangram::vision
