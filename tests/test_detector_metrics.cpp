#include <gtest/gtest.h>

#include "vision/detector.h"
#include "vision/metrics.h"

namespace tangram::vision {
namespace {

using video::GroundTruthObject;

// --- AP evaluator ----------------------------------------------------------

TEST(Ap, PerfectDetectionsScoreOne) {
  std::vector<GroundTruthObject> gt{{0, {0, 0, 50, 100}}, {1, {200, 0, 40, 90}}};
  std::vector<Detection> dets{{{0, 0, 50, 100}, 0.9, 0},
                              {{200, 0, 40, 90}, 0.8, 1}};
  EXPECT_DOUBLE_EQ(average_precision(dets, gt), 1.0);
}

TEST(Ap, NoDetectionsScoreZero) {
  std::vector<GroundTruthObject> gt{{0, {0, 0, 50, 100}}};
  EXPECT_DOUBLE_EQ(average_precision({}, gt), 0.0);
}

TEST(Ap, AllFalsePositivesScoreZero) {
  std::vector<GroundTruthObject> gt{{0, {0, 0, 50, 100}}};
  std::vector<Detection> dets{{{500, 500, 50, 100}, 0.9, -1}};
  EXPECT_DOUBLE_EQ(average_precision(dets, gt), 0.0);
}

TEST(Ap, HalfRecallPerfectPrecision) {
  std::vector<GroundTruthObject> gt{{0, {0, 0, 50, 100}},
                                    {1, {200, 0, 50, 100}}};
  std::vector<Detection> dets{{{0, 0, 50, 100}, 0.9, 0}};
  EXPECT_DOUBLE_EQ(average_precision(dets, gt), 0.5);
}

TEST(Ap, LowConfidenceFalsePositiveBarelyHurts) {
  std::vector<GroundTruthObject> gt{{0, {0, 0, 50, 100}}};
  std::vector<Detection> dets{{{0, 0, 50, 100}, 0.9, 0},
                              {{500, 500, 50, 100}, 0.1, -1}};
  // FP ranks below the TP: precision at full recall is still 1.
  EXPECT_DOUBLE_EQ(average_precision(dets, gt), 1.0);
}

TEST(Ap, HighConfidenceFalsePositiveHurts) {
  std::vector<GroundTruthObject> gt{{0, {0, 0, 50, 100}}};
  std::vector<Detection> dets{{{0, 0, 50, 100}, 0.5, 0},
                              {{500, 500, 50, 100}, 0.9, -1}};
  // Precision at recall 1 is 1/2.
  EXPECT_DOUBLE_EQ(average_precision(dets, gt), 0.5);
}

TEST(Ap, IouThresholdGates) {
  std::vector<GroundTruthObject> gt{{0, {0, 0, 100, 100}}};
  // Shifted box: IoU = (50x100)/(150x100) = 1/3.
  std::vector<Detection> dets{{{50, 0, 100, 100}, 0.9, 0}};
  EXPECT_DOUBLE_EQ(average_precision(dets, gt, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(average_precision(dets, gt, 0.3), 1.0);
}

TEST(Ap, DuplicateDetectionsCountOnce) {
  std::vector<GroundTruthObject> gt{{0, {0, 0, 100, 100}}};
  std::vector<Detection> dets{{{0, 0, 100, 100}, 0.9, 0},
                              {{2, 2, 100, 100}, 0.8, 0}};
  // Second detection cannot re-match the used GT: it is an FP at rank 2,
  // so precision at recall 1 is 1 but the curve includes the FP after.
  EXPECT_DOUBLE_EQ(average_precision(dets, gt), 1.0);
}

TEST(Ap, MultiFrameAccumulation) {
  ApAccumulator acc;
  acc.add_frame({{{0, 0, 50, 50}, 0.9, 0}}, {{0, {0, 0, 50, 50}}});
  acc.add_frame({}, {{1, {0, 0, 50, 50}}});  // missed object in frame 2
  EXPECT_EQ(acc.frames(), 2u);
  EXPECT_EQ(acc.total_ground_truth(), 2u);
  EXPECT_DOUBLE_EQ(acc.average_precision(), 0.5);
}

TEST(Ap, MatchingIsPerFrame) {
  ApAccumulator acc;
  // A detection in frame 1 must not match ground truth in frame 2.
  acc.add_frame({{{0, 0, 50, 50}, 0.9, -1}}, {});
  acc.add_frame({}, {{0, {0, 0, 50, 50}}});
  EXPECT_DOUBLE_EQ(acc.average_precision(), 0.0);
}

// --- non-maximum suppression ------------------------------------------------

TEST(Nms, KeepsHighestConfidenceOfDuplicates) {
  std::vector<Detection> dets{{{0, 0, 100, 100}, 0.6, 0},
                              {{5, 5, 100, 100}, 0.9, 0},
                              {{2, 0, 100, 100}, 0.7, 0}};
  const auto kept = non_maximum_suppression(dets, 0.5);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_DOUBLE_EQ(kept[0].confidence, 0.9);
}

TEST(Nms, KeepsDisjointBoxes) {
  std::vector<Detection> dets{{{0, 0, 50, 50}, 0.9, 0},
                              {{100, 100, 50, 50}, 0.8, 1},
                              {{300, 0, 50, 50}, 0.7, 2}};
  EXPECT_EQ(non_maximum_suppression(dets, 0.5).size(), 3u);
}

TEST(Nms, ThresholdControlsAggressiveness) {
  // Two boxes with IoU = 25/175 ~ 0.143.
  std::vector<Detection> dets{{{0, 0, 10, 10}, 0.9, 0},
                              {{5, 5, 10, 10}, 0.8, 1}};
  EXPECT_EQ(non_maximum_suppression(dets, 0.5).size(), 2u);
  EXPECT_EQ(non_maximum_suppression(dets, 0.1).size(), 1u);
}

TEST(Nms, EmptyInputOk) {
  EXPECT_TRUE(non_maximum_suppression({}, 0.5).empty());
}

TEST(Nms, OutputSortedByConfidence) {
  std::vector<Detection> dets{{{0, 0, 50, 50}, 0.3, 0},
                              {{100, 100, 50, 50}, 0.9, 1},
                              {{300, 0, 50, 50}, 0.6, 2}};
  const auto kept = non_maximum_suppression(dets, 0.5);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_GE(kept[0].confidence, kept[1].confidence);
  EXPECT_GE(kept[1].confidence, kept[2].confidence);
}

// --- detector model --------------------------------------------------------

TEST(Detector, ProbabilityMonotoneInObjectSize) {
  DetectorModel model(yolov8x_4k_profile(), common::Rng(1, 2));
  double prev = 0.0;
  for (const double d : {5.0, 10.0, 20.0, 40.0, 80.0, 160.0}) {
    const double p = model.detection_probability(d, 1.0, 2160.0);
    EXPECT_GE(p, prev);
    prev = p;
  }
  EXPECT_GT(prev, 0.8);  // large objects nearly always found
}

TEST(Detector, DownsizingReducesProbability) {
  DetectorModel model(yolov8x_4k_profile(), common::Rng(1, 2));
  const double native = model.detection_probability(40.0, 1.0, 2160.0);
  const double half = model.detection_probability(40.0, 0.5, 2160.0);
  const double fifth = model.detection_probability(40.0, 0.22, 2160.0);
  EXPECT_GT(native, half);
  EXPECT_GT(half, fifth);
}

TEST(Detector, TrainingResolutionMismatchPenalized) {
  DetectorProfile p = yolov8x_480p_profile();
  DetectorModel model(p, common::Rng(1, 2));
  // Same effective object size, presented at 480 vs 2160 input resolution.
  const double at_train = model.detection_probability(60.0, 480.0 / 2160.0,
                                                      2160.0);
  const double at_native = model.detection_probability(
      60.0 * 480.0 / 2160.0, 1.0, 2160.0);
  // The native-resolution presentation is farther from the training domain.
  EXPECT_GT(at_train, at_native * 0.9);
}

TEST(Detector, ZeroSizeNeverDetected) {
  DetectorModel model(yolov8x_4k_profile(), common::Rng(1, 2));
  EXPECT_DOUBLE_EQ(model.detection_probability(0.0, 1.0, 2160.0), 0.0);
  EXPECT_DOUBLE_EQ(model.detection_probability(10.0, 0.0, 2160.0), 0.0);
}

TEST(Detector, DetectRegionOnlySeesVisibleObjects) {
  DetectorProfile profile;
  profile.fp_per_mpixel = 0.0;
  DetectorModel model(profile, common::Rng(3, 5));
  std::vector<GroundTruthObject> objects{{0, {100, 100, 200, 300}},
                                         {1, {3000, 1800, 200, 300}}};
  const common::Rect region{0, 0, 1000, 1000};
  int found_outside = 0;
  for (int i = 0; i < 50; ++i) {
    for (const auto& det : model.detect_region(objects, region, 1.0, 2160.0))
      if (det.gt_id == 1) ++found_outside;
  }
  EXPECT_EQ(found_outside, 0);
}

TEST(Detector, LargeVisibleObjectUsuallyDetected) {
  DetectorProfile profile;
  profile.fp_per_mpixel = 0.0;
  DetectorModel model(profile, common::Rng(3, 5));
  std::vector<GroundTruthObject> objects{{0, {100, 100, 200, 300}}};
  const common::Rect region{0, 0, 1000, 1000};
  int found = 0;
  constexpr int kTrials = 200;
  for (int i = 0; i < kTrials; ++i)
    for (const auto& det : model.detect_region(objects, region, 1.0, 2160.0))
      if (det.gt_id == 0) ++found;
  EXPECT_GT(found, kTrials * 3 / 4);
}

TEST(Detector, TruncatedObjectDetectedLessOften) {
  DetectorProfile profile;
  profile.fp_per_mpixel = 0.0;
  std::vector<GroundTruthObject> objects{{0, {900, 100, 200, 300}}};
  const common::Rect full{0, 0, 2000, 1000};
  const common::Rect cutting{0, 0, 950, 1000};  // sees 25% of the width

  int found_full = 0, found_cut = 0;
  constexpr int kTrials = 300;
  DetectorModel m1(profile, common::Rng(7, 5));
  DetectorModel m2(profile, common::Rng(7, 5));
  for (int i = 0; i < kTrials; ++i) {
    for (const auto& det : m1.detect_region(objects, full, 1.0, 2160.0))
      if (det.gt_id == 0) ++found_full;
    for (const auto& det : m2.detect_region(objects, cutting, 1.0, 2160.0))
      if (det.gt_id == 0) ++found_cut;
  }
  EXPECT_LT(found_cut, found_full / 2);
}

TEST(Detector, FalsePositivesScaleWithArea) {
  DetectorProfile profile;
  profile.fp_per_mpixel = 5.0;
  DetectorModel model(profile, common::Rng(9, 5));
  int fp_small = 0, fp_large = 0;
  for (int i = 0; i < 100; ++i) {
    for (const auto& det :
         model.detect_region({}, {0, 0, 500, 500}, 1.0, 2160.0))
      if (det.gt_id < 0) ++fp_small;
    for (const auto& det :
         model.detect_region({}, {0, 0, 2000, 2000}, 1.0, 2160.0))
      if (det.gt_id < 0) ++fp_large;
  }
  EXPECT_GT(fp_large, fp_small * 4);
}

TEST(Detector, MergeKeepsBestPerObject) {
  std::vector<Detection> dets{{{0, 0, 10, 10}, 0.5, 3},
                              {{1, 1, 10, 10}, 0.9, 3},
                              {{5, 5, 10, 10}, 0.4, -1}};
  const auto merged = DetectorModel::merge_detections(dets);
  int for_gt3 = 0;
  double conf = 0;
  int fps = 0;
  for (const auto& d : merged) {
    if (d.gt_id == 3) {
      ++for_gt3;
      conf = d.confidence;
    } else {
      ++fps;
    }
  }
  EXPECT_EQ(for_gt3, 1);
  EXPECT_DOUBLE_EQ(conf, 0.9);
  EXPECT_EQ(fps, 1);
}

}  // namespace
}  // namespace tangram::vision
