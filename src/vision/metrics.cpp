#include "vision/metrics.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace tangram::vision {

void ApAccumulator::add_frame(
    std::vector<Detection> detections,
    std::vector<video::GroundTruthObject> ground_truth) {
  total_gt_ += ground_truth.size();
  frames_.push_back(Frame{std::move(detections), std::move(ground_truth)});
}

std::vector<char> ApAccumulator::match_all(double iou_threshold) const {
  // Flatten detections with frame index, sort globally by confidence.
  struct Ref {
    std::size_t frame;
    std::size_t det;
    double confidence;
  };
  std::vector<Ref> refs;
  for (std::size_t f = 0; f < frames_.size(); ++f)
    for (std::size_t d = 0; d < frames_[f].detections.size(); ++d)
      refs.push_back(Ref{f, d, frames_[f].detections[d].confidence});
  std::sort(refs.begin(), refs.end(), [](const Ref& a, const Ref& b) {
    return a.confidence > b.confidence;
  });

  std::vector<std::vector<char>> used(frames_.size());
  for (std::size_t f = 0; f < frames_.size(); ++f)
    used[f].assign(frames_[f].ground_truth.size(), 0);

  std::vector<char> tp;
  tp.reserve(refs.size());
  for (const auto& r : refs) {
    const Frame& frame = frames_[r.frame];
    const Detection& det = frame.detections[r.det];
    double best_iou = 0.0;
    std::size_t best_gt = 0;
    bool found = false;
    for (std::size_t g = 0; g < frame.ground_truth.size(); ++g) {
      if (used[r.frame][g]) continue;
      const double v = common::iou(det.box, frame.ground_truth[g].box);
      if (v > best_iou) {
        best_iou = v;
        best_gt = g;
        found = true;
      }
    }
    if (found && best_iou >= iou_threshold) {
      used[r.frame][best_gt] = 1;
      tp.push_back(1);
    } else {
      tp.push_back(0);
    }
  }
  return tp;
}

double ApAccumulator::average_precision(double iou_threshold) const {
  if (total_gt_ == 0) return 0.0;
  const std::vector<char> tp = match_all(iou_threshold);
  if (tp.empty()) return 0.0;

  // Precision/recall curve, then all-points interpolated AP.
  std::vector<double> precision(tp.size());
  std::vector<double> recall(tp.size());
  double cum_tp = 0.0;
  for (std::size_t i = 0; i < tp.size(); ++i) {
    cum_tp += tp[i];
    precision[i] = cum_tp / static_cast<double>(i + 1);
    recall[i] = cum_tp / static_cast<double>(total_gt_);
  }
  // Make precision monotonically non-increasing from the right.
  for (std::size_t i = precision.size() - 1; i > 0; --i)
    precision[i - 1] = std::max(precision[i - 1], precision[i]);

  double ap = 0.0;
  double prev_recall = 0.0;
  for (std::size_t i = 0; i < tp.size(); ++i) {
    ap += (recall[i] - prev_recall) * precision[i];
    prev_recall = recall[i];
  }
  return ap;
}

double average_precision(
    const std::vector<Detection>& detections,
    const std::vector<video::GroundTruthObject>& ground_truth,
    double iou_threshold) {
  ApAccumulator acc;
  acc.add_frame(detections, ground_truth);
  return acc.average_precision(iou_threshold);
}

std::vector<Detection> non_maximum_suppression(
    std::vector<Detection> detections, double iou_threshold) {
  std::sort(detections.begin(), detections.end(),
            [](const Detection& a, const Detection& b) {
              return a.confidence > b.confidence;
            });
  std::vector<Detection> kept;
  kept.reserve(detections.size());
  for (const auto& det : detections) {
    bool suppressed = false;
    for (const auto& keeper : kept) {
      if (common::iou(det.box, keeper.box) >= iou_threshold) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) kept.push_back(det);
  }
  return kept;
}

}  // namespace tangram::vision
