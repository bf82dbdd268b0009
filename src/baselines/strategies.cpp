#include "baselines/strategies.h"

#include <algorithm>
#include <utility>

namespace tangram::baselines {

// --- ELF -------------------------------------------------------------------------

void ElfStrategy::on_patch(const core::Patch& patch) {
  serverless::RequestSpec spec;
  spec.image_megapixels = static_cast<double>(patch.area()) *
                          options_.area_expansion / 1.0e6;
  spec.num_items = 1;
  platform_.invoke(spec,
                   [this, patch](const serverless::InvocationRecord& record) {
                     if (on_done_) on_done_(patch, record);
                   });
}

// --- Clipper -----------------------------------------------------------------------

ClipperStrategy::ClipperStrategy(serverless::FunctionPlatform& platform,
                                 ClipperOptions options,
                                 PatchCompletionFn on_done)
    : platform_(platform),
      options_(options),
      on_done_(std::move(on_done)),
      max_batch_(options.initial_max_batch) {
  // Never adapt past what the function's GPU memory can hold.
  options_.max_batch_limit =
      std::min(options_.max_batch_limit,
               platform.max_canvases_per_batch(options_.model_input));
  max_batch_ = std::min<double>(max_batch_, options_.max_batch_limit);
}

void ClipperStrategy::on_patch(const core::Patch& patch) {
  queue_.push_back(patch);
  maybe_dispatch();
}

void ClipperStrategy::maybe_dispatch() {
  // Clipper serves through one model replica: whenever it is free, take up
  // to max_batch queued items.  AIMD adapts max_batch against the SLO.
  if (in_flight_ || queue_.empty()) return;

  const int take = std::min<int>(static_cast<int>(queue_.size()),
                                 std::max(1, static_cast<int>(max_batch_)));
  std::vector<core::Patch> batch(queue_.begin(), queue_.begin() + take);
  queue_.erase(queue_.begin(), queue_.begin() + take);

  serverless::RequestSpec spec;
  spec.num_canvases = take;          // each item resized to the model input
  spec.canvas = options_.model_input;
  spec.num_items = take;
  in_flight_ = true;

  platform_.invoke(spec, [this, batch = std::move(batch)](
                             const serverless::InvocationRecord& record) {
    in_flight_ = false;
    bool violated = false;
    for (const auto& p : batch) {
      if (record.finish_time > p.deadline()) violated = true;
      if (on_done_) on_done_(p, record);
    }
    // AIMD step.
    if (violated) {
      max_batch_ = std::max(1.0, max_batch_ * options_.multiplicative_decrease);
    } else {
      max_batch_ = std::min<double>(options_.max_batch_limit,
                                    max_batch_ + options_.additive_increase);
    }
    maybe_dispatch();
  });
}

void ClipperStrategy::flush() {
  // Dispatch remaining items even if a batch is in flight (end of stream).
  while (!queue_.empty()) {
    in_flight_ = false;
    maybe_dispatch();
  }
}

// --- MArk --------------------------------------------------------------------------

MArkStrategy::MArkStrategy(sim::Simulator& simulator,
                           serverless::FunctionPlatform& platform,
                           MArkOptions options, PatchCompletionFn on_done)
    : sim_(simulator),
      platform_(platform),
      options_(options),
      on_done_(std::move(on_done)) {
  options_.batch_size =
      std::min(options_.batch_size,
               platform.max_canvases_per_batch(options_.model_input));
  options_.batch_size = std::max(1, options_.batch_size);
}

void MArkStrategy::on_patch(const core::Patch& patch) {
  queue_.push_back(patch);
  if (static_cast<int>(queue_.size()) >= options_.batch_size) {
    dispatch();
    return;
  }
  if (!timeout_timer_.pending()) {
    timeout_timer_ =
        sim_.schedule_in(options_.timeout_s, [this] { dispatch(); });
  }
}

void MArkStrategy::dispatch() {
  // on_patch dispatches the moment the queue reaches batch_size, so the
  // queue never holds more than one batch: take all of it.
  std::vector<core::Patch> batch = std::exchange(queue_, {});
  const int take = static_cast<int>(batch.size());

  serverless::RequestSpec spec;
  spec.num_canvases = take;
  spec.canvas = options_.model_input;
  spec.num_items = take;
  platform_.invoke(spec, [this, batch = std::move(batch)](
                             const serverless::InvocationRecord& record) {
    for (const auto& p : batch)
      if (on_done_) on_done_(p, record);
  });
  timeout_timer_.cancel();
}

void MArkStrategy::flush() {
  if (!queue_.empty()) dispatch();
}

}  // namespace tangram::baselines
