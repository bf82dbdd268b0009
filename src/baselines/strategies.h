// Cloud-side scheduling baselines the paper evaluates Tangram against in its
// end-to-end study (Section V-A, Fig. 12).  Tangram itself runs as
// core::TangramSystem; see experiments::run_end_to_end.  Full Frame and
// Masked Frame appear only in the per-frame cost and bandwidth study
// (Figs. 8-9), which experiments::per_frame_cost models without a strategy.
//
// Every strategy consumes the same patch arrival stream and submits requests
// to the same FunctionPlatform; they differ only in *how and when* they
// invoke:
//
//  * ELF          — one invocation per patch, triggered in sequence;
//  * Clipper      — patches resized to a fixed model input and batched with
//                   an AIMD-adapted maximum batch size, single outstanding
//                   batch per model replica (the NSDI'17 scheme);
//  * MArk         — patches resized to a fixed model input, dispatched when
//                   the queue reaches `batch_size` or the oldest item has
//                   waited `timeout` (batch-size + timeout scheme); either
//                   way one batch takes the whole queue.
//
// The harness drives on_patch() at network-delivery time and learns about
// completions through the PatchCompletionFn callback, from which it computes
// SLO violations.

#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "core/patch.h"
#include "serverless/platform.h"
#include "sim/simulator.h"

namespace tangram::baselines {

// (patch, completion record) notification.
using PatchCompletionFn = std::function<void(
    const core::Patch&, const serverless::InvocationRecord&)>;

class Strategy {
 public:
  virtual ~Strategy() = default;
  virtual void on_patch(const core::Patch& patch) = 0;
  // End of stream: dispatch anything still queued.
  virtual void flush() {}
};

// --- ELF -----------------------------------------------------------------------

struct ElfOptions {
  // ELF's region-proposal boxes over-cover the patch content; its inference
  // inputs are correspondingly larger (matches CodecModel::elf_expansion).
  double area_expansion = 1.60;
};

class ElfStrategy final : public Strategy {
 public:
  ElfStrategy(serverless::FunctionPlatform& platform, ElfOptions options,
              PatchCompletionFn on_done)
      : platform_(platform), options_(options), on_done_(std::move(on_done)) {}
  void on_patch(const core::Patch& patch) override;

 private:
  serverless::FunctionPlatform& platform_;
  ElfOptions options_;
  PatchCompletionFn on_done_;
};

// --- Clipper ---------------------------------------------------------------------

struct ClipperOptions {
  common::Size model_input{640, 640};  // every patch is resized to this
  int initial_max_batch = 4;
  int additive_increase = 1;
  double multiplicative_decrease = 0.9;
  int max_batch_limit = 32;
};

class ClipperStrategy final : public Strategy {
 public:
  ClipperStrategy(serverless::FunctionPlatform& platform,
                  ClipperOptions options, PatchCompletionFn on_done);
  void on_patch(const core::Patch& patch) override;
  void flush() override;

  [[nodiscard]] double current_max_batch() const { return max_batch_; }

 private:
  void maybe_dispatch();

  serverless::FunctionPlatform& platform_;
  ClipperOptions options_;
  PatchCompletionFn on_done_;
  std::deque<core::Patch> queue_;
  double max_batch_;
  bool in_flight_ = false;
};

// --- MArk ------------------------------------------------------------------------

struct MArkOptions {
  // MArk provisions one model configuration for the whole workload, sized
  // for the largest request — every patch is upsized to the full canvas.
  common::Size model_input{1024, 1024};
  int batch_size = 8;
  double timeout_s = 0.25;  // "an appropriate timeout for each bandwidth"
};

class MArkStrategy final : public Strategy {
 public:
  MArkStrategy(sim::Simulator& simulator,
               serverless::FunctionPlatform& platform, MArkOptions options,
               PatchCompletionFn on_done);
  void on_patch(const core::Patch& patch) override;
  void flush() override;

 private:
  void dispatch();

  sim::Simulator& sim_;
  serverless::FunctionPlatform& platform_;
  MArkOptions options_;
  PatchCompletionFn on_done_;
  std::vector<core::Patch> queue_;
  sim::EventHandle timeout_timer_;
};

}  // namespace tangram::baselines
