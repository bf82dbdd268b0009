// Thread-parallel sweep runner for city-scale experiment grids.
//
// Every sweep cell (stream count x shard layout x autoscale policy) is an
// independent deterministic simulation: it owns its Simulator, TangramSystem,
// platform, and every Rng it draws from, and reads only immutable shared
// inputs (`const SceneTrace&`s built once per sweep point).  That makes the
// grid embarrassingly parallel WITHOUT giving up reproducibility — a fixed
// worker pool runs cells concurrently and the per-cell results are collected
// into a vector indexed by cell id, so the output is bit-identical to running
// the same cells serially, regardless of the job count or which worker
// happened to pick up which cell (regression-tested in
// tests/test_parallel_runner.cpp, and the CI ThreadSanitizer job runs the
// same grid under -fsanitize=thread).
//
// The runner reads no clock and returns only what the cells return, so a
// grid's output depends on its cells alone.  Wall-clock throughput, peak RSS
// and allocations per patch are measured by benchmark/'s tangram_bench,
// under the bounds in BENCHMARK.json.

#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

namespace tangram::experiments {

// Peak resident-set high-water mark of this process in kB (VmHWM from
// /proc/self/status); -1 when the probe is unavailable (non-Linux).
// Monotone over the process lifetime.
[[nodiscard]] long peak_rss_kb();

class ParallelSweepRunner {
 public:
  // jobs <= 0 selects std::thread::hardware_concurrency() (min 1).
  explicit ParallelSweepRunner(int jobs = 0) : jobs_(resolve_jobs(jobs)) {}

  [[nodiscard]] int jobs() const { return jobs_; }
  [[nodiscard]] static int resolve_jobs(int jobs);

  // Run body(i) for every i in [0, count).  jobs == 1 (or count <= 1) runs
  // inline on the calling thread; otherwise min(jobs, count) workers pull
  // cell indices from a shared atomic counter.  Cells must not share mutable
  // state.  If cells throw, every remaining cell still runs, then the
  // exception from the lowest-index failing cell is rethrown — so the set of
  // executed cells is independent of worker scheduling.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& body) const;

  // Map fn over [0, count) and collect the per-cell results by cell index,
  // so output order is deterministic.  Result must be default-constructible
  // and movable.
  template <typename Fn>
  [[nodiscard]] auto map(std::size_t count, Fn&& fn) const
      -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
    using Result = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
    std::vector<Result> results(count);
    run_indexed(count, [&](std::size_t i) { results[i] = fn(i); });
    return results;
  }

 private:
  int jobs_;
};

}  // namespace tangram::experiments
