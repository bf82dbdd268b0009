#include "experiments/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

namespace tangram::experiments {

long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    // Line format: "VmHWM:      1234 kB".
    try {
      return std::stol(line.substr(6));
    } catch (const std::exception&) {
      return -1;
    }
  }
  return -1;
}

int ParallelSweepRunner::resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void ParallelSweepRunner::run_indexed(
    std::size_t count, const std::function<void(std::size_t)>& body) const {
  if (count == 0) return;
  if (jobs_ <= 1 || count == 1) {
    // Serial reference path: no threads at all, so `--jobs 1` is also the
    // baseline the determinism tests compare the pool against.
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(count);
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  const std::size_t workers =
      std::min(static_cast<std::size_t>(jobs_), count);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (auto& t : pool) t.join();

  for (auto& error : errors)
    if (error) std::rethrow_exception(error);
}

}  // namespace tangram::experiments
