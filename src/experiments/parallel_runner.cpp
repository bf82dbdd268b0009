#include "experiments/parallel_runner.h"

#include <exception>
#include <fstream>
#include <string>

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

}  // namespace tangram::experiments
