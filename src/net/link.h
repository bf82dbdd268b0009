// Bandwidth-limited uplink model.
//
// A Link is a FIFO store-and-forward pipe with a fixed rate (Mbps).
// Transfers serialize: a message's transmission starts when the link frees
// up, and delivery fires as a simulator event.  This matches how the paper
// emulates 20/40/80 Mbps uplinks to "simulate different arrival speeds of
// patches".

#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>

#include "common/stats.h"
#include "sim/simulator.h"

namespace tangram::net {

class Link {
 public:
  // `mbps` uses network convention: 1 Mbps = 1e6 bits/s.  A NaN rate fails
  // the check too.
  Link(sim::Simulator& simulator, double mbps)
      : sim_(simulator), bytes_per_second_(mbps * 1.0e6 / 8.0) {
    if (!(mbps > 0.0))
      throw std::invalid_argument("Link: rate must be positive");
  }

  // Queue `bytes` for transmission; `on_delivered` runs at delivery time.
  // Templated so small callbacks ride the simulator's inline event storage
  // instead of a std::function heap allocation per delivery.
  template <typename Fn>
  void send(std::size_t bytes, Fn&& on_delivered) {
    const double start = std::max(sim_.now(), busy_until_);
    const double tx = static_cast<double>(bytes) / bytes_per_second_;
    busy_until_ = start + tx;
    transmission_time_.add(tx);
    sim_.schedule_at(busy_until_, std::forward<Fn>(on_delivered));
  }

  [[nodiscard]] const common::RunningStats& transmission_time() const {
    return transmission_time_;
  }

 private:
  sim::Simulator& sim_;
  double bytes_per_second_;
  sim::TimePoint busy_until_ = 0.0;
  common::RunningStats transmission_time_;
};

}  // namespace tangram::net
