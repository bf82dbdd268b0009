#include "net/link.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace tangram::net {
namespace {

TEST(Link, TransmissionTimeMatchesRate) {
  sim::Simulator sim;
  Link link(sim, 8.0);  // 8 Mbps = 1 MB/s
  double delivered_at = -1;
  link.send(500000, [&] { delivered_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(delivered_at, 0.5, 1e-9);
}

TEST(Link, TransfersSerializeFifo) {
  sim::Simulator sim;
  Link link(sim, 8.0);
  std::vector<int> order;
  std::vector<double> times;
  link.send(1000000, [&] { order.push_back(0); times.push_back(sim.now()); });
  link.send(1000000, [&] { order.push_back(1); times.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_NEAR(times[0], 1.0, 1e-9);
  EXPECT_NEAR(times[1], 2.0, 1e-9);  // queued behind the first
}

TEST(Link, IdleGapsDoNotAccumulateCredit) {
  sim::Simulator sim;
  Link link(sim, 8.0);
  double second_delivery = -1;
  link.send(1000000, [] {});
  sim.run();  // finishes at t = 1
  sim.schedule_at(5.0, [&] {
    link.send(1000000, [&] { second_delivery = sim.now(); });
  });
  sim.run();
  EXPECT_NEAR(second_delivery, 6.0, 1e-9);  // starts at 5, not earlier
}

TEST(Link, AccountingTracksBusyTime) {
  sim::Simulator sim;
  Link link(sim, 8.0);
  link.send(250000, [] {});
  link.send(750000, [] {});
  sim.run();
  // Busy time excludes the 0.25 s the second message queued.
  EXPECT_NEAR(link.transmission_time().sum(), 1.0, 1e-9);
  EXPECT_EQ(link.transmission_time().count(), 2u);
}

TEST(Link, RejectsNonPositiveRate) {
  sim::Simulator sim;
  EXPECT_THROW(Link(sim, 0.0), std::invalid_argument);
  EXPECT_THROW(Link(sim, -5.0), std::invalid_argument);
  EXPECT_THROW(Link(sim, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

}  // namespace
}  // namespace tangram::net
