#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace tangram::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  double fired_at = -1;
  sim.schedule_at(2.0, [&] {
    sim.schedule_in(1.5, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 3.5);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, HandleNotPendingAfterFiring) {
  Simulator sim;
  EventHandle h = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // harmless after firing
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  std::vector<double> fired;
  for (const double t : {1.0, 2.0, 3.0, 4.0})
    sim.schedule_at(t, [&fired, t] { fired.push_back(t); });
  EXPECT_EQ(sim.run_until(2.5), 2u);
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 5) sim.schedule_in(1.0, chain);
  };
  sim.schedule_at(0.0, chain);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Simulator, RejectsSchedulingInThePast) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, ScheduleInClampsNegativeDelay) {
  Simulator sim;
  bool fired = false;
  sim.schedule_in(-3.0, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Simulator, StepExecutesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, StepSkipsCancelled) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [&] { fired = true; });
  h.cancel();
  EXPECT_TRUE(sim.step());
  EXPECT_TRUE(fired);
}

TEST(Simulator, CancellingInsideEventWorks) {
  Simulator sim;
  bool second_fired = false;
  EventHandle second = sim.schedule_at(2.0, [&] { second_fired = true; });
  sim.schedule_at(1.0, [&] { second.cancel(); });
  sim.run();
  EXPECT_FALSE(second_fired);
}

TEST(Simulator, RunUntilAdvancesClockToHorizonWhenIdle) {
  Simulator sim;
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

// --- exact pending_events()/idle() -------------------------------------------

TEST(Simulator, PendingEventsIsExactAfterCancel) {
  Simulator sim;
  EventHandle a = sim.schedule_at(1.0, [] {});
  EventHandle b = sim.schedule_at(2.0, [] {});
  sim.schedule_at(3.0, [] {});
  EXPECT_EQ(sim.pending_events(), 3u);
  a.cancel();
  EXPECT_EQ(sim.pending_events(), 2u);
  b.cancel();
  b.cancel();  // double-cancel must not double-count
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(sim.idle());
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, IdleExactWhenEverythingCancelled) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i)
    handles.push_back(sim.schedule_at(1.0 + i, [] {}));
  for (auto& h : handles) h.cancel();
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.run(), 0u);
}

// --- reschedule --------------------------------------------------------------

TEST(Simulator, RescheduleMovesFiringTime) {
  Simulator sim;
  double fired_at = -1.0;
  EventHandle h = sim.schedule_at(1.0, [&] { fired_at = sim.now(); });
  EXPECT_TRUE(sim.reschedule(h, 5.0));
  EXPECT_TRUE(h.pending());
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulator, RescheduleCanPullEarlier) {
  Simulator sim;
  std::vector<int> order;
  EventHandle late = sim.schedule_at(10.0, [&] { order.push_back(1); });
  sim.schedule_at(5.0, [&] { order.push_back(2); });
  EXPECT_TRUE(sim.reschedule(late, 1.0));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, RescheduleMatchesCancelPlusScheduleOrdering) {
  // A rescheduled event consumes a fresh sequence number, so at an equal
  // firing time it runs AFTER events scheduled before the reschedule —
  // byte-for-byte the ordering of cancel() + schedule_at().
  Simulator sim;
  std::vector<int> order;
  EventHandle moved = sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(4.0, [&] { order.push_back(2); });
  EXPECT_TRUE(sim.reschedule(moved, 4.0));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(Simulator, RescheduleReturnsFalseWhenNotPending) {
  Simulator sim;
  EventHandle never;
  EXPECT_FALSE(sim.reschedule(never, 1.0));

  EventHandle fired = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.reschedule(fired, 2.0));

  EventHandle cancelled = sim.schedule_at(2.0, [] {});
  cancelled.cancel();
  EXPECT_FALSE(sim.reschedule(cancelled, 3.0));
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, RescheduleKeepsAllHandleCopiesValid) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.schedule_at(1.0, [&] { fired = true; });
  EventHandle copy = h;
  EXPECT_TRUE(sim.reschedule(h, 3.0));
  EXPECT_TRUE(copy.pending());
  copy.cancel();
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RepeatedRescheduleFiresOnce) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.schedule_at(1.0, [&] { ++fired; });
  for (int i = 0; i < 1000; ++i)
    EXPECT_TRUE(sim.reschedule(h, 1.0 + 0.001 * i));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
}

// --- handle generation staleness ---------------------------------------------

TEST(Simulator, StaleHandleDoesNotAffectSlotReuse) {
  // After an event fires, its pool slot is recycled.  The old handle must
  // read "not pending" and its cancel() must not kill the slot's new tenant.
  Simulator sim;
  EventHandle old_handle = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(old_handle.pending());

  bool second_fired = false;
  EventHandle fresh = sim.schedule_at(2.0, [&] { second_fired = true; });
  old_handle.cancel();                 // stale: must be a no-op
  EXPECT_FALSE(sim.reschedule(old_handle, 9.0));
  EXPECT_TRUE(fresh.pending());
  sim.run();
  EXPECT_TRUE(second_fired);
}

TEST(Simulator, HandleNotPendingInsideOwnCallback) {
  Simulator sim;
  EventHandle h;
  bool was_pending = true;
  h = sim.schedule_at(1.0, [&] { was_pending = h.pending(); });
  sim.run();
  EXPECT_FALSE(was_pending);
}

// --- past-time convention ----------------------------------------------------

TEST(Simulator, PastTimeWithinRelativeToleranceClampsToNow) {
  // At now = 1e5 s (a day-long replay), one ULP is ~1.5e-11 — far beyond the
  // old absolute 1e-12 epsilon.  The relative tolerance clamps such rounding
  // to now instead of throwing.
  Simulator sim;
  sim.schedule_at(1e5, [] {});
  sim.run();
  ASSERT_DOUBLE_EQ(sim.now(), 1e5);

  bool fired = false;
  const double just_before = std::nextafter(1e5, 0.0);
  ASSERT_LT(just_before, sim.now());
  sim.schedule_at(just_before, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 1e5);  // clamped, clock never moved backwards
}

TEST(Simulator, PastTimeBeyondToleranceStillThrows) {
  Simulator sim;
  sim.schedule_at(1e5, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1e5 - 1.0, [] {}), std::invalid_argument);
  EventHandle h = sim.schedule_at(2e5, [] {});
  EXPECT_THROW(sim.reschedule(h, 1e5 - 1.0), std::invalid_argument);
}

TEST(Simulator, RejectsNanEventTime) {
  Simulator sim;
  EXPECT_THROW(
      sim.schedule_at(std::numeric_limits<double>::quiet_NaN(), [] {}),
      std::invalid_argument);
  // A NaN delay is rejected too, not clamped to now like a negative one.
  EXPECT_THROW(
      sim.schedule_in(std::numeric_limits<double>::quiet_NaN(), [] {}),
      std::invalid_argument);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, CountsEventsExecuted) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(1.0 * i, [] {});
  EventHandle h = sim.schedule_at(9.0, [] {});
  h.cancel();
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

}  // namespace
}  // namespace tangram::sim
