#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace idea::sim {
namespace {

TEST(Simulator, RunsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(sec(3), [&] { order.push_back(3); });
  sim.schedule_at(sec(1), [&] { order.push_back(1); });
  sim.schedule_at(sec(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), sec(3));
}

TEST(Simulator, FifoAmongSameTime) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(sec(1), [&] { order.push_back(1); });
  sim.schedule_at(sec(1), [&] { order.push_back(2); });
  sim.schedule_at(sec(1), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime fired = -1;
  sim.schedule_at(sec(5), [&] {
    sim.schedule_after(sec(2), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, sec(7));
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(msec(1), recurse);
  };
  sim.schedule_after(msec(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), msec(5));
}

TEST(Simulator, CancelOneShot) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(sec(1), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelDoesNotAffectOthers) {
  Simulator sim;
  bool a = false, b = false;
  const EventId ida = sim.schedule_at(sec(1), [&] { a = true; });
  sim.schedule_at(sec(1), [&] { b = true; });
  sim.cancel(ida);
  sim.run();
  EXPECT_FALSE(a);
  EXPECT_TRUE(b);
}

TEST(Simulator, PeriodicFiresRepeatedly) {
  Simulator sim;
  int count = 0;
  sim.schedule_periodic(sec(1), [&] { ++count; });
  sim.run_until(sec(10));
  EXPECT_EQ(count, 10);
}

TEST(Simulator, PeriodicInitialDelay) {
  Simulator sim;
  std::vector<SimTime> fires;
  sim.schedule_periodic(sec(2), [&] { fires.push_back(sim.now()); },
                        /*initial_delay=*/sec(5));
  sim.run_until(sec(10));
  EXPECT_EQ(fires, (std::vector<SimTime>{sec(5), sec(7), sec(9)}));
}

TEST(Simulator, CancelPeriodicStopsChain) {
  Simulator sim;
  int count = 0;
  const EventId id = sim.schedule_periodic(sec(1), [&] { ++count; });
  sim.schedule_at(sec(3) + msec(500), [&] { sim.cancel(id); });
  sim.run_until(sec(10));
  EXPECT_EQ(count, 3);
}

TEST(Simulator, CancelPeriodicFromInsideCallback) {
  Simulator sim;
  int count = 0;
  EventId id = 0;
  id = sim.schedule_periodic(sec(1), [&] {
    if (++count == 2) sim.cancel(id);
  });
  sim.run_until(sec(10));
  EXPECT_EQ(count, 2);
}

TEST(Simulator, RunUntilAdvancesClockEvenWhenEmpty) {
  Simulator sim;
  sim.run_until(sec(42));
  EXPECT_EQ(sim.now(), sec(42));
}

TEST(Simulator, RunUntilDoesNotRunLaterEvents) {
  Simulator sim;
  bool late = false;
  sim.schedule_at(sec(10), [&] { late = true; });
  sim.run_until(sec(5));
  EXPECT_FALSE(late);
  EXPECT_EQ(sim.now(), sec(5));
  sim.run_until(sec(10));
  EXPECT_TRUE(late);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(sec(1), [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventsProcessedCount) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(sec(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(Simulator, RunWithLimit) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) sim.schedule_at(sec(i), [&] { ++count; });
  sim.run(/*limit=*/4);
  EXPECT_EQ(count, 4);
}

TEST(Simulator, ManyEventsStressOrder) {
  // Spread over 1000 s, so nearly every event waits in the far band and
  // migrates to the near one; ten events share each second, so their
  // insertion-order tie-break must survive the migration.
  Simulator sim;
  SimTime last = -1;
  int last_i = -1;
  bool ordered = true;
  for (int i = 0; i < 10000; ++i) {
    sim.schedule_at(sec((i * 7919) % 1000), [&, i] {
      if (sim.now() < last || (sim.now() == last && i < last_i)) {
        ordered = false;
      }
      last = sim.now();
      last_i = i;
    });
  }
  sim.run();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(sim.events_processed(), 10000u);
}

}  // namespace
}  // namespace idea::sim
