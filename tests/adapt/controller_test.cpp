/// \file controller_test.cpp
/// \brief ConsistencyController control rules in isolation: escalation,
///        step-down hysteresis, relax/rewarm, SLO renegotiation, and the
///        reproducibility of the decision log.
///
/// The controller is driven directly (manual tick(), no cluster): each
/// test feeds a synthetic window of on_read/on_write evidence and asserts
/// the per-file target / per-tenant bound shift the rules produce.

#include <gtest/gtest.h>

#include <string>

#include "adapt/controller.hpp"
#include "sim/simulator.hpp"

namespace idea::adapt {
namespace {

using Target = ConsistencyController::Target;

ControllerConfig test_config() {
  ControllerConfig cfg;
  cfg.enabled = true;
  cfg.period = msec(500);
  cfg.hot_writes = 4;
  cfg.escalation_trigger = 1;
  cfg.cold_windows = 2;
  cfg.hold_windows = 2;
  return cfg;
}

client::ReadResult read_result(SimDuration latency, std::uint64_t staleness,
                               bool escalated = false) {
  client::ReadResult r;
  r.latency = latency;
  r.staleness_versions = staleness;
  r.escalated = escalated;
  return r;
}

/// One hot+contended window of evidence for `file`.
void hot_window(ConsistencyController& ctl, FileId file,
                std::uint32_t writes = 5, bool escalated = true) {
  for (std::uint32_t i = 0; i < writes; ++i) ctl.on_write(file);
  ctl.on_read(file, 0, false, read_result(msec(30), 0, escalated));
}

TEST(ConsistencyControllerTest, EscalatesHotContendedFile) {
  sim::Simulator sim;
  ConsistencyController ctl(sim, test_config(), nullptr);

  // Hot writes alone are not contention: no read-side evidence.
  for (int i = 0; i < 6; ++i) ctl.on_write(1);
  ctl.tick();
  EXPECT_EQ(ctl.target_of(1), Target::kDeclared);

  // Hot writes + a router escalation in the same window: escalate.
  hot_window(ctl, 1);
  ctl.tick();
  EXPECT_EQ(ctl.target_of(1), Target::kStrong);
  EXPECT_EQ(ctl.stats().escalations, 1u);
  const client::ConsistencyLevel served = ctl.effective_level(
      1, 0, client::ConsistencyLevel::bounded_staleness(2));
  EXPECT_EQ(served.level, client::Level::kStrong);
}

TEST(ConsistencyControllerTest, StaleReadsAreAlsoEvidence) {
  sim::Simulator sim;
  ConsistencyController ctl(sim, test_config(), nullptr);

  // Stale (but not escalated) policy reads count.
  for (int i = 0; i < 5; ++i) ctl.on_write(2);
  ctl.on_read(2, 0, false, read_result(msec(20), 3));
  ctl.tick();
  EXPECT_EQ(ctl.target_of(2), Target::kStrong);

  // Write volume alone is not evidence: a hot file with neither an
  // escalation nor a stale read keeps its declared level.
  for (int i = 0; i < 5; ++i) ctl.on_write(3);
  ctl.tick();
  EXPECT_EQ(ctl.target_of(3), Target::kDeclared);
  EXPECT_EQ(ctl.stats().escalations, 1u);
}

TEST(ConsistencyControllerTest, EscalatesToQuorumWhenConfigured) {
  sim::Simulator sim;
  ControllerConfig cfg = test_config();
  cfg.escalate_to_quorum = true;
  cfg.quorum_r = 2;
  ConsistencyController ctl(sim, cfg, nullptr);
  hot_window(ctl, 4);
  ctl.tick();
  EXPECT_EQ(ctl.target_of(4), Target::kQuorum);
  const client::ConsistencyLevel served = ctl.effective_level(
      4, 0, client::ConsistencyLevel::bounded_staleness(2));
  EXPECT_EQ(served.level, client::Level::kQuorum);
  EXPECT_EQ(served.quorum_r, 2u);
}

TEST(ConsistencyControllerTest, HoldsEscalationWhileWritesStayHot) {
  sim::Simulator sim;
  ConsistencyController ctl(sim, test_config(), nullptr);
  hot_window(ctl, 5);
  ctl.tick();
  ASSERT_EQ(ctl.target_of(5), Target::kStrong);

  // Served at Strong, the file produces no escalations or stale reads —
  // but as long as the write pressure persists, the file must NOT step
  // down (it would immediately re-escalate: flip-flop).
  for (int w = 0; w < 6; ++w) {
    for (int i = 0; i < 5; ++i) ctl.on_write(5);
    ctl.on_read(5, 0, false, read_result(msec(40), 0));
    ctl.tick();
    EXPECT_EQ(ctl.target_of(5), Target::kStrong) << "window " << w;
  }
  EXPECT_EQ(ctl.stats().step_downs, 0u);

  // Writes stop: hold_windows calm windows later the file steps down.
  ctl.tick();
  EXPECT_EQ(ctl.target_of(5), Target::kStrong);
  ctl.tick();
  EXPECT_EQ(ctl.target_of(5), Target::kDeclared);
  EXPECT_EQ(ctl.stats().step_downs, 1u);
}

TEST(ConsistencyControllerTest, RelaxesColdQuietFilesAndRewarmsOnWrite) {
  sim::Simulator sim;
  ConsistencyController ctl(sim, test_config(), nullptr);

  // Two write-free windows with (quiet) reads: relax to Eventual.
  ctl.on_read(6, 0, false, read_result(msec(10), 0));
  ctl.tick();
  ctl.on_read(6, 0, false, read_result(msec(10), 0));
  ctl.tick();
  EXPECT_EQ(ctl.target_of(6), Target::kEventual);
  EXPECT_EQ(ctl.effective_level(6, 0, client::ConsistencyLevel::strong())
                .level,
            client::Level::kEventualNearest);

  // A renewed write rewarms synchronously — before the next tick — since
  // Eventual has no bound to cap what a read in between would see.
  ctl.on_write(6);
  EXPECT_EQ(ctl.target_of(6), Target::kDeclared);
  EXPECT_EQ(ctl.stats().rewarms, 1u);
}

TEST(ConsistencyControllerTest, StaleEvidenceBlocksRelaxation) {
  sim::Simulator sim;
  ConsistencyController ctl(sim, test_config(), nullptr);
  // Write-free windows whose reads still observe staleness (replicas not
  // yet healed): the file must NOT relax to an unbounded level.
  for (int w = 0; w < 4; ++w) {
    ctl.on_read(7, 0, false, read_result(msec(10), 3));
    ctl.tick();
    EXPECT_EQ(ctl.target_of(7), Target::kDeclared) << "window " << w;
  }
  // Once the reads come back clean, relaxation proceeds.
  ctl.on_read(7, 0, false, read_result(msec(10), 0));
  ctl.tick();
  EXPECT_EQ(ctl.target_of(7), Target::kEventual);
}

TEST(ConsistencyControllerTest, RenegotiatesBoundsAgainstTheSlo) {
  sim::Simulator sim;
  ConsistencyController ctl(sim, test_config(), nullptr);
  ctl.declare_slo(1, Slo{2, msec(50)});

  // >5% of the window's adaptive reads over the latency clause: loosen.
  for (int i = 0; i < 10; ++i) {
    ctl.on_read(8, 1, true, read_result(msec(80), 0));
  }
  ctl.tick();
  EXPECT_EQ(ctl.bound_shift(1), 1);
  const client::ConsistencyLevel loose = ctl.effective_level(
      8, 1, client::ConsistencyLevel::bounded_staleness(2));
  EXPECT_EQ(loose.level, client::Level::kBoundedStaleness);
  EXPECT_EQ(loose.max_versions, 3u);

  // Staleness pressure wins ties and tightens, one version per window.
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 10; ++i) {
      ctl.on_read(8, 1, true, read_result(msec(80), 5));
    }
    ctl.tick();
  }
  EXPECT_EQ(ctl.bound_shift(1), -2);
  const client::ConsistencyLevel tight = ctl.effective_level(
      8, 1, client::ConsistencyLevel::bounded_staleness(2));
  EXPECT_EQ(tight.max_versions, 0u);  // 2 - 2, floored at zero
  EXPECT_EQ(ctl.stats().renegotiations, 4u);

  // Undeclared tenants and non-bounded levels pass through untouched.
  EXPECT_EQ(ctl.effective_level(8, 9,
                                client::ConsistencyLevel::bounded_staleness(2))
                .max_versions,
            2u);
  EXPECT_EQ(ctl.effective_level(99, 1, client::ConsistencyLevel::strong())
                .level,
            client::Level::kStrong);
}

TEST(ConsistencyControllerTest, UnknownFilesServeTheDeclaredLevel) {
  sim::Simulator sim;
  ConsistencyController ctl(sim, test_config(), nullptr);
  const client::ConsistencyLevel declared =
      client::ConsistencyLevel::bounded_staleness(2, sec(1));
  EXPECT_EQ(ctl.target_of(42), Target::kDeclared);
  EXPECT_TRUE(ctl.effective_level(42, 0, declared) == declared);
}

TEST(ConsistencyControllerTest, SameFeedbackSameDecisionHistory) {
  sim::Simulator sim_a;
  sim::Simulator sim_b;
  ConsistencyController a(sim_a, test_config(), nullptr);
  ConsistencyController b(sim_b, test_config(), nullptr);
  for (ConsistencyController* ctl : {&a, &b}) {
    ctl->declare_slo(1, Slo{2, msec(50)});
    hot_window(*ctl, 1);
    for (int i = 0; i < 10; ++i) {
      ctl->on_read(2, 1, true, read_result(msec(90), 0));
    }
    ctl->tick();
    ctl->on_read(3, 0, false, read_result(msec(5), 0));
    ctl->tick();
    ctl->tick();
    ctl->on_write(3);
  }
  ASSERT_FALSE(a.decision_log().empty());
  EXPECT_EQ(a.decision_log(), b.decision_log());
  EXPECT_EQ(a.decision_digest(), b.decision_digest());
  // The digest is order-sensitive: any divergence must change it.
  EXPECT_EQ(a.stats().decisions, a.decision_log().size());
}

TEST(ConsistencyControllerTest, PeriodicTickRunsOnTheSimClock) {
  sim::Simulator sim;
  ConsistencyController ctl(sim, test_config(), nullptr);
  ctl.start();
  ctl.start();  // idempotent
  sim.run_until(msec(2600));
  EXPECT_EQ(ctl.stats().ticks, 5u);
  ctl.stop();
  sim.run_until(msec(5000));
  EXPECT_EQ(ctl.stats().ticks, 5u);
}

}  // namespace
}  // namespace idea::adapt
