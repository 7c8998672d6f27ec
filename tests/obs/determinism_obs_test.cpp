/// \file determinism_obs_test.cpp
/// \brief Observability must be a pure observer: each fixed-seed replay
///        in tests/shard/replays.hpp must reach the same outcome with
///        metrics AND tracing enabled as with them off (whose goldens
///        tests/shard/determinism_test.cpp pins), and two obs-on runs of
///        the same seed must export byte-identical metric and trace JSON.
///
/// If this file fails while tests/shard/determinism_test.cpp passes, the
/// observability layer perturbed protocol behavior — an extra message, a
/// consumed RNG draw, a changed event ordering.  That is always a bug in
/// the obs layer, never a golden to re-capture.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "../shard/replays.hpp"

namespace idea::shard {
namespace {

using replays::ReplayResult;
using replays::replay;
using replays::replay_churn;

/// Every protocol outcome of `on` (obs on) equals that of `off`.
void expect_same_outcome(const ReplayResult& on, const ReplayResult& off) {
  EXPECT_EQ(on.puts, off.puts);
  EXPECT_EQ(on.converged, off.converged);
  EXPECT_EQ(on.digest, off.digest);
  EXPECT_EQ(on.logical_messages, off.logical_messages);
  EXPECT_EQ(on.wire_messages, off.wire_messages);
  EXPECT_EQ(on.per_type, off.per_type);
}

TEST(ObservabilityDeterminism, Seed2007GoldensHoldWithObsEnabled) {
  // Metrics recording and trace minting must not shift a single message
  // or draw.
  const ReplayResult r = replay(2007, /*obs=*/true);
  expect_same_outcome(r, replay(2007));
  // And the instrumentation actually observed the run.
  EXPECT_GT(r.traces, 0u);
  EXPECT_NE(r.metrics_json.find("session.puts"), std::string::npos);
}

TEST(ObservabilityDeterminism, ChurnSeed2007GoldensHoldWithObsEnabled) {
  const ReplayResult r = replay_churn(2007, /*obs=*/true);
  expect_same_outcome(r, replay_churn(2007));
  // Churn exercises the AE + migration instrumentation.
  EXPECT_NE(r.metrics_json.find("ae.rounds"), std::string::npos);
  EXPECT_NE(r.metrics_json.find("shard.migrations"), std::string::npos);
}

TEST(ObservabilityDeterminism, ExportsAreByteIdenticalAcrossRuns) {
  // Two same-seed obs-on runs in one process: every exported byte —
  // metric dumps and chrome trace — must match.  Guards against iteration
  // order leaking from interning tables or hash maps into the export.
  const ReplayResult a = replay(99, /*obs=*/true);
  const ReplayResult b = replay(99, /*obs=*/true);
  EXPECT_EQ(a.puts, b.puts);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.traces, b.traces);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_FALSE(a.metrics_json.empty());
  EXPECT_FALSE(a.trace_json.empty());
}

TEST(ObservabilityDeterminism, ChurnExportsAreByteIdenticalAcrossRuns) {
  const ReplayResult a = replay_churn(2007, /*obs=*/true);
  const ReplayResult b = replay_churn(2007, /*obs=*/true);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

}  // namespace
}  // namespace idea::shard
