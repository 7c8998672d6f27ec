/// \file import_property_test.cpp
/// \brief Randomized property test for ReplicaStore::import_log against a
///        flat map oracle.
///
/// import_log is the load-bearing primitive of crash recovery: durable
/// checkpoints, survivor state re-adoption and own-writer reconciliation
/// all funnel through it.  Each of the 10,000 cases below generates
/// per-writer histories, splits them into shuffled batches, imports them
/// in random order and checks the store against an oracle that models the
/// log as a plain std::map with OR'd invalidation flags:
///
///  * completeness  — every generated update lands; nothing stays parked;
///  * order-insensitivity — a different batch permutation converges to
///    the same content digest;
///  * round-trip idempotence — export_log re-imported into a fresh store
///    reproduces the digest, and a second import applies nothing;
///  * exact ImportReport accounting — applied / duplicates /
///    invalidation_merges sum to what the oracle predicts;
///  * invalidation merge — flags arriving after the fact OR in and move
///    the meta value exactly as the oracle computes;
///  * peer-delta queries — updates_ahead_of, staleness_ahead_of (peer as
///    a VersionVector, and for the probe also as an EVV) and
///    invalidated_keys match a brute-force walk of the whole log after
///    every batch (parked arrivals included), after the invalidation merge
///    and after a rollback_to.

#include "replica/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "peer_oracle.hpp"
#include "util/rng.hpp"

namespace idea::replica {
namespace {

using peer_oracle::check_peer_queries;

constexpr int kCases = 10'000;

struct Case {
  std::vector<Update> all;                  ///< Every generated update.
  std::vector<std::vector<Update>> batches; ///< Partition of `all`.
};

Case generate(Rng& rng) {
  Case c;
  const auto writers = static_cast<NodeId>(rng.uniform_int(1, 4));
  for (NodeId w = 0; w < writers; ++w) {
    const auto history = rng.uniform_int(0, 6);
    for (std::int64_t seq = 1; seq <= history; ++seq) {
      Update u;
      u.key = UpdateKey{w, static_cast<std::uint64_t>(seq)};
      u.file = 7;
      // Writer-local stamps are non-decreasing in real histories.
      u.stamp = sec(seq) + msec(rng.uniform_int(0, 999));
      u.content =
          std::string(1, static_cast<char>('a' + rng.uniform_int(0, 25)));
      // Integral deltas keep the oracle's meta sum exact in floating point.
      u.meta_delta = static_cast<double>(rng.uniform_int(0, 4));
      u.invalidated = rng.chance(0.15);
      c.all.push_back(std::move(u));
    }
  }
  // Random partition into up to 4 batches, each internally shuffled: the
  // store must absorb arbitrary interleavings of writers and sequence
  // gaps (its reorder buffer parks out-of-order arrivals).
  const auto batch_count = static_cast<std::size_t>(rng.uniform_int(1, 4));
  c.batches.resize(batch_count);
  for (const Update& u : c.all) {
    c.batches[static_cast<std::size_t>(rng.next_below(batch_count))]
        .push_back(u);
  }
  for (auto& batch : c.batches) rng.shuffle(batch);
  return c;
}

/// Import the case's batches in the order given by `order`; with a probe
/// rng, check the peer-delta queries after every batch, while arrivals
/// that outran their predecessors may still be parked.
ReplicaStore::ImportReport import_all(ReplicaStore& store, const Case& c,
                                      const std::vector<std::size_t>& order,
                                      Rng* probe_rng = nullptr,
                                      const std::string& where = {}) {
  ReplicaStore::ImportReport total;
  for (std::size_t i : order) {
    const ReplicaStore::ImportReport r = store.import_log(c.batches[i]);
    total.applied += r.applied;
    total.duplicates += r.duplicates;
    total.invalidation_merges += r.invalidation_merges;
    if (probe_rng != nullptr) {
      check_peer_queries(store, *probe_rng, where + " batch");
      if (::testing::Test::HasFatalFailure()) break;
    }
  }
  return total;
}

TEST(ImportLogProperty, MatchesMapOracleAcross10kCases) {
  Rng rng(0xC4A5'2026ULL);
  // Peer-delta probes draw from their own stream, so the generated cases
  // are the same with or without them.
  Rng probe_rng(0x9EE5'2026ULL);
  for (int n = 0; n < kCases; ++n) {
    const Case c = generate(rng);
    const std::string where = "case " + std::to_string(n);

    // Oracle: the applied log is exactly the generated set (prefix-complete
    // per writer), flags as generated.
    std::map<UpdateKey, Update> oracle;
    for (const Update& u : c.all) oracle.emplace(u.key, u);

    std::vector<std::size_t> order(c.batches.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

    ReplicaStore a(0, 7);
    const ReplicaStore::ImportReport first =
        import_all(a, c, order, &probe_rng, where);
    if (HasFatalFailure()) return;
    ASSERT_EQ(a.update_count(), oracle.size()) << "case " << n;
    ASSERT_EQ(a.pending_remote(), 0u) << "case " << n;
    ASSERT_EQ(first.applied, oracle.size()) << "case " << n;
    ASSERT_EQ(first.duplicates, 0u) << "case " << n;
    ASSERT_EQ(first.invalidation_merges, 0u) << "case " << n;
    double expected_meta = 0.0;
    for (const auto& [key, u] : oracle) {
      const Update* held = a.find(key);
      ASSERT_NE(held, nullptr) << "case " << n;
      ASSERT_EQ(held->content, u.content) << "case " << n;
      ASSERT_EQ(held->invalidated, u.invalidated) << "case " << n;
      if (!u.invalidated) expected_meta += u.meta_delta;
    }
    ASSERT_DOUBLE_EQ(a.meta_value(), expected_meta) << "case " << n;

    // Order-insensitivity: a different batch permutation converges to the
    // same canonical contents.
    rng.shuffle(order);
    ReplicaStore b(1, 7);
    import_all(b, c, order);
    ASSERT_EQ(b.content_digest(), a.content_digest()) << "case " << n;

    // Round-trip idempotence: export -> fresh import reproduces the
    // digest; re-importing the same export applies nothing and reports
    // every update as a duplicate.
    const std::vector<Update> exported = a.export_log();
    ReplicaStore fresh(2, 7);
    const ReplicaStore::ImportReport rt = fresh.import_log(exported);
    ASSERT_EQ(rt.applied, oracle.size()) << "case " << n;
    ASSERT_EQ(fresh.content_digest(), a.content_digest()) << "case " << n;
    const ReplicaStore::ImportReport again = fresh.import_log(exported);
    ASSERT_EQ(again.applied, 0u) << "case " << n;
    ASSERT_EQ(again.invalidation_merges, 0u) << "case " << n;
    ASSERT_EQ(again.duplicates, oracle.size()) << "case " << n;

    // Invalidation merge: a batch re-sending every update with some flags
    // upgraded ORs the new flags in (never clears one) and reports the
    // split exactly.
    std::vector<Update> upgraded = a.export_log();
    std::size_t newly_flagged = 0;
    for (Update& u : upgraded) {
      if (!u.invalidated && rng.chance(0.3)) {
        u.invalidated = true;
        ++newly_flagged;
        oracle.find(u.key)->second.invalidated = true;
      }
    }
    const ReplicaStore::ImportReport merge = a.import_log(upgraded);
    ASSERT_EQ(merge.applied, 0u) << "case " << n;
    ASSERT_EQ(merge.invalidation_merges, newly_flagged) << "case " << n;
    ASSERT_EQ(merge.duplicates, oracle.size() - newly_flagged)
        << "case " << n;
    expected_meta = 0.0;
    for (const auto& [key, u] : oracle) {
      ASSERT_EQ(a.find(key)->invalidated, u.invalidated) << "case " << n;
      if (!u.invalidated) expected_meta += u.meta_delta;
    }
    ASSERT_DOUBLE_EQ(a.meta_value(), expected_meta) << "case " << n;
    ASSERT_NO_FATAL_FAILURE(
        check_peer_queries(a, probe_rng, where + " after merge"));

    // Rollback: dropping every update stamped after a random cut leaves a
    // per-writer prefix, and the queries must follow the shorter log.
    if (!c.all.empty()) {
      const SimTime cut = c.all[static_cast<std::size_t>(
                                    probe_rng.next_below(c.all.size()))]
                              .stamp;
      std::size_t expected_dropped = 0;
      for (const auto& [key, u] : oracle) {
        if (u.stamp > cut) ++expected_dropped;
      }
      ASSERT_EQ(a.rollback_to(cut), expected_dropped) << where;
      ASSERT_NO_FATAL_FAILURE(
          check_peer_queries(a, probe_rng, where + " after rollback"));
    }
  }
}

TEST(ImportLogProperty, AdoptsOwnWriterHistory) {
  // A restarted coordinator re-importing its own pre-crash history must
  // continue the sequence, not fork it (sequence reuse would collide keys
  // cluster-wide).
  ReplicaStore old(0, 7);
  old.apply_local(sec(1), "a", 1.0);
  old.apply_local(sec(2), "b", 1.0);
  old.apply_local(sec(3), "c", 1.0);

  ReplicaStore restarted(0, 7);
  restarted.import_log(old.export_log());
  EXPECT_EQ(restarted.local_seq(), 3u);
  const Update& next = restarted.apply_local(sec(4), "d", 1.0);
  EXPECT_EQ(next.key.seq, 4u);
  EXPECT_EQ(restarted.update_count(), 4u);
}

}  // namespace
}  // namespace idea::replica
