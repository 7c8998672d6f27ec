/// \file incremental_property_test.cpp
/// \brief Randomized property test: the state a ReplicaStore keeps
///        incrementally equals a full rebuild from its log, bit for bit.
///
/// The store does not re-derive its summaries from the log per mutation.
/// The meta value is a per-writer fold of the (writer, seq) walk, reads
/// share the canonical-order view, the invalidated-key list is kept
/// beside the fold, and peer lag probes are answered from the EVV on the
/// strength of every writer's logged seqs being exactly 1..count_of(w).
/// Each case drives one store through a random mix of out-of-order
/// apply_remote, apply_local on a monotone clock, invalidate, rollback_to
/// and shuffled import_log batches, and after every operation re-derives
/// all of it from the key-ordered log (export_log()) alone:
///
///  * meta_value() has the exact bits of a left-to-right (writer, seq)
///    sum of the live deltas.  The deltas are non-integral and some are
///    about 1e5, so the rounding depends on the summation order; the
///    test also counts how often a stamp-order sum differs, to show the
///    check would catch a fold that adds in the wrong order;
///  * ordered_contents() and contents_snapshot() are the log sorted by
///    CanonicalOrder, and a view taken before the operation is unchanged
///    by it;
///  * invalidated_keys() lists the log's flagged keys in key order;
///  * each writer's logged seqs are exactly 1..evv().count_of(w), with the
///    EVV's stamps;
///  * updates_ahead_of (peer as a VersionVector) and staleness_ahead_of
///    (peer as a VersionVector and as an EVV) match a brute-force walk of
///    the log (peer_oracle.hpp, shared with import_property_test.cpp).

#include "replica/store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "peer_oracle.hpp"
#include "util/rng.hpp"
#include "vv/extended_vv.hpp"

namespace idea::replica {
namespace {

constexpr int kCases = 2'000;
constexpr int kOpsPerCase = 24;
constexpr FileId kFile = 9;
constexpr NodeId kSelf = 0;     ///< The store's node; writes via apply_local.
constexpr NodeId kWriters = 4;  ///< 1..3 are remote writers.

double random_delta(Rng& rng) {
  const double scale = rng.chance(0.3) ? 1e5 : 1.0;
  return scale * rng.uniform(-1.0, 1.0);
}

/// A remote writer's whole history, generated up front: seqs 1..n with
/// non-decreasing stamps (ties included), some flagged invalidated.
std::vector<Update> remote_history(Rng& rng, NodeId writer) {
  std::vector<Update> history;
  SimTime stamp = msec(rng.uniform_int(0, 50));
  const std::int64_t n = rng.uniform_int(0, 12);
  for (std::int64_t seq = 1; seq <= n; ++seq) {
    stamp += msec(rng.uniform_int(0, 40));
    Update u;
    u.key = UpdateKey{writer, static_cast<std::uint64_t>(seq)};
    u.file = kFile;
    u.stamp = stamp;
    u.content =
        std::string(1, static_cast<char>('a' + rng.uniform_int(0, 25)));
    u.meta_delta = random_delta(rng);
    u.invalidated = rng.chance(0.1);
    history.push_back(std::move(u));
  }
  return history;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct Sensitivity {
  std::uint64_t checks = 0;
  std::uint64_t stamp_order_differs = 0;
};

/// Re-derive every incrementally kept summary from the key-ordered log
/// and compare.
void check_against_log(const ReplicaStore& store, Rng& probe_rng,
                       Sensitivity& sensitivity, const std::string& where) {
  const std::vector<Update> log = store.export_log();

  double walk = 0.0;
  std::vector<Update> sorted;
  for (const Update& u : log) {
    if (!u.invalidated) walk += u.meta_delta;
    sorted.push_back(u);
  }
  ASSERT_EQ(bits(store.meta_value()), bits(walk))
      << where << ": meta " << store.meta_value() << " vs walk " << walk;

  std::sort(sorted.begin(), sorted.end(), CanonicalOrder{});
  double by_stamp = 0.0;
  for (const Update& u : sorted) {
    if (!u.invalidated) by_stamp += u.meta_delta;
  }
  ++sensitivity.checks;
  if (bits(by_stamp) != bits(walk)) ++sensitivity.stamp_order_differs;

  for (const std::vector<Update>& view :
       {store.ordered_contents(), *store.contents_snapshot()}) {
    ASSERT_EQ(view.size(), sorted.size()) << where;
    for (std::size_t i = 0; i < view.size(); ++i) {
      ASSERT_EQ(view[i].key, sorted[i].key) << where << " position " << i;
      ASSERT_EQ(view[i].stamp, sorted[i].stamp) << where;
      ASSERT_EQ(view[i].invalidated, sorted[i].invalidated) << where;
      ASSERT_EQ(view[i].content, sorted[i].content) << where;
    }
  }

  // Seq contiguity: writer w's keys are exactly (w, 1..count_of(w)).
  const vv::ExtendedVersionVector& evv = store.evv();
  for (auto it = log.begin(); it != log.end();) {
    const NodeId writer = it->key.writer;
    std::uint64_t seq = 0;
    for (; it != log.end() && it->key.writer == writer; ++it) {
      ASSERT_EQ(it->key.seq, ++seq) << where << " writer " << writer;
      ASSERT_EQ(it->stamp, evv.stamp_of(writer, seq)) << where;
    }
    ASSERT_EQ(seq, evv.count_of(writer)) << where << " writer " << writer;
  }
  ASSERT_EQ(evv.total_updates(), log.size()) << where;

  // Also checks invalidated_keys().
  peer_oracle::check_peer_queries(store, probe_rng, where);
}

/// One case: a store driven by kOpsPerCase random operations.
void run_case(Rng& rng, Rng& probe_rng, Sensitivity& sensitivity, int n) {
  ReplicaStore store(kSelf, kFile);
  std::vector<std::vector<Update>> histories(kWriters);
  for (NodeId w = 1; w < kWriters; ++w) {
    histories[w] = remote_history(rng, w);
  }
  SimTime local_clock = 0;
  for (int op = 0; op < kOpsPerCase; ++op) {
    const std::string where =
        "case " + std::to_string(n) + " op " + std::to_string(op);
    // A reader holding the view across the op must not see it change.
    const auto held = store.contents_snapshot();
    const std::vector<Update> held_copy = *held;
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 45) {
      // apply_remote around the writer's next seq: duplicates, the next
      // one, and arrivals that outran their predecessors.
      const auto w = static_cast<NodeId>(1 + rng.next_below(kWriters - 1));
      const std::vector<Update>& history = histories[w];
      if (history.empty()) continue;
      const auto next = static_cast<std::int64_t>(store.evv().count_of(w)) + 1;
      const std::int64_t seq =
          std::clamp<std::int64_t>(next + rng.uniform_int(-1, 3), 1,
                                   static_cast<std::int64_t>(history.size()));
      store.apply_remote(history[static_cast<std::size_t>(seq - 1)]);
    } else if (roll < 65) {
      local_clock += msec(rng.uniform_int(0, 30));
      store.apply_local(local_clock, "L", random_delta(rng));
    } else if (roll < 77) {
      if (store.update_count() == 0 || rng.chance(0.2)) {
        ASSERT_FALSE(store.invalidate(UpdateKey{kWriters, 1})) << where;
      } else {
        const auto pick = static_cast<std::size_t>(
            rng.next_below(store.update_count()));
        const UpdateKey key = store.export_log()[pick].key;
        ASSERT_TRUE(store.invalidate(key)) << where;
      }
    } else if (roll < 92) {
      // A shuffled batch: held updates, some with their flag upgraded
      // (invalidation merges), plus remote updates in any order.
      std::vector<Update> batch;
      for (Update u : store.export_log()) {
        if (!rng.chance(0.4)) continue;
        if (rng.chance(0.3)) u.invalidated = true;
        batch.push_back(std::move(u));
      }
      for (NodeId w = 1; w < kWriters; ++w) {
        for (Update u : histories[w]) {
          if (!rng.chance(0.3)) continue;
          if (rng.chance(0.1)) u.invalidated = true;
          batch.push_back(std::move(u));
        }
      }
      rng.shuffle(batch);
      store.import_log(batch);
    } else {
      SimTime cut = msec(rng.uniform_int(0, 100));
      if (store.update_count() > 0) {
        const auto pick = static_cast<std::size_t>(
            rng.next_below(store.update_count()));
        cut = store.export_log()[pick].stamp;
      }
      std::size_t expected = 0;
      for (const Update& u : store.export_log()) {
        if (u.stamp > cut) ++expected;
      }
      ASSERT_EQ(store.rollback_to(cut), expected) << where;
    }
    ASSERT_TRUE(*held == held_copy) << where << ": a held view changed";
    ASSERT_NO_FATAL_FAILURE(
        check_against_log(store, probe_rng, sensitivity, where));
  }
}

TEST(IncrementalStoreProperty, EqualsAFullRebuildAfterEveryOperation) {
  Rng rng(0x1F01D'2026ULL);
  // Peer probes draw from their own stream, so the generated operations
  // do not depend on how many peers a check draws.
  Rng probe_rng(0xC0A57'2026ULL);
  Sensitivity sensitivity;
  for (int n = 0; n < kCases; ++n) {
    ASSERT_NO_FATAL_FAILURE(run_case(rng, probe_rng, sensitivity, n));
  }
  // The deltas must make the summation order visible, or the meta check
  // above could not tell a fold that adds in the wrong order.
  EXPECT_GT(sensitivity.stamp_order_differs, sensitivity.checks / 10)
      << sensitivity.stamp_order_differs << " of " << sensitivity.checks;
}

}  // namespace
}  // namespace idea::replica
