#include "replica/store.hpp"

#include <gtest/gtest.h>

namespace idea::replica {
namespace {

TEST(ReplicaStore, LocalWritesSequence) {
  ReplicaStore s(0, 1);
  // The returned reference lives only until the next mutation: copy.
  const UpdateKey k1 = s.apply_local(sec(1), "a", 1.0).key;
  const UpdateKey k2 = s.apply_local(sec(2), "b", 2.0).key;
  EXPECT_EQ(k1.seq, 1u);
  EXPECT_EQ(k2.seq, 2u);
  EXPECT_EQ(s.local_seq(), 2u);
  EXPECT_EQ(s.update_count(), 2u);
  EXPECT_DOUBLE_EQ(s.meta_value(), 3.0);
  EXPECT_EQ(s.evv().count_of(0), 2u);
}

TEST(ReplicaStore, FindAndHas) {
  ReplicaStore s(0, 1);
  s.apply_local(sec(1), "a", 1.0);
  EXPECT_TRUE(s.has(UpdateKey{0, 1}));
  EXPECT_FALSE(s.has(UpdateKey{0, 2}));
  const Update* u = s.find(UpdateKey{0, 1});
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(u->content, "a");
  EXPECT_EQ(s.find(UpdateKey{9, 1}), nullptr);
}

TEST(ReplicaStore, RemoteInOrder) {
  ReplicaStore a(0, 1), b(1, 1);
  const Update& u = a.apply_local(sec(1), "x", 5.0);
  EXPECT_TRUE(b.apply_remote(u));
  EXPECT_TRUE(b.has(u.key));
  EXPECT_DOUBLE_EQ(b.meta_value(), 5.0);
  // Idempotent.
  EXPECT_TRUE(b.apply_remote(u));
  EXPECT_EQ(b.update_count(), 1u);
}

TEST(ReplicaStore, RemoteOutOfOrderBuffered) {
  ReplicaStore a(0, 1), b(1, 1);
  const Update u1 = a.apply_local(sec(1), "x", 1.0);
  const Update u2 = a.apply_local(sec(2), "y", 2.0);
  const Update u3 = a.apply_local(sec(3), "z", 4.0);
  EXPECT_FALSE(b.apply_remote(u3));  // parked
  EXPECT_FALSE(b.apply_remote(u2));  // parked
  EXPECT_EQ(b.update_count(), 0u);
  EXPECT_EQ(b.pending_remote(), 2u);
  EXPECT_TRUE(b.apply_remote(u1));  // drains the buffer
  EXPECT_EQ(b.update_count(), 3u);
  EXPECT_EQ(b.pending_remote(), 0u);
  EXPECT_DOUBLE_EQ(b.meta_value(), 7.0);
}

TEST(ReplicaStore, UpdatesAheadOf) {
  ReplicaStore a(0, 1);
  a.apply_local(sec(1), "1", 0);
  a.apply_local(sec(2), "2", 0);
  a.apply_local(sec(3), "3", 0);
  vv::VersionVector peer;
  peer.set(0, 1);
  const auto ahead = a.updates_ahead_of(peer);
  ASSERT_EQ(ahead.size(), 2u);
  EXPECT_EQ(ahead[0].key.seq, 2u);
  EXPECT_EQ(ahead[1].key.seq, 3u);
}

TEST(ReplicaStore, StalenessAheadOfCountsWithoutCopying) {
  ReplicaStore a(0, 1);
  a.apply_local(sec(1), "1", 0);
  a.apply_local(sec(2), "2", 0);
  a.apply_local(sec(3), "3", 0);
  vv::VersionVector peer;
  peer.set(0, 1);
  const auto probe = a.staleness_ahead_of(peer);
  EXPECT_EQ(probe.versions, 2u);
  EXPECT_EQ(probe.oldest_stamp, sec(2));  // oldest *missing* update
  // A caught-up peer probes clean.
  peer.set(0, 3);
  EXPECT_EQ(a.staleness_ahead_of(peer).versions, 0u);
  // The probe mirrors updates_ahead_of exactly, just without the copies.
  vv::VersionVector empty;
  EXPECT_EQ(a.staleness_ahead_of(empty).versions,
            a.updates_ahead_of(empty).size());
  EXPECT_EQ(a.staleness_ahead_of(empty).oldest_stamp, sec(1));
}

TEST(ReplicaStore, ContentsSnapshotIsSharedAndInvalidatedOnMutation) {
  ReplicaStore s(0, 1);
  s.apply_local(sec(1), "a", 1.0);
  s.apply_local(sec(2), "b", 1.0);
  const auto view = s.contents_snapshot();
  ASSERT_EQ(view->size(), 2u);
  EXPECT_EQ((*view)[0].content, "a");
  // Stable between mutations: repeated reads share the allocation.
  EXPECT_EQ(s.contents_snapshot().get(), view.get());
  // Any content mutation rebuilds the next snapshot...
  s.apply_local(sec(3), "c", 1.0);
  const auto after = s.contents_snapshot();
  EXPECT_NE(after.get(), view.get());
  EXPECT_EQ(after->size(), 3u);
  // ...while the old view stays valid for holders (immutable share).
  EXPECT_EQ(view->size(), 2u);
  // Invalidation also counts as a mutation (digest/meta change).
  EXPECT_TRUE(s.invalidate(UpdateKey{0, 1}));
  EXPECT_NE(s.contents_snapshot().get(), after.get());
  EXPECT_TRUE((*s.contents_snapshot())[0].invalidated);
}

/// Hold the store's view across `mutate`: the held view must still equal
/// the copy taken before it, and the store's new view must equal its
/// ordered contents.
template <typename Mutation>
void expect_held_view_survives(ReplicaStore& s, Mutation mutate) {
  const auto held = s.contents_snapshot();
  const std::vector<Update> before = *held;
  mutate();
  EXPECT_EQ(*held, before);
  EXPECT_NE(s.contents_snapshot().get(), held.get());
  EXPECT_EQ(*s.contents_snapshot(), s.ordered_contents());
}

Update remote(NodeId writer, std::uint64_t seq, SimTime stamp,
              bool invalidated = false) {
  return Update{UpdateKey{writer, seq}, stamp, "r", 1.0, 1, invalidated};
}

TEST(ReplicaStore, HeldViewSurvivesEveryKindOfMutation) {
  ReplicaStore s(0, 1);
  s.apply_local(sec(1), "a", 1.0);
  s.apply_local(sec(5), "b", 1.0);
  {
    SCOPED_TRACE("apply_local");
    expect_held_view_survives(s, [&] { s.apply_local(sec(6), "c", 1.0); });
  }
  {
    SCOPED_TRACE("tail apply_remote");
    expect_held_view_survives(
        s, [&] { EXPECT_TRUE(s.apply_remote(remote(1, 1, sec(7)))); });
  }
  {
    SCOPED_TRACE("mid-order apply_remote");
    // A second writer with an older stamp lands between writer 0's.
    expect_held_view_survives(
        s, [&] { EXPECT_TRUE(s.apply_remote(remote(2, 1, sec(3)))); });
    EXPECT_EQ(s.ordered_contents()[1].key, (UpdateKey{2, 1}));
  }
  {
    SCOPED_TRACE("reorder-buffer drain");
    EXPECT_FALSE(s.apply_remote(remote(2, 4, sec(5))));
    EXPECT_FALSE(s.apply_remote(remote(2, 3, sec(5))));
    expect_held_view_survives(s, [&] {
      // (2, 2) unblocks its parked successors: one mid-order batch.
      EXPECT_TRUE(s.apply_remote(remote(2, 2, sec(4))));
    });
    EXPECT_EQ(s.pending_remote(), 0u);
    EXPECT_EQ(s.evv().count_of(2), 4u);
  }
  {
    SCOPED_TRACE("import_log with a flag merge");
    expect_held_view_survives(s, [&] {
      const auto r = s.import_log(
          {remote(2, 1, sec(3), true), remote(1, 3, sec(9)),
           remote(1, 1, sec(7)), remote(3, 1, sec(2))});
      EXPECT_EQ(r.invalidation_merges, 1u);
      EXPECT_EQ(r.applied, 1u);  // (3, 1)
      EXPECT_EQ(r.parked, 1u);   // (1, 3) is ahead of (1, 2)
      EXPECT_EQ(r.duplicates, 1u);
    });
    EXPECT_TRUE(s.find(UpdateKey{2, 1})->invalidated);
  }
  {
    SCOPED_TRACE("invalidate");
    expect_held_view_survives(
        s, [&] { EXPECT_TRUE(s.invalidate(UpdateKey{0, 1})); });
  }
  {
    SCOPED_TRACE("rollback_to");
    expect_held_view_survives(
        s, [&] { EXPECT_EQ(s.rollback_to(sec(5)), 2u); });
  }
}

TEST(ReplicaStore, ViewIsClonedOnlyWhileAReaderHoldsIt) {
  ReplicaStore a(0, 1), b(1, 1);
  // Fresh stores share one empty view: placing a file allocates nothing.
  EXPECT_EQ(a.contents_snapshot().get(), b.contents_snapshot().get());
  a.apply_local(sec(1), "a", 1.0);
  EXPECT_TRUE(b.contents_snapshot()->empty());
  // A reader that drops its view before the next write costs no clone:
  // the write appends to the same vector.
  const auto* first = a.contents_snapshot().get();
  a.apply_local(sec(2), "b", 1.0);
  EXPECT_EQ(a.contents_snapshot().get(), first);
  EXPECT_EQ(a.contents_snapshot()->size(), 2u);
}

TEST(ReplicaStore, UpdatesAheadOfMultiWriterSorted) {
  ReplicaStore a(0, 1), b(1, 1);
  b.apply_local(sec(1), "b1", 0);
  b.apply_local(sec(2), "b2", 0);
  a.apply_local(sec(3), "a1", 0);
  for (const auto& u : b.updates_ahead_of(vv::VersionVector{})) {
    a.apply_remote(u);
  }
  const auto ahead = a.updates_ahead_of(vv::VersionVector{});
  ASSERT_EQ(ahead.size(), 3u);
  EXPECT_LT(ahead[0].key, ahead[1].key);
  EXPECT_LT(ahead[1].key, ahead[2].key);
}

TEST(ReplicaStore, InvalidateAffectsMetaAndDigest) {
  ReplicaStore s(0, 1);
  s.apply_local(sec(1), "a", 3.0);
  s.apply_local(sec(2), "b", 4.0);
  const auto digest_before = s.content_digest();
  EXPECT_TRUE(s.invalidate(UpdateKey{0, 1}));
  EXPECT_DOUBLE_EQ(s.meta_value(), 4.0);
  EXPECT_NE(s.content_digest(), digest_before);
  EXPECT_FALSE(s.invalidate(UpdateKey{9, 9}));
  // Idempotent invalidation.
  EXPECT_TRUE(s.invalidate(UpdateKey{0, 1}));
  EXPECT_DOUBLE_EQ(s.meta_value(), 4.0);
}

TEST(ReplicaStore, OrderedContentsCanonical) {
  ReplicaStore a(0, 1), b(1, 1);
  b.apply_local(sec(5), "later", 0);
  a.apply_local(sec(1), "early", 0);
  a.apply_remote(*b.find(UpdateKey{1, 1}));
  const auto ordered = a.ordered_contents();
  ASSERT_EQ(ordered.size(), 2u);
  EXPECT_EQ(ordered[0].content, "early");
  EXPECT_EQ(ordered[1].content, "later");
}

TEST(ReplicaStore, DigestsMatchForSameHistory) {
  ReplicaStore a(0, 1), b(1, 1);
  const Update u1 = a.apply_local(sec(1), "x", 1.0);
  b.apply_remote(u1);
  const Update u2 = b.apply_local(sec(2), "y", 1.0);
  a.apply_remote(u2);
  EXPECT_EQ(a.content_digest(), b.content_digest());
}

TEST(ReplicaStore, DigestsDifferForDifferentHistory) {
  ReplicaStore a(0, 1), b(1, 1);
  a.apply_local(sec(1), "x", 1.0);
  b.apply_local(sec(1), "y", 1.0);
  EXPECT_NE(a.content_digest(), b.content_digest());
}

TEST(ReplicaStore, RollbackDropsNewUpdates) {
  ReplicaStore s(0, 1);
  s.apply_local(sec(1), "keep", 1.0);
  s.apply_local(sec(5), "drop1", 2.0);
  s.apply_local(sec(6), "drop2", 4.0);
  const std::size_t dropped = s.rollback_to(sec(2));
  EXPECT_EQ(dropped, 2u);
  EXPECT_EQ(s.update_count(), 1u);
  EXPECT_EQ(s.local_seq(), 1u);
  EXPECT_DOUBLE_EQ(s.meta_value(), 1.0);
  EXPECT_EQ(s.evv().count_of(0), 1u);
  // New writes continue the sequence cleanly after rollback.
  const Update& u = s.apply_local(sec(7), "new", 8.0);
  EXPECT_EQ(u.key.seq, 2u);
}

TEST(ReplicaStore, RollbackNoopWhenNothingNewer) {
  ReplicaStore s(0, 1);
  s.apply_local(sec(1), "a", 1.0);
  EXPECT_EQ(s.rollback_to(sec(10)), 0u);
  EXPECT_EQ(s.update_count(), 1u);
}

TEST(ReplicaStore, RollbackClearsPendingBuffer) {
  ReplicaStore a(0, 1), b(1, 1);
  a.apply_local(sec(1), "1", 0);
  const Update u2 = a.apply_local(sec(9), "2", 0);
  b.apply_remote(u2);  // parked, stamp 9
  EXPECT_EQ(b.pending_remote(), 1u);
  b.rollback_to(sec(5));
  EXPECT_EQ(b.pending_remote(), 0u);
}

TEST(ReplicaStore, ReacquireOwnUpdatesAfterRollback) {
  // A replica rolls back its own updates, then relearns them from a peer.
  ReplicaStore a(0, 1), b(1, 1);
  const Update u1 = a.apply_local(sec(1), "1", 1.0);
  const Update u2 = a.apply_local(sec(5), "2", 1.0);
  b.apply_remote(u1);
  b.apply_remote(u2);
  a.rollback_to(sec(2));
  EXPECT_EQ(a.local_seq(), 1u);
  EXPECT_TRUE(a.apply_remote(u2));
  EXPECT_EQ(a.local_seq(), 2u);
  EXPECT_EQ(a.content_digest(), b.content_digest());
}

TEST(ReplicaStore, WireBytesScaleWithContent) {
  Update u;
  u.content = std::string(100, 'x');
  EXPECT_EQ(u.wire_bytes(), 140u);
}

TEST(CanonicalOrder, TieBreaksByWriterThenSeq) {
  Update a, b;
  a.stamp = b.stamp = sec(1);
  a.key = UpdateKey{1, 1};
  b.key = UpdateKey{0, 2};
  CanonicalOrder lt;
  EXPECT_TRUE(lt(b, a));
  EXPECT_FALSE(lt(a, b));
}

}  // namespace
}  // namespace idea::replica
