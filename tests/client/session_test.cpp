/// \file session_test.cpp
/// \brief Client session API: the four consistency levels against
///        map-based oracles, migration-window routing, freshness hints
///        and async op handles.
///
/// The oracle assertions are the acceptance criteria of the session
/// redesign:
///  * Strong reads match the coordinator replica byte-exactly;
///  * BoundedStaleness never serves a view beyond its declared bound
///    (checked independently against the coordinator at serve time);
///  * Quorum(majority) never returns a view older than any acked write
///    (every acked update is present in the merged view);
///  * EventualNearest serves the latency-model-nearest replica.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "client/session.hpp"
#include "shard/sharded_cluster.hpp"

namespace idea::client {
namespace {

shard::ShardedClusterConfig session_config(std::uint64_t seed,
                                           SimDuration anti_entropy = 0) {
  shard::ShardedClusterConfig cfg;
  cfg.endpoints = 6;
  cfg.replication = 3;
  cfg.seed = seed;
  cfg.sync_sizes();
  cfg.anti_entropy_period = anti_entropy;
  return cfg;
}

/// Independent staleness oracle: versions the `endpoint` replica of
/// `file` is missing relative to the coordinator, right now.
std::uint64_t versions_behind(shard::ShardedCluster& cluster, FileId file,
                              NodeId endpoint) {
  core::IdeaNode* coordinator = cluster.replica_at_rank(file, 0);
  core::IdeaNode* node = cluster.replica(file, endpoint);
  if (coordinator == nullptr || node == nullptr) return 0;
  return coordinator->store()
      .updates_ahead_of(node->store().evv().counts())
      .size();
}

TEST(ClientSessionTest, StrongMatchesCoordinatorByteExactly) {
  shard::ShardedCluster cluster(session_config(101));
  Client client(cluster);
  ClientSession session = client.session();  // default: Strong

  const FileId file = 7;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(session.put(file, "w" + std::to_string(i), 1.0).ok());
  }
  cluster.run_for(sec(2));

  const OpHandle<ReadResult> handle = session.read(file);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->served_by, cluster.coordinator_endpoint(file));
  EXPECT_EQ(handle->staleness_versions, 0u);
  EXPECT_FALSE(handle->escalated);

  // Byte-exact: the served view IS the coordinator's canonical read.
  core::IdeaNode* coordinator = cluster.replica_at_rank(file, 0);
  const std::vector<replica::Update> expected = coordinator->read();
  ASSERT_EQ(handle->updates->size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*handle->updates)[i].key, expected[i].key);
    EXPECT_EQ((*handle->updates)[i].content, expected[i].content);
    EXPECT_EQ((*handle->updates)[i].stamp, expected[i].stamp);
  }
  // Zero-copy: a repeated strong read shares the same snapshot.
  const OpHandle<ReadResult> again = session.read(file);
  EXPECT_EQ(again->updates.get(), handle->updates.get());
}

TEST(ClientSessionTest, EventualNearestServesNearestReplica) {
  shard::ShardedCluster cluster(session_config(202));
  Client client(cluster);

  const FileId file = 3;
  ClientSession writer = client.session();
  ASSERT_TRUE(writer.put(file, "seed", 1.0).ok());
  cluster.run_for(sec(2));

  const std::vector<NodeId> group = cluster.group_of(file);
  ASSERT_EQ(group.size(), 3u);
  // Read from every endpoint's perspective: the serving replica must be
  // the group member with the smallest mean round trip from the origin.
  for (NodeId origin = 0; origin < cluster.size(); ++origin) {
    ClientSession reader = client.session(
        {.level = ConsistencyLevel::eventual_nearest(), .origin = origin});
    const OpHandle<ReadResult> handle = reader.read(file);
    ASSERT_TRUE(handle.ok());
    NodeId nearest = group.front();
    for (NodeId member : group) {
      if (cluster.latency().mean(origin, member) <
          cluster.latency().mean(origin, nearest)) {
        nearest = member;
      }
    }
    EXPECT_EQ(handle->served_by, nearest) << "origin " << origin;
    EXPECT_EQ(handle->latency,
              2 * cluster.latency().mean(origin, nearest));
    // Reported staleness matches the oracle at serve time.
    EXPECT_EQ(handle->staleness_versions,
              versions_behind(cluster, file, nearest));
  }
}

TEST(ClientSessionTest, BoundedStalenessNeverExceedsDeclaredBound) {
  shard::ShardedCluster cluster(session_config(303));
  Client client(cluster);

  const FileId file = 5;
  ClientSession writer = client.session();
  ASSERT_TRUE(writer.put(file, "warm", 0.5).ok());
  cluster.run_for(sec(1));

  // Cut the coordinator off from both other replicas: pushes for the
  // next writes drop, so the non-coordinator replicas fall behind by
  // exactly the writes issued during the partition.
  const std::vector<NodeId> group = cluster.group_of(file);
  ASSERT_EQ(group.size(), 3u);
  cluster.transport().partition(group[0], group[1]);
  cluster.transport().partition(group[0], group[2]);
  constexpr int kStaleWrites = 10;
  for (int i = 0; i < kStaleWrites; ++i) {
    ASSERT_TRUE(writer.put(file, "s" + std::to_string(i), 1.0).ok());
  }
  cluster.run_for(sec(1));
  ASSERT_EQ(versions_behind(cluster, file, group[1]),
            static_cast<std::uint64_t>(kStaleWrites));

  // A session attached at a lagging replica, tight bound: the replica is
  // 10 versions behind > 3, so the read must escalate to the coordinator.
  ClientSession tight = client.session(
      {.level = ConsistencyLevel::bounded_staleness(3), .origin = group[1]});
  const OpHandle<ReadResult> escalated = tight.read(file);
  ASSERT_TRUE(escalated.ok());
  EXPECT_TRUE(escalated->escalated);
  EXPECT_EQ(escalated->served_by, group[0]);
  EXPECT_EQ(escalated->staleness_versions, 0u);
  EXPECT_EQ(tight.stats().escalated_reads, 1u);

  // A loose bound serves the lagging replica and reports its staleness.
  ClientSession loose = client.session(
      {.level = ConsistencyLevel::bounded_staleness(20), .origin = group[1]});
  const OpHandle<ReadResult> served = loose.read(file);
  ASSERT_TRUE(served.ok());
  EXPECT_FALSE(served->escalated);
  EXPECT_EQ(served->served_by, group[1]);
  EXPECT_EQ(served->staleness_versions,
            static_cast<std::uint64_t>(kStaleWrites));

  // The oracle sweep: whatever the bound, a non-escalated read's served
  // view must be within it (checked against the coordinator directly).
  cluster.transport().heal_all_partitions();
  for (std::uint64_t bound : {0u, 1u, 5u, 10u, 50u}) {
    ClientSession s = client.session(
        {.level = ConsistencyLevel::bounded_staleness(bound),
         .origin = group[2]});
    const OpHandle<ReadResult> h = s.read(file);
    ASSERT_TRUE(h.ok());
    if (!h->escalated) {
      EXPECT_LE(versions_behind(cluster, file, h->served_by), bound)
          << "bound " << bound;
      EXPECT_LE(h->staleness_versions, bound);
    } else {
      EXPECT_EQ(h->served_by, group[0]);
    }
  }
}

TEST(ClientSessionTest, QuorumMajorityNeverOlderThanAckedWrite) {
  shard::ShardedCluster cluster(session_config(404));
  Client client(cluster);

  const FileId file = 9;
  ClientSession writer = client.session();
  ClientSession reader =
      client.session({.level = ConsistencyLevel::quorum(), .origin = 2});

  // Map-based oracle: every acked write's content.  Lossy windows drop
  // replication pushes, so non-coordinator replicas lag arbitrarily —
  // but a majority quorum includes the write quorum (the coordinator),
  // so the merged view must contain every acked update at all times.
  std::set<std::string> acked;
  cluster.transport().add_drop_window(msec(500), sec(2));
  for (int i = 0; i < 20; ++i) {
    const std::string content = "q" + std::to_string(i);
    if (writer.put(file, content, 1.0).ok()) acked.insert(content);
    cluster.run_for(msec(200));

    const OpHandle<ReadResult> h = reader.read(file);
    ASSERT_TRUE(h.ok());
    EXPECT_GE(h->replicas_contacted, 2u);  // majority of 3
    EXPECT_EQ(h->staleness_versions, 0u);  // merge covers the coordinator
    std::set<std::string> seen;
    for (const replica::Update& u : *h->updates) seen.insert(u.content);
    for (const std::string& content : acked) {
      EXPECT_TRUE(seen.count(content) > 0)
          << "acked write \"" << content << "\" missing from quorum view";
    }
  }
  EXPECT_GT(cluster.router().stats().quorum_reads, 0u);
}

TEST(ClientSessionTest, MigrationWindowPinsPolicyReadsToWarmCoordinator) {
  shard::ShardedCluster cluster(session_config(505));
  Client client(cluster);
  ClientSession writer = client.session();

  constexpr FileId kFiles = 40;
  cluster.place(1, kFiles);
  for (FileId f = 1; f <= kFiles; ++f) {
    ASSERT_TRUE(writer.put(f, "pre-" + std::to_string(f), 1.0).ok());
  }
  cluster.run_for(sec(3));

  const shard::MembershipChange joined = cluster.add_endpoint();
  ASSERT_GT(joined.files_migrated, 0u);

  // Pick a migrated file still inside its stream window: policy reads
  // pin to the (already warm) new coordinator instead of risking a cold
  // nearest replica.
  FileId migrated = 0;
  for (FileId f = 1; f <= kFiles; ++f) {
    if (cluster.router().in_migration_window(f)) {
      migrated = f;
      break;
    }
  }
  ASSERT_NE(migrated, 0u) << "no file in a migration window after join";

  const NodeId coordinator = cluster.coordinator_endpoint(migrated);
  for (NodeId origin = 0; origin < 3; ++origin) {
    ClientSession nearest = client.session(
        {.level = ConsistencyLevel::eventual_nearest(), .origin = origin});
    const OpHandle<ReadResult> h = nearest.read(migrated);
    ASSERT_TRUE(h.ok());
    EXPECT_TRUE(h->migration_window);
    EXPECT_EQ(h->served_by, coordinator);
    EXPECT_EQ(h->staleness_versions, 0u);
  }
  EXPECT_GT(cluster.router().stats().migration_window_reads, 0u);

  // Once the stream horizon passes, routing falls back to the policy.
  cluster.run_for(sec(2));
  EXPECT_FALSE(cluster.router().in_migration_window(migrated));
  ClientSession after = client.session(
      {.level = ConsistencyLevel::eventual_nearest(), .origin = 0});
  const OpHandle<ReadResult> h = after.read(migrated);
  ASSERT_TRUE(h.ok());
  EXPECT_FALSE(h->migration_window);
}

TEST(ClientSessionTest, FreshnessHintsPiggybackOnAntiEntropy) {
  shard::ShardedCluster cluster(
      session_config(606, /*anti_entropy=*/msec(500)));
  Client client(cluster);
  ClientSession session = client.session();

  const FileId file = 4;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(session.put(file, "h" + std::to_string(i), 1.0).ok());
  }
  cluster.run_for(sec(3));  // several digest/repair rounds

  const shard::RequestRouter& router = cluster.router();
  EXPECT_GT(router.stats().freshness_hints, 0u);
  const std::vector<NodeId> group = cluster.group_of(file);
  // At least one non-coordinator replica must have been hinted at its
  // full version count by now (the group converged).
  bool hinted = false;
  for (std::size_t rank = 1; rank < group.size(); ++rank) {
    if (router.freshness_hint(file, group[rank]) == 6u) hinted = true;
  }
  EXPECT_TRUE(hinted);
}

TEST(ClientSessionTest, MigrationStartsTheNewGroupUnhinted) {
  // A hint describes one replica of one group build; a migrated file's
  // new group starts unhinted, while files the join left alone keep
  // theirs.
  shard::ShardedCluster cluster(
      session_config(808, /*anti_entropy=*/msec(500)));
  Client client(cluster);
  ClientSession writer = client.session();

  constexpr FileId kFiles = 40;
  for (FileId f = 1; f <= kFiles; ++f) {
    ASSERT_TRUE(writer.put(f, "m" + std::to_string(f), 1.0).ok());
  }
  cluster.run_for(sec(3));  // digest rounds hint the peers

  std::vector<std::vector<NodeId>> before(kFiles + 1);
  for (FileId f = 1; f <= kFiles; ++f) before[f] = *cluster.members_of(f);
  const shard::MembershipChange joined = cluster.add_endpoint();

  const shard::RequestRouter& router = cluster.router();
  std::size_t migrated = 0;
  bool untouched_hinted = false;
  for (FileId f = 1; f <= kFiles; ++f) {
    const std::vector<NodeId>& members = *cluster.members_of(f);
    if (members == before[f]) {
      for (NodeId m : members) {
        if (router.freshness_hint(f, m) > 0) untouched_hinted = true;
      }
      continue;
    }
    ++migrated;
    for (NodeId m : members) {
      EXPECT_EQ(router.freshness_hint(f, m), 0u)
          << "file " << f << " member " << m;
    }
  }
  EXPECT_GT(migrated, 0u);
  EXPECT_EQ(migrated, joined.files_migrated);
  EXPECT_TRUE(untouched_hinted);
}

TEST(ClientSessionTest, OpHandlesCompleteOnTheSimulatorClock) {
  shard::ShardedCluster cluster(session_config(707));
  Client client(cluster);
  ClientSession session = client.session({.origin = 2});

  const FileId file = 6;
  const OpHandle<WriteAck> put = session.put(file, "async", 1.0);
  ASSERT_TRUE(put.ok());
  EXPECT_TRUE(put->applied);
  EXPECT_GT(put.latency(), 0);
  EXPECT_FALSE(put.done()) << "completion should follow the round trip";

  bool fired = false;
  SimTime fired_at = 0;
  put.on_complete([&](const OpHandle<WriteAck>& h) {
    fired = true;
    fired_at = cluster.sim().now();
    EXPECT_TRUE(h->applied);
  });
  cluster.run_for(put.latency());
  EXPECT_TRUE(put.done());
  EXPECT_TRUE(fired);
  EXPECT_EQ(fired_at, put.ready_at());

  // A read handle carries the routed latency; a callback attached after
  // completion runs synchronously.
  const OpHandle<ReadResult> read = session.read(file);
  ASSERT_TRUE(read.ok());
  cluster.run_for(read.latency());
  bool immediate = false;
  read.on_complete([&](const OpHandle<ReadResult>&) { immediate = true; });
  EXPECT_TRUE(immediate);
}

TEST(ClientSessionTest, FreshnessHintsDecayOnTheSimClock) {
  // Regression (hints never decayed): a stale hint claiming a replica is
  // far behind used to suppress that replica from bounded-staleness
  // selection forever, even long after it caught up.  Hints now age out
  // on the sim clock (config.freshness_hint_ttl), after which selection
  // falls back to latency and the exact serve-time bound check.
  shard::ShardedClusterConfig cfg = session_config(1001);
  cfg.freshness_hint_ttl = sec(2);
  shard::ShardedCluster cluster(cfg);
  Client client(cluster);
  ClientSession writer = client.session();

  const FileId file = 7;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(writer.put(file, "d" + std::to_string(i), 1.0).ok());
  }
  cluster.run_for(sec(1));  // pushes deliver: the whole group is in sync

  // Find an origin whose latency-nearest group member is a
  // non-coordinator replica — the one a bounded read would serve absent
  // any hints.
  const std::vector<NodeId> group = cluster.group_of(file);
  ASSERT_EQ(group.size(), 3u);
  NodeId origin = kNoNode;
  NodeId nearest = kNoNode;
  for (NodeId o = 0; o < cluster.size() && origin == kNoNode; ++o) {
    NodeId best = group[0];
    for (NodeId m : group) {
      if (cluster.latency().mean(o, m) < cluster.latency().mean(o, best)) {
        best = m;
      }
    }
    if (best != group[0]) {
      origin = o;
      nearest = best;
    }
  }
  ASSERT_NE(origin, kNoNode) << "no origin prefers a non-coordinator";

  // A stale observation: `nearest` once looked 9 versions behind.  It
  // has long since caught up, but the hint is all the router knows.
  shard::RequestRouter& router = cluster.router();
  router.note_freshness(file, nearest, 1, cluster.sim().now());
  EXPECT_EQ(router.freshness_hint(file, nearest), 1u);

  ClientSession before = client.session(
      {.level = ConsistencyLevel::bounded_staleness(50), .origin = origin});
  const OpHandle<ReadResult> suppressed = before.read(file);
  ASSERT_TRUE(suppressed.ok());
  EXPECT_NE(suppressed->served_by, nearest)
      << "a 9-behind hint should lose selection to unhinted replicas";

  // Past the decay horizon the hint stops informing selection: the read
  // goes back to the nearest replica, and the hint reads as absent.
  cluster.run_for(sec(3));
  EXPECT_EQ(router.freshness_hint(file, nearest), 0u);
  ClientSession after = client.session(
      {.level = ConsistencyLevel::bounded_staleness(50), .origin = origin});
  const OpHandle<ReadResult> restored = after.read(file);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->served_by, nearest);
  EXPECT_EQ(restored->staleness_versions, 0u);

  // An expired entry no longer keep-maxes: the next honest observation
  // lands even if it reports fewer versions than the decayed one.
  router.note_freshness(file, nearest, 3, cluster.sim().now());
  EXPECT_EQ(router.freshness_hint(file, nearest), 3u);
  EXPECT_GT(router.stats().expired_hints, 0u);
}

TEST(ClientSessionTest, CrashPurgesHintsForTheDeadIncarnation) {
  // Regression (stale hints survived crash/restart): a pre-crash hint
  // describes volatile state that no longer exists, and keep-max let it
  // outrank every honest post-restart observation (version counts are
  // only monotone within an incarnation).  crash_endpoint() now purges
  // the endpoint's hints across all files.
  shard::ShardedCluster cluster(
      session_config(1102, /*anti_entropy=*/msec(500)));
  Client client(cluster);
  ClientSession writer = client.session();

  const FileId file = 4;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(writer.put(file, "c" + std::to_string(i), 1.0).ok());
  }
  cluster.run_for(sec(3));  // digest rounds hint the peers fresh

  const std::vector<NodeId> group = cluster.group_of(file);
  const NodeId peer = group[1];
  shard::RequestRouter& router = cluster.router();
  ASSERT_GT(router.freshness_hint(file, peer), 0u);

  cluster.crash_endpoint(peer);
  EXPECT_EQ(router.freshness_hint(file, peer), 0u)
      << "crash must purge the dead incarnation's hints";
  EXPECT_GT(router.stats().expired_hints, 0u);

  cluster.run_for(msec(1));  // a restart in the crash's instant is refused
  cluster.restart_endpoint(peer);
  // The restarted incarnation starts unhinted — not preferred on its
  // pre-crash reputation — and an honest low observation is accepted
  // (keep-max would have pinned the pre-crash count).
  EXPECT_EQ(router.freshness_hint(file, peer), 0u);
  router.note_freshness(file, peer, 2, cluster.sim().now());
  EXPECT_EQ(router.freshness_hint(file, peer), 2u);
}

TEST(ClientSessionTest, BoundedReadsMeasureLagAgainstTheActingCoordinator) {
  // Regression (replica selection read rank 0): with rank 0 crashed there
  // was no coordinator total to measure hinted lag against, so every
  // replica ranked at lag 0 and a bounded read picked the nearby replica
  // its own hint called stale, then escalated.
  shard::ShardedCluster cluster(session_config(1307));
  Client client(cluster);

  const FileId file = 9;
  ASSERT_NE(cluster.ensure_open(file), nullptr);
  const std::vector<NodeId> group = cluster.group_of(file);
  ASSERT_EQ(group.size(), 3u);
  cluster.crash_endpoint(group[0]);
  ASSERT_EQ(cluster.coordinator(file).second, group[1]);

  // Rank 1 now coordinates; rank 2 misses every push.
  cluster.transport().partition(group[1], group[2]);
  ClientSession writer = client.session();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(writer.put(file, "a" + std::to_string(i), 1.0).ok());
  }
  cluster.run_for(sec(1));
  cluster.router().note_freshness(file, group[2], 1, cluster.sim().now());

  ClientSession reader = client.session(
      {.level = ConsistencyLevel::bounded_staleness(1), .origin = group[2]});
  const OpHandle<ReadResult> h = reader.read(file);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->served_by, group[1]);
  EXPECT_FALSE(h->escalated);
}

TEST(ClientSessionTest, ReadCacheServesRepeatReadsInsideTheBound) {
  shard::ShardedCluster cluster(session_config(1203));
  Client client(cluster);
  ClientSession writer = client.session();

  const FileId file = 6;
  ASSERT_TRUE(writer.put(file, "v0", 1.0).ok());
  cluster.run_for(sec(1));

  ClientSession reader = client.session(
      {.level = ConsistencyLevel::bounded_staleness(10, sec(5)),
       .origin = 2,
       .cache_reads = true});
  const std::uint64_t routed_before = cluster.router().stats().reads;

  // First read routes and populates the cache.
  const OpHandle<ReadResult> miss = reader.read(file);
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(cluster.router().stats().reads, routed_before + 1);
  EXPECT_EQ(reader.stats().cache_hits, 0u);

  // Repeat read: served from the snapshot, zero router traffic, zero
  // latency, same shared view.
  const OpHandle<ReadResult> hit = reader.read(file);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(cluster.router().stats().reads, routed_before + 1);
  EXPECT_EQ(reader.stats().cache_hits, 1u);
  EXPECT_EQ(hit.latency(), 0);
  EXPECT_EQ(hit->updates.get(), miss->updates.get());

  // The served age is provable: it grows exactly with the sim clock and
  // must never exceed the declared bound.
  cluster.run_for(sec(4));
  const OpHandle<ReadResult> aged = reader.read(file);
  ASSERT_TRUE(aged.ok());
  EXPECT_EQ(reader.stats().cache_hits, 2u);
  EXPECT_GE(aged->staleness_age, sec(4));
  EXPECT_LE(aged->staleness_age, sec(5));

  // Past the bound the snapshot can never be served again: expiry, and
  // the read routes (and re-caches).
  cluster.run_for(sec(2));
  const OpHandle<ReadResult> expired = reader.read(file);
  ASSERT_TRUE(expired.ok());
  EXPECT_EQ(reader.stats().cache_expiries, 1u);
  EXPECT_EQ(cluster.router().stats().reads, routed_before + 2);

  // The session's own write invalidates its cache (read-your-writes at
  // the level's guarantee): the next read routes instead of serving the
  // pre-write snapshot.
  (void)reader.read(file);  // hit on the re-cached snapshot
  EXPECT_EQ(reader.stats().cache_hits, 3u);
  (void)reader.put(file, "mine", 1.0);
  const OpHandle<ReadResult> after_write = reader.read(file);
  ASSERT_TRUE(after_write.ok());
  EXPECT_EQ(cluster.router().stats().reads, routed_before + 3);

  // Levels that cannot prove the bound bypass the cache entirely.
  const OpHandle<ReadResult> strong =
      reader.read(file, ConsistencyLevel::strong());
  ASSERT_TRUE(strong.ok());
  EXPECT_EQ(cluster.router().stats().reads, routed_before + 4);
  // A versions-only bound is not provable without the cluster either.
  const OpHandle<ReadResult> versions_only =
      reader.read(file, ConsistencyLevel::bounded_staleness(10));
  ASSERT_TRUE(versions_only.ok());
  EXPECT_EQ(cluster.router().stats().reads, routed_before + 5);
  EXPECT_EQ(reader.stats().cache_hits, 3u);
}

TEST(ClientSessionTest, ReadCacheHitsRespectTheVersionsBound) {
  // A snapshot cached by a read at a looser level must not be served to
  // a bounded read whose versions bound it exceeds, however young it is.
  shard::ShardedCluster cluster(session_config(1203));
  Client client(cluster);
  const FileId file = 6;
  cluster.ensure_open(file);
  const std::vector<NodeId> group = cluster.group_of(file);
  // Rank 2 misses every push from the coordinator.
  cluster.transport().partition(group[0], group[2]);
  ClientSession writer = client.session();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(writer.put(file, "w" + std::to_string(i), 1.0).ok());
  }
  cluster.run_for(sec(1));

  const ConsistencyLevel bounded =
      ConsistencyLevel::bounded_staleness(1, sec(10));
  ClientSession reader = client.session(
      {.level = bounded, .origin = group[2], .cache_reads = true});
  const OpHandle<ReadResult> eventual =
      reader.read(file, ConsistencyLevel::eventual_nearest());
  ASSERT_TRUE(eventual.ok());
  ASSERT_EQ(eventual->served_by, group[2]);
  ASSERT_EQ(eventual->staleness_versions, 3u);

  // Well inside the age bound, but three versions behind: the read
  // routes instead of hitting the cache.
  const OpHandle<ReadResult> declared = reader.read(file);
  ASSERT_TRUE(declared.ok());
  EXPECT_EQ(reader.stats().cache_hits, 0u);
  EXPECT_LE(declared->staleness_versions, bounded.max_versions);
  EXPECT_GT(declared.latency(), 0);
}

TEST(ClientSessionTest, PerOpOverrideAndSessionStats) {
  shard::ShardedCluster cluster(session_config(808));
  Client client(cluster);
  ClientSession session = client.session(
      {.level = ConsistencyLevel::eventual_nearest(), .origin = 1});

  const FileId file = 2;
  ASSERT_TRUE(session.put(file, "x", 1.0).ok());
  cluster.run_for(sec(1));

  (void)session.read(file);  // declared level: eventual
  const OpHandle<ReadResult> strong =
      session.read(file, ConsistencyLevel::strong());
  EXPECT_EQ(strong->served_by, cluster.coordinator_endpoint(file));

  EXPECT_EQ(session.stats().puts, 1u);
  EXPECT_EQ(session.stats().reads, 2u);
  EXPECT_EQ(cluster.router().stats().nearest_reads, 1u);
  EXPECT_EQ(cluster.router().stats().strong_reads, 1u);
  EXPECT_EQ(client.sessions_opened(), 1u);

  EXPECT_TRUE(session.close(file));
  EXPECT_FALSE(session.close(file));
}

}  // namespace
}  // namespace idea::client
