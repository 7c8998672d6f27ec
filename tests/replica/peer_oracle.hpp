#pragma once
/// \file peer_oracle.hpp
/// \brief Brute-force oracle for ReplicaStore's peer-delta queries, shared
///        by the replica property tests.
///
/// check_peer_queries() compares updates_ahead_of, staleness_ahead_of
/// (peer as a VersionVector, and for the probe also as an EVV) and
/// invalidated_keys against one walk over the whole log.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "replica/store.hpp"
#include "util/rng.hpp"
#include "vv/extended_vv.hpp"
#include "vv/version_vector.hpp"

namespace idea::replica::peer_oracle {

/// Writers 0-3 may appear in a case; 4 and 5 never do, so peers also
/// carry counts for writers the store has never seen.
inline constexpr NodeId kPeerWriters = 6;

/// A random peer: per writer, a count of 0, behind, equal to or ahead of
/// what the store holds.
inline vv::VersionVector random_peer(const ReplicaStore& store, Rng& rng) {
  vv::VersionVector peer;
  for (NodeId w = 0; w < kPeerWriters; ++w) {
    const std::uint64_t held = store.evv().count_of(w);
    std::uint64_t count = 0;
    switch (rng.next_below(4)) {
      case 1:  // behind (zero when nothing is held)
        count = held == 0 ? 0 : rng.next_below(held);
        break;
      case 2:  // equal
        count = held;
        break;
      case 3:  // ahead
        count = held + 1 + rng.next_below(3);
        break;
      default:  // zero
        break;
    }
    peer.set(w, count);
  }
  return peer;
}

/// The same counts as an extended version vector (stamps are irrelevant
/// to the peer-delta queries).
inline vv::ExtendedVersionVector as_evv(const vv::VersionVector& counts) {
  vv::ExtendedVersionVector evv;
  for (const auto& [w, c] : counts.entries()) {
    for (std::uint64_t seq = 1; seq <= c; ++seq) {
      evv.record_update(w, sec(static_cast<std::int64_t>(seq)), 0.0);
    }
  }
  return evv;
}

/// Brute-force oracle: every logged update the peer lacks, found by one
/// walk over the whole log.
inline std::vector<Update> oracle_ahead_of(const ReplicaStore& store,
                                           const vv::VersionVector& peer) {
  std::vector<Update> out;
  for (const Update& u : store.export_log()) {
    if (u.key.seq > peer.get(u.key.writer)) out.push_back(u);
  }
  return out;
}

inline std::vector<UpdateKey> keys_of(const std::vector<Update>& updates) {
  std::vector<UpdateKey> keys;
  for (const Update& u : updates) keys.push_back(u.key);
  return keys;
}

/// Check every peer-delta query against the full-log oracle: the all-zero
/// peer (every writer's whole history is missing, so a walk that skips
/// or repeats a writer shows), the store's own counts (nothing missing)
/// and a few random peers.
inline void check_peer_queries(const ReplicaStore& store, Rng& rng,
                               const std::string& where) {
  std::vector<vv::VersionVector> peers{vv::VersionVector{},
                                       store.evv().counts()};
  for (int i = 0; i < 3; ++i) peers.push_back(random_peer(store, rng));
  for (const vv::VersionVector& peer : peers) {
    const vv::ExtendedVersionVector peer_evv = as_evv(peer);
    const std::vector<Update> expected = oracle_ahead_of(store, peer);
    ASSERT_EQ(keys_of(store.updates_ahead_of(peer)), keys_of(expected))
        << where << " peer " << peer.to_string();
    ReplicaStore::StalenessProbe oracle;
    for (const Update& u : expected) {
      if (oracle.versions == 0 || u.stamp < oracle.oldest_stamp) {
        oracle.oldest_stamp = u.stamp;
      }
      ++oracle.versions;
    }
    const ReplicaStore::StalenessProbe probes[] = {
        store.staleness_ahead_of(peer), store.staleness_ahead_of(peer_evv)};
    for (const ReplicaStore::StalenessProbe& probe : probes) {
      ASSERT_EQ(probe.versions, oracle.versions)
          << where << " peer " << peer.to_string();
      if (oracle.versions > 0) {
        ASSERT_EQ(probe.oldest_stamp, oracle.oldest_stamp)
            << where << " peer " << peer.to_string();
      }
    }
  }
  std::vector<UpdateKey> invalidated;
  for (const Update& u : store.export_log()) {
    if (u.invalidated) invalidated.push_back(u.key);
  }
  ASSERT_EQ(store.invalidated_keys(), invalidated) << where;
}

}  // namespace idea::replica::peer_oracle
