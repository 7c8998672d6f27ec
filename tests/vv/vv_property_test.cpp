/// \file vv_property_test.cpp
/// \brief Randomized property tests for the flat-vector VersionVector /
///        ExtendedVersionVector representations against a map-based
///        oracle.
///
/// PR 2 replaced the std::map layouts with sorted flat vectors whose
/// merge/compare are hand-written two-pointer walks; the unit tests pin
/// specific cases, but the walks have enough edge geometry (disjoint
/// writer sets, interleaved ids, equal prefixes, empty sides) that random
/// exploration is the honest check.  Each property runs 10k random cases
/// per seed: merge is commutative and idempotent and matches the
/// pointwise-max oracle, compare is antisymmetric and matches an oracle
/// comparison, the EVV's missing_from returns exactly the oracle's
/// (writer, seq) delta, and the EVV's allocation-free compare, dominates
/// and total_updates agree with the answers of its counts() vector.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "util/rng.hpp"
#include "vv/extended_vv.hpp"
#include "vv/version_vector.hpp"

namespace idea::vv {
namespace {

constexpr int kCasesPerSeed = 10'000;
const std::vector<std::uint64_t> kSeeds{2007, 0xBADC0DE, 42};

using Oracle = std::map<NodeId, std::uint64_t>;

/// Writer ids mix a dense band with sparse outliers so the two-pointer
/// walks see both adjacent and far-apart entries.
NodeId random_writer(Rng& rng) {
  return rng.chance(0.2) ? static_cast<NodeId>(900 + rng.next_below(40))
                         : static_cast<NodeId>(rng.next_below(8));
}

VersionVector from_oracle(const Oracle& o) {
  VersionVector v;
  for (const auto& [w, c] : o) v.set(w, c);
  return v;
}

Oracle random_oracle(Rng& rng) {
  Oracle o;
  const std::uint64_t writers = rng.next_below(6);
  for (std::uint64_t i = 0; i < writers; ++i) {
    o[random_writer(rng)] = 1 + rng.next_below(10);
  }
  return o;
}

Oracle oracle_merge(const Oracle& a, const Oracle& b) {
  Oracle out = a;
  for (const auto& [w, c] : b) {
    auto [it, inserted] = out.emplace(w, c);
    if (!inserted && c > it->second) it->second = c;
  }
  return out;
}

Order oracle_compare(const Oracle& a, const Oracle& b) {
  bool a_ahead = false;
  bool b_ahead = false;
  Oracle all = a;
  all.insert(b.begin(), b.end());
  for (const auto& [w, unused] : all) {
    const std::uint64_t ca = a.count(w) ? a.at(w) : 0;
    const std::uint64_t cb = b.count(w) ? b.at(w) : 0;
    if (ca > cb) a_ahead = true;
    if (cb > ca) b_ahead = true;
  }
  if (a_ahead && b_ahead) return Order::kConcurrent;
  if (a_ahead) return Order::kAfter;
  if (b_ahead) return Order::kBefore;
  return Order::kEqual;
}

Order mirror(Order o) {
  switch (o) {
    case Order::kBefore:
      return Order::kAfter;
    case Order::kAfter:
      return Order::kBefore;
    default:
      return o;
  }
}

TEST(VersionVectorProperty, MergeMatchesOracleAndIsCommutativeIdempotent) {
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (int i = 0; i < kCasesPerSeed; ++i) {
      const Oracle oa = random_oracle(rng);
      const Oracle ob = random_oracle(rng);
      const VersionVector a = from_oracle(oa);
      const VersionVector b = from_oracle(ob);

      VersionVector ab = a;
      ab.merge(b);
      VersionVector ba = b;
      ba.merge(a);
      const VersionVector expected = from_oracle(oracle_merge(oa, ob));
      ASSERT_EQ(ab, expected) << "seed " << seed << " case " << i;
      ASSERT_EQ(ba, expected) << "merge not commutative: seed " << seed
                              << " case " << i;

      VersionVector aa = a;
      aa.merge(a);
      ASSERT_EQ(aa, a) << "merge not idempotent: seed " << seed;
      // The merge dominates both inputs.
      ASSERT_TRUE(ab.dominates(a));
      ASSERT_TRUE(ab.dominates(b));
    }
  }
}

TEST(VersionVectorProperty, CompareMatchesOracleAndIsAntisymmetric) {
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed ^ 0xC0FFEE);
    for (int i = 0; i < kCasesPerSeed; ++i) {
      Oracle oa = random_oracle(rng);
      // Bias towards related vectors: half the time b derives from a by
      // increments/truncations, otherwise independent (mostly
      // concurrent).
      Oracle ob;
      if (rng.chance(0.5)) {
        ob = oa;
        const std::uint64_t tweaks = rng.next_below(4);
        for (std::uint64_t t = 0; t < tweaks; ++t) {
          const NodeId w = random_writer(rng);
          if (rng.chance(0.5)) {
            ++ob[w];
          } else if (ob.count(w)) {
            if (--ob[w] == 0) ob.erase(w);
          }
        }
      } else {
        ob = random_oracle(rng);
      }
      const VersionVector a = from_oracle(oa);
      const VersionVector b = from_oracle(ob);

      const Order fwd = VersionVector::compare(a, b);
      ASSERT_EQ(fwd, oracle_compare(oa, ob))
          << "seed " << seed << " case " << i << " a=" << a.to_string()
          << " b=" << b.to_string();
      ASSERT_EQ(VersionVector::compare(b, a), mirror(fwd))
          << "compare not antisymmetric: seed " << seed << " case " << i;
      ASSERT_EQ(a.concurrent_with(b), fwd == Order::kConcurrent);
      ASSERT_EQ(a.dominates(b),
                fwd == Order::kAfter || fwd == Order::kEqual);
    }
  }
}

TEST(VersionVectorProperty, IncrementSetGetTrackOracle) {
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed ^ 0x5E7);
    VersionVector v;
    Oracle o;
    for (int i = 0; i < kCasesPerSeed; ++i) {
      const NodeId w = random_writer(rng);
      if (rng.chance(0.7)) {
        v.increment(w);
        ++o[w];
      } else {
        const std::uint64_t c = rng.next_below(12);
        v.set(w, c);
        if (c == 0) {
          o.erase(w);
        } else {
          o[w] = c;
        }
      }
      ASSERT_EQ(v.get(w), o.count(w) ? o[w] : 0);
    }
    ASSERT_EQ(v, from_oracle(o));
    std::uint64_t total = 0;
    for (const auto& [w, c] : o) total += c;
    ASSERT_EQ(v.total(), total);
    ASSERT_EQ(v.writer_count(), o.size());
  }
}

// ---------------------------------------------------------------------
// ExtendedVersionVector: histories share a global per-writer stamp pool,
// so any two EVVs are prefix-compatible (the invariant merge assumes).
// ---------------------------------------------------------------------

struct StampPool {
  std::map<NodeId, std::vector<SimTime>> stamps;

  explicit StampPool(Rng& rng) {
    const std::uint64_t writers = 1 + rng.next_below(6);
    for (std::uint64_t i = 0; i < writers; ++i) {
      const NodeId w = random_writer(rng);
      auto& list = stamps[w];
      if (!list.empty()) continue;
      SimTime t = 0;
      const std::uint64_t n = 1 + rng.next_below(8);
      for (std::uint64_t s = 0; s < n; ++s) {
        t += rng.next_below(1000);  // non-decreasing, duplicates allowed
        list.push_back(t);
      }
    }
  }

  /// An EVV holding a random prefix of each writer's history.
  ExtendedVersionVector random_prefix(Rng& rng, Oracle* counts) const {
    ExtendedVersionVector evv;
    for (const auto& [w, list] : stamps) {
      const std::uint64_t take = rng.next_below(list.size() + 1);
      for (std::uint64_t s = 0; s < take; ++s) {
        evv.record_update(w, list[s], 0.0);
      }
      if (take > 0) (*counts)[w] = take;
    }
    return evv;
  }
};

bool same_history(const ExtendedVersionVector& a,
                  const ExtendedVersionVector& b) {
  const VersionVector counts = a.counts();  // keep alive while iterating
  if (counts != b.counts()) return false;
  for (const auto& [w, c] : counts.entries()) {
    for (std::uint64_t seq = 1; seq <= c; ++seq) {
      if (a.stamp_of(w, seq) != b.stamp_of(w, seq)) return false;
    }
  }
  return true;
}

TEST(ExtendedVVProperty, MergeCompareMissingMatchOracle) {
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed ^ 0xEE);
    for (int i = 0; i < kCasesPerSeed; ++i) {
      const StampPool pool(rng);
      Oracle oa;
      Oracle ob;
      const ExtendedVersionVector a = pool.random_prefix(rng, &oa);
      const ExtendedVersionVector b = pool.random_prefix(rng, &ob);

      // compare: antisymmetric and oracle-consistent.
      const Order fwd = ExtendedVersionVector::compare(a, b);
      ASSERT_EQ(fwd, oracle_compare(oa, ob)) << "seed " << seed;
      ASSERT_EQ(ExtendedVersionVector::compare(b, a), mirror(fwd));

      // The count queries read the stamp lists in place; they must give
      // the counts() vector's answers.
      const VersionVector ca = a.counts();
      const VersionVector cb = b.counts();
      ASSERT_EQ(fwd, VersionVector::compare(ca, cb)) << "seed " << seed;
      ASSERT_EQ(a.dominates(b), ca.dominates(cb)) << "seed " << seed;
      ASSERT_EQ(b.dominates(a), cb.dominates(ca)) << "seed " << seed;
      ASSERT_EQ(a.total_updates(), ca.total()) << "seed " << seed;
      ASSERT_EQ(b.total_updates(), cb.total()) << "seed " << seed;

      // merge: commutative, idempotent, pointwise-max counts, and the
      // stamps of the union come from the shared pool prefixes.
      ExtendedVersionVector ab = a;
      ab.merge(b);
      ExtendedVersionVector ba = b;
      ba.merge(a);
      ASSERT_TRUE(same_history(ab, ba))
          << "merge not commutative: seed " << seed << " case " << i;
      ASSERT_EQ(ab.counts(), from_oracle(oracle_merge(oa, ob)));
      ExtendedVersionVector aa = a;
      aa.merge(a);
      ASSERT_TRUE(same_history(aa, a));
      const VersionVector merged_counts = ab.counts();
      for (const auto& [w, c] : merged_counts.entries()) {
        for (std::uint64_t seq = 1; seq <= c; ++seq) {
          ASSERT_EQ(ab.stamp_of(w, seq),
                    pool.stamps.at(w)[seq - 1]);
        }
      }

      // missing_from: exactly the oracle's (writer, seq) delta.
      std::vector<std::pair<NodeId, std::uint64_t>> expected;
      for (const auto& [w, cb] : ob) {
        const std::uint64_t ca = oa.count(w) ? oa.at(w) : 0;
        for (std::uint64_t seq = ca + 1; seq <= cb; ++seq) {
          expected.emplace_back(w, seq);
        }
      }
      ASSERT_EQ(a.missing_from(b), expected) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace idea::vv
