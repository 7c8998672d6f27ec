#pragma once
/// \file kvstore.hpp
/// \brief Large-scale key-value-store workload over the sharded cluster.
///
/// The paper's applications (white board, ticket booking) are a handful of
/// hot shared files; a key-value store is the opposite corner of the
/// workload space — millions of keys, each lukewarm, spread over as many
/// shared files as the cluster hosts.  KvStore hashes keys into a fixed
/// universe of bucket files placed on the ring (several keys share a
/// bucket, like rows sharing a tablet), routes puts and gets through a
/// default client session (Strong: coordinator reads), and KvWorkload drives
/// scripted clients against it on the simulator with uniform or
/// Zipf-skewed key popularity.

#include <optional>
#include <string>
#include <vector>

#include "client/session.hpp"
#include "shard/sharded_cluster.hpp"
#include "util/rng.hpp"

namespace idea::apps {

/// Where the store's buckets live.  It issues every operation through a
/// default session: Strong, no origin.
struct KvStoreOptions {
  std::uint32_t buckets = 1024;  ///< Bucket files keys hash into.
  FileId first_file = 1;         ///< Bucket file ids: first..first+buckets-1.
};

class KvStore {
 public:
  /// Separator between key and value inside an update's content.  The
  /// ASCII unit separator keeps '='-bearing keys/values from aliasing
  /// each other on get(); keys must not contain it.
  static constexpr char kSeparator = '\x1f';

  KvStore(shard::ShardedCluster& cluster, KvStoreOptions options = {});

  /// The bucket file a key lives in (stable hash).
  [[nodiscard]] FileId bucket_of(const std::string& key) const;

  /// Route "key=value" to the bucket's coordinator; replicated from there.
  /// Returns false when the bucket has no live replica.
  bool put(const std::string& key, const std::string& value);

  /// Latest live value of `key` at the bucket's coordinator (Strong).
  [[nodiscard]] std::optional<std::string> get(const std::string& key);

  /// Meta-data contribution of one kv pair: scaled ASCII sum, like the
  /// white board's stroke meta (keeps the numerical-error metric live).
  [[nodiscard]] static double pair_meta(const std::string& key,
                                        const std::string& value);

  [[nodiscard]] std::uint64_t puts() const { return puts_; }
  [[nodiscard]] std::uint64_t blocked_puts() const { return blocked_puts_; }
  [[nodiscard]] std::uint64_t gets() const { return gets_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] const KvStoreOptions& options() const { return options_; }
  [[nodiscard]] shard::ShardedCluster& cluster() { return cluster_; }
  [[nodiscard]] client::ClientSession& session() { return session_; }

 private:
  shard::ShardedCluster& cluster_;
  KvStoreOptions options_;
  client::ClientSession session_;
  std::uint64_t puts_ = 0;
  std::uint64_t blocked_puts_ = 0;
  std::uint64_t gets_ = 0;
  std::uint64_t hits_ = 0;
};

struct KvWorkloadParams {
  std::uint32_t clients = 8;        ///< Concurrent scripted clients.
  SimDuration interval = msec(500); ///< Nominal gap between a client's ops.
  double jitter_frac = 0.5;         ///< Uniform jitter: ±frac of interval.
  SimDuration duration = sec(30);   ///< Stop issuing after this long.
  std::uint32_t keyspace = 4096;    ///< Distinct keys, "k000042"-style.
  /// Zipf exponent of key popularity; 0 = uniform.  Skewed runs hammer a
  /// few hot buckets, the way real kv traffic does.
  double zipf_s = 0.0;
  double read_fraction = 0.0;       ///< Fraction of ops that are gets.
};

class KvWorkload {
 public:
  KvWorkload(KvStore& store, sim::Simulator& sim, KvWorkloadParams params,
             std::uint64_t seed);

  /// Schedule every client's op chain on the simulator.  Call once.
  void start();

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t blocked() const { return blocked_; }

 private:
  void schedule_client(std::uint32_t client, std::uint64_t op_index,
                       SimTime when);
  [[nodiscard]] std::uint32_t sample_key();

  KvStore& store_;
  sim::Simulator& sim_;
  KvWorkloadParams params_;
  Rng rng_;
  std::vector<double> zipf_cdf_;  ///< Empty when popularity is uniform.
  SimTime end_time_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t blocked_ = 0;
};

}  // namespace idea::apps
