#pragma once
/// \file kvstore.hpp
/// \brief Large-scale key-value-store workload over the sharded cluster.
///
/// The paper's applications (white board, ticket booking) are a handful of
/// hot shared files; a key-value store is the opposite corner of the
/// workload space — millions of keys, each lukewarm, spread over as many
/// shared files as the cluster hosts.  KvStore hashes keys into a fixed
/// universe of bucket files placed on the ring (several keys share a
/// bucket, like rows sharing a tablet) and routes puts and gets through a
/// default client session (Strong: coordinator reads).  Load comes from
/// workload::OpenLoopEngine: its issuer hands each generated op to
/// issue(), which turns the op's key rank into a "k000042"-style key.

#include <optional>
#include <string>

#include "client/session.hpp"
#include "shard/sharded_cluster.hpp"
#include "workload/engine.hpp"

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

  /// One engine op: a get of key "k%06u" (the op's key rank), or a put of
  /// "op<index>" to it.
  void issue(const workload::Op& op);

  /// Meta-data contribution of one kv pair: scaled ASCII sum, like the
  /// white board's stroke meta (keeps the numerical-error metric live).
  [[nodiscard]] static double pair_meta(const std::string& key,
                                        const std::string& value);

  [[nodiscard]] std::uint64_t puts() const { return puts_; }
  [[nodiscard]] std::uint64_t blocked_puts() const { return blocked_puts_; }
  [[nodiscard]] std::uint64_t gets() const { return gets_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }

 private:
  KvStoreOptions options_;
  client::ClientSession session_;
  std::uint64_t puts_ = 0;
  std::uint64_t blocked_puts_ = 0;
  std::uint64_t gets_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace idea::apps
