#include "apps/kvstore.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace idea::apps {

KvStore::KvStore(shard::ShardedCluster& cluster, KvStoreOptions options)
    : cluster_(cluster), options_(options), session_(cluster, {}) {}

FileId KvStore::bucket_of(const std::string& key) const {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a over the key bytes
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return options_.first_file +
         static_cast<FileId>(mix64(h) % options_.buckets);
}

double KvStore::pair_meta(const std::string& key, const std::string& value) {
  double sum = 0.0;
  for (const char c : key) sum += static_cast<unsigned char>(c);
  for (const char c : value) sum += static_cast<unsigned char>(c);
  return sum / 100.0;
}

bool KvStore::put(const std::string& key, const std::string& value) {
  const bool ok = session_
                      .put(bucket_of(key), key + kSeparator + value,
                           pair_meta(key, value))
                      .ok();
  ok ? ++puts_ : ++blocked_puts_;
  return ok;
}

std::optional<std::string> KvStore::get(const std::string& key) {
  ++gets_;
  const client::OpHandle<client::ReadResult> handle =
      session_.read(bucket_of(key));
  if (!handle.ok()) return std::nullopt;
  // Scan the routed view in place (a shared snapshot — no copy of the
  // bucket's history).  The view is in canonical order, so the last
  // live match is the value a reader of the rendered file sees as
  // current.
  const std::string prefix = key + kSeparator;
  const replica::Update* best = nullptr;
  for (const replica::Update& u : *handle->updates) {
    if (u.invalidated ||
        u.content.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    best = &u;
  }
  if (best == nullptr) return std::nullopt;
  ++hits_;
  return best->content.substr(prefix.size());
}

// ---------------------------------------------------------------------------
// KvWorkload
// ---------------------------------------------------------------------------

KvWorkload::KvWorkload(KvStore& store, sim::Simulator& sim,
                       KvWorkloadParams params, std::uint64_t seed)
    : store_(store), sim_(sim), params_(params), rng_(seed) {
  if (params_.zipf_s > 0.0 && params_.keyspace > 0) {
    zipf_cdf_.reserve(params_.keyspace);
    double total = 0.0;
    for (std::uint32_t rank = 1; rank <= params_.keyspace; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank), params_.zipf_s);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }
}

std::uint32_t KvWorkload::sample_key() {
  if (zipf_cdf_.empty()) {
    return static_cast<std::uint32_t>(rng_.next_below(params_.keyspace));
  }
  const double u = rng_.uniform01();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return static_cast<std::uint32_t>(it - zipf_cdf_.begin());
}

void KvWorkload::start() {
  end_time_ = sim_.now() + params_.duration;
  for (std::uint32_t c = 0; c < params_.clients; ++c) {
    // Stagger client start so the first tick is not one giant burst.
    const auto offset = static_cast<SimDuration>(
        rng_.next_below(static_cast<std::uint64_t>(params_.interval) + 1));
    schedule_client(c, 0, sim_.now() + offset);
  }
}

void KvWorkload::schedule_client(std::uint32_t client,
                                 std::uint64_t op_index, SimTime when) {
  if (when > end_time_) return;
  sim_.schedule_at(when, [this, client, op_index] {
    const std::uint32_t key_index = sample_key();
    char key[16];
    std::snprintf(key, sizeof key, "k%06u", key_index);
    ++attempted_;
    if (params_.read_fraction > 0.0 && rng_.chance(params_.read_fraction)) {
      (void)store_.get(key);
    } else {
      char value[32];
      std::snprintf(value, sizeof value, "c%u-op%llu", client,
                    static_cast<unsigned long long>(op_index));
      if (!store_.put(key, value)) ++blocked_;
    }
    SimDuration gap = params_.interval;
    if (params_.jitter_frac > 0.0) {
      const double j = rng_.uniform(-params_.jitter_frac, params_.jitter_frac);
      gap = std::max<SimDuration>(
          1, gap + static_cast<SimDuration>(
                       j * static_cast<double>(params_.interval)));
    }
    schedule_client(client, op_index + 1, sim_.now() + gap);
  });
}

}  // namespace idea::apps
