#include "apps/kvstore.hpp"

#include <cstdio>

namespace idea::apps {

KvStore::KvStore(shard::ShardedCluster& cluster, KvStoreOptions options)
    : options_(options), session_(cluster, {}) {}

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

void KvStore::issue(const workload::Op& op) {
  char key[16];
  std::snprintf(key, sizeof key, "k%06u", op.key);
  if (op.is_read) {
    (void)get(key);
    return;
  }
  char value[32];
  std::snprintf(value, sizeof value, "op%llu",
                static_cast<unsigned long long>(op.index));
  put(key, value);
}

}  // namespace idea::apps
