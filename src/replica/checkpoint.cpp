#include "replica/checkpoint.hpp"

#include <utility>

namespace idea::replica {

std::uint64_t checkpoint_bytes(const CheckpointRecord& record) {
  std::uint64_t bytes = 32 + 4 * record.members.size();
  for (const Update& u : record.updates) bytes += u.wire_bytes();
  return bytes;
}

std::uint64_t DurableStorage::put(CheckpointRecord record) {
  const Key key{record.endpoint, record.file};
  record.epoch = ++next_epoch_[key];
  record.bytes = checkpoint_bytes(record);
  records_written_ += 1;
  bytes_written_ += record.bytes;
  updates_written_ += record.updates.size();
  std::deque<CheckpointRecord>& history = records_[key];
  history.push_back(std::move(record));
  while (history.size() > retain_) history.pop_front();
  return history.back().epoch;
}

const CheckpointRecord* DurableStorage::latest(NodeId endpoint,
                                               FileId file) const {
  auto it = records_.find(Key{endpoint, file});
  if (it == records_.end() || it->second.empty()) return nullptr;
  return &it->second.back();
}

std::size_t DurableStorage::record_count() const {
  std::size_t n = 0;
  for (const auto& [key, history] : records_) n += history.size();
  return n;
}

namespace {

CheckpointRecord make_record(NodeId endpoint, std::uint32_t incarnation,
                             const ReplicaRef& ref, SimTime now) {
  CheckpointRecord record;
  record.endpoint = endpoint;
  record.incarnation = incarnation;
  record.file = ref.file;
  record.taken_at = now;
  if (ref.members != nullptr) record.members = *ref.members;
  record.updates = ref.store->export_log();
  return record;
}

void account(CheckpointRunStats& run, CheckpointRunStats& totals,
             std::uint64_t updates, std::uint64_t bytes) {
  run.files_written += 1;
  run.updates_written += updates;
  run.bytes_written += bytes;
  totals.files_written += 1;
  totals.updates_written += updates;
  totals.bytes_written += bytes;
}

}  // namespace

CheckpointRunStats FullSnapshotEngine::checkpoint(
    NodeId endpoint, std::uint32_t incarnation,
    const std::vector<ReplicaRef>& replicas, SimTime now,
    DurableStorage& storage) {
  CheckpointRunStats run;
  for (const ReplicaRef& ref : replicas) {
    if (ref.store == nullptr) continue;
    CheckpointRecord record = make_record(endpoint, incarnation, ref, now);
    const std::uint64_t updates = record.updates.size();
    const std::uint64_t bytes = checkpoint_bytes(record);
    storage.put(std::move(record));
    account(run, totals_, updates, bytes);
  }
  return run;
}

CheckpointRunStats IncrementalEngine::checkpoint(
    NodeId endpoint, std::uint32_t incarnation,
    const std::vector<ReplicaRef>& replicas, SimTime now,
    DurableStorage& storage) {
  CheckpointRunStats run;
  for (const ReplicaRef& ref : replicas) {
    if (ref.store == nullptr) continue;
    const std::pair<NodeId, FileId> key{endpoint, ref.file};
    const Seen now_seen{incarnation, ref.group_epoch,
                        ref.store->mutation_count()};
    auto it = last_.find(key);
    // Dirty test: an unchanged mutation count of the same store means the
    // previous checkpoint still describes this replica exactly.  A new
    // incarnation or group epoch is always dirty: the store was rebuilt
    // (by recovery or a group rebuild), its counter restarted, and the
    // record must carry the group's current members.
    if (it != last_.end() && it->second == now_seen) {
      run.files_clean += 1;
      totals_.files_clean += 1;
      continue;
    }
    CheckpointRecord record = make_record(endpoint, incarnation, ref, now);
    const std::uint64_t updates = record.updates.size();
    const std::uint64_t bytes = checkpoint_bytes(record);
    storage.put(std::move(record));
    account(run, totals_, updates, bytes);
    last_[key] = now_seen;
  }
  return run;
}

std::unique_ptr<CheckpointEngine> make_checkpoint_engine(
    CheckpointEngineKind kind) {
  switch (kind) {
    case CheckpointEngineKind::kNone:
      return nullptr;
    case CheckpointEngineKind::kFull:
      return std::make_unique<FullSnapshotEngine>();
    case CheckpointEngineKind::kIncremental:
      return std::make_unique<IncrementalEngine>();
  }
  return nullptr;
}

}  // namespace idea::replica
