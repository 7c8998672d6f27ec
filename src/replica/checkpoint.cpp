#include "replica/checkpoint.hpp"

namespace idea::replica {

std::uint64_t checkpoint_bytes(const CheckpointRecord& record) {
  std::uint64_t bytes = 32 + 4 * record.members.size();
  for (const Update& u : record.updates) bytes += u.wire_bytes();
  return bytes;
}

const CheckpointRecord* DurableStorage::checkpoint(NodeId endpoint,
                                                   std::uint32_t incarnation,
                                                   const ReplicaRef& replica,
                                                   SimTime now) {
  CheckpointRecord& record = records_[{endpoint, replica.file}];
  const std::uint64_t mutations = replica.store.mutation_count();
  // Dirty test: an unchanged mutation count of the same store means the
  // record still describes this replica exactly.  A new incarnation or
  // group epoch is always dirty: the store was rebuilt (by a restart or
  // a migration), its counter restarted, and the record must carry the
  // group's current members.
  if (record.epoch > 0 && record.incarnation == incarnation &&
      record.group_epoch == replica.group_epoch &&
      record.mutations == mutations) {
    return nullptr;
  }
  record.endpoint = endpoint;
  record.incarnation = incarnation;
  record.file = replica.file;
  ++record.epoch;
  record.group_epoch = replica.group_epoch;
  record.mutations = mutations;
  record.taken_at = now;
  record.members = replica.members;
  record.updates = replica.store.export_log();
  record.bytes = checkpoint_bytes(record);
  records_written_ += 1;
  bytes_written_ += record.bytes;
  updates_written_ += record.updates.size();
  return &record;
}

const CheckpointRecord* DurableStorage::latest(NodeId endpoint,
                                               FileId file) const {
  auto it = records_.find({endpoint, file});
  return it == records_.end() ? nullptr : &it->second;
}

}  // namespace idea::replica
