#pragma once
/// \file conveyor.hpp
/// \brief Cross-worker packet pipeline: per-(segment,segment) batching of
///        messages, handed over at epoch boundaries.
///
/// This is the thread-tier mirror of net::BatchingTransport's per-pair
/// wire coalescing, patterned on the micmac0 node runtime's conveyor: a
/// message crossing segments is *accumulated* into the (src,dst) outbox
/// while the source's epoch task runs, *sealed* into one packet per
/// destination when the task ends, and *drained* by the destination's task
/// at the start of the next epoch.
///
/// A lane is three plain vectors with no synchronization of their own: the
/// outbox and two sealed sides.  A packet sealed in epoch E sits on side
/// E % 2 of its lane; the drain in epoch E + 1 reads that side while the
/// sources seal into the other one.  At any moment only the thread running
/// src's task touches src's outboxes and the side being sealed, and only
/// the thread running dst's task the side being drained; the pool's
/// barrier between epochs orders each hand-off.  This relies on every
/// segment draining in every epoch, which ParallelSimulator guarantees (a
/// debug assert in seal() catches a skipped drain).
///
/// Determinism contract: the destination drains sources in ascending
/// segment order, and messages within a packet in post order.  Neither
/// depends on which worker thread ran which task, which is exactly why a
/// parallel run replays identically to the sequential oracle.

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

namespace idea::runtime {

struct ConveyorStats {
  std::uint64_t messages = 0;  ///< Messages posted across all lanes.
  std::uint64_t packets = 0;   ///< Packets sealed.
  std::uint64_t drained = 0;   ///< Packets delivered.
  /// Always 0: a lane has no bound, so seal() never waits.  Kept so
  /// existing reports keep their column.
  std::uint64_t lane_stalls = 0;
  std::size_t max_packet = 0;  ///< Largest packet sealed.
};

template <typename T>
class Conveyor {
 public:
  /// Drain callback: (source segment, the packet's messages).
  using Handler = std::function<void(std::uint32_t, std::vector<T>&)>;

  explicit Conveyor(std::uint32_t segments)
      : segments_(segments),
        outboxes_(lanes()),
        sealed_{std::vector<std::vector<T>>(lanes()),
                std::vector<std::vector<T>>(lanes())},
        stats_by_segment_(segments) {}

  /// Accumulate a message from src's running epoch task.  Only the thread
  /// executing src's task may call this.
  void post(std::uint32_t src, std::uint32_t dst, T msg) {
    outboxes_[lane_index(src, dst)].push_back(std::move(msg));
    ++stats_by_segment_[src].messages;
  }

  /// Seal src's non-empty outboxes into one packet per destination, for
  /// the destinations to drain in epoch `epoch + 1`.  Called by src's task
  /// as it ends.
  void seal(std::uint32_t src, std::uint64_t epoch) {
    std::vector<std::vector<T>>& side = sealed_[epoch % 2];
    for (std::uint32_t dst = 0; dst < segments_; ++dst) {
      const std::size_t lane = lane_index(src, dst);
      std::vector<T>& box = outboxes_[lane];
      if (box.empty()) continue;
      assert(side[lane].empty() && "a destination skipped its drain");
      ConveyorStats& s = stats_by_segment_[src];
      ++s.packets;
      if (box.size() > s.max_packet) s.max_packet = box.size();
      side[lane].swap(box);  // the outbox reuses the drained buffer
    }
  }

  /// Deliver to dst every packet sealed in epoch `epoch - 1`, sources in
  /// ascending order, then clear them.  Called by dst's task as it
  /// begins.
  void drain(std::uint32_t dst, std::uint64_t epoch, const Handler& handler) {
    std::vector<std::vector<T>>& side = sealed_[(epoch + 1) % 2];
    for (std::uint32_t src = 0; src < segments_; ++src) {
      std::vector<T>& packet = side[lane_index(src, dst)];
      if (packet.empty()) continue;
      ++stats_by_segment_[dst].drained;
      handler(src, packet);
      packet.clear();
    }
  }

  /// Aggregate stats (sum over the per-segment shards; call at a barrier).
  [[nodiscard]] ConveyorStats stats() const {
    ConveyorStats total;
    for (const ConveyorStats& s : stats_by_segment_) {
      total.messages += s.messages;
      total.packets += s.packets;
      total.drained += s.drained;
      if (s.max_packet > total.max_packet) total.max_packet = s.max_packet;
    }
    return total;
  }

 private:
  [[nodiscard]] std::size_t lanes() const {
    return static_cast<std::size_t>(segments_) * segments_;
  }
  [[nodiscard]] std::size_t lane_index(std::uint32_t src,
                                       std::uint32_t dst) const {
    return static_cast<std::size_t>(src) * segments_ + dst;
  }

  const std::uint32_t segments_;
  /// Accumulators, row-owned: outboxes_[src*S+dst] is touched only by the
  /// thread running src's epoch task.
  std::vector<std::vector<T>> outboxes_;
  /// Sealed packets, sealed_[epoch % 2][src*S+dst].
  std::vector<std::vector<T>> sealed_[2];
  /// Stats sharded by segment (writer: the thread running that segment's
  /// task; drained is accounted at the destination).  Aggregated lazily.
  std::vector<ConveyorStats> stats_by_segment_;
};

}  // namespace idea::runtime
