#pragma once
/// \file batching_transport.hpp
/// \brief Decorator that coalesces same-destination sends into batch
///        envelopes.
///
/// The sharded routing path fans many small protocol messages out to the
/// same endpoints within one simulator tick (replication pushes, detection
/// probes, RanSub waves of thousands of co-located files).  Sending each
/// one individually costs a latency sample, a scheduled event and a wire
/// envelope per message.  BatchingTransport sits between the endpoints and
/// the real transport: sends are queued per (from, to) pair and flushed as
/// one "net.batch" envelope after a configurable window (default: the same
/// simulator tick), or at once when a queue reaches 64 messages, then
/// unwrapped transparently on the receive side.
///
/// Accounting: this decorator's own counters record the *logical* messages
/// the protocols sent; the inner transport's counters see only the batch
/// envelopes that actually hit the wire.  The ratio is the batching win.

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "net/msg_type.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"

namespace idea::net {

/// How long a queue may wait.  A queue that reaches 64 messages flushes
/// at once, whatever the window.
struct BatchingOptions {
  /// How long a destination queue may wait for more traffic before it is
  /// flushed.  0 flushes at the end of the current simulator tick, which
  /// coalesces every send issued at the same instant.
  SimDuration window = 0;
};

struct BatchingStats {
  std::uint64_t logical_messages = 0;  ///< Sends accepted from protocols.
  std::uint64_t envelopes = 0;         ///< Batch envelopes actually sent.
  std::uint64_t flushes_by_size = 0;   ///< Flushes at 64 queued messages.
  std::uint64_t largest_batch = 0;
  /// Time messages sat in destination queues before their flush (the
  /// latency cost a nonzero window trades for bigger batches).
  SimDuration queue_wait_total = 0;

  /// Average logical messages per wire envelope (>= 1).
  [[nodiscard]] double batch_factor() const {
    return envelopes == 0
               ? 1.0
               : static_cast<double>(logical_messages) /
                     static_cast<double>(envelopes);
  }

  /// Mean per-message queueing delay added by batching, in microseconds.
  [[nodiscard]] double avg_queue_wait_usec() const {
    return logical_messages == 0
               ? 0.0
               : static_cast<double>(queue_wait_total) /
                     static_cast<double>(logical_messages);
  }
};

class BatchingTransport final : public Transport, private MessageHandler {
 public:
  /// `inner` is borrowed and must outlive the decorator.
  explicit BatchingTransport(Transport& inner, BatchingOptions options = {});
  ~BatchingTransport() override;

  BatchingTransport(const BatchingTransport&) = delete;
  BatchingTransport& operator=(const BatchingTransport&) = delete;

  void attach(NodeId node, MessageHandler* handler) override;
  void detach(NodeId node) override;
  void send(Message msg) override;
  [[nodiscard]] SimTime now() const override;
  [[nodiscard]] SimTime local_time(NodeId node) const override;
  std::uint64_t call_after(SimDuration delay,
                           std::function<void()> fn) override;
  std::uint64_t call_every(SimDuration period,
                           std::function<void()> fn) override;
  void cancel_call(std::uint64_t handle) override;

  /// Force every pending queue onto the wire (e.g. before tearing down).
  void flush_all();

  /// Drop every message `node` queued that is not on the wire yet: a
  /// crashed endpoint loses its unsent buffers with its connections.
  void discard_from(NodeId node);

  [[nodiscard]] const BatchingStats& stats() const { return stats_; }

  /// Install a metrics sink: flush() records the "net.batch.occupancy"
  /// histogram (messages per envelope), "net.batch.queue_wait_us" (per
  /// flush, total sim-time messages waited) and the "net.batch.envelopes"
  /// counter.
  void set_metrics(obs::Meter meter);

  static const MsgType kBatchType;  ///< Interned "net.batch".

 private:
  /// Per-envelope framing overhead added to the sum of member sizes.
  static constexpr std::uint32_t kHeaderBytes = 24;

  /// Key of a pending queue: one ordered (from, to) pair.  Batching across
  /// senders would break the latency model, which samples per pair.
  using PairKey = std::uint64_t;
  static PairKey pair_key(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  struct Queue {
    std::vector<Message> pending;
    bool flush_scheduled = false;
    std::uint64_t flush_handle = 0;  ///< Armed window timer, if any.
  };

  void flush(PairKey key);
  void on_message(const Message& msg) override;
  void deliver(const Message& msg);

  Transport& inner_;
  BatchingOptions options_;
  std::vector<MessageHandler*> handlers_;  ///< Indexed by node id.
  std::unordered_map<PairKey, Queue> queues_;
  BatchingStats stats_;
  obs::Meter meter_;
  obs::MetricId occupancy_metric_;
  obs::MetricId queue_wait_metric_;
  obs::MetricId envelopes_metric_;
};

}  // namespace idea::net
