#include "net/batching_transport.hpp"

#include <algorithm>
#include <utility>

namespace idea::net {

namespace {

/// Queues at this size flush immediately instead of waiting the window.
constexpr std::size_t kMaxBatch = 64;

}  // namespace

const MsgType BatchingTransport::kBatchType = MsgType::intern("net.batch");

BatchingTransport::BatchingTransport(Transport& inner, BatchingOptions options)
    : inner_(inner), options_(options) {}

BatchingTransport::~BatchingTransport() {
  // Ship whatever is still queued, then disarm every pending window timer
  // — a flush callback firing after this object dies would be a
  // use-after-free — and unhook the shim from nodes still proxied.
  flush_all();
  for (auto& [key, queue] : queues_) {
    if (queue.flush_scheduled) inner_.cancel_call(queue.flush_handle);
  }
  for (NodeId node = 0; node < handlers_.size(); ++node) {
    if (handlers_[node] != nullptr) inner_.detach(node);
  }
}

void BatchingTransport::attach(NodeId node, MessageHandler* handler) {
  if (node >= handlers_.size()) handlers_.resize(node + 1, nullptr);
  handlers_[node] = handler;
  inner_.attach(node, this);
}

void BatchingTransport::detach(NodeId node) {
  if (node < handlers_.size()) handlers_[node] = nullptr;
  inner_.detach(node);
  // Queued traffic towards a detached endpoint drops, matching the inner
  // transport's in-flight semantics.  Queues *from* it flush normally.
  for (auto& [key, queue] : queues_) {
    if ((key & 0xFFFFFFFFULL) == node) queue.pending.clear();
  }
}

void BatchingTransport::send(Message msg) {
  counters_.record(msg.type, msg.wire_bytes);
  ++stats_.logical_messages;
  msg.sent_at = inner_.now();

  const PairKey key = pair_key(msg.from, msg.to);
  Queue& queue = queues_[key];
  queue.pending.push_back(std::move(msg));
  if (queue.pending.size() >= kMaxBatch) {
    ++stats_.flushes_by_size;
    flush(key);
    return;
  }
  if (!queue.flush_scheduled) {
    queue.flush_scheduled = true;
    // The timer clears its own armed state before flushing, so flush()
    // never needs to cancel the event it is running from (the simulator
    // would retain such a cancellation forever).
    queue.flush_handle = inner_.call_after(options_.window, [this, key] {
      auto timer_it = queues_.find(key);
      if (timer_it != queues_.end()) {
        timer_it->second.flush_scheduled = false;
        timer_it->second.flush_handle = 0;
      }
      flush(key);
    });
  }
}

void BatchingTransport::flush(PairKey key) {
  auto it = queues_.find(key);
  if (it == queues_.end()) return;
  Queue& queue = it->second;
  if (queue.flush_scheduled) {
    // A size- or flush_all-triggered flush disarms the pending window
    // timer; with a nonzero window a stale timer would otherwise cut the
    // *next* batch short.
    inner_.cancel_call(queue.flush_handle);
    queue.flush_scheduled = false;
    queue.flush_handle = 0;
  }
  if (queue.pending.empty()) return;

  std::vector<Message> batch;
  batch.swap(queue.pending);

  const SimTime now = inner_.now();
  SimDuration wait = 0;
  for (const Message& m : batch) wait += now - m.sent_at;
  stats_.queue_wait_total += wait;
  if (meter_.enabled()) {
    meter_.observe(occupancy_metric_, batch.size());
    meter_.observe(queue_wait_metric_, static_cast<std::uint64_t>(wait));
    meter_.add(envelopes_metric_);
  }

  if (batch.size() == 1) {
    // No coalescing happened; skip the envelope overhead.
    ++stats_.envelopes;
    stats_.largest_batch = std::max<std::uint64_t>(stats_.largest_batch, 1);
    inner_.send(std::move(batch.front()));
    return;
  }

  Message envelope;
  envelope.from = batch.front().from;
  envelope.to = batch.front().to;
  envelope.file = batch.front().file;  // informational; unwrap ignores it
  envelope.type = kBatchType;
  envelope.wire_bytes = kHeaderBytes;
  for (const Message& m : batch) envelope.wire_bytes += m.wire_bytes;
  ++stats_.envelopes;
  stats_.largest_batch =
      std::max<std::uint64_t>(stats_.largest_batch, batch.size());
  envelope.payload = std::move(batch);
  inner_.send(std::move(envelope));
}

void BatchingTransport::flush_all() {
  // Flushing mutates queue state but never the map topology mid-loop: keys
  // are collected first so flush() may insert new queues safely.
  std::vector<PairKey> keys;
  keys.reserve(queues_.size());
  for (const auto& [key, queue] : queues_) {
    if (!queue.pending.empty()) keys.push_back(key);
  }
  for (PairKey key : keys) flush(key);
}

void BatchingTransport::discard_from(NodeId node) {
  for (auto& [key, queue] : queues_) {
    if ((key >> 32) == node) queue.pending.clear();
  }
}

void BatchingTransport::on_message(const Message& msg) {
  if (msg.type == kBatchType) {
    const auto& members = msg.payload.as<std::vector<Message>>();
    for (const Message& m : members) deliver(m);
    return;
  }
  deliver(msg);
}

void BatchingTransport::deliver(const Message& msg) {
  if (msg.to < handlers_.size() && handlers_[msg.to] != nullptr) {
    handlers_[msg.to]->on_message(msg);
  }
}

SimTime BatchingTransport::now() const { return inner_.now(); }

SimTime BatchingTransport::local_time(NodeId node) const {
  return inner_.local_time(node);
}

std::uint64_t BatchingTransport::call_after(SimDuration delay,
                                            std::function<void()> fn) {
  return inner_.call_after(delay, std::move(fn));
}

std::uint64_t BatchingTransport::call_every(SimDuration period,
                                            std::function<void()> fn) {
  return inner_.call_every(period, std::move(fn));
}

void BatchingTransport::cancel_call(std::uint64_t handle) {
  inner_.cancel_call(handle);
}

void BatchingTransport::set_metrics(obs::Meter meter) {
  meter_ = meter;
  if (meter_.enabled()) {
    occupancy_metric_ = obs::MetricId::intern("net.batch.occupancy");
    queue_wait_metric_ = obs::MetricId::intern("net.batch.queue_wait_us");
    envelopes_metric_ = obs::MetricId::intern("net.batch.envelopes");
  }
}

}  // namespace idea::net
