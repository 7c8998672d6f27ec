#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace idea::sim {

void Simulator::EventHeap::sift_up(std::vector<QEntry>& heap) {
  std::size_t i = heap.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!heap[i].before(heap[parent])) break;
    std::swap(heap[i], heap[parent]);
    i = parent;
  }
}

void Simulator::EventHeap::sift_down_from(std::vector<QEntry>& heap,
                                          std::size_t i) {
  const std::size_t n = heap.size();
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + 4, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (heap[c].before(heap[best])) best = c;
    }
    if (!heap[best].before(heap[i])) break;
    std::swap(heap[i], heap[best]);
    i = best;
  }
}

void Simulator::EventHeap::push(const QEntry& e) {
  std::vector<QEntry>& band = e.time <= horizon_ ? near_ : far_;
  band.push_back(e);
  sift_up(band);
}

void Simulator::EventHeap::pop() {
  if (near_.empty()) rebalance();
  near_.front() = near_.back();
  near_.pop_back();
  sift_down_from(near_, 0);
}

void Simulator::EventHeap::rebalance() {
  // Open the next band: everything up to (earliest far entry + kBand)
  // becomes near.  Only those entries move, popped off the far heap in
  // (time, key) order, so they arrive sorted — and a sorted array is
  // already a valid heap, so the (empty) near band needs no heapify.
  // O(log far) per migrated entry; each entry migrates at most once.
  horizon_ = far_.front().time + kBand;
  while (!far_.empty() && far_.front().time <= horizon_) {
    near_.push_back(far_.front());
    far_.front() = far_.back();
    far_.pop_back();
    sift_down_from(far_, 0);
  }
}

std::uint32_t Simulator::alloc_slot() {
  IDEA_ASSERT_OWNED(owner_);
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    slots_[index].next_free = kNoSlot;
    return index;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::free_slot(std::uint32_t index) {
  IDEA_ASSERT_OWNED(owner_);
  Slot& slot = slots_[index];
  slot.fn = nullptr;  // release captured state eagerly
  slot.period = 0;
  slot.cancelled = false;
  slot.queued = false;
  ++slot.generation;  // kills stale EventIds and stale heap entries
  slot.next_free = free_head_;
  free_head_ = index;
}

EventId Simulator::arm(SimTime t, std::function<void()> fn,
                       SimDuration period) {
  const std::uint32_t index = alloc_slot();
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.order_key = next_key_++;
  slot.period = period;
  slot.cancelled = false;
  slot.queued = true;
  queue_.push(QEntry{t, slot.order_key, index, slot.generation});
  ++live_;
  return encode(index, slot.generation);
}

EventId Simulator::schedule_at(SimTime t, std::function<void()> fn) {
  assert(t >= now_ && "cannot schedule in the past");
  return arm(t < now_ ? now_ : t, std::move(fn), 0);
}

EventId Simulator::schedule_after(SimDuration delay,
                                  std::function<void()> fn) {
  assert(delay >= 0);
  return arm(now_ + (delay < 0 ? 0 : delay), std::move(fn), 0);
}

EventId Simulator::schedule_periodic(SimDuration period,
                                     std::function<void()> fn,
                                     SimDuration initial_delay) {
  assert(period > 0);
  if (initial_delay < 0) initial_delay = period;
  return arm(now_ + initial_delay, std::move(fn), period);
}

bool Simulator::cancel(EventId id) {
  if (id == kInvalidEvent) return false;
  const std::uint32_t index = slot_of(id);
  if (index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  if (slot.generation != gen_of(id) || slot.cancelled) return false;
  slot.cancelled = true;
  // A periodic chain cancelled from inside its own callback has no heap
  // entry right now — its firing already left the pending count at pop
  // time, and the tombstone stops the re-arm; only a queued occurrence
  // still counts as pending.
  if (slot.queued) --live_;
  return true;
}

bool Simulator::step() {
  while (!queue_.empty()) {
    const QEntry entry = queue_.top();
    queue_.pop();
    {
      Slot& slot = slots_[entry.slot];
      if (slot.generation != entry.gen) continue;  // recycled: stale entry
      slot.queued = false;
      if (slot.cancelled) {                        // tombstoned: reap lazily
        free_slot(entry.slot);
        continue;
      }
    }
    assert(entry.time >= now_);
    now_ = entry.time;
    ++events_processed_;
    --live_;
    if (meter_.enabled() && (events_processed_ & 0x3F) == 0) {
      meter_.observe(queue_depth_metric_, live_);
    }
    if (slots_[entry.slot].period > 0) {
      // Steal the callback for the call: the callback may schedule events
      // and reallocate slots_, and must observe a consistent slot if it
      // cancels its own chain.
      std::function<void()> fn = std::move(slots_[entry.slot].fn);
      fn();
      Slot& slot = slots_[entry.slot];  // re-resolve: slab may have moved
      if (slot.cancelled) {
        free_slot(entry.slot);  // cancelled from inside the callback
      } else {
        slot.fn = std::move(fn);  // re-arm the same slot: id stays valid
        slot.queued = true;
        queue_.push(
            QEntry{now_ + slot.period, slot.order_key, entry.slot, entry.gen});
        ++live_;
      }
    } else {
      // One-shot: recycle before the call so the callback can reuse the
      // slot and a self-cancel correctly reports "no longer pending".
      std::function<void()> fn = std::move(slots_[entry.slot].fn);
      free_slot(entry.slot);
      fn();
    }
    return true;
  }
  return false;
}

void Simulator::run(std::uint64_t limit) {
  while (limit-- > 0 && step()) {
  }
}

SimTime Simulator::next_live_event_time() {
  // Reap dead heap heads (recycled-slot leftovers and cancelled
  // tombstones) so the caller sees the time of the next event that will
  // actually run.  Reaping only removes entries step() would skip anyway,
  // so the live pop order is untouched.
  while (!queue_.empty()) {
    const QEntry entry = queue_.top();
    Slot& slot = slots_[entry.slot];
    if (slot.generation != entry.gen) {
      queue_.pop();
      continue;
    }
    if (slot.cancelled) {
      slot.queued = false;
      free_slot(entry.slot);
      queue_.pop();
      continue;
    }
    return entry.time;
  }
  return kNever;
}

void Simulator::run_until(SimTime t) {
  // Consult the next *live* event: a cancelled tombstone at the head must
  // not bait step() into running an event past t.
  while (next_live_event_time() <= t) {
    if (!step()) break;
  }
  if (now_ < t) now_ = t;
}

void Simulator::set_metrics(obs::Meter meter) {
  meter_ = meter;
  if (meter_.enabled()) {
    queue_depth_metric_ = obs::MetricId::intern("sim.queue_depth");
  }
}

}  // namespace idea::sim
