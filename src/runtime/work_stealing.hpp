#pragma once
/// \file work_stealing.hpp
/// \brief Chase-Lev work-stealing deque (bounded, POD payloads).
///
/// Each pool worker owns one deque: it pushes and pops its own tasks at
/// the bottom (LIFO, cache-warm), idle workers steal from the top (FIFO,
/// oldest task — the one least likely to share cache lines with what the
/// owner is about to run).  The memory-order discipline follows Lê,
/// Pop, Cohen & Nardelli, "Correct and Efficient Work-Stealing for Weak
/// Memory Models" (PPoPP'13): the owner's pop and a thief's steal race on
/// `top` with a seq_cst CAS; everything else is acquire/release.
///
/// The payload is a 32-bit task index (segments, not closures), so a slot
/// is trivially copyable and the ABA-free generation tricks closures need
/// do not apply.  Capacity is fixed at construction — the pool sizes the
/// deque to the epoch's task count, so overflow cannot happen in use; a
/// debug assert guards the invariant.

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

namespace idea::runtime {

class WorkStealingDeque {
 public:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;

  explicit WorkStealingDeque(std::size_t min_capacity = 256) {
    std::size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    buffer_ = std::make_unique<std::atomic<std::uint32_t>[]>(cap);
    mask_ = cap - 1;
  }

  WorkStealingDeque(const WorkStealingDeque&) = delete;
  WorkStealingDeque& operator=(const WorkStealingDeque&) = delete;

  /// Owner: push a task at the bottom.
  void push(std::uint32_t task) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    // Read only by the overflow assert (unused under NDEBUG).
    [[maybe_unused]] const std::int64_t t =
        top_.load(std::memory_order_acquire);
    assert(b - t <= static_cast<std::int64_t>(mask_) &&
           "WorkStealingDeque overflow: size the deque to the task count");
    buffer_[static_cast<std::size_t>(b) & mask_].store(
        task, std::memory_order_relaxed);
    // Publish the slot before the new bottom becomes visible to thieves.
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner: pop the most recently pushed task.  kEmpty when drained.
  std::uint32_t pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t > b) {  // already empty: restore bottom
      bottom_.store(b + 1, std::memory_order_relaxed);
      return kEmpty;
    }
    std::uint32_t task =
        buffer_[static_cast<std::size_t>(b) & mask_].load(
            std::memory_order_relaxed);
    if (t != b) return task;  // more than one element: no race possible
    // Last element: race the thieves for it with the same CAS they use.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      task = kEmpty;  // a thief got it
    }
    bottom_.store(b + 1, std::memory_order_relaxed);
    return task;
  }

  /// Thief: steal the oldest task.  kEmpty when nothing was stolen
  /// (empty deque or a lost race — the caller just tries another victim).
  std::uint32_t steal() {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return kEmpty;
    const std::uint32_t task =
        buffer_[static_cast<std::size_t>(t) & mask_].load(
            std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return kEmpty;  // lost to the owner or another thief
    }
    return task;
  }

  /// Racy size estimate (diagnostics only).
  [[nodiscard]] std::size_t size_estimate() const {
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

 private:
  std::unique_ptr<std::atomic<std::uint32_t>[]> buffer_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
};

}  // namespace idea::runtime
