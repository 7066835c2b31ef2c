// Bounded blocking queue: the hub inbox, renderer control queues and the
// codec tile pool. A bound models a buffer that blocks its producer (§6:
// "the display daemon uses an image buffer to cope with faster rendering
// rates").
#pragma once

#include <chrono>
#include <deque>
#include <optional>

#include "util/mutex.hpp"

namespace tvviz::net {

/// Result of a non-blocking pop: distinguishes "nothing right now" from
/// "closed and fully drained" so pollers know when to stop.
enum class TryPopResult {
  kItem,    ///< An item was dequeued.
  kEmpty,   ///< Momentarily empty; more items may still arrive.
  kClosed,  ///< Closed and drained; no item will ever arrive again.
};

template <typename T>
class BlockingQueue {
 public:
  explicit BlockingQueue(std::size_t capacity = SIZE_MAX) : capacity_(capacity) {}

  /// Block until space is available, then enqueue. Returns false if the
  /// queue was closed.
  bool push(T item) TVVIZ_EXCLUDES(mutex_) {
    util::LockGuard lock(mutex_);
    while (!closed_ && queue_.size() >= capacity_) not_full_.wait(mutex_);
    if (closed_) return false;
    queue_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Block until an item is available. std::nullopt once closed and drained.
  std::optional<T> pop() TVVIZ_EXCLUDES(mutex_) {
    util::LockGuard lock(mutex_);
    while (!closed_ && queue_.empty()) not_empty_.wait(mutex_);
    if (queue_.empty()) return std::nullopt;
    T item = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return item;
  }

  /// Bounded-wait pop: std::nullopt if nothing arrived within `timeout` (or
  /// the queue is closed and drained — check closed() to tell the cases
  /// apart). Lets periodic housekeeping (liveness reaping) share the
  /// consumer thread without a busy poll.
  std::optional<T> pop_for(std::chrono::milliseconds timeout)
      TVVIZ_EXCLUDES(mutex_) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    util::LockGuard lock(mutex_);
    while (!closed_ && queue_.empty()) {
      if (not_empty_.wait_until(mutex_, deadline) == std::cv_status::timeout)
        break;
    }
    if (queue_.empty()) return std::nullopt;
    T item = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return item;
  }

  /// Non-blocking pop. kItem fills `out`; kEmpty means retry later; kClosed
  /// means the queue was closed and every item has been drained.
  TryPopResult try_pop(T& out) TVVIZ_EXCLUDES(mutex_) {
    util::LockGuard lock(mutex_);
    if (queue_.empty())
      return closed_ ? TryPopResult::kClosed : TryPopResult::kEmpty;
    out = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return TryPopResult::kItem;
  }

  /// Non-blocking pop, optional form. Cannot distinguish "empty" from
  /// "closed and drained" — pollers that must terminate on close should use
  /// the TryPopResult overload.
  std::optional<T> try_pop() TVVIZ_EXCLUDES(mutex_) {
    util::LockGuard lock(mutex_);
    if (queue_.empty()) return std::nullopt;
    T item = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return item;
  }

  /// Close: pushes fail, pops drain then return nullopt.
  void close() TVVIZ_EXCLUDES(mutex_) {
    {
      util::LockGuard lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  std::size_t size() const TVVIZ_EXCLUDES(mutex_) {
    util::LockGuard lock(mutex_);
    return queue_.size();
  }

  bool closed() const TVVIZ_EXCLUDES(mutex_) {
    util::LockGuard lock(mutex_);
    return closed_;
  }

 private:
  mutable util::Mutex mutex_;
  util::CondVar not_empty_, not_full_;
  std::deque<T> queue_ TVVIZ_GUARDED_BY(mutex_);
  std::size_t capacity_;
  bool closed_ TVVIZ_GUARDED_BY(mutex_) = false;
};

}  // namespace tvviz::net
