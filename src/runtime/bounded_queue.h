#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace aptserve::runtime {

/// Bounded multi-producer single/multi-consumer blocking queue — the fabric
/// between the async serving controller and its per-instance workers.
/// Push blocks when the queue is at capacity (backpressure toward the
/// routing controller), Pop blocks until an item or Close() arrives. Close()
/// wakes everyone: producers fail fast, consumers drain what is left and
/// then see std::nullopt. All operations are linearizable under one mutex —
/// this queue carries requests (milliseconds apart), not tokens, so a lock
/// beats a lock-free ring on simplicity and TSan-provability.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity ? capacity : 1) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while full. Returns false (item dropped) once closed.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    if (items_.size() > high_water_) high_water_ = items_.size();
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push: false when full or closed.
  bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      if (items_.size() > high_water_) high_water_ = items_.size();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    return PopLocked(&lock);
  }

  /// Non-blocking pop.
  std::optional<T> TryPop() {
    std::unique_lock<std::mutex> lock(mu_);
    if (items_.empty()) return std::nullopt;
    return PopLocked(&lock);
  }

  /// Pop with a deadline: std::nullopt on timeout or closed-and-drained.
  std::optional<T> PopFor(std::chrono::nanoseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait_for(lock, timeout,
                        [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    return PopLocked(&lock);
  }

  /// Removes every queued item at once (closed or not). Cheaper than a
  /// TryPop loop for a worker that injects a whole arrival burst mid-step.
  std::vector<T> DrainNow() {
    std::vector<T> out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      out.reserve(items_.size());
      while (!items_.empty()) {
        out.push_back(std::move(items_.front()));
        items_.pop_front();
      }
    }
    not_full_.notify_all();
    return out;
  }

  /// Marks the queue closed and wakes all waiters. Items already queued
  /// remain poppable; further pushes fail. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  /// Deepest the queue has ever been — the backpressure witness that a
  /// bounded queue actually bounded something.
  size_t high_water() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }

  size_t capacity() const { return capacity_; }

 private:
  std::optional<T> PopLocked(std::unique_lock<std::mutex>* lock) {
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    lock->unlock();
    not_full_.notify_one();
    return item;
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
  size_t high_water_ = 0;
};

}  // namespace aptserve::runtime
