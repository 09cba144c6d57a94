// ifsyn/obs/memo_cache.hpp
//
// The one compute-once cache behind every shared store: the explorer's
// per-group estimates (explore::EstimationCache), compiled bytecode
// (sim::bytecode::ProgramCache) and parsed specs (serve::SpecInterner).
//
// Each key is computed exactly once: the first thread to miss installs a
// shared future and computes the value outside the lock; concurrent
// requesters for the same key block on that future instead of duplicating
// the work. Because "who computes" never changes *what* is computed, and
// every live key misses exactly once, a private cache's hit/miss counts
// are deterministic across thread counts.
//
// `capacity` > 0 bounds the entry count: the least recently used entry is
// evicted (never the key just inserted) and counted on the eviction
// counter. Evicting an entry whose future is still being computed is
// safe: waiters hold shared_future copies, and a later request for the
// evicted key simply recomputes. Capacity 0 means unbounded, with no LRU
// upkeep at all.
//
// A compute that throws wakes every waiter with the exception and drops
// its entry, so a later attempt re-runs compute instead of rethrowing a
// stale error. A failure the caller wants remembered must be returned as
// a value instead (the spec interner caches parse errors that way).
//
// Hit/miss/eviction accounting lands on caller-supplied obs counters
// (registry-owned, must outlive the cache); null means a private counter
// nobody else sees. Lives in obs because obs owns Counter and every user
// already links it.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"

namespace ifsyn::obs {

template <typename K, typename V, typename Hash = std::hash<K>>
class MemoCache {
 public:
  explicit MemoCache(std::size_t capacity = 0, Counter* hits = nullptr,
                     Counter* misses = nullptr, Counter* evictions = nullptr)
      : capacity_(capacity),
        hits_(hits ? hits : &own_hits_),
        misses_(misses ? misses : &own_misses_),
        evictions_(evictions ? evictions : &own_evictions_) {}

  MemoCache(const MemoCache&) = delete;
  MemoCache& operator=(const MemoCache&) = delete;

  /// Returns the cached value for `key`, computing it via `compute` (a
  /// callable returning V, pure with respect to the key) on the first
  /// request. `was_hit` (optional) reports whether this lookup was served
  /// from memory, e.g. to emit a trace event at the call site.
  template <typename Compute>
  V get_or_compute(const K& key, Compute&& compute, bool* was_hit = nullptr) {
    std::promise<V> promise;
    std::shared_future<V> future;
    bool owner = false;
    std::uint64_t my_gen = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = map_.find(key);
      if (it != map_.end()) {
        hits_->add(1);
        future = it->second.future;
        if (capacity_ > 0) lru_.splice(lru_.begin(), lru_, it->second.lru);
      } else {
        misses_->add(1);
        owner = true;
        future = promise.get_future().share();
        Entry entry{future, {}, my_gen = ++gen_};
        if (capacity_ > 0) {
          lru_.push_front(key);
          entry.lru = lru_.begin();
        }
        map_.emplace(key, std::move(entry));
        while (capacity_ > 0 && map_.size() > capacity_ && lru_.size() > 1) {
          map_.erase(lru_.back());
          lru_.pop_back();
          evictions_->add(1);
        }
      }
    }
    if (was_hit) *was_hit = !owner;
    if (owner) {
      // Compute outside the lock so other keys proceed in parallel.
      try {
        promise.set_value(std::forward<Compute>(compute)());
      } catch (...) {
        promise.set_exception(std::current_exception());
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        // The entry may already be gone (evicted) or belong to a retry
        // that replaced it; only erase the one this call installed.
        if (it != map_.end() && it->second.gen == my_gen) {
          if (capacity_ > 0) lru_.erase(it->second.lru);
          map_.erase(it);
        }
      }
    }
    return future.get();  // rethrows a failed compute, for the owner too
  }

  /// Lookups served from memory.
  std::uint64_t hits() const { return hits_->value(); }
  /// Lookups that computed: one per distinct live key.
  std::uint64_t misses() const { return misses_->value(); }
  /// Entries dropped by the capacity bound (0 when unbounded).
  std::uint64_t evictions() const { return evictions_->value(); }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::shared_future<V> future;
    typename std::list<K>::iterator lru;  ///< position in lru_ (bounded only)
    std::uint64_t gen = 0;  ///< installation id, for the failure path
  };

  mutable std::mutex mu_;
  std::unordered_map<K, Entry, Hash> map_;
  std::list<K> lru_;  ///< most recently used first; bounded caches only
  const std::size_t capacity_;
  std::uint64_t gen_ = 0;  ///< guarded by mu_
  Counter own_hits_;
  Counter own_misses_;
  Counter own_evictions_;
  Counter* hits_;       // never null
  Counter* misses_;     // never null
  Counter* evictions_;  // never null
};

}  // namespace ifsyn::obs
