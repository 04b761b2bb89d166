// Operation counters for validating the paper's access-cost claims.
//
// Theorem 2(3): if the filter does not fail, a query touches a single cache
// line with probability >= 1 - 1/sqrt(2*pi*k), and at most a 1.1/sqrt(2*pi*k)
// fraction of insertions access the spare.  The prefix filter counts spare
// traffic so benches and tests can verify those bounds empirically.  Insert
// counters are plain increments on the (exclusive) insert path; query
// counters are relaxed atomics that a batch adds to once (QueryCounters), so
// probes stay const and may run concurrently under a shared lock.
#ifndef PREFIXFILTER_SRC_CORE_PREFIX_FILTER_STATS_H_
#define PREFIXFILTER_SRC_CORE_PREFIX_FILTER_STATS_H_

#include <atomic>
#include <cstdint>

namespace prefixfilter {

struct PrefixFilterStats {
  uint64_t inserts = 0;          // total insertions
  uint64_t spare_inserts = 0;    // insertions that forwarded a fingerprint
  uint64_t evictions = 0;        // forwarded fingerprint was a resident max
  uint64_t queries = 0;          // total queries
  uint64_t spare_queries = 0;    // queries forwarded to the spare

  double SpareInsertFraction() const {
    return inserts == 0 ? 0.0
                        : static_cast<double>(spare_inserts) /
                              static_cast<double>(inserts);
  }
  double SpareQueryFraction() const {
    return queries == 0 ? 0.0
                        : static_cast<double>(spare_queries) /
                              static_cast<double>(queries);
  }
};

// The query half of PrefixFilterStats inside a filter whose const probes may
// run on several threads at once.  Add() is const and relaxed: the counts are
// exact once the probing threads are joined, and cost one RMW per batch, not
// one per key.  On a cache line of its own, so the adds never invalidate the
// line holding the filter's read-mostly geometry.  Copies are snapshots (the
// owning filter stays copyable and movable).
class alignas(64) QueryCounters {
 public:
  QueryCounters() = default;
  QueryCounters(const QueryCounters& other) { *this = other; }
  QueryCounters& operator=(const QueryCounters& other) {
    queries_.store(other.queries(), std::memory_order_relaxed);
    spare_queries_.store(other.spare_queries(), std::memory_order_relaxed);
    return *this;
  }

  // Zero adds are skipped: the spare count almost always is zero.
  void Add(uint64_t queries, uint64_t spare_queries) const {
    if (queries != 0) queries_.fetch_add(queries, std::memory_order_relaxed);
    if (spare_queries != 0) {
      spare_queries_.fetch_add(spare_queries, std::memory_order_relaxed);
    }
  }
  void Reset() {
    queries_.store(0, std::memory_order_relaxed);
    spare_queries_.store(0, std::memory_order_relaxed);
  }

  uint64_t queries() const { return queries_.load(std::memory_order_relaxed); }
  uint64_t spare_queries() const {
    return spare_queries_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<uint64_t> queries_{0};
  mutable std::atomic<uint64_t> spare_queries_{0};
};

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_CORE_PREFIX_FILTER_STATS_H_
