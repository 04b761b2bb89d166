// Hash-partitioned sharded filter: the scale-out building block of the
// filter service (ROADMAP: serve heavy multi-user traffic).
//
// The key universe is partitioned over N = 2^b shards by an independent
// mixer of the key; each shard is a complete, independently-seeded filter
// behind the AnyFilter interface (by default a prefix filter, whose
// single-cache-line queries the paper §5 makes the natural shard backend).
// Each shard is guarded by its own line-padded reader-writer lock: queries
// take it shared, so readers never block each other (a probe writes nothing
// but relaxed counters), and inserts take it exclusive, so writers contend
// only when they hit the same shard — the same per-partition-locking
// argument the paper makes for per-bin locking in §4.4, lifted one level up.
//
// Sizing: a shard receives Binomial(n, 1/N) of the n keys, so each shard is
// provisioned for n/N plus balls-into-bins headroom (4 standard deviations,
// the same rule the concurrent prefix filter's sharded spare uses).  Each
// shard therefore runs at essentially the load factor a single filter of
// capacity n would, which keeps the global false positive rate within a few
// percent of the unsharded equivalent (verified in tests/sharded_filter_test).
//
// Snapshots use the AnyFilter envelope of src/core/filter_factory.h: the
// sharded payload is the shard geometry followed by each shard's own
// length-prefixed envelope, so a snapshot round-trips through
// DeserializeFilter() like any other filter.
#ifndef PREFIXFILTER_SRC_SERVICE_SHARDED_FILTER_H_
#define PREFIXFILTER_SRC_SERVICE_SHARDED_FILTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/filter_factory.h"
#include "src/obs/metrics.h"
#include "src/util/function_ref.h"
#include "src/util/hash.h"
#include "src/util/thread_annotations.h"

namespace prefixfilter {

struct ShardedFilterOptions {
  // Rounded up to a power of two.
  uint32_t num_shards = 16;
  // Factory name of the per-shard filter.  Sharded backends are rejected
  // (nesting would compound sizing headroom and allow unbounded recursion in
  // Deserialize).
  std::string backend = "PF[TC]";
  uint64_t seed = 0x5ead5u;
  // Balls-into-bins slack: per-shard capacity is
  //   n/N + headroom_stddevs * sqrt(n * (1/N) * (1 - 1/N)) + 16.
  double headroom_stddevs = 4.0;
};

// Per-shard operation counters (prefix_filter_stats.h style), snapshotted by
// value.  inserts/insert_failures are kept under the exclusive shard lock;
// queries/hits come from relaxed atomic counters that readers, holding the
// lock only shared, add to once per shard group.  The probe counts are exact
// once the probing threads are done.
struct ShardStats {
  uint64_t inserts = 0;
  uint64_t insert_failures = 0;
  uint64_t queries = 0;
  uint64_t hits = 0;
};

// Runs the shard groups of one routed batch: calls run_group(g) exactly once
// for every g in [0, num_groups) and returns only after every call has
// returned.  Groups touch disjoint shards and disjoint slices of the
// router's scratch, so a runner may run them concurrently, in any order and
// on any thread; each shard still sees its own keys in their original order.
using ShardGroupRunner = FunctionRef<void(
    size_t num_groups, FunctionRef<void(size_t group)> run_group)>;

// The runner of a standalone filter: every group in order on the calling
// thread.  FilterService passes one that fans large batches out over its
// worker pool instead.
inline constexpr auto kRunShardGroupsInOrder =
    [](size_t num_groups, FunctionRef<void(size_t group)> run_group) {
      for (size_t g = 0; g < num_groups; ++g) run_group(g);
    };

class ShardedFilter final : public AnyFilter {
 public:
  static constexpr uint32_t kMaxShards = 1 << 12;

  // Builds an empty sharded filter for up to `capacity` keys.  Returns
  // nullptr iff options.backend is not an accepted non-sharded name.
  static std::unique_ptr<ShardedFilter> Make(uint64_t capacity,
                                             ShardedFilterOptions options);

  // Parses "SHARD<n>[<inner>]" into num_shards/backend.  Returns false (and
  // leaves *options untouched) for anything else, including sharded inners.
  static bool ParseName(const std::string& name,
                        ShardedFilterOptions* options);

  // Restores from the payload of an AnyFilter envelope whose name parsed to
  // `options` (see DeserializeFilter in src/core/filter_factory.h).
  static std::unique_ptr<AnyFilter> DeserializePayload(
      const uint8_t* payload, size_t len, const ShardedFilterOptions& options);

  // --- AnyFilter ------------------------------------------------------------

  bool Insert(uint64_t key) override;
  bool Contains(uint64_t key) const override;
  // Cross-shard batches route through BatchRouter so each shard group drains
  // through the backend's prefetching batch path (one lock + one pass per
  // shard instead of one lock per key).  Fast paths skip the grouping
  // machinery entirely for 1-key batches (inline route-on-query) and for
  // single-shard filters (everything is one group by construction).
  void ContainsBatch(const uint64_t* keys, size_t count,
                     uint8_t* out) const override;
  bool SerializeTo(std::vector<uint8_t>* out) const override;
  size_t SpaceBytes() const override;
  uint64_t Capacity() const override { return capacity_; }
  std::string Name() const override;

  // --- sharding surface (used by BatchRouter and FilterService) -------------

  uint32_t num_shards() const { return num_shards_; }
  uint32_t ShardOf(uint64_t key) const {
    // Independent of every backend's own hashing: the backends consume
    // Dietzfelbinger streams of the raw key, the shard selector a Mix64 of a
    // salted key.
    return shard_bits_ == 0
               ? 0
               : static_cast<uint32_t>(Mix64(key ^ shard_salt_) >>
                                       (64 - shard_bits_));
  }

  // Batch operations against one shard; each takes the shard lock once
  // (shared to query, exclusive to insert).  Keys must all map to `shard`
  // (BatchRouter guarantees this).
  void QueryShard(uint32_t shard, const uint64_t* keys, size_t count,
                  uint8_t* out) const;
  // Returns the number of failed inserts.
  uint64_t InsertShard(uint32_t shard, const uint64_t* keys, size_t count);

  // Grouped insert (counting-sort by shard, then one lock + one concrete
  // batch call per shard).  Returns the number of failed inserts, per the
  // AnyFilter contract.
  uint64_t InsertBatch(const uint64_t* keys, size_t count) override;

  // The batch operations above with the shard groups run through `runner`
  // (the overrides pass kRunShardGroupsInOrder).  Same fast paths, same
  // answers, same per-shard key order whatever the runner.
  void ContainsBatch(const uint64_t* keys, size_t count, uint8_t* out,
                     ShardGroupRunner runner) const;
  uint64_t InsertBatch(const uint64_t* keys, size_t count,
                       ShardGroupRunner runner);

  uint64_t per_shard_capacity() const { return per_shard_capacity_; }
  const std::string& backend() const { return options_.backend; }
  ShardStats shard_stats(uint32_t shard) const;
  // Aggregate over all shards.
  ShardStats TotalStats() const;

  // Attaches observability to `registry` (FilterService calls this when it
  // wraps the filter): per-shard-group batch sizes feed the
  // shard.group.keys histogram on the QueryShard/InsertShard paths, and a
  // scrape-time collector exposes per-shard occupancy/probe/hit counters
  // derived from the ShardStats this filter already maintains.  Deliberately
  // NOT called by the bare factory path, so standalone filters (bench_all's
  // scalar timing loops) carry zero instrumentation.  Detached automatically
  // in the destructor.
  void EnableMetrics(obs::MetricsRegistry* registry);

  ~ShardedFilter() override;

 private:
  ShardedFilter(uint64_t capacity, ShardedFilterOptions options);

  struct Shard {
    // Counts one shard group's probes: at most two relaxed adds, and one for
    // a scalar probe (a hit or a miss, never both).
    void CountProbes(uint64_t queries, uint64_t hit_count) {
      if (hit_count != 0) hits.fetch_add(hit_count, std::memory_order_relaxed);
      if (queries != hit_count) {
        misses.fetch_add(queries - hit_count, std::memory_order_relaxed);
      }
    }

    alignas(64) SharedMutex mutex;
    // The shard lock guards the filter contents (shared to probe, exclusive
    // to insert) and the insert counters; the filter pointer itself is only
    // written during construction/restore, but taking the lock there too
    // keeps the proof uniform (and free — nothing contends at construction
    // time).
    std::unique_ptr<AnyFilter> filter PF_GUARDED_BY(mutex);
    uint64_t inserts PF_GUARDED_BY(mutex) = 0;
    uint64_t insert_failures PF_GUARDED_BY(mutex) = 0;
    // Probe counters, added to under the shared lock or none.  Hits and
    // misses rather than queries and hits, so a scalar probe pays one add;
    // ShardStats::queries is their (modular) sum, which round-trips any
    // snapshot's queries field exactly.
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
  };

  // One shard's counters; the caller holds its lock (shared suffices).
  static ShardStats StatsLocked(const Shard& shard)
      PF_REQUIRES_SHARED(shard.mutex);

  uint64_t capacity_;
  ShardedFilterOptions options_;
  uint32_t num_shards_;
  uint32_t shard_bits_;
  uint64_t shard_salt_;
  uint64_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Observability (null/0 until EnableMetrics; see its comment).
  obs::MetricsRegistry* registry_ = nullptr;
  obs::LatencyHistogram* group_keys_hist_ = nullptr;
  uint64_t collector_id_ = 0;
};

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_SERVICE_SHARDED_FILTER_H_
