// Shard-grouping front-end for cross-shard batch operations.
//
// A mixed query stream hits shards in random order; querying one key at a
// time would take and release a shard lock per key and forfeit the
// prefetching batch path inside each shard.  The router restores both
// properties: it counting-sorts a batch by destination shard (two linear
// passes, no comparisons), drains each shard group with ONE lock acquisition
// through AnyFilter::ContainsBatch — for prefix-filter backends that is the
// software-prefetching loop that keeps the paper's one-cache-miss-per-query
// property across a whole group — and scatters results back into the
// caller's order.  The groups are run through a ShardGroupRunner: in order
// on the calling thread for standalone filters, fanned out over the worker
// pool by FilterService for large batches.  Either way there is one
// grouping pass and one group per touched shard.
//
// A router instance owns reusable scratch buffers and is therefore NOT
// thread-safe; give each worker thread its own (they are cheap and grow to
// the largest batch seen).  Routing through the same ShardedFilter from many
// routers concurrently is the intended use.  A concurrent runner's helper
// threads read the calling router's scratch, which stays put until the
// runner returns.
#ifndef PREFIXFILTER_SRC_SERVICE_BATCH_ROUTER_H_
#define PREFIXFILTER_SRC_SERVICE_BATCH_ROUTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/service/sharded_filter.h"

namespace prefixfilter {

class BatchRouter {
 public:
  // Groups keys[0..count) by filter.ShardOf, then hands the non-empty shard
  // groups to `runner`; running group g calls
  //   visit(shard, group_keys, group_count)
  // with group_keys contiguous in router scratch.  With a concurrent runner
  // `visit` runs on several threads at once, one call per group.
  template <typename Visitor>
  void RunGroups(const ShardedFilter& filter, const uint64_t* keys,
                 size_t count, ShardGroupRunner runner, Visitor&& visit) {
    const uint32_t num_shards = filter.num_shards();
    counts_.assign(num_shards, 0);
    shard_of_.resize(count);
    grouped_keys_.resize(count);
    for (size_t i = 0; i < count; ++i) {
      const uint32_t s = filter.ShardOf(keys[i]);
      shard_of_[i] = static_cast<uint16_t>(s);
      ++counts_[s];
    }
    offsets_.assign(num_shards + 1, 0);
    groups_.clear();
    for (uint32_t s = 0; s < num_shards; ++s) {
      offsets_[s + 1] = offsets_[s] + counts_[s];
      if (counts_[s] != 0) groups_.push_back(s);
    }
    fill_ = offsets_;
    for (size_t i = 0; i < count; ++i) {
      grouped_keys_[fill_[shard_of_[i]]++] = keys[i];
    }
    runner(groups_.size(), [&](size_t g) {
      const uint32_t s = groups_[g];
      visit(s, grouped_keys_.data() + offsets_[s], counts_[s]);
    });
  }

  // Batched membership over a sharded filter: out[i] answers keys[i].
  void Route(const ShardedFilter& filter, const uint64_t* keys, size_t count,
             uint8_t* out, ShardGroupRunner runner = kRunShardGroupsInOrder) {
    grouped_out_.resize(count);
    RunGroups(filter, keys, count, runner,
              [&](uint32_t shard, const uint64_t* group, size_t n) {
                const size_t base =
                    static_cast<size_t>(group - grouped_keys_.data());
                filter.QueryShard(shard, group, n,
                                  grouped_out_.data() + base);
              });
    // Replays the grouping pass to find each key's slot, which costs less
    // than storing every key's origin on the way in.
    fill_ = offsets_;
    for (size_t i = 0; i < count; ++i) {
      out[i] = grouped_out_[fill_[shard_of_[i]]++];
    }
  }

 private:
  static_assert(ShardedFilter::kMaxShards <= (1u << 16),
                "shard_of_ holds shard indices in 16 bits");
  std::vector<uint16_t> shard_of_;
  std::vector<size_t> counts_;
  std::vector<size_t> offsets_;
  std::vector<size_t> fill_;
  // Shards with a non-empty group, ascending: group g is shard groups_[g].
  std::vector<uint32_t> groups_;
  std::vector<uint64_t> grouped_keys_;
  std::vector<uint8_t> grouped_out_;
};

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_SERVICE_BATCH_ROUTER_H_
