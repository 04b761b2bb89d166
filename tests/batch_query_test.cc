// Tests for the prefetching batch-query API, and for the devirtualized
// AnyFilter batch path: one virtual dispatch per batch must produce answers
// identical to per-key virtual Contains() on every route a batch can take —
// the adapter's concrete loop, ShardedFilter's single- and multi-shard
// routing, and the FilterService front-cache leg.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/filter_factory.h"
#include "src/core/prefix_filter.h"
#include "src/core/spare.h"
#include "src/service/filter_service.h"
#include "src/service/sharded_filter.h"
#include "src/util/random.h"

namespace prefixfilter {
namespace {

TEST(BatchQuery, AgreesWithScalarQueries) {
  const uint64_t n = 200000;
  const auto keys = RandomKeys(n, 201);
  PrefixFilter<SpareTcTraits> pf(n);
  for (uint64_t k : keys) ASSERT_TRUE(pf.Insert(k));

  // Mixed stream: positives and negatives interleaved.
  std::vector<uint64_t> stream = RandomKeys(50000, 202);
  for (size_t i = 0; i < stream.size(); i += 2) stream[i] = keys[i % n];

  std::vector<uint8_t> batch(stream.size());
  pf.ContainsBatch(stream.data(), stream.size(), batch.data());
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(static_cast<bool>(batch[i]), pf.Contains(stream[i]))
        << "index " << i;
  }
}

TEST(BatchQuery, HandlesOddSizes) {
  const uint64_t n = 10000;
  const auto keys = RandomKeys(n, 203);
  PrefixFilter<SpareCf12Traits> pf(n);
  for (uint64_t k : keys) ASSERT_TRUE(pf.Insert(k));
  for (size_t count : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                       size_t{17}, size_t{33}}) {
    std::vector<uint64_t> stream(keys.begin(),
                                 keys.begin() + static_cast<long>(count));
    std::vector<uint8_t> out(count + 1, 0xcc);
    pf.ContainsBatch(stream.data(), count, out.data());
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(out[i], 1) << "count=" << count << " i=" << i;
    }
    EXPECT_EQ(out[count], 0xcc) << "wrote past the end";
  }
}

TEST(BatchQuery, NoFalseNegativesAtFullLoad) {
  const uint64_t n = 1 << 18;
  const auto keys = RandomKeys(n, 204);
  PrefixFilter<SpareBbfTraits> pf(n);
  for (uint64_t k : keys) ASSERT_TRUE(pf.Insert(k));
  std::vector<uint8_t> out(keys.size());
  pf.ContainsBatch(keys.data(), keys.size(), out.data());
  for (size_t i = 0; i < keys.size(); ++i) ASSERT_TRUE(out[i]);
}

// --- Devirtualized AnyFilter batch path ------------------------------------
//
// FilterAdapter::ContainsBatch dispatches once per batch and then runs a
// concrete loop (the filter's own ContainsBatch when it has one, inlined
// scalar Contains otherwise).  These tests pin the observable contract the
// optimization must preserve: batch answers identical to per-key virtual
// Contains() for every key, on every routing layer.

// Builds a filter via the factory, inserts `n` keys, and checks batch ==
// per-key parity on a mixed positive/negative stream for several batch
// sizes, including sizes that straddle the 16-key prefetch chunk.
void CheckAnyFilterBatchParity(const std::string& name, uint64_t n,
                               uint64_t seed) {
  auto filter = MakeFilter(name, n, seed);
  ASSERT_NE(filter, nullptr) << name;
  const auto keys = RandomKeys(n, seed + 1);
  for (uint64_t k : keys) filter->Insert(k);

  std::vector<uint64_t> stream = RandomKeys(n, seed + 2);
  for (size_t i = 0; i < stream.size(); i += 2) stream[i] = keys[i % n];

  std::vector<bool> scalar(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    scalar[i] = filter->Contains(stream[i]);
  }
  for (size_t batch : {size_t{1}, size_t{7}, size_t{64}, stream.size()}) {
    std::vector<uint8_t> out(stream.size(), 0xaa);
    for (size_t base = 0; base < stream.size(); base += batch) {
      const size_t count = std::min(batch, stream.size() - base);
      filter->ContainsBatch(stream.data() + base, count, out.data() + base);
    }
    for (size_t i = 0; i < stream.size(); ++i) {
      ASSERT_EQ(static_cast<bool>(out[i]), scalar[i])
          << name << " batch=" << batch << " i=" << i;
    }
  }
}

TEST(AnyFilterBatch, ConcreteBatchBackendsMatchScalar) {
  // Backends with their own ContainsBatch: the adapter forwards to it.
  for (const char* name : {"FMB32", "FMB64", "BBF-Flex", "PF[TC]"}) {
    CheckAnyFilterBatchParity(name, 20000, 301);
  }
}

TEST(AnyFilterBatch, ScalarFallbackBackendsMatchScalar) {
  // Backends with no ContainsBatch of their own: the adapter's concrete
  // scalar loop (not per-key virtual dispatch) must still agree.
  for (const char* name : {"BF-12", "CF-8", "TC"}) {
    CheckAnyFilterBatchParity(name, 20000, 307);
  }
}

// Overfills a tiny filter (9 prefix-filter bins, so every 16-key chunk has
// keys sharing a bin, and the spare fails partway through the stream) and
// feeds the same keys to InsertBatch in slices of `batch`: the failure count
// and the snapshot image must equal a scalar Insert loop's byte for byte.
void CheckInsertBatchParity(const char* name, size_t batch) {
  SCOPED_TRACE(std::string(name) + " batch=" + std::to_string(batch));
  const uint64_t n = 200;
  auto batched = MakeFilter(name, n, 401);
  auto scalar = MakeFilter(name, n, 401);
  ASSERT_NE(batched, nullptr);
  ASSERT_NE(scalar, nullptr);
  const auto keys = RandomKeys(3 * n, 402);

  uint64_t scalar_failures = 0;
  for (uint64_t k : keys) scalar_failures += !scalar->Insert(k);
  uint64_t batch_failures = 0;
  for (size_t base = 0; base < keys.size(); base += batch) {
    batch_failures += batched->InsertBatch(
        keys.data() + base, std::min(batch, keys.size() - base));
  }
  EXPECT_EQ(batch_failures, scalar_failures);
  // A Bloom spare never rejects a key; every other backend here must.
  if (std::string(name) != "PF[BBF-Flex]") {
    EXPECT_GT(batch_failures, 0u) << "overfill did not exercise failures";
  }
  std::vector<uint8_t> batch_image, scalar_image;
  ASSERT_TRUE(batched->SerializeTo(&batch_image));
  ASSERT_TRUE(scalar->SerializeTo(&scalar_image));
  EXPECT_EQ(batch_image, scalar_image);
  for (uint64_t k : keys) {
    EXPECT_EQ(batched->Contains(k), scalar->Contains(k));
  }
}

TEST(AnyFilterBatch, InsertBatchCountsFailuresLikeScalarLoop) {
  // The PF names take the prefetching PrefixFilter::InsertBatch; CF-8 the
  // adapter's scalar fallback.  Sizes 1/7/16/17/4096 cover chunk tails.
  for (const char* name : {"PF[TC]", "PF[CF12-Flex]", "PF[BBF-Flex]", "CF-8"}) {
    for (size_t batch : {size_t{1}, size_t{7}, size_t{16}, size_t{17},
                         size_t{4096}}) {
      CheckInsertBatchParity(name, batch);
    }
  }
}

// ShardedFilter group-probes per shard and then scatters answers back to
// submission order; a single-shard instance exercises the degenerate
// route-everything-to-one-group path.
void CheckShardedBatchParity(uint32_t shards) {
  const uint64_t n = 50000;
  ShardedFilterOptions options;
  options.num_shards = shards;
  options.backend = "FMB32";
  options.seed = 501;
  auto filter = ShardedFilter::Make(n, options);
  ASSERT_NE(filter, nullptr);

  const auto keys = RandomKeys(n, 502);
  EXPECT_EQ(filter->InsertBatch(keys.data(), keys.size()), 0u);

  std::vector<uint64_t> stream = RandomKeys(30000, 503);
  for (size_t i = 0; i < stream.size(); i += 2) stream[i] = keys[i % n];
  std::vector<uint8_t> out(stream.size(), 0xbb);
  filter->ContainsBatch(stream.data(), stream.size(), out.data());
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(static_cast<bool>(out[i]), filter->Contains(stream[i]))
        << "shards=" << shards << " i=" << i;
  }
}

TEST(AnyFilterBatch, ShardedSingleShardMatchesScalar) {
  CheckShardedBatchParity(1);
}

TEST(AnyFilterBatch, ShardedMultiShardMatchesScalar) {
  CheckShardedBatchParity(8);
}

TEST(AnyFilterBatch, FrontCacheLegPreservesBatchAnswers) {
  // With the front cache enabled, a duplicate-heavy batch stream must return
  // exactly the same answers as the cache-less per-key path — the cache may
  // only short-circuit, never change, an answer.
  const uint64_t n = 50000;
  ShardedFilterOptions sharded;
  sharded.num_shards = 8;
  sharded.seed = 601;
  auto inner = ShardedFilter::Make(n, sharded);
  ASSERT_NE(inner, nullptr);
  std::shared_ptr<ShardedFilter> shared(inner.release());

  FilterServiceOptions options;
  options.num_threads = 0;  // synchronous: deterministic stats
  options.front_cache_slots = 1024;
  FilterService service(std::move(shared), options);

  const auto keys = RandomKeys(n, 602);
  EXPECT_EQ(service.InsertBatchSync(keys.data(), keys.size()), 0u);

  // Zipf-ish duplication: a small hot set repeated through the stream.
  std::vector<uint64_t> stream = RandomKeys(40000, 603);
  for (size_t i = 0; i < stream.size(); i += 2) {
    stream[i] = keys[i % 64];  // hot positives, heavily repeated
  }
  // Two passes: the first seeds the cache with positive answers (stores
  // happen after the batch's own hit/miss split, so duplicates within a
  // single batch never hit), the second must serve the hot set from it.
  std::vector<uint8_t> cached(stream.size(), 0xcc);
  for (int pass = 0; pass < 2; ++pass) {
    std::fill(cached.begin(), cached.end(), 0xcc);
    service.QueryBatchSync(stream.data(), stream.size(), cached.data());
    for (size_t i = 0; i < stream.size(); ++i) {
      ASSERT_EQ(static_cast<bool>(cached[i]),
                service.filter().Contains(stream[i]))
          << "pass=" << pass << " i=" << i;
    }
  }
  const FilterServiceStats stats = service.stats();
  EXPECT_GT(stats.front_cache_hits, 0u) << "stream never hit the cache";
}

}  // namespace
}  // namespace prefixfilter
