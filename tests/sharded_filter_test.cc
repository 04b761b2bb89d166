// Tests for the hash-partitioned sharded filter (src/service/): contract,
// name grammar, batch routing, FPR parity with the unsharded equivalent, and
// snapshot round-trips.
#include "src/service/sharded_filter.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/service/batch_router.h"
#include "src/util/random.h"
#include "src/util/thread_annotations.h"

namespace prefixfilter {
namespace {

TEST(ShardedFilterName, GrammarAcceptsAndRejects) {
  ShardedFilterOptions options;
  ASSERT_TRUE(ShardedFilter::ParseName("SHARD16[PF[TC]]", &options));
  EXPECT_EQ(options.num_shards, 16u);
  EXPECT_EQ(options.backend, "PF[TC]");
  ASSERT_TRUE(ShardedFilter::ParseName("SHARD4[CF-12-Flex]", &options));
  EXPECT_EQ(options.num_shards, 4u);
  EXPECT_EQ(options.backend, "CF-12-Flex");

  for (const char* bad :
       {"SHARD[PF[TC]]", "SHARD0[TC]", "SHARD16", "SHARD16[]",
        "SHARD16[TC", "SHARD8[SHARD4[TC]]", "SHARDx[TC]", "PF[TC]",
        // Non-power-of-two counts are rejected, not rounded: the name is a
        // registry key and must round-trip through Name() unchanged.
        "SHARD3[TC]", "SHARD10[PF[TC]]"}) {
    EXPECT_FALSE(ShardedFilter::ParseName(bad, &options)) << bad;
  }
}

TEST(ShardedFilter, FactoryConstructsAndRoundTripsName) {
  auto f = MakeFilter("SHARD16[PF[TC]]", 100000, 3);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->Name(), "SHARD16[PF[TC]]");
  EXPECT_EQ(f->Capacity(), 100000u);
  // Unknown inner names, nested sharding, and non-power-of-two counts fail
  // cleanly (the latter would break the name round-trip if rounded).
  EXPECT_EQ(MakeFilter("SHARD16[NOPE]", 1000), nullptr);
  EXPECT_EQ(MakeFilter("SHARD8[SHARD4[TC]]", 1000), nullptr);
  EXPECT_EQ(MakeFilter("SHARD10[TC]", 10000, 3), nullptr);
}

TEST(ShardedFilter, NoFalseNegativesAndShardsBalance) {
  const uint64_t n = 200000;
  ShardedFilterOptions options;
  options.num_shards = 16;
  options.seed = 171;
  auto filter = ShardedFilter::Make(n, options);
  ASSERT_NE(filter, nullptr);
  const auto keys = RandomKeys(n, 172);
  for (uint64_t k : keys) ASSERT_TRUE(filter->Insert(k));
  for (uint64_t k : keys) ASSERT_TRUE(filter->Contains(k));

  // Balls-into-bins balance: every shard within the provisioned headroom,
  // and no shard starved (the selector actually spreads keys).
  const ShardStats total = filter->TotalStats();
  EXPECT_EQ(total.inserts, n);
  EXPECT_EQ(total.insert_failures, 0u);
  const double mean = static_cast<double>(n) / filter->num_shards();
  for (uint32_t s = 0; s < filter->num_shards(); ++s) {
    const ShardStats stats = filter->shard_stats(s);
    EXPECT_LE(stats.inserts, filter->per_shard_capacity()) << "shard " << s;
    EXPECT_GT(stats.inserts, static_cast<uint64_t>(0.8 * mean)) << "shard " << s;
  }
}

TEST(ShardedFilter, BatchAgreesWithScalarAcrossShards) {
  const uint64_t n = 100000;
  auto filter = MakeFilter("SHARD8[PF[CF12-Flex]]", n, 173);
  ASSERT_NE(filter, nullptr);
  const auto keys = RandomKeys(n, 174);
  for (uint64_t k : keys) ASSERT_TRUE(filter->Insert(k));

  std::vector<uint64_t> stream = RandomKeys(60000, 175);
  for (size_t i = 0; i < stream.size(); i += 2) stream[i] = keys[i % n];
  std::vector<uint8_t> batch(stream.size());
  filter->ContainsBatch(stream.data(), stream.size(), batch.data());
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(batch[i] != 0, filter->Contains(stream[i])) << "index " << i;
  }

  // Odd sizes and the empty batch do not write out of bounds.
  for (size_t count : {size_t{0}, size_t{1}, size_t{17}, size_t{33}}) {
    std::vector<uint8_t> out(count + 1, 0xcc);
    filter->ContainsBatch(keys.data(), count, out.data());
    for (size_t i = 0; i < count; ++i) EXPECT_EQ(out[i], 1) << i;
    EXPECT_EQ(out[count], 0xcc);
  }
}

// Acceptance criterion: the global false positive rate of the sharded filter
// stays within 10% of the equivalent single prefix filter at equal load.
TEST(ShardedFilter, FprWithinTenPercentOfUnshardedEquivalent) {
  const uint64_t n = 200000;
  const auto keys = RandomKeys(n, 176);
  const auto probes = RandomKeys(2000000, 177);

  auto single = MakeFilter("PF[TC]", n, 178);
  auto sharded = MakeFilter("SHARD16[PF[TC]]", n, 178);
  ASSERT_NE(single, nullptr);
  ASSERT_NE(sharded, nullptr);
  for (uint64_t k : keys) {
    ASSERT_TRUE(single->Insert(k));
    ASSERT_TRUE(sharded->Insert(k));
  }

  uint64_t fp_single = 0, fp_sharded = 0;
  for (uint64_t k : probes) fp_single += single->Contains(k);
  std::vector<uint8_t> out(probes.size());
  sharded->ContainsBatch(probes.data(), probes.size(), out.data());
  for (uint8_t b : out) fp_sharded += b;

  const double rate_single =
      static_cast<double>(fp_single) / static_cast<double>(probes.size());
  const double rate_sharded =
      static_cast<double>(fp_sharded) / static_cast<double>(probes.size());
  EXPECT_GT(rate_single, 0.0);
  EXPECT_LT(std::abs(rate_sharded - rate_single), 0.10 * rate_single)
      << "single " << rate_single << " sharded " << rate_sharded;
}

TEST(ShardedFilter, ConcurrentMixedTrafficIsSafe) {
  const uint64_t n = 120000;
  ShardedFilterOptions options;
  options.num_shards = 8;
  options.seed = 179;
  auto filter = ShardedFilter::Make(n, options);
  ASSERT_NE(filter, nullptr);
  const auto keys = RandomKeys(n, 180);
  const uint64_t half = n / 2;
  for (uint64_t i = 0; i < half; ++i) ASSERT_TRUE(filter->Insert(keys[i]));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_errors{0};
  std::thread reader([&]() {
    BatchRouter router;
    std::vector<uint64_t> batch(256);
    std::vector<uint8_t> out(batch.size());
    Xoshiro256 rng(181);
    while (!stop.load(std::memory_order_relaxed)) {
      for (auto& k : batch) k = keys[rng.Below(half)];
      router.Route(*filter, batch.data(), batch.size(), out.data());
      for (uint8_t b : out) {
        if (!b) read_errors.fetch_add(1);
      }
    }
  });
  std::thread writer([&]() {
    filter->InsertBatch(keys.data() + half, n - half);
  });
  writer.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(read_errors.load(), 0u);
  for (uint64_t k : keys) ASSERT_TRUE(filter->Contains(k));
}

// Queries take the shard lock shared: four readers probe one SHARD1 filter
// (batches and scalar probes, so every probe meets the others on the same
// lock) while a fifth thread inserts fresh keys.  Every key acknowledged
// before the readers start must be found, and the shard's probe counters
// must equal the probes and hits the readers made, exactly.
TEST(ShardedFilter, SharedReadersDuringInsertsKeepAckedKeysAndExactCounts) {
  const uint64_t n = 100000;
  auto filter = ShardedFilter::Make(
      n, ShardedFilterOptions{/*num_shards=*/1, "PF[TC]", 211});
  ASSERT_NE(filter, nullptr);
  const auto keys = RandomKeys(n, 212);
  const uint64_t acked = n / 2;
  ASSERT_EQ(filter->InsertBatch(keys.data(), acked), 0u);
  const ShardStats before = filter->TotalStats();

  constexpr int kReaders = 4;
  constexpr int kRounds = 64;
  constexpr size_t kBatch = 256;
  std::atomic<uint64_t> probes{0};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> false_negatives{0};
  std::atomic<bool> writer_done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t]() {
      Xoshiro256 rng(213 + t);
      std::vector<uint64_t> batch(kBatch);
      std::vector<uint8_t> out(kBatch);
      uint64_t local_probes = 0;
      uint64_t local_hits = 0;
      // At least kRounds, and on until the writer is through.
      for (int round = 0; round < kRounds || !writer_done.load(); ++round) {
        // Even slots: acknowledged keys; odd slots: anything (fresh keys
        // racing the writer, or never-inserted ones).
        for (size_t i = 0; i < kBatch; ++i) {
          batch[i] = i % 2 == 0 ? keys[rng.Below(acked)] : keys[rng.Below(n)];
        }
        filter->ContainsBatch(batch.data(), kBatch, out.data());
        for (size_t i = 0; i < kBatch; ++i) {
          local_hits += out[i];
          if (i % 2 == 0 && out[i] == 0) false_negatives.fetch_add(1);
        }
        const bool hit = filter->Contains(batch[round % kBatch]);
        local_hits += hit;
        if (round % 2 == 0 && !hit) false_negatives.fetch_add(1);
        local_probes += kBatch + 1;
      }
      probes.fetch_add(local_probes);
      hits.fetch_add(local_hits);
    });
  }
  std::thread writer([&]() {
    for (uint64_t base = acked; base < n; base += 512) {
      filter->InsertBatch(keys.data() + base, std::min<uint64_t>(512, n - base));
    }
    writer_done.store(true);
  });
  writer.join();
  for (auto& r : readers) r.join();

  EXPECT_EQ(false_negatives.load(), 0u);
  const ShardStats after = filter->TotalStats();
  EXPECT_EQ(after.queries - before.queries, probes.load());
  EXPECT_EQ(after.hits - before.hits, hits.load());
  EXPECT_EQ(after.inserts, n);
  EXPECT_EQ(after.insert_failures, 0u);
  for (uint64_t k : keys) ASSERT_TRUE(filter->Contains(k));
}

// The shard lock itself.  Two readers hold it at once: each waits, inside
// its shared section, until the other is inside too (an exclusive lock would
// deadlock here).
TEST(SharedMutex, ReadersHoldItTogether) {
  SharedMutex mu;
  std::atomic<int> inside{0};
  auto reader = [&]() {
    ReaderMutexLock guard(mu);
    inside.fetch_add(1);
    while (inside.load() < 2) std::this_thread::yield();
  };
  std::thread a(reader);
  std::thread b(reader);
  a.join();
  b.join();
  EXPECT_EQ(inside.load(), 2);
}

// Readers that keep arriving do not starve a writer, and no reader sees a
// half-done write.
TEST(SharedMutex, WriterGetsInPastStreamingReaders) {
  struct Guarded {
    SharedMutex mu;
    uint64_t a PF_GUARDED_BY(mu) = 0;
    uint64_t b PF_GUARDED_BY(mu) = 0;
  } g;
  constexpr uint64_t kWrites = 2000;
  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> reads{0};
  std::atomic<int> reading{0};
  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&]() {
      uint64_t local = 0;
      do {
        {
          ReaderMutexLock guard(g.mu);
          if (g.a != g.b) torn.fetch_add(1);
        }
        if (local++ == 0) reading.fetch_add(1);
      } while (!writer_done.load());
      reads.fetch_add(local);
    });
  }
  // Every reader is streaming before the first write.
  while (reading.load() < kReaders) std::this_thread::yield();
  for (uint64_t i = 0; i < kWrites; ++i) {
    WriterMutexLock guard(g.mu);
    ++g.a;
    ++g.b;
  }
  writer_done.store(true);
  for (auto& r : readers) r.join();
  WriterMutexLock guard(g.mu);
  EXPECT_EQ(g.a, kWrites);
  EXPECT_EQ(g.b, kWrites);
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GE(reads.load(), static_cast<uint64_t>(kReaders));
}

TEST(ShardedFilter, SnapshotRoundTripsThroughTypeErasedLayer) {
  const uint64_t n = 50000;
  auto filter = MakeFilter("SHARD4[PF[BBF-Flex]]", n, 182);
  ASSERT_NE(filter, nullptr);
  const auto keys = RandomKeys(n, 183);
  for (uint64_t k : keys) ASSERT_TRUE(filter->Insert(k));

  std::vector<uint8_t> bytes;
  ASSERT_TRUE(filter->SerializeTo(&bytes));
  auto restored = DeserializeFilter(bytes.data(), bytes.size());
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->Name(), "SHARD4[PF[BBF-Flex]]");
  EXPECT_EQ(restored->Capacity(), n);

  const auto probes = RandomKeys(100000, 184);
  for (uint64_t k : keys) ASSERT_TRUE(restored->Contains(k));
  for (uint64_t k : probes) {
    ASSERT_EQ(restored->Contains(k), filter->Contains(k));
  }

  // Stats survive the round trip.
  auto* original = dynamic_cast<ShardedFilter*>(filter.get());
  auto* loaded = dynamic_cast<ShardedFilter*>(restored.get());
  ASSERT_NE(original, nullptr);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->TotalStats().inserts, n);
  for (uint32_t s = 0; s < original->num_shards(); ++s) {
    EXPECT_EQ(loaded->shard_stats(s).inserts, original->shard_stats(s).inserts);
  }

  // Probe counters are kept as hits and misses; the snapshot's queries/hits
  // fields still round-trip, and a restored filter re-serializes to the
  // same bytes.
  std::vector<uint8_t> probed_bytes;
  ASSERT_TRUE(original->SerializeTo(&probed_bytes));
  auto reloaded = DeserializeFilter(probed_bytes.data(), probed_bytes.size());
  ASSERT_NE(reloaded, nullptr);
  auto* reloaded_sharded = dynamic_cast<ShardedFilter*>(reloaded.get());
  ASSERT_NE(reloaded_sharded, nullptr);
  EXPECT_GT(original->TotalStats().queries, 0u);
  EXPECT_GT(original->TotalStats().hits, 0u);
  for (uint32_t s = 0; s < original->num_shards(); ++s) {
    EXPECT_EQ(reloaded_sharded->shard_stats(s).queries,
              original->shard_stats(s).queries);
    EXPECT_EQ(reloaded_sharded->shard_stats(s).hits,
              original->shard_stats(s).hits);
  }
  std::vector<uint8_t> reserialized;
  ASSERT_TRUE(reloaded->SerializeTo(&reserialized));
  EXPECT_TRUE(reserialized == probed_bytes) << "snapshot bytes changed";

  // Corruptions in the sharded header fail cleanly.
  auto corrupt = bytes;
  corrupt[0] ^= 0xff;  // envelope magic
  EXPECT_EQ(DeserializeFilter(corrupt.data(), corrupt.size()), nullptr);
  EXPECT_EQ(DeserializeFilter(bytes.data(), bytes.size() / 2), nullptr);
}

// The scalar and single-shard fast paths (ROADMAP: close the ~35-40%
// single-thread batch overhead) must stay observably identical to the
// routed path: same answers, same per-shard stats accounting.
TEST(ShardedFilter, FastPathsAgreeWithRoutedPathAndKeepStats) {
  const uint64_t n = 50000;

  // 1-key batches hit the inline route-on-query path.
  auto sharded = MakeFilter("SHARD16[PF[TC]]", n, 331);
  ASSERT_NE(sharded, nullptr);
  const auto keys = RandomKeys(n, 332);
  for (uint64_t k : keys) ASSERT_TRUE(sharded->Insert(k));
  auto* impl = static_cast<ShardedFilter*>(sharded.get());
  const uint64_t queries_before = impl->TotalStats().queries;
  const auto probes = RandomKeys(5000, 333);
  for (size_t i = 0; i < probes.size(); ++i) {
    const uint64_t key = i % 2 == 0 ? keys[i % n] : probes[i];
    uint8_t batch_answer = 0xcc;
    impl->ContainsBatch(&key, 1, &batch_answer);
    ASSERT_EQ(batch_answer != 0, impl->Contains(key)) << i;
    ASSERT_NE(batch_answer, 0xcc);
  }
  // Both the fast-path batch and the scalar double-check counted.
  EXPECT_EQ(impl->TotalStats().queries - queries_before, 2 * probes.size());

  // Single-shard filters drain batches straight through shard 0.
  auto single = ShardedFilter::Make(
      n, ShardedFilterOptions{/*num_shards=*/1, "PF[TC]", 334});
  ASSERT_NE(single, nullptr);
  EXPECT_EQ(single->num_shards(), 1u);
  EXPECT_EQ(single->InsertBatch(keys.data(), keys.size()), 0u);
  std::vector<uint64_t> stream = RandomKeys(20000, 335);
  for (size_t i = 0; i < stream.size(); i += 2) stream[i] = keys[i % n];
  std::vector<uint8_t> batch(stream.size());
  single->ContainsBatch(stream.data(), stream.size(), batch.data());
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(batch[i] != 0, single->Contains(stream[i])) << i;
  }
  const ShardStats stats = single->shard_stats(0);
  EXPECT_EQ(stats.inserts, n);
  // The full batch plus the per-key scalar verification above.
  EXPECT_EQ(stats.queries, 2 * stream.size());

  // 1-key inserts ride the scalar insert path with identical accounting.
  auto sharded2 = ShardedFilter::Make(
      1000, ShardedFilterOptions{/*num_shards=*/8, "PF[TC]", 336});
  const uint64_t one = 12345;
  EXPECT_EQ(sharded2->InsertBatch(&one, 1), 0u);
  EXPECT_TRUE(sharded2->Contains(one));
  EXPECT_EQ(sharded2->TotalStats().inserts, 1u);
}

// The runner decides only where and when shard groups run, never what they
// do: running every group on its own thread, concurrently, leaves the same
// filter, failure count and answers as running them in order.
TEST(ShardedFilter, ConcurrentGroupRunnerMatchesInOrder) {
  ShardedFilterOptions options;
  options.num_shards = 16;
  options.seed = 31;
  constexpr uint64_t kCapacity = 20000;
  auto in_order = ShardedFilter::Make(kCapacity, options);
  auto concurrent = ShardedFilter::Make(kCapacity, options);
  ASSERT_NE(in_order, nullptr);
  ASSERT_NE(concurrent, nullptr);
  const auto thread_per_group = [](size_t num_groups,
                                   FunctionRef<void(size_t)> run_group) {
    std::vector<std::thread> threads;
    for (size_t g = 0; g < num_groups; ++g) {
      threads.emplace_back([&run_group, g]() { run_group(g); });
    }
    for (auto& t : threads) t.join();
  };

  // Overfilled, so some inserts fail and the failure counts are compared.
  const auto keys = RandomKeys(2 * kCapacity, 32);
  uint64_t failures = 0;
  for (size_t base = 0; base < keys.size(); base += 5000) {
    const uint64_t expected = in_order->InsertBatch(keys.data() + base, 5000);
    EXPECT_EQ(concurrent->InsertBatch(keys.data() + base, 5000,
                                      thread_per_group),
              expected);
    failures += expected;
  }
  EXPECT_GT(failures, 0u);
  std::vector<uint8_t> in_order_image;
  std::vector<uint8_t> concurrent_image;
  ASSERT_TRUE(in_order->SerializeTo(&in_order_image));
  ASSERT_TRUE(concurrent->SerializeTo(&concurrent_image));
  EXPECT_TRUE(in_order_image == concurrent_image) << "images differ";

  const auto probes = RandomKeys(30000, 33);
  std::vector<uint8_t> expected(probes.size());
  std::vector<uint8_t> actual(probes.size());
  in_order->ContainsBatch(probes.data(), probes.size(), expected.data());
  concurrent->ContainsBatch(probes.data(), probes.size(), actual.data(),
                            thread_per_group);
  EXPECT_EQ(actual, expected);
}

// Regression for a lock-discipline gap the thread-safety annotations
// surfaced: SpaceBytes() walked shard->filter (a guarded member) without
// the shard locks.  Today that read is geometry-only, so this test pins
// the contract the fix restores — SpaceBytes taken concurrently with
// inserts always returns the same sane value — and, under the TSan CI
// leg, will flag any future SpaceBytes implementation that derives from
// occupancy state if the locks are ever dropped again.
TEST(ShardedFilter, SpaceBytesConcurrentWithInserts) {
  const uint64_t n = 120000;
  ShardedFilterOptions options;
  options.num_shards = 8;
  options.backend = "PF[CF12-Flex]";
  options.seed = 191;
  auto filter = ShardedFilter::Make(n, options);
  ASSERT_NE(filter, nullptr);
  const auto keys = RandomKeys(n, 192);

  const size_t empty_space = filter->SpaceBytes();
  ASSERT_GT(empty_space, 0u);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  std::thread observer([&]() {
    size_t last = empty_space;
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t now = filter->SpaceBytes();
      if (now < last || now == 0) violations.fetch_add(1);
      last = now;
    }
  });
  filter->InsertBatch(keys.data(), keys.size());
  stop.store(true);
  observer.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GE(filter->SpaceBytes(), empty_space);
}

}  // namespace
}  // namespace prefixfilter
