// Tests for the thread-pool filter service: sync inserts, queued queries
// with completion callbacks, concurrent clients, backpressure-safe shutdown,
// stats, snapshot/restore, the LSM table's shared-service integration, and
// the fork-join fan-out of large batches' shard groups (identity with
// in-order execution, snapshot atomicity, per-group trace spans).
#include "src/service/filter_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/lsm/table.h"
#include "src/obs/trace.h"
#include "src/util/random.h"
#include "src/workload/workload.h"

namespace prefixfilter {
namespace {

std::shared_ptr<ShardedFilter> MakeSharded(uint64_t capacity, uint64_t seed,
                                           uint32_t shards = 16) {
  ShardedFilterOptions options;
  options.num_shards = shards;
  options.seed = seed;
  auto filter = ShardedFilter::Make(capacity, options);
  EXPECT_NE(filter, nullptr);
  return std::shared_ptr<ShardedFilter>(filter.release());
}

// Counts down once per completed QueryBatchAsync batch; Wait() blocks until
// every expected batch has called back.  It may be destroyed as soon as
// Wait() returns: CountDown notifies under the mutex, so the last callback
// is done with the latch before Wait() can return.
class Latch {
 public:
  explicit Latch(size_t count) : count_(count) {}
  void CountDown() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (--count_ == 0) done_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return count_ == 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable done_;
  size_t count_;
};

// Queues one batch through QueryBatchAsync and blocks for its results.
std::vector<uint8_t> QueryQueued(FilterService& service,
                                 std::vector<uint64_t> keys) {
  std::vector<uint8_t> results;
  Latch latch(1);
  service.QueryBatchAsync(std::move(keys), [&](std::vector<uint8_t> r) {
    results = std::move(r);
    latch.CountDown();
  });
  latch.Wait();
  return results;
}

uint64_t InsertAll(FilterService& service, const std::vector<uint64_t>& keys) {
  return service.InsertBatchSync(keys.data(), keys.size());
}

TEST(FilterService, InsertSyncAndQueryQueuedBatches) {
  const uint64_t n = 100000;
  FilterService service(MakeSharded(n, 191), {});
  const auto keys = RandomKeys(n, 192);

  const size_t batch = 10000;
  for (size_t base = 0; base < keys.size(); base += batch) {
    EXPECT_EQ(service.InsertBatchSync(keys.data() + base, batch), 0u);
  }

  // Mixed stream: even positions positive, odd almost-surely negative.
  std::vector<uint64_t> stream = RandomKeys(50000, 193);
  for (size_t i = 0; i < stream.size(); i += 2) stream[i] = keys[i % n];
  auto result = QueryQueued(service, stream);
  ASSERT_EQ(result.size(), 50000u);
  uint64_t negatives_hit = 0;
  for (size_t i = 0; i < result.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(result[i], 1) << "false negative at " << i;
    } else {
      negatives_hit += result[i];
    }
  }
  // Negative half: false positives only, at roughly the backend's rate.
  EXPECT_LT(negatives_hit, result.size() / 2 / 50);

  const FilterServiceStats stats = service.stats();
  EXPECT_EQ(stats.insert_batches, n / batch);
  EXPECT_EQ(stats.keys_inserted, n);
  EXPECT_EQ(stats.query_batches, 1u);
  EXPECT_EQ(stats.keys_queried, 50000u);
  EXPECT_EQ(stats.insert_failures, 0u);
}

// The worker-pool path is the only one that queues, so it alone feeds the
// queue-wait histogram and depth gauge; exec-time histograms count batches.
TEST(FilterService, WorkerPathRecordsQueueAndExecTelemetry) {
  if (!obs::kEnabled) GTEST_SKIP() << "instrumentation compiled out";
  obs::MetricsRegistry registry;  // local: isolated from other tests
  FilterServiceOptions options;
  options.num_threads = 2;
  options.registry = &registry;
  const uint64_t n = 50000;
  FilterService service(MakeSharded(n, 881), options);
  const auto keys = RandomKeys(n, 882);

  constexpr size_t kBatch = 5000;
  for (size_t base = 0; base < keys.size(); base += kBatch) {
    EXPECT_EQ(service.InsertBatchSync(keys.data() + base, kBatch), 0u);
  }
  // Queue every query batch before waiting on any, so several sit in the
  // queue together.
  constexpr size_t kQueries = 10;
  Latch latch(kQueries);
  std::atomic<uint64_t> answered{0};
  for (size_t q = 0; q < kQueries; ++q) {
    service.QueryBatchAsync(
        std::vector<uint64_t>(keys.begin() + q * kBatch,
                              keys.begin() + (q + 1) * kBatch),
        [&](std::vector<uint8_t> results) {
          answered += results.size();
          latch.CountDown();
        });
  }
  latch.Wait();
  EXPECT_EQ(answered.load(), kQueries * kBatch);
  service.Drain();  // the workers' bookkeeping after the last callback

  const auto samples = registry.Collect();
  const obs::MetricSample* wait =
      obs::FindSample(samples, "service.queue.wait.ns");
  ASSERT_NE(wait, nullptr);
  // Every queued query recorded a wait; sync inserts never queue.
  EXPECT_EQ(wait->hist.count, kQueries);
  const obs::MetricSample* exec =
      obs::FindSample(samples, "service.exec.ns", "op", "insert");
  ASSERT_NE(exec, nullptr);
  EXPECT_EQ(exec->hist.count, n / kBatch);
  EXPECT_GT(exec->hist.Percentile(0.99), 0.0);
  const obs::MetricSample* depth =
      obs::FindSample(samples, "service.queue.depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->value, 0);  // queue drained once every batch called back
}

TEST(FilterService, ManyConcurrentClients) {
  const uint64_t n = 160000;
  FilterService service(MakeSharded(n, 194),
                        FilterServiceOptions{/*num_threads=*/3,
                                             /*max_pending=*/8});
  const auto keys = RandomKeys(n, 195);
  constexpr int kClients = 4;
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      // Each client owns an interleaved slice and submits it in batches.
      std::vector<uint64_t> mine;
      for (uint64_t i = c; i < n; i += kClients) mine.push_back(keys[i]);
      const size_t batch = 1000;
      for (size_t base = 0; base < mine.size(); base += batch) {
        const size_t count = std::min(batch, mine.size() - base);
        failures += service.InsertBatchSync(mine.data() + base, count);
      }
      // Immediately read back through the worker pool.
      auto result = QueryQueued(service, mine);
      for (uint8_t b : result) {
        if (!b) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(service.stats().keys_inserted, n);
}

TEST(FilterService, SynchronousModeWorksWithoutThreads) {
  const uint64_t n = 20000;
  FilterService service(MakeSharded(n, 196),
                        FilterServiceOptions{/*num_threads=*/0,
                                             /*max_pending=*/1});
  const auto keys = RandomKeys(n, 197);
  EXPECT_EQ(InsertAll(service, keys), 0u);
  auto result = QueryQueued(service, keys);
  ASSERT_EQ(result.size(), keys.size());
  for (uint8_t b : result) ASSERT_TRUE(b);
}

TEST(FilterService, SubmitAfterStopDegradesToSynchronous) {
  const uint64_t n = 10000;
  FilterService service(MakeSharded(n, 198), {});
  const auto keys = RandomKeys(n, 199);
  EXPECT_EQ(InsertAll(service, keys), 0u);
  service.Stop();
  // With the pool gone the batch runs on the submitting thread: the callback
  // has fired before QueryBatchAsync returns.
  std::vector<uint8_t> result;
  std::thread::id callback_thread;
  service.QueryBatchAsync(keys, [&](std::vector<uint8_t> r) {
    callback_thread = std::this_thread::get_id();
    result = std::move(r);
  });
  EXPECT_EQ(callback_thread, std::this_thread::get_id());
  ASSERT_EQ(result.size(), keys.size());
  for (uint8_t b : result) ASSERT_TRUE(b);
}

TEST(FilterService, SnapshotRestoreRoundTrip) {
  const uint64_t n = 60000;
  FilterService service(MakeSharded(n, 200, /*shards=*/8), {});
  const auto keys = RandomKeys(n, 201);
  // Concurrent inserters: every key whose InsertBatchSync call returned
  // before Snapshot() must be in the image.
  constexpr int kInserters = 4;
  std::vector<std::thread> inserters;
  std::atomic<uint64_t> failures{0};
  for (int c = 0; c < kInserters; ++c) {
    inserters.emplace_back([&, c]() {
      const size_t slice = n / kInserters;
      for (size_t base = c * slice; base < (c + 1) * slice; base += 1000) {
        failures += service.InsertBatchSync(keys.data() + base, 1000);
      }
    });
  }
  for (auto& t : inserters) t.join();
  EXPECT_EQ(failures.load(), 0u);

  std::vector<uint8_t> snapshot;
  ASSERT_TRUE(service.Snapshot(&snapshot));
  auto restored = FilterService::Restore(snapshot.data(), snapshot.size());
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->Name(), service.filter().Name());

  FilterService revived(restored, {});
  auto result = QueryQueued(revived, keys);
  ASSERT_EQ(result.size(), keys.size());
  for (uint8_t b : result) ASSERT_TRUE(b);
  // The restored filter answers probes identically (same hash seeds).
  const auto probes = RandomKeys(100000, 202);
  for (uint64_t k : probes) {
    ASSERT_EQ(revived.Contains(k), service.Contains(k));
  }
  // Restore rejects non-sharded images.
  auto single = MakeFilter("PF[TC]", 1000, 1);
  std::vector<uint8_t> single_bytes;
  ASSERT_TRUE(single->SerializeTo(&single_bytes));
  EXPECT_EQ(FilterService::Restore(single_bytes.data(), single_bytes.size()),
            nullptr);
}

TEST(FilterService, LsmTableUsesSharedServiceAsGate) {
  const uint64_t n = 40000;
  auto service = std::make_shared<FilterService>(
      MakeSharded(n * 2, 203), FilterServiceOptions{/*num_threads=*/2,
                                                    /*max_pending=*/64});
  lsm::TableOptions options;
  options.memtable_entries = 4096;
  options.filter_service = service;
  lsm::Table table(options);

  const auto keys = RandomKeys(n, 204);
  for (uint64_t i = 0; i < n; ++i) table.Put(keys[i], i);
  table.Flush();
  ASSERT_GT(table.NumRuns(), 1u);

  // Every written key readable; the service saw every sealed key.
  for (uint64_t i = 0; i < n; i += 7) {
    auto v = table.Get(keys[i]);
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(service->stats().keys_inserted, n);

  // Absent keys short-circuit at the table gate: data accesses stay flat.
  const uint64_t accesses_before = table.DataAccesses();
  const auto probes = RandomKeys(20000, 205);
  uint64_t found = 0;
  for (uint64_t k : probes) found += table.Get(k).has_value();
  EXPECT_EQ(found, 0u);
  const uint64_t futile = table.DataAccesses() - accesses_before;
  // Without the gate every probe would walk every run's filter and a few FPs
  // per run would reach the data; with it only global FPs do.
  EXPECT_LT(futile, probes.size() / 100);

  // MultiGet agrees with Get on a mixed stream.
  std::vector<uint64_t> stream(probes.begin(), probes.begin() + 1000);
  for (size_t i = 0; i < stream.size(); i += 2) stream[i] = keys[i * 3 % n];
  const auto batch = table.MultiGet(stream);
  ASSERT_EQ(batch.size(), stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(batch[i], table.Get(stream[i])) << i;
  }
}

// The front cache (ROADMAP: absorb adversarial-dup hot-set traffic) must be
// answer-transparent: bit-identical results with and without it, with the
// hot-set repeats served from the cache instead of the shard path.
TEST(FilterService, FrontCacheIsAnswerTransparentOnDupHeavyTraffic) {
  const uint64_t n = 50000;
  workload::Spec spec;
  ASSERT_TRUE(workload::FindStandardSpec("adversarial-dup", n,
                                         /*num_queries=*/200000,
                                         /*seed=*/0xcafe, &spec));
  const workload::Stream stream = workload::Generate(spec);

  FilterServiceOptions cached_options;
  cached_options.num_threads = 0;
  cached_options.front_cache_slots = 4096;
  FilterService cached(MakeSharded(n, 210), cached_options);
  FilterServiceOptions plain_options;
  plain_options.num_threads = 0;
  FilterService plain(MakeSharded(n, 210), plain_options);
  ASSERT_TRUE(cached.front_cache_enabled());
  ASSERT_FALSE(plain.front_cache_enabled());

  EXPECT_EQ(InsertAll(cached, stream.insert_keys), 0u);
  EXPECT_EQ(InsertAll(plain, stream.insert_keys), 0u);

  // Batched path, in service-sized batches so the cache sees repeats across
  // batches (within one batch every probe precedes every store).
  const size_t batch = 4096;
  for (size_t base = 0; base < stream.queries.size(); base += batch) {
    const size_t count = std::min(batch, stream.queries.size() - base);
    std::vector<uint64_t> slice(stream.queries.begin() + base,
                                stream.queries.begin() + base + count);
    const auto with_cache = QueryQueued(cached, slice);
    const auto without = QueryQueued(plain, slice);
    ASSERT_EQ(with_cache, without) << "answers diverged at batch " << base;
    for (size_t i = 0; i < count; ++i) {
      if (stream.query_expected[base + i]) {
        ASSERT_EQ(with_cache[i], 1) << "false negative at " << (base + i);
      }
    }
  }

  // 90% of the stream is a 64-key hot set, half of it inserted keys: those
  // repeats (~45% of the stream) should have come from the cache.
  const FilterServiceStats stats = cached.stats();
  EXPECT_GT(stats.front_cache_hits, stream.queries.size() * 2 / 5);
  EXPECT_EQ(plain.stats().front_cache_hits, 0u);

  // The scalar fast path is cache-served too.
  const uint64_t hot_key = stream.insert_keys[0];
  const uint64_t hits_before = cached.stats().front_cache_hits;
  ASSERT_TRUE(cached.Contains(hot_key));  // populates
  ASSERT_TRUE(cached.Contains(hot_key));  // served from the cache
  EXPECT_GT(cached.stats().front_cache_hits, hits_before);

  // The all-ones key doubles as the cache's empty-slot sentinel: an empty
  // slot must never read as a cached positive for it — the cached service
  // answers exactly what the filter answers.
  const uint64_t sentinel = ~uint64_t{0};
  EXPECT_EQ(cached.Contains(sentinel), plain.Contains(sentinel));
}

TEST(FilterService, QueryBatchAsyncDeliversCallbackOffTheSubmittingThread) {
  const uint64_t n = 50000;
  FilterServiceOptions options;
  options.num_threads = 2;
  FilterService service(MakeSharded(n, 881), options);
  const auto keys = RandomKeys(n, 882);
  EXPECT_EQ(InsertAll(service, keys), 0u);

  // With a worker pool the callback runs on a worker thread, not the
  // submitter.
  std::vector<uint8_t> results;
  std::thread::id callback_thread;
  Latch latch(1);
  service.QueryBatchAsync(
      std::vector<uint64_t>(keys.begin(), keys.begin() + 4096),
      [&](std::vector<uint8_t> r) {
        callback_thread = std::this_thread::get_id();
        results = std::move(r);
        latch.CountDown();
      });
  latch.Wait();
  ASSERT_EQ(results.size(), 4096u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], 1) << "false negative at " << i;
  }
  EXPECT_NE(callback_thread, std::this_thread::get_id());
  service.Drain();
  EXPECT_EQ(service.stats().keys_queried, 4096u);
}

TEST(FilterService, QueryBatchAsyncRunsInlineWhenSynchronous) {
  FilterService service(MakeSharded(1000, 883), {.num_threads = 0});
  const uint64_t key = 77;
  EXPECT_EQ(service.InsertBatchSync(&key, 1), 0u);
  bool called = false;
  service.QueryBatchAsync({key}, [&](std::vector<uint8_t> results) {
    called = true;
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0], 1);
  });
  // Synchronous service: the callback completed before the call returned.
  EXPECT_TRUE(called);
}

TEST(FilterService, QueryFaultHookSeesBatchKeysAndClears) {
  FilterService service(MakeSharded(1000, 884), {.num_threads = 0});
  std::vector<uint64_t> seen;
  service.SetQueryFaultHookForTesting(
      [&](const uint64_t* keys, size_t count) {
        seen.assign(keys, keys + count);
      });
  const std::vector<uint64_t> probe = {1, 2, 3};
  std::vector<uint8_t> out(probe.size());
  service.QueryBatchSync(probe.data(), probe.size(), out.data());
  EXPECT_EQ(seen, probe);
  service.SetQueryFaultHookForTesting(nullptr);
  seen.clear();
  service.QueryBatchSync(probe.data(), probe.size(), out.data());
  EXPECT_TRUE(seen.empty());
}

// service.queue.depth is read from the queue at scrape time, so it counts
// exactly the requests waiting for a worker and has no increment and
// decrement to race (as a counter bumped on each side of the queue, a pop
// could land its decrement first and a scrape read -1).  One worker is held
// on a marker batch while three more wait behind it.
TEST(FilterService, QueueDepthGaugeCountsWaitingRequests) {
  if (!obs::kEnabled) GTEST_SKIP() << "instrumentation compiled out";
  obs::MetricsRegistry registry;
  FilterServiceOptions options;
  options.num_threads = 1;
  options.registry = &registry;
  FilterService service(MakeSharded(10000, 885), options);
  constexpr uint64_t kMarker = 0xfeed;
  Latch held(1);
  Latch release(1);
  service.SetQueryFaultHookForTesting([&](const uint64_t* keys, size_t) {
    if (keys[0] != kMarker) return;
    held.CountDown();
    release.Wait();
  });
  const auto depth = [&registry]() {
    const auto samples = registry.Collect();
    const obs::MetricSample* sample =
        obs::FindSample(samples, "service.queue.depth");
    return sample == nullptr ? int64_t{-1000} : sample->value;
  };
  Latch answered(4);
  const auto done = [&answered](std::vector<uint8_t>) {
    answered.CountDown();
  };
  service.QueryBatchAsync({kMarker}, done);
  held.Wait();  // the worker has taken the marker off the queue
  EXPECT_EQ(depth(), 0);
  for (uint64_t k = 1; k <= 3; ++k) service.QueryBatchAsync({k}, done);
  EXPECT_EQ(depth(), 3);
  release.CountDown();
  answered.Wait();
  service.Drain();
  EXPECT_EQ(depth(), 0);
  service.SetQueryFaultHookForTesting(nullptr);
}

// Batch sizes on both sides of the fan-out threshold.
constexpr size_t kFanoutSizes[] = {1, FilterService::kFanoutMinKeys - 1,
                                   FilterService::kFanoutMinKeys, 4096, 30000};

// A fanned-out batch leaves the filter, the failure counts and the answers
// exactly as running its shard groups in order would: one insert sequence on
// a 0-worker and a 3-worker service, past capacity so inserts fail, gives
// byte-identical snapshots, and every query path answers like the filter.
TEST(FilterService, FanoutIsIdenticalToInOrderExecution) {
  constexpr uint64_t kCapacity = 20000;  // the sequence below overfills it
  FilterService in_order(MakeSharded(kCapacity, 886), {.num_threads = 0});
  FilterService fanned(MakeSharded(kCapacity, 886), {.num_threads = 3});
  const auto keys = RandomKeys(40000, 887);

  size_t base = 0;
  uint64_t total_failures = 0;
  for (const size_t count : kFanoutSizes) {
    const uint64_t expected =
        in_order.InsertBatchSync(keys.data() + base, count);
    EXPECT_EQ(fanned.InsertBatchSync(keys.data() + base, count), expected)
        << "batch of " << count;
    total_failures += expected;
    base += count;
    const FilterServiceStats stats = fanned.stats();
    // Below the threshold nothing fans out; from it on, every group runs
    // through the fork-join path.
    EXPECT_EQ(stats.fanout_caller_groups + stats.fanout_helper_groups > 0,
              count >= FilterService::kFanoutMinKeys)
        << "batch of " << count;
  }
  ASSERT_GT(total_failures, 0u) << "the filter was meant to overflow";
  EXPECT_EQ(fanned.stats().insert_failures, in_order.stats().insert_failures);
  EXPECT_EQ(fanned.filter().TotalStats().insert_failures,
            in_order.filter().TotalStats().insert_failures);
  EXPECT_EQ(in_order.stats().fanout_caller_groups, 0u);
  std::vector<uint8_t> in_order_image;
  std::vector<uint8_t> fanned_image;
  ASSERT_TRUE(in_order.Snapshot(&in_order_image));
  ASSERT_TRUE(fanned.Snapshot(&fanned_image));
  EXPECT_TRUE(in_order_image == fanned_image) << "snapshot images differ";

  // Queries: half inserted keys, half fresh ones, against the filter's own
  // batch answer, through the sync and queued paths, with the front cache
  // on and off (each batch twice, so the cached service serves repeats).
  auto reference = FilterService::Restore(fanned_image.data(),
                                          fanned_image.size());
  ASSERT_NE(reference, nullptr);
  const auto fresh = RandomKeys(40000, 888);
  for (const size_t cache_slots : {size_t{0}, size_t{4096}}) {
    auto restored = FilterService::Restore(fanned_image.data(),
                                           fanned_image.size());
    ASSERT_NE(restored, nullptr);
    FilterService service(restored, {.num_threads = 3,
                                     .front_cache_slots = cache_slots});
    for (const size_t count : kFanoutSizes) {
      std::vector<uint64_t> batch(count);
      for (size_t i = 0; i < count; ++i) {
        batch[i] = i % 2 == 0 ? keys[i] : fresh[i];
      }
      std::vector<uint8_t> expected(count);
      reference->ContainsBatch(batch.data(), count, expected.data());
      for (int round = 0; round < 2; ++round) {
        std::vector<uint8_t> sync(count);
        service.QueryBatchSync(batch.data(), count, sync.data());
        EXPECT_EQ(sync, expected) << "sync, batch of " << count
                                  << ", cache slots " << cache_slots;
        EXPECT_EQ(QueryQueued(service, batch), expected)
            << "queued, batch of " << count << ", cache slots "
            << cache_slots;
      }
    }
    service.Drain();
    const FilterServiceStats stats = service.stats();
    EXPECT_GT(stats.fanout_caller_groups + stats.fanout_helper_groups, 0u);
    if (cache_slots > 0) {
      EXPECT_GT(stats.front_cache_hits, 0u);
    }
  }
}

// Snapshot() excludes batch execution, and a fanned-out insert holds the
// snapshot lock until its last group is done, so each image holds every
// batch whole or not at all, and every batch acknowledged before
// Snapshot() began.
TEST(FilterService, SnapshotIsAtomicAgainstFannedOutInserts) {
  constexpr size_t kInserters = 2;
  constexpr size_t kBatches = 40;
  constexpr size_t kBatch = 2048;  // over kFanoutMinKeys: fans out
  static_assert(kBatch >= FilterService::kFanoutMinKeys);
  const uint64_t n = kInserters * kBatches * kBatch;
  FilterService service(MakeSharded(n, 889), {.num_threads = 3});
  const auto keys = RandomKeys(n, 890);
  const auto batch_keys = [&](size_t inserter, size_t b) {
    return keys.data() + (inserter * kBatches + b) * kBatch;
  };

  std::atomic<size_t> acked[kInserters] = {};
  std::atomic<size_t> finished{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> inserters;
  for (size_t c = 0; c < kInserters; ++c) {
    inserters.emplace_back([&, c]() {
      for (size_t b = 0; b < kBatches; ++b) {
        failures += service.InsertBatchSync(batch_keys(c, b), kBatch);
        acked[c].store(b + 1);
      }
      ++finished;
    });
  }
  // Snapshots at intervals for as long as the inserters run.
  std::vector<std::vector<uint8_t>> images;
  std::vector<std::vector<size_t>> acked_before;
  while (finished.load() < kInserters && images.size() < 16) {
    std::vector<size_t> acked_now;
    for (const auto& a : acked) acked_now.push_back(a.load());
    std::vector<uint8_t> image;
    ASSERT_TRUE(service.Snapshot(&image));
    images.push_back(std::move(image));
    acked_before.push_back(std::move(acked_now));
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  for (auto& t : inserters) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(service.stats().fanout_caller_groups, 0u);

  std::vector<uint8_t> out(kBatch);
  for (size_t shot = 0; shot < images.size(); ++shot) {
    auto restored =
        FilterService::Restore(images[shot].data(), images[shot].size());
    ASSERT_NE(restored, nullptr);
    for (size_t c = 0; c < kInserters; ++c) {
      for (size_t b = 0; b < kBatches; ++b) {
        restored->ContainsBatch(batch_keys(c, b), kBatch, out.data());
        const size_t present =
            static_cast<size_t>(std::count(out.begin(), out.end(), 1));
        // "Out" still admits false positives (about 0.4% here); a torn
        // batch would show at least one whole shard group (~1/16) present.
        const bool all_in = present == kBatch;
        EXPECT_TRUE(all_in || present < kBatch / 32)
            << "snapshot " << shot << " holds " << present << " of "
            << kBatch << " keys of batch " << b << " of inserter " << c;
        if (b < acked_before[shot][c]) {
          EXPECT_TRUE(all_in) << "snapshot " << shot << " lost batch " << b
                              << " of inserter " << c
                              << ", acknowledged before it began";
        }
      }
    }
  }
}

// A traced fanned-out batch gets one shard-probe span per shard group,
// whichever thread ran it: helpers hand their spans to the caller, the
// trace's one writer, at the join.
TEST(FilterService, FanoutRecordsOneProbeSpanPerShardGroup) {
  if (!obs::kEnabled) GTEST_SKIP() << "instrumentation compiled out";
  constexpr uint32_t kShards = 16;
  const uint64_t n = 50000;
  FilterService service(MakeSharded(n, 891, kShards), {.num_threads = 2});
  const auto keys = RandomKeys(n, 892);
  EXPECT_EQ(InsertAll(service, keys), 0u);

  constexpr size_t kBatch = 4096;
  std::vector<uint8_t> out(kBatch);
  // Helpers join only when a worker is idle in time; retry until one did.
  for (int attempt = 0; attempt < 200; ++attempt) {
    const uint64_t helped_before = service.stats().fanout_helper_groups;
    obs::ActiveTrace trace;
    service.QueryBatchSync(keys.data() + (attempt % 10) * kBatch, kBatch,
                           out.data(), &trace);
    std::vector<bool> shard_seen(kShards, false);
    uint64_t probed_keys = 0;
    size_t probe_spans = 0;
    for (uint32_t i = 0; i < trace.t.span_count; ++i) {
      const obs::TraceSpan& span = trace.t.spans[i];
      if (span.stage != static_cast<uint8_t>(obs::TraceStage::kShardProbe)) {
        continue;
      }
      ++probe_spans;
      const uint64_t shard = span.detail >> 32;
      ASSERT_LT(shard, kShards);
      EXPECT_FALSE(shard_seen[shard]) << "two spans for shard " << shard;
      shard_seen[shard] = true;
      probed_keys += span.detail & 0xffffffffu;
      EXPECT_GE(span.end_ns, span.start_ns);
    }
    EXPECT_EQ(trace.t.spans_dropped, 0u);
    // 4096 keys over 16 shards leave no shard group empty.
    EXPECT_EQ(probe_spans, kShards);
    EXPECT_EQ(probed_keys, kBatch);
    if (service.stats().fanout_helper_groups > helped_before) return;
  }
  ADD_FAILURE() << "no worker ever helped with a fanned-out batch";
}

}  // namespace
}  // namespace prefixfilter
