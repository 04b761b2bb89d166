// Thread-pool front-end over a ShardedFilter: the membership service the
// ROADMAP's north star asks for (many clients, batched traffic, async).
//
// Clients submit whole batches (the unit the paper's evaluation §7.3 uses).
// Inserts are driven by the caller's thread (InsertBatchSync); queries
// either are too (QueryBatchSync) or are queued with a completion callback
// (QueryBatchAsync) for a fixed pool of workers draining an MPMC request
// queue.  Either way each batch goes through a per-thread BatchRouter, so it
// pays one lock acquisition per touched shard and rides the prefetching
// batch path inside each shard.
//
// Fork-join over shard groups: a batch of at least kFanoutMinKeys keys on a
// service with workers posts its shard groups to a help list that idle
// workers check before the request queue.  The driving thread and any
// helpers claim whole groups from one atomic cursor, each group running
// under its shard lock; the caller then waits only for groups a helper has
// already claimed, never for a helper that has not started.  Each shard
// still receives its keys in their original order and the caller holds the
// snapshot lock until the join, so filter state, failure counts, answers
// and Snapshot() atomicity are exactly those of running the groups in order.
// Smaller batches, and services with no workers, run their groups in order
// on the driving thread.
//
// Backpressure: the queue is bounded (options.max_pending); submitters block
// until a worker frees a slot, so a burst of clients cannot grow the queue
// without bound.  num_threads == 0 configures a synchronous service (queued
// batches execute on the submitting thread) — useful for tests and
// single-core deployments.
//
// Snapshot/restore: Snapshot() serializes the whole sharded filter through
// the AnyFilter envelope (ByteWriter wire format); Restore() is the inverse.
// The snapshot is a plain byte vector: persist it next to your data like an
// LSM run's filter block (§1).
#ifndef PREFIXFILTER_SRC_SERVICE_FILTER_SERVICE_H_
#define PREFIXFILTER_SRC_SERVICE_FILTER_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/service/front_cache.h"
#include "src/service/sharded_filter.h"
#include "src/util/function_ref.h"
#include "src/util/thread_annotations.h"

namespace prefixfilter {

struct FilterServiceOptions {
  // Worker threads draining the request queue; 0 = synchronous execution on
  // the submitting thread.
  uint32_t num_threads = 4;
  // Bound on queued (not yet executing) requests; submitters block past it.
  size_t max_pending = 4096;
  // > 0 enables a direct-mapped front cache of recent positive answers with
  // this many slots (rounded up to a power of two) — see
  // src/service/front_cache.h.  Absorbs duplicate-heavy traffic without
  // changing any observable answer.  0 (the default) disables it.
  size_t front_cache_slots = 0;
  // Metrics registry the service (and its ShardedFilter) instruments into;
  // nullptr = the process-wide obs::MetricsRegistry::Global().  Tests pass a
  // local registry for isolation.
  obs::MetricsRegistry* registry = nullptr;
};

// Service-level counters (per-shard counters live in ShardedFilter).
struct FilterServiceStats {
  uint64_t insert_batches = 0;
  uint64_t query_batches = 0;
  uint64_t keys_inserted = 0;
  uint64_t keys_queried = 0;
  uint64_t insert_failures = 0;
  // Queries answered by the front cache without touching the filter.
  uint64_t front_cache_hits = 0;
  // Queries that consulted an enabled front cache and fell through to the
  // filter (0 when the cache is disabled — hit rate is hits/(hits+misses)).
  uint64_t front_cache_misses = 0;
  // Shard groups of fanned-out batches (see the file comment), by who ran
  // them: the thread that submitted the batch, or an idle worker helping.
  uint64_t fanout_caller_groups = 0;
  uint64_t fanout_helper_groups = 0;
};

class FilterService {
 public:
  // Smallest batch whose shard groups fan out over the worker pool; smaller
  // batches run their groups in order on the calling thread, where the
  // hand-off (a lock, a wakeup, a join) would be a large share of the work.
  // From bench_service_scaling's fan-out sweep (SHARD16[PF[TC]], one caller,
  // 2 idle workers): fan-out breaks even at about 1024 keys in cache (2^16
  // keys) and about 512 out of it (2^24), and costs 1.3-2.7x at 256-512
  // keys in cache.
  static constexpr size_t kFanoutMinKeys = 1024;

  explicit FilterService(std::shared_ptr<ShardedFilter> filter,
                         FilterServiceOptions options = {});
  ~FilterService();

  FilterService(const FilterService&) = delete;
  FilterService& operator=(const FilterService&) = delete;

  // Completion callback for QueryBatchAsync: one 0/1 byte per key, in the
  // order submitted.  Invoked exactly once, on the worker thread that
  // executed the batch (or inline on the submitting thread when the service
  // is synchronous or stopping) — keep it cheap and non-blocking; the
  // network event loop hands completions back to itself through a wakeup fd.
  using QueryCallback = std::function<void(std::vector<uint8_t> results)>;

  // Queues a batch query for the worker pool and returns; `done` receives the
  // results.  A submitter that must not block on the filter (an event loop)
  // thereby decouples decode from filter execution.  Submission still blocks
  // while the queue is at max_pending (callers wanting a hard non-blocking
  // guarantee must cap their own in-flight count below max_pending).
  // A non-null `trace` rides along: the worker records queue-wait and exec
  // spans into it (plus per-shard probe spans via the thread-local
  // CurrentTrace()) before the callback fires.
  void QueryBatchAsync(std::vector<uint64_t> keys, QueryCallback done,
                       std::shared_ptr<obs::ActiveTrace> trace = nullptr);

  // Synchronous batch entry points, driven by the calling thread (idle
  // workers may help with a large batch's shard groups; the call returns
  // once every group is done): they bypass the request queue but take the
  // same snapshot shared-lock, update the same stats, and ride the same
  // BatchRouter/front-cache path as queued batches.  Safe concurrently with
  // queued traffic.  InsertBatchSync is the only way to insert; it returns
  // the number of keys the filter failed to absorb (0 on full success).
  uint64_t InsertBatchSync(const uint64_t* keys, size_t count);
  // A non-null `trace` receives the exec span and one shard-probe span per
  // shard group, whichever thread ran the group.
  void QueryBatchSync(const uint64_t* keys, size_t count, uint8_t* out,
                      obs::ActiveTrace* trace = nullptr);

  // Synchronous single-key fast path (bypasses the queue; safe concurrently
  // with batch traffic — shard locks serialize).  Served from the front
  // cache when enabled.
  bool Contains(uint64_t key) const;

  // Blocks until every previously queued batch has completed.
  void Drain() PF_EXCLUDES(mutex_);

  // Appends a restorable snapshot of all shards, holding a service-wide
  // write exclusion while serializing: every InsertBatchSync call that
  // returned before Snapshot() was called is fully in the image, and one
  // running concurrently lands entirely before or entirely after it — never
  // half.  Queued work is queries only, so nothing needs draining first.
  // Returns false if any shard lacks a wire format.
  bool Snapshot(std::vector<uint8_t>* out) PF_EXCLUDES(snapshot_mutex_);

  // Restores the sharded filter from a Snapshot() image (nullptr on
  // corruption or non-sharded images); wrap it in a new FilterService.
  static std::shared_ptr<ShardedFilter> Restore(const uint8_t* data,
                                                size_t len);

  const ShardedFilter& filter() const { return *filter_; }
  uint32_t num_threads() const { return num_threads_; }
  bool front_cache_enabled() const { return front_cache_ != nullptr; }
  FilterServiceStats stats() const;

  // Completes queued work and joins the workers.  Idempotent; batches
  // submitted after Stop() execute synchronously.
  void Stop() PF_EXCLUDES(mutex_);

  // Test-only fault injection: when set, the hook runs on the executing
  // thread at the top of every query batch (before the filter is touched),
  // seeing the batch's keys.  Tests use it to delay batches that contain a
  // marker key so out-of-order completion and backpressure paths become
  // deterministic.  Guarded by a mutex on both sides, so it may be installed
  // or cleared while traffic is flowing.  Pass nullptr to clear.
  void SetQueryFaultHookForTesting(
      std::function<void(const uint64_t* keys, size_t count)> hook)
      PF_EXCLUDES(query_fault_hook_mutex_);

  // Test-only: batches of at least `min_keys` keys fan out instead of
  // kFanoutMinKeys (bench_service_scaling sweeps it to find where fan-out
  // pays).  Safe while traffic is flowing.
  void SetFanoutMinKeysForTesting(size_t min_keys) {
    fanout_min_keys_.store(min_keys, std::memory_order_relaxed);
  }

 private:
  // One queued QueryBatchAsync batch.
  struct Request {
    std::vector<uint64_t> keys;
    QueryCallback done;
    // Enqueue timestamp feeding the service.queue.wait.ns histogram.
    uint64_t enqueue_ns = 0;
    // Non-null when the request is traced: the worker records queue-wait,
    // exec, and shard-probe spans into it.  shared_ptr because the network
    // layer keeps its own reference until the completion drains.
    std::shared_ptr<obs::ActiveTrace> trace;
  };

  // The shard groups of one fanned-out batch, posted on fanout_jobs_.  It
  // lives on the driving thread's stack; `helpers` (guarded by mutex_, which
  // the analysis cannot name from a nested type) counts the workers that
  // took it off the list, and the caller does not return while any remain.
  struct FanoutJob {
    FanoutJob(size_t groups, FunctionRef<void(size_t)> run, bool is_traced)
        : num_groups(groups), run_group(run), traced(is_traced) {}
    const size_t num_groups;
    const FunctionRef<void(size_t)> run_group;
    // Helpers record their shard-probe spans locally and hand them over.
    const bool traced;
    std::atomic<size_t> next_group{0};
    size_t helpers = 0;
    std::vector<obs::TraceSpan> helper_spans;
    uint32_t helper_spans_dropped = 0;
    CondVar helpers_done;
  };

  void Enqueue(Request request) PF_EXCLUDES(mutex_);
  void Execute(Request& request);
  void WorkerLoop() PF_EXCLUDES(mutex_);
  // Query path shared by Execute and QueryBatchSync: front-cache lookup,
  // batch the misses through the filter, populate the cache with fresh
  // positives.  Caller holds the snapshot shared lock.
  void QueryLocked(const uint64_t* keys, size_t count, uint8_t* out)
      PF_REQUIRES_SHARED(snapshot_mutex_);
  // How a batch of `count` keys runs its shard groups: fanned out over the
  // pool (RunFanout) or in order on the calling thread.
  ShardGroupRunner RunnerFor(size_t count) const;
  // The fork-join runner (see the file comment).
  void RunFanout(size_t num_groups, FunctionRef<void(size_t)> run_group)
      PF_EXCLUDES(mutex_);
  // Claims job's next group into *group; false once all are claimed.  The
  // claim that takes the last group, or finds none left, takes the job off
  // the help list, so no worker picks up an exhausted job.
  bool ClaimGroup(FanoutJob& job, size_t* group) PF_EXCLUDES(mutex_);
  // A worker's turn on a job it registered on; deregisters at the end.
  void HelpFanout(FanoutJob& job) PF_EXCLUDES(mutex_);
  // Requests queued and not yet picked up (the service.queue.depth gauge).
  size_t QueueDepth() PF_EXCLUDES(mutex_);

  std::shared_ptr<ShardedFilter> filter_;
  uint32_t num_threads_;
  size_t max_pending_;
  std::unique_ptr<FrontCache> front_cache_;

  // Batch execution takes this shared; Snapshot takes it exclusive while
  // serializing.  Direct filter() access bypasses it by design (shard locks
  // still make such access safe, just not snapshot-atomic).
  mutable SharedMutex snapshot_mutex_;

  Mutex mutex_;
  CondVar queue_nonempty_;
  CondVar queue_nonfull_;
  CondVar idle_;
  std::deque<Request> queue_ PF_GUARDED_BY(mutex_);
  // Fanned-out batches with groups left to claim; idle workers serve these
  // before queue_.
  std::vector<FanoutJob*> fanout_jobs_ PF_GUARDED_BY(mutex_);
  size_t in_flight_ PF_GUARDED_BY(mutex_) = 0;
  bool stopping_ PF_GUARDED_BY(mutex_) = false;
  // Written by the constructor before any concurrency exists, then read only
  // by Stop() after the stopping_ handshake — not guarded by mutex_.
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> insert_batches_{0};
  std::atomic<uint64_t> query_batches_{0};
  std::atomic<uint64_t> keys_inserted_{0};
  std::atomic<uint64_t> keys_queried_{0};
  std::atomic<uint64_t> insert_failures_{0};
  // mutable: bumped from the const Contains() fast path.
  mutable std::atomic<uint64_t> front_cache_hits_{0};
  mutable std::atomic<uint64_t> front_cache_misses_{0};
  std::atomic<uint64_t> fanout_caller_groups_{0};
  std::atomic<uint64_t> fanout_helper_groups_{0};
  // RunFanout behind the ShardGroupRunner signature; RunnerFor hands out
  // references to it.
  struct FanoutRunner {
    FilterService* service;
    void operator()(size_t num_groups,
                    FunctionRef<void(size_t)> run_group) const {
      service->RunFanout(num_groups, run_group);
    }
  };
  const FanoutRunner fanout_runner_{this};
  std::atomic<size_t> fanout_min_keys_{kFanoutMinKeys};

  // Test-only query fault hook (see SetQueryFaultHookForTesting).  The
  // atomic flag keeps the disabled hot path to one relaxed load; the mutex
  // makes install/clear safe against in-flight batches.
  std::atomic<bool> query_fault_hook_armed_{false};
  mutable Mutex query_fault_hook_mutex_;
  std::function<void(const uint64_t*, size_t)> query_fault_hook_
      PF_GUARDED_BY(query_fault_hook_mutex_);

  // Observability: histograms resolved once at construction, updated
  // lock-free on the request path; the counters above and the queue depth
  // reach the registry through a scrape-time collector (zero extra hot-path
  // cost).
  obs::MetricsRegistry* registry_;
  obs::LatencyHistogram* queue_wait_hist_;
  obs::LatencyHistogram* insert_exec_hist_;
  obs::LatencyHistogram* query_exec_hist_;
  obs::LatencyHistogram* insert_batch_keys_hist_;
  obs::LatencyHistogram* query_batch_keys_hist_;
  uint64_t collector_id_ = 0;
};

// Builds a FilterService for any factory filter name: "SHARD<n>[<inner>]"
// configures the sharding, every other accepted name runs as a single-shard
// service.  The shared bootstrap of the membership-server example and the
// network load generator — one spelling of the name-to-service rule.
// Returns nullptr for unknown names.
std::shared_ptr<FilterService> MakeFilterService(
    const std::string& filter_name, uint64_t capacity,
    FilterServiceOptions options = {},
    uint64_t seed = ShardedFilterOptions{}.seed);

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_SERVICE_FILTER_SERVICE_H_
