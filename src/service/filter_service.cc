#include "src/service/filter_service.h"

#include <algorithm>
#include <utility>

namespace prefixfilter {

FilterService::FilterService(std::shared_ptr<ShardedFilter> filter,
                             FilterServiceOptions options)
    : filter_(std::move(filter)),
      num_threads_(options.num_threads),
      max_pending_(std::max<size_t>(1, options.max_pending)),
      front_cache_(options.front_cache_slots > 0
                       ? std::make_unique<FrontCache>(options.front_cache_slots)
                       : nullptr),
      registry_(options.registry != nullptr
                    ? options.registry
                    : &obs::MetricsRegistry::Global()),
      queue_wait_hist_(registry_->GetHistogram("service.queue.wait.ns")),
      insert_exec_hist_(
          registry_->GetHistogram("service.exec.ns", {{"op", "insert"}})),
      query_exec_hist_(
          registry_->GetHistogram("service.exec.ns", {{"op", "query"}})),
      insert_batch_keys_hist_(
          registry_->GetHistogram("service.batch.keys", {{"op", "insert"}})),
      query_batch_keys_hist_(
          registry_->GetHistogram("service.batch.keys", {{"op", "query"}})) {
  filter_->EnableMetrics(registry_);
  collector_id_ = registry_->AddCollector(
      [this](std::vector<obs::MetricSample>* samples) {
        const FilterServiceStats s = stats();
        const auto counter = [samples](const char* name, uint64_t value,
                                       obs::MetricsRegistry::Labels labels =
                                           {}) {
          obs::MetricSample sample;
          sample.name = name;
          sample.labels = std::move(labels);
          sample.kind = obs::MetricKind::kCounter;
          sample.value = static_cast<int64_t>(value);
          samples->push_back(std::move(sample));
        };
        counter("service.batches", s.insert_batches, {{"op", "insert"}});
        counter("service.batches", s.query_batches, {{"op", "query"}});
        counter("service.keys", s.keys_inserted, {{"op", "insert"}});
        counter("service.keys", s.keys_queried, {{"op", "query"}});
        counter("service.insert.failures", s.insert_failures);
        counter("service.front_cache.hits", s.front_cache_hits);
        counter("service.front_cache.misses", s.front_cache_misses);
        counter("service.fanout.groups", s.fanout_caller_groups,
                {{"by", "caller"}});
        counter("service.fanout.groups", s.fanout_helper_groups,
                {{"by", "helper"}});
        // Read from the queue itself, so a scrape can never see a pop
        // ahead of its push.
        obs::MetricSample depth;
        depth.name = "service.queue.depth";
        depth.kind = obs::MetricKind::kGauge;
        depth.value = static_cast<int64_t>(QueueDepth());
        samples->push_back(std::move(depth));
      });
  workers_.reserve(num_threads_);
  for (uint32_t t = 0; t < num_threads_; ++t) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

FilterService::~FilterService() {
  Stop();
  // After this the collector can never fire again (RemoveCollector holds the
  // registry lock against in-flight Collect calls), so members it reads may
  // be torn down.
  registry_->RemoveCollector(collector_id_);
}

void FilterService::QueryBatchAsync(std::vector<uint64_t> keys,
                                    QueryCallback done,
                                    std::shared_ptr<obs::ActiveTrace> trace) {
  Request request;
  request.keys = std::move(keys);
  request.done = std::move(done);
  request.trace = std::move(trace);
  Enqueue(std::move(request));
}

void FilterService::Enqueue(Request request) {
  if (num_threads_ == 0) {
    Execute(request);
    return;
  }
  request.enqueue_ns = obs::NowNanos();
  bool queued = false;
  {
    MutexLock lock(mutex_);
    while (!stopping_ && queue_.size() >= max_pending_) {
      queue_nonfull_.Wait(mutex_);
    }
    if (!stopping_) {
      queue_.push_back(std::move(request));
      queued = true;
    }
  }
  if (!queued) {
    // The pool is gone; degrade to synchronous execution rather than
    // dropping the batch or deadlocking the submitter.
    Execute(request);
    return;
  }
  queue_nonempty_.NotifyOne();
}

void FilterService::Execute(Request& request) {
  std::vector<uint8_t> out(request.keys.size());
  QueryBatchSync(request.keys.data(), request.keys.size(), out.data(),
                 request.trace.get());
  request.done(std::move(out));
}

uint64_t FilterService::InsertBatchSync(const uint64_t* keys, size_t count) {
  obs::ScopedLatency timer(insert_exec_hist_);
  insert_batch_keys_hist_->Record(count);
  ReaderMutexLock snapshot_guard(snapshot_mutex_);
  const uint64_t failures =
      filter_->InsertBatch(keys, count, RunnerFor(count));
  insert_batches_.fetch_add(1, std::memory_order_relaxed);
  keys_inserted_.fetch_add(count, std::memory_order_relaxed);
  insert_failures_.fetch_add(failures, std::memory_order_relaxed);
  return failures;
}

void FilterService::QueryBatchSync(const uint64_t* keys, size_t count,
                                   uint8_t* out, obs::ActiveTrace* trace) {
  if (query_fault_hook_armed_.load(std::memory_order_acquire)) {
    std::function<void(const uint64_t*, size_t)> hook;
    {
      MutexLock lock(query_fault_hook_mutex_);
      hook = query_fault_hook_;
    }
    if (hook) hook(keys, count);
  }
  obs::ScopedLatency timer(query_exec_hist_);
  query_batch_keys_hist_->Record(count);
  const uint64_t exec_start_ns = trace != nullptr ? obs::NowNanos() : 0;
  {
    ReaderMutexLock snapshot_guard(snapshot_mutex_);
    // Deep layers (ShardedFilter's per-shard probes) pick the trace up via
    // the thread-local; the shard-probe spans land inside the exec span.
    obs::ScopedCurrentTrace current(trace);
    QueryLocked(keys, count, out);
  }
  if (trace != nullptr) {
    trace->AddSpan(obs::TraceStage::kExec, exec_start_ns, obs::NowNanos());
  }
  query_batches_.fetch_add(1, std::memory_order_relaxed);
  keys_queried_.fetch_add(count, std::memory_order_relaxed);
}

namespace {

// Per-thread scratch for the cached query path (same pattern as
// ShardedFilter::ThreadLocalRouter): the batch path stays allocation-free
// after warm-up even with the front cache enabled.
struct QueryScratch {
  std::vector<uint64_t> miss_keys;
  std::vector<size_t> miss_pos;
  std::vector<uint8_t> miss_out;
};

QueryScratch& ThreadLocalQueryScratch() {
  static thread_local QueryScratch scratch;
  return scratch;
}

}  // namespace

void FilterService::QueryLocked(const uint64_t* keys, size_t count,
                                uint8_t* out) {
  if (front_cache_ == nullptr) {
    filter_->ContainsBatch(keys, count, out, RunnerFor(count));
    return;
  }
  // Split the batch at the cache: hits are answered immediately (these are
  // answers the filter itself gave earlier, so observable results are
  // unchanged), only misses pay the router/shard path.
  QueryScratch& scratch = ThreadLocalQueryScratch();
  scratch.miss_keys.clear();
  scratch.miss_pos.clear();
  scratch.miss_keys.reserve(count);
  scratch.miss_pos.reserve(count);
  uint64_t cache_hits = 0;
  for (size_t i = 0; i < count; ++i) {
    if (front_cache_->Lookup(keys[i])) {
      out[i] = 1;
      ++cache_hits;
    } else {
      scratch.miss_keys.push_back(keys[i]);
      scratch.miss_pos.push_back(i);
    }
  }
  if (!scratch.miss_keys.empty()) {
    scratch.miss_out.resize(scratch.miss_keys.size());
    filter_->ContainsBatch(scratch.miss_keys.data(), scratch.miss_keys.size(),
                           scratch.miss_out.data(),
                           RunnerFor(scratch.miss_keys.size()));
    for (size_t m = 0; m < scratch.miss_keys.size(); ++m) {
      out[scratch.miss_pos[m]] = scratch.miss_out[m];
      if (scratch.miss_out[m]) front_cache_->Store(scratch.miss_keys[m]);
    }
    front_cache_misses_.fetch_add(scratch.miss_keys.size(),
                                  std::memory_order_relaxed);
  }
  if (cache_hits != 0) {
    front_cache_hits_.fetch_add(cache_hits, std::memory_order_relaxed);
  }
}

bool FilterService::Contains(uint64_t key) const {
  if (front_cache_ != nullptr) {
    if (front_cache_->Lookup(key)) {
      front_cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    front_cache_misses_.fetch_add(1, std::memory_order_relaxed);
    const bool hit = filter_->Contains(key);
    if (hit) front_cache_->Store(key);
    return hit;
  }
  return filter_->Contains(key);
}

void FilterService::WorkerLoop() {
  for (;;) {
    Request request;
    FanoutJob* job = nullptr;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty() && fanout_jobs_.empty()) {
        queue_nonempty_.Wait(mutex_);
      }
      if (!fanout_jobs_.empty()) {
        // Help first: the batch is already running and its caller is
        // waiting on it, while a queued request has not started.
        job = fanout_jobs_.front();
        ++job->helpers;
      } else if (queue_.empty()) {
        if (stopping_) return;
        continue;
      } else {
        request = std::move(queue_.front());
        queue_.pop_front();
        ++in_flight_;
      }
    }
    if (job != nullptr) {
      HelpFanout(*job);
      continue;
    }
    const uint64_t picked_up_ns = obs::NowNanos();
    queue_wait_hist_->Record(picked_up_ns - request.enqueue_ns);
    if (request.trace != nullptr) {
      request.trace->AddSpan(obs::TraceStage::kQueueWait, request.enqueue_ns,
                             picked_up_ns);
    }
    queue_nonfull_.NotifyOne();
    Execute(request);
    {
      MutexLock lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_.NotifyAll();
    }
  }
}

ShardGroupRunner FilterService::RunnerFor(size_t count) const {
  if (num_threads_ == 0 ||
      count < fanout_min_keys_.load(std::memory_order_relaxed)) {
    return kRunShardGroupsInOrder;
  }
  return fanout_runner_;
}

void FilterService::RunFanout(size_t num_groups,
                              FunctionRef<void(size_t)> run_group) {
  // The caller's own groups record their spans into its trace directly
  // (QueryShard reads the thread-local); helpers' spans are added below.
  obs::ActiveTrace* const trace = obs::CurrentTrace();
  FanoutJob job(num_groups, run_group, trace != nullptr);
  bool posted = num_groups > 1;
  if (posted) {
    MutexLock lock(mutex_);
    posted = !stopping_;  // a stopped pool has nobody left to help
    if (posted) fanout_jobs_.push_back(&job);
  }
  if (!posted) {
    kRunShardGroupsInOrder(num_groups, run_group);
    return;
  }
  queue_nonempty_.NotifyAll();
  uint64_t ran = 0;
  size_t group = 0;
  while (ClaimGroup(job, &group)) {
    run_group(group);
    ++ran;
  }
  {
    MutexLock lock(mutex_);
    // Every group is claimed, so the job is off the list (see ClaimGroup)
    // and no new helper can register; wait out those that did.
    while (job.helpers != 0) job.helpers_done.Wait(mutex_);
  }
  if (trace != nullptr) {
    for (const obs::TraceSpan& span : job.helper_spans) {
      trace->AddSpan(static_cast<obs::TraceStage>(span.stage), span.start_ns,
                     span.end_ns, span.detail);
    }
    trace->t.spans_dropped += job.helper_spans_dropped;
  }
  fanout_caller_groups_.fetch_add(ran, std::memory_order_relaxed);
}

bool FilterService::ClaimGroup(FanoutJob& job, size_t* group) {
  const size_t g = job.next_group.fetch_add(1, std::memory_order_relaxed);
  if (g + 1 >= job.num_groups) {
    MutexLock lock(mutex_);
    const auto it =
        std::find(fanout_jobs_.begin(), fanout_jobs_.end(), &job);
    if (it != fanout_jobs_.end()) fanout_jobs_.erase(it);
  }
  *group = g;
  return g < job.num_groups;
}

void FilterService::HelpFanout(FanoutJob& job) {
  // Holds this helper's shard-probe spans until the caller, the trace's one
  // writer, adds them after the join.
  obs::ActiveTrace spans;
  uint64_t ran = 0;
  {
    obs::ScopedCurrentTrace current(job.traced ? &spans : nullptr);
    size_t group = 0;
    while (ClaimGroup(job, &group)) {
      job.run_group(group);
      ++ran;
    }
  }
  fanout_helper_groups_.fetch_add(ran, std::memory_order_relaxed);
  MutexLock lock(mutex_);
  job.helper_spans.insert(job.helper_spans.end(), spans.t.spans,
                          spans.t.spans + spans.t.span_count);
  job.helper_spans_dropped += spans.t.spans_dropped;
  // Notified under mutex_: the caller cannot wake, return and destroy the
  // job until this thread has released the lock.
  if (--job.helpers == 0) job.helpers_done.NotifyAll();
}

size_t FilterService::QueueDepth() {
  MutexLock lock(mutex_);
  return queue_.size();
}

void FilterService::Drain() {
  if (num_threads_ == 0) return;
  MutexLock lock(mutex_);
  while (!queue_.empty() || in_flight_ != 0) idle_.Wait(mutex_);
}

bool FilterService::Snapshot(std::vector<uint8_t>* out) {
  // Exclusive against InsertBatchSync: an insert racing the serialization
  // would otherwise be acknowledged yet only partially captured (its keys in
  // already-serialized shards silently dropped — false negatives after
  // Restore).  Held only for the serialization itself.
  WriterMutexLock snapshot_guard(snapshot_mutex_);
  return filter_->SerializeTo(out);
}

std::shared_ptr<ShardedFilter> FilterService::Restore(const uint8_t* data,
                                                      size_t len) {
  std::unique_ptr<AnyFilter> any = DeserializeFilter(data, len);
  auto* sharded = dynamic_cast<ShardedFilter*>(any.get());
  if (sharded == nullptr) return nullptr;
  any.release();
  return std::shared_ptr<ShardedFilter>(sharded);
}

FilterServiceStats FilterService::stats() const {
  FilterServiceStats s;
  s.insert_batches = insert_batches_.load(std::memory_order_relaxed);
  s.query_batches = query_batches_.load(std::memory_order_relaxed);
  s.keys_inserted = keys_inserted_.load(std::memory_order_relaxed);
  s.keys_queried = keys_queried_.load(std::memory_order_relaxed);
  s.insert_failures = insert_failures_.load(std::memory_order_relaxed);
  s.front_cache_hits = front_cache_hits_.load(std::memory_order_relaxed);
  s.front_cache_misses = front_cache_misses_.load(std::memory_order_relaxed);
  s.fanout_caller_groups =
      fanout_caller_groups_.load(std::memory_order_relaxed);
  s.fanout_helper_groups =
      fanout_helper_groups_.load(std::memory_order_relaxed);
  return s;
}

void FilterService::SetQueryFaultHookForTesting(
    std::function<void(const uint64_t* keys, size_t count)> hook) {
  MutexLock lock(query_fault_hook_mutex_);
  query_fault_hook_ = std::move(hook);
  query_fault_hook_armed_.store(query_fault_hook_ != nullptr,
                                std::memory_order_release);
}

void FilterService::Stop() {
  {
    // Idempotent: on a second call workers_ is already empty and the joins
    // below are no-ops.
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  queue_nonempty_.NotifyAll();
  queue_nonfull_.NotifyAll();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Workers exit only once the queue is empty, so every accepted batch has
  // completed by the time Stop() returns.
}

std::shared_ptr<FilterService> MakeFilterService(
    const std::string& filter_name, uint64_t capacity,
    FilterServiceOptions options, uint64_t seed) {
  ShardedFilterOptions sharded;
  if (!ShardedFilter::ParseName(filter_name, &sharded)) {
    sharded.num_shards = 1;
    sharded.backend = filter_name;
  }
  sharded.seed = seed;
  auto filter = ShardedFilter::Make(capacity, sharded);
  if (filter == nullptr) return nullptr;
  return std::make_shared<FilterService>(
      std::shared_ptr<ShardedFilter>(filter.release()), options);
}

}  // namespace prefixfilter
