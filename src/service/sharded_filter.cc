#include "src/service/sharded_filter.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <utility>

#include "src/obs/trace.h"
#include "src/service/batch_router.h"
#include "src/util/bits.h"
#include "src/util/serialize.h"

namespace prefixfilter {
namespace {

// Bounds on constructor/snapshot inputs so the per-shard capacity math stays
// inside the exactly-representable double range (the double->uint64 cast in
// PerShardCapacity is undefined past 2^64; crafted snapshot fields must be
// rejected, not cast).
constexpr uint64_t kMaxCapacity = uint64_t{1} << 48;
constexpr double kMaxHeadroomStddevs = 64.0;

uint64_t PerShardCapacity(uint64_t capacity, uint32_t num_shards,
                          double headroom_stddevs) {
  const double p = 1.0 / num_shards;
  const double mean = static_cast<double>(capacity) * p;
  const double stddev =
      std::sqrt(static_cast<double>(capacity) * p * (1.0 - p));
  return static_cast<uint64_t>(std::ceil(mean + headroom_stddevs * stddev)) +
         16;
}

// One router per thread, shared by the batch query and insert paths (its
// scratch grows to the largest batch seen; two independent thread_locals
// would double that footprint on threads doing both).
BatchRouter& ThreadLocalRouter() {
  thread_local BatchRouter router;
  return router;
}

// Peeks the factory name out of an AnyFilter envelope without consuming it.
std::string PeekEnvelopeName(const uint8_t* data, size_t len) {
  ByteReader r(data, len);
  if (r.U32() != kAnyFilterMagic || r.U8() != 1) return std::string();
  std::string name = r.Str();
  return r.ok() ? name : std::string();
}

}  // namespace

ShardedFilter::ShardedFilter(uint64_t capacity, ShardedFilterOptions options)
    : capacity_(capacity),
      options_(std::move(options)),
      num_shards_(static_cast<uint32_t>(
          NextPow2(std::max<uint32_t>(1, options_.num_shards)))),
      shard_bits_(num_shards_ == 1 ? 0 : HighestSetBit64(num_shards_)),
      shard_salt_(Mix64(options_.seed ^ 0x5a4d9b4cf1e273a1ULL)),
      per_shard_capacity_(
          PerShardCapacity(capacity, num_shards_, options_.headroom_stddevs)) {
  options_.num_shards = num_shards_;
  shards_.reserve(num_shards_);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::unique_ptr<ShardedFilter> ShardedFilter::Make(
    uint64_t capacity, ShardedFilterOptions options) {
  options.backend = CanonicalFilterName(options.backend);
  if (options.backend.rfind("SHARD", 0) == 0 || options.num_shards == 0 ||
      options.num_shards > ShardedFilter::kMaxShards || capacity == 0 ||
      capacity > kMaxCapacity || !(options.headroom_stddevs >= 0.0) ||
      options.headroom_stddevs > kMaxHeadroomStddevs) {
    return nullptr;
  }
  auto filter = std::unique_ptr<ShardedFilter>(
      new ShardedFilter(capacity, std::move(options)));
  for (uint32_t s = 0; s < filter->num_shards_; ++s) {
    // Independent per-shard seeds: each shard is a fully independent filter
    // (independent hash functions), as if it served its slice alone.
    const uint64_t shard_seed =
        filter->options_.seed ^ Mix64(filter->shard_salt_ + s);
    // The filter is not yet published, so the lock is uncontended; taking it
    // anyway satisfies the guarded_by proof without an analysis exception.
    Shard& shard = *filter->shards_[s];
    WriterMutexLock guard(shard.mutex);
    shard.filter = MakeFilter(filter->options_.backend,
                              filter->per_shard_capacity_, shard_seed);
    if (shard.filter == nullptr) return nullptr;
  }
  return filter;
}

bool ShardedFilter::ParseName(const std::string& name,
                              ShardedFilterOptions* options) {
  constexpr char kPrefix[] = "SHARD";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (name.rfind(kPrefix, 0) != 0) return false;
  size_t i = kPrefixLen;
  uint64_t shards = 0;
  while (i < name.size() && name[i] >= '0' && name[i] <= '9') {
    shards = shards * 10 + static_cast<uint64_t>(name[i] - '0');
    if (shards > ShardedFilter::kMaxShards) return false;
    ++i;
  }
  // Power-of-two counts only: rounding here would make Name() differ from
  // the configuration name the filter was requested by, silently breaking
  // every registry keyed on the factory name.
  if (i == kPrefixLen || shards == 0 || (shards & (shards - 1)) != 0) {
    return false;
  }
  if (i >= name.size() || name[i] != '[') return false;
  if (name.back() != ']') return false;
  // Canonicalize the inner name here so Name(), shard construction, and the
  // per-shard snapshot envelopes all agree on one spelling (a snapshot
  // written under an alias backend would otherwise never restore: shard
  // blobs are tagged canonically while DeserializePayload compares against
  // the parsed backend string).
  const std::string inner =
      CanonicalFilterName(name.substr(i + 1, name.size() - i - 2));
  if (inner.empty() || inner.rfind(kPrefix, 0) == 0) return false;
  options->num_shards = static_cast<uint32_t>(shards);
  options->backend = inner;
  return true;
}

bool ShardedFilter::Insert(uint64_t key) {
  Shard& shard = *shards_[ShardOf(key)];
  WriterMutexLock guard(shard.mutex);
  ++shard.inserts;
  if (shard.filter->Insert(key)) return true;
  ++shard.insert_failures;
  return false;
}

bool ShardedFilter::Contains(uint64_t key) const {
  Shard& shard = *shards_[ShardOf(key)];
  bool hit;
  {
    ReaderMutexLock guard(shard.mutex);
    hit = shard.filter->Contains(key);
  }
  shard.CountProbes(1, hit ? 1 : 0);
  return hit;
}

void ShardedFilter::ContainsBatch(const uint64_t* keys, size_t count,
                                  uint8_t* out) const {
  ContainsBatch(keys, count, out, kRunShardGroupsInOrder);
}

void ShardedFilter::ContainsBatch(const uint64_t* keys, size_t count,
                                  uint8_t* out,
                                  ShardGroupRunner runner) const {
  // Scalar fast path: a 1-key "batch" routes inline — counting-sorting a
  // single key would pay the router's full per-batch setup (the ~35-40%
  // single-thread overhead the PR-2 sweep flagged).
  if (count == 1) {
    out[0] = Contains(keys[0]) ? 1 : 0;
    return;
  }
  // Single-shard fast path: every key lands in shard 0, so the grouping
  // passes are pure overhead — drain the batch straight through the shard's
  // prefetching ContainsBatch under one lock.
  if (shard_bits_ == 0) {
    QueryShard(0, keys, count, out);
    return;
  }
  // Reusable per-thread scratch: callers hammering the batch path (service
  // workers, benches) pay no per-call allocations after warm-up.
  ThreadLocalRouter().Route(*this, keys, count, out, runner);
}

void ShardedFilter::QueryShard(uint32_t shard_index, const uint64_t* keys,
                               size_t count, uint8_t* out) const {
  // Per-shard group size: how many keys of a routed batch landed together
  // (the distribution that tells whether counting-sort grouping is paying
  // off).  A null histogram (metrics not enabled) costs one predictable
  // branch.
  if (group_keys_hist_ != nullptr) group_keys_hist_->Record(count);
  // Traced requests record one span per shard group probed, including the
  // wait for the shard lock (readers wait only for an insert holding it
  // exclusive, which is exactly what a slow-request timeline needs to show).
  // Picked up through the thread-local so the AnyFilter interface stays
  // trace-free; constant-nullptr when PF_OBS=OFF.
  obs::ActiveTrace* trace = obs::CurrentTrace();
  const uint64_t probe_start_ns = trace != nullptr ? obs::NowNanos() : 0;
  Shard& shard = *shards_[shard_index];
  {
    ReaderMutexLock guard(shard.mutex);
    shard.filter->ContainsBatch(keys, count, out);
  }
  uint64_t hits = 0;
  for (size_t i = 0; i < count; ++i) hits += out[i];
  shard.CountProbes(count, hits);
  if (trace != nullptr) {
    trace->AddSpan(obs::TraceStage::kShardProbe, probe_start_ns,
                   obs::NowNanos(),
                   (static_cast<uint64_t>(shard_index) << 32) |
                       static_cast<uint64_t>(count & 0xffffffffu));
  }
}

uint64_t ShardedFilter::InsertShard(uint32_t shard_index,
                                    const uint64_t* keys, size_t count) {
  if (group_keys_hist_ != nullptr) group_keys_hist_->Record(count);
  Shard& shard = *shards_[shard_index];
  WriterMutexLock guard(shard.mutex);
  shard.inserts += count;
  // One devirtualized batch call per shard group: the adapter's concrete
  // batch insert (prefetching, for prefix-filter shards) runs under the
  // lock instead of count virtual Inserts.
  const uint64_t failures = shard.filter->InsertBatch(keys, count);
  shard.insert_failures += failures;
  return failures;
}

uint64_t ShardedFilter::InsertBatch(const uint64_t* keys, size_t count) {
  return InsertBatch(keys, count, kRunShardGroupsInOrder);
}

uint64_t ShardedFilter::InsertBatch(const uint64_t* keys, size_t count,
                                    ShardGroupRunner runner) {
  // Mirrors the ContainsBatch fast paths: no grouping work when there is
  // nothing to group.
  if (count == 1) return Insert(keys[0]) ? 0 : 1;
  if (shard_bits_ == 0) return InsertShard(0, keys, count);
  // Atomic because a concurrent runner's groups finish on several threads;
  // the runner's join orders every add before the load.
  std::atomic<uint64_t> failures{0};
  ThreadLocalRouter().RunGroups(
      *this, keys, count, runner,
      [&](uint32_t shard, const uint64_t* group, size_t n) {
        failures.fetch_add(InsertShard(shard, group, n),
                           std::memory_order_relaxed);
      });
  return failures.load(std::memory_order_relaxed);
}

bool ShardedFilter::SerializeTo(std::vector<uint8_t>* out) const {
  WriteFilterEnvelope(Name(), out);
  ByteWriter w(out);
  w.U8(1);  // sharded payload version
  w.U32(num_shards_);
  w.U64(capacity_);
  w.U64(options_.seed);
  w.F64(options_.headroom_stddevs);
  w.Str(options_.backend);
  std::vector<uint8_t> blob;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    Shard& shard = *shards_[s];
    blob.clear();
    ReaderMutexLock guard(shard.mutex);
    if (!shard.filter->SerializeTo(&blob)) return false;
    const ShardStats stats = StatsLocked(shard);
    w.U64(stats.inserts);
    w.U64(stats.insert_failures);
    w.U64(stats.queries);
    w.U64(stats.hits);
    w.U64(blob.size());
    w.Raw(blob.data(), blob.size());
  }
  return true;
}

std::unique_ptr<AnyFilter> ShardedFilter::DeserializePayload(
    const uint8_t* payload, size_t len, const ShardedFilterOptions& options) {
  ByteReader r(payload, len);
  if (r.U8() != 1) return nullptr;
  const uint32_t num_shards = r.U32();
  const uint64_t capacity = r.U64();
  const uint64_t seed = r.U64();
  const double headroom = r.F64();
  const std::string backend = r.Str();
  // The payload geometry must agree with the envelope name it was filed
  // under (the name encodes shard count and backend).
  if (!r.ok() || capacity == 0 || capacity > kMaxCapacity ||
      num_shards != options.num_shards ||
      (num_shards & (num_shards - 1)) != 0 || backend != options.backend ||
      !(headroom >= 0.0) || headroom > kMaxHeadroomStddevs ||
      backend.rfind("SHARD", 0) == 0) {
    return nullptr;
  }
  ShardedFilterOptions restored_options;
  restored_options.num_shards = num_shards;
  restored_options.backend = backend;
  restored_options.seed = seed;
  restored_options.headroom_stddevs = headroom;
  auto filter = std::unique_ptr<ShardedFilter>(
      new ShardedFilter(capacity, std::move(restored_options)));
  if (filter->num_shards_ != num_shards) return nullptr;
  for (uint32_t s = 0; s < num_shards; ++s) {
    ShardStats stats;
    stats.inserts = r.U64();
    stats.insert_failures = r.U64();
    stats.queries = r.U64();
    stats.hits = r.U64();
    const uint64_t blob_len = r.U64();
    if (!r.ok() || blob_len > r.remaining()) return nullptr;
    const uint8_t* blob = payload + (len - r.remaining());
    // Each shard blob must be an envelope for the declared backend; a valid
    // envelope of a *different* configuration is corruption, not a shard.
    if (PeekEnvelopeName(blob, blob_len) != backend) return nullptr;
    {
      // Unpublished filter: uncontended lock, same reasoning as Make().
      Shard& shard = *filter->shards_[s];
      WriterMutexLock guard(shard.mutex);
      shard.filter = DeserializeFilter(blob, blob_len);
      if (shard.filter == nullptr) return nullptr;
      shard.inserts = stats.inserts;
      shard.insert_failures = stats.insert_failures;
      shard.hits.store(stats.hits, std::memory_order_relaxed);
      // Modular: hits + misses gives back the stored queries field exactly.
      shard.misses.store(stats.queries - stats.hits,
                         std::memory_order_relaxed);
    }
    r.Skip(blob_len);
  }
  if (!r.ok() || r.remaining() != 0) return nullptr;
  return filter;
}

size_t ShardedFilter::SpaceBytes() const {
  // Takes each shard lock: the annotations surfaced that this walked
  // shard->filter (a guarded member) unlocked.  Today every backend's
  // SpaceBytes() reads construction-time geometry, so nothing races yet —
  // but the unlocked walk was one occupancy-derived backend away from a
  // silent data race, and it is exactly the kind of exception the analysis
  // exists to forbid.  See ShardedFilter.SpaceBytesConcurrentWithInserts.
  size_t total = 0;
  for (const auto& shard : shards_) {
    ReaderMutexLock guard(shard->mutex);
    total += shard->filter->SpaceBytes();
  }
  return total;
}

std::string ShardedFilter::Name() const {
  return "SHARD" + std::to_string(num_shards_) + "[" + options_.backend + "]";
}

ShardedFilter::~ShardedFilter() {
  // Must detach before the shards the collector reads are destroyed;
  // RemoveCollector blocks out any in-flight Collect().
  if (registry_ != nullptr) registry_->RemoveCollector(collector_id_);
}

void ShardedFilter::EnableMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr || registry_ != nullptr) return;
  registry_ = registry;
  group_keys_hist_ = registry->GetHistogram("shard.group.keys");
  // Scrape-time view over the ShardStats the shards already maintain —
  // per-shard occupancy (keys the shard absorbed), probe counts, and
  // hits cost the hot path nothing extra.
  collector_id_ = registry->AddCollector(
      [this](std::vector<obs::MetricSample>* samples) {
        for (uint32_t s = 0; s < num_shards_; ++s) {
          const ShardStats stats = shard_stats(s);
          const std::string shard_label = std::to_string(s);
          obs::MetricSample occupancy;
          occupancy.name = "shard.occupancy.keys";
          occupancy.labels = {{"shard", shard_label}};
          occupancy.kind = obs::MetricKind::kGauge;
          occupancy.value =
              static_cast<int64_t>(stats.inserts - stats.insert_failures);
          samples->push_back(std::move(occupancy));
          obs::MetricSample probes;
          probes.name = "shard.probes";
          probes.labels = {{"shard", shard_label}};
          probes.kind = obs::MetricKind::kCounter;
          probes.value = static_cast<int64_t>(stats.queries);
          samples->push_back(std::move(probes));
          obs::MetricSample hits;
          hits.name = "shard.hits";
          hits.labels = {{"shard", shard_label}};
          hits.kind = obs::MetricKind::kCounter;
          hits.value = static_cast<int64_t>(stats.hits);
          samples->push_back(std::move(hits));
        }
      });
}

ShardStats ShardedFilter::StatsLocked(const Shard& shard) {
  ShardStats stats;
  stats.inserts = shard.inserts;
  stats.insert_failures = shard.insert_failures;
  stats.hits = shard.hits.load(std::memory_order_relaxed);
  stats.queries = stats.hits + shard.misses.load(std::memory_order_relaxed);
  return stats;
}

ShardStats ShardedFilter::shard_stats(uint32_t shard_index) const {
  Shard& shard = *shards_[shard_index];
  ReaderMutexLock guard(shard.mutex);
  return StatsLocked(shard);
}

ShardStats ShardedFilter::TotalStats() const {
  ShardStats total;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    const ShardStats stats = shard_stats(s);
    total.inserts += stats.inserts;
    total.insert_failures += stats.insert_failures;
    total.queries += stats.queries;
    total.hits += stats.hits;
  }
  return total;
}

}  // namespace prefixfilter
