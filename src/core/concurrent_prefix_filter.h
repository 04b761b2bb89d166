// Concurrent prefix filter (paper §4.4).
//
// The paper observes that the prefix filter admits a simple, highly scalable
// concurrent implementation: because every operation touches exactly one
// bin, fine-grained per-bin locking suffices — unlike cuckoo or
// power-of-two-choices schemes, which may need to hold two bucket locks at
// once.  (A concurrent evaluation is outside the paper's scope; this module
// implements the scheme the paper sketches.)
//
// Locking discipline:
//   * Bin table: striped spinlocks, one stripe per cache line of bins (two
//     PD256s share a line, so per-line locking is the natural granularity).
//   * Spare: the paper assumes "a concurrent spare implementation".  We
//     build one by sharding: the spare's keyspace is hash-partitioned over
//     16 independent sub-filters, each guarded by its own (line-padded)
//     mutex, so the ~1/sqrt(2*pi*k) fraction of operations that reach the
//     spare contend only 1/16th of the time.
//   * The per-operation order is lock bin -> operate -> (if forwarding)
//     lock spare shard while still holding the bin lock, so the Prefix
//     Invariant ("bin holds a prefix; the rest is in the spare") is never
//     observed broken.  Lock order is always bin-then-shard: no deadlocks.
#ifndef PREFIXFILTER_SRC_CORE_CONCURRENT_PREFIX_FILTER_H_
#define PREFIXFILTER_SRC_CORE_CONCURRENT_PREFIX_FILTER_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/bounds.h"
#include "src/pd/pd256.h"
#include "src/util/aligned.h"
#include "src/util/bits.h"
#include "src/util/hash.h"
#include "src/util/thread_annotations.h"

namespace prefixfilter {

namespace internal {

// A test-and-set spinlock padded to a full cache line.  Padding matters:
// unpadded one-byte locks pack 64 to a line, so every acquisition
// invalidates a line shared by 64 stripes and lock traffic serializes the
// whole table (false sharing) — the opposite of the per-bin-locking point.
class PF_CAPABILITY("mutex") alignas(64) SpinLock {
 public:
  void lock() PF_ACQUIRE() {
    while (flag_.exchange(true, std::memory_order_acquire)) {
      while (flag_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__)
        __builtin_ia32_pause();
#endif
      }
    }
  }
  void unlock() PF_RELEASE() { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

// Scoped acquisition of a SpinLock the thread-safety analysis understands
// (std::lock_guard<SpinLock> acquires inside a system header, invisible to
// the analysis).
class PF_SCOPED_CAPABILITY SpinLockHolder {
 public:
  explicit SpinLockHolder(SpinLock& lock) PF_ACQUIRE(lock) : lock_(lock) {
    lock_.lock();
  }
  ~SpinLockHolder() PF_RELEASE() { lock_.unlock(); }

  SpinLockHolder(const SpinLockHolder&) = delete;
  SpinLockHolder& operator=(const SpinLockHolder&) = delete;

 private:
  SpinLock& lock_;
};

}  // namespace internal

template <typename SpareTraits>
class ConcurrentPrefixFilter {
 public:
  using Spare = typename SpareTraits::FilterType;

  static constexpr uint32_t kBinCapacity = PD256::kCapacity;
  static constexpr uint32_t kNumLists = PD256::kNumLists;
  static constexpr uint32_t kMiniFpRange = kNumLists * 256;

  // `spare_shards` partitions the concurrent spare into that many
  // independently-locked sub-filters (rounded up to a power of two;
  // default 16).  More shards buy less contention on the forwarding path at
  // the cost of per-shard sizing headroom.
  explicit ConcurrentPrefixFilter(uint64_t capacity,
                                  double bin_load_factor = 0.95,
                                  uint64_t seed = 0x9f1e61a5u,
                                  uint32_t spare_shards = kDefaultSpareShards)
      : capacity_(capacity),
        num_bins_(std::max<uint64_t>(
            2, static_cast<uint64_t>(
                   std::ceil(static_cast<double>(capacity) /
                             (bin_load_factor * kBinCapacity))))),
        spare_capacity_(
            analysis::SpareCapacity(capacity, num_bins_, kBinCapacity, 1.1)),
        bins_(num_bins_),
        num_lock_stripes_(std::min<uint64_t>(
            kMaxLockStripes, NextPow2((num_bins_ + kBinsPerLock - 1) /
                                      kBinsPerLock))),
        locks_(std::make_unique<internal::SpinLock[]>(num_lock_stripes_)),
        num_spare_shards_(static_cast<uint32_t>(NextPow2(std::clamp<uint32_t>(
            spare_shards, 1, kMaxSpareShards)))) {
    // Sharded concurrent spare: each shard holds its hash-partitioned slice
    // of the expected spare population plus balls-into-bins headroom.
    const uint64_t per_shard =
        spare_capacity_ / num_spare_shards_ +
        4 * static_cast<uint64_t>(std::sqrt(
                static_cast<double>(spare_capacity_) / num_spare_shards_)) +
        64;
    shards_.reserve(num_spare_shards_);
    for (uint32_t s = 0; s < num_spare_shards_; ++s) {
      shards_.push_back(std::make_unique<SpareShard>(
          SpareTraits::Create(per_shard, seed ^ (0x51a7eull + s))));
    }
    hash_ = Dietzfelbinger64(seed);
  }

  bool Insert(uint64_t key) {
    const uint64_t h = hash_(key);
    const uint64_t b = HashParts::Bin(h, num_bins_);
    const int q = static_cast<int>(HashParts::Quotient(h, kNumLists));
    const uint8_t r = HashParts::Remainder(h);

    internal::SpinLockHolder bin_guard(LockFor(b));
    PD256& bin = bins_[b];
    if (bin.Insert(q, r)) return true;
    if (!bin.Overflowed()) bin.MarkOverflowed();
    const uint16_t fp_new = static_cast<uint16_t>((q << 8) | r);
    const uint16_t fp_max = bin.MaxFingerprint();
    const uint16_t forwarded = fp_new > fp_max ? fp_new : fp_max;
    if (fp_new <= fp_max) bin.ReplaceMax(q, r);
    const uint64_t spare_key = b * kMiniFpRange + forwarded;
    SpareShard& shard = ShardFor(spare_key);
    MutexLock spare_guard(shard.mutex);
    return shard.filter.Insert(spare_key);
  }

  bool Contains(uint64_t key) const {
    const uint64_t h = hash_(key);
    const uint64_t b = HashParts::Bin(h, num_bins_);
    const int q = static_cast<int>(HashParts::Quotient(h, kNumLists));
    const uint8_t r = HashParts::Remainder(h);

    internal::SpinLockHolder bin_guard(LockFor(b));
    const PD256& bin = bins_[b];
    const uint16_t fp = static_cast<uint16_t>((q << 8) | r);
    if (bin.Overflowed() && fp > bin.MaxFingerprint()) {
      const uint64_t spare_key = b * kMiniFpRange + fp;
      SpareShard& shard = ShardFor(spare_key);
      MutexLock spare_guard(shard.mutex);
      return shard.filter.Contains(spare_key);
    }
    return bin.Find(q, r);
  }

  uint64_t capacity() const { return capacity_; }
  uint64_t num_bins() const { return num_bins_; }
  uint32_t spare_shards() const { return num_spare_shards_; }
  size_t SpaceBytes() const {
    // bins_.SizeBytes() is construction-time geometry, but shard->filter is
    // a guarded member and the annotations flagged this walk as unlocked.
    // No backend races today (every SpaceBytes() reads fixed geometry); the
    // locks close the exception before a future occupancy-derived spare
    // turns it into a real race — see
    // ConcurrentPrefixFilter.SpaceBytesConcurrentWithInserts.
    size_t total = bins_.SizeBytes();
    for (const auto& shard : shards_) {
      MutexLock guard(shard->mutex);
      total += shard->filter.SpaceBytes();
    }
    return total;
  }
  std::string Name() const {
    return std::string("ConcurrentPF[") + SpareTraits::Name() + "]";
  }

 private:
  // Two 32-byte PDs share a 64-byte cache line; lock at line granularity,
  // striped (bins sharing a line always share a stripe, so the locking is
  // still logically per-bin-line; the cap only bounds lock memory).
  static constexpr uint64_t kBinsPerLock = 2;
  static constexpr uint64_t kMaxLockStripes = 1 << 16;
  static constexpr uint32_t kDefaultSpareShards = 16;
  // Bounds the shard count before NextPow2 (whose uint64_t result would
  // otherwise truncate to 0 in uint32_t for requests above 2^31).
  static constexpr uint32_t kMaxSpareShards = 1 << 12;

  struct SpareShard {
    explicit SpareShard(Spare f) : filter(std::move(f)) {}
    alignas(64) Mutex mutex;
    Spare filter PF_GUARDED_BY(mutex);
  };

  internal::SpinLock& LockFor(uint64_t bin) const {
    return locks_[(bin / kBinsPerLock) & (num_lock_stripes_ - 1)];
  }

  SpareShard& ShardFor(uint64_t spare_key) const {
    return *shards_[Mix64(spare_key * 0x9e3779b97f4a7c15ULL) &
                    (num_spare_shards_ - 1)];
  }

  uint64_t capacity_;
  uint64_t num_bins_;
  uint64_t spare_capacity_;
  AlignedBuffer<PD256> bins_;
  uint64_t num_lock_stripes_;
  std::unique_ptr<internal::SpinLock[]> locks_;
  uint32_t num_spare_shards_;
  std::vector<std::unique_ptr<SpareShard>> shards_;
  Dietzfelbinger64 hash_;
};

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_CORE_CONCURRENT_PREFIX_FILTER_H_
