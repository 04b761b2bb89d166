// The BE filter (Bercea & Even [6, 7]) — the prefix filter's theoretical
// ancestor, implemented here as an ablation baseline (paper §4.4).
//
// Architecture: the same two-level structure as the prefix filter — a bin
// table of pocket dictionaries plus a spare — but WITHOUT the eviction
// policy.  On insertion into a full bin, the *incoming* fingerprint goes to
// the spare (no comparison with residents), so bins hold an arbitrary
// subset of their fingerprints rather than a maximal prefix.  Consequently a
// negative query can never rule out the spare and must always search both
// levels: two cache lines per query instead of ~1.08.
//
// Differences from the theoretical BE filter that we keep from the prefix
// filter (so the ablation isolates exactly the eviction policy / Prefix
// Invariant):
//   * the spare is a filter over fingerprints, not a dictionary of keys
//     (§4.4 difference (2)/(3); a dictionary spare would be hopeless at
//     practical sizes, as the paper observes);
//   * identical bin table geometry, hashing, and sizing.
#ifndef PREFIXFILTER_SRC_CORE_BE_FILTER_H_
#define PREFIXFILTER_SRC_CORE_BE_FILTER_H_

#include <cmath>
#include <cstdint>
#include <string>

#include "src/analysis/bounds.h"
#include "src/core/prefix_filter_stats.h"
#include "src/pd/pd256.h"
#include "src/util/aligned.h"
#include "src/util/hash.h"

namespace prefixfilter {

template <typename SpareTraits>
class BeFilter {
 public:
  using Spare = typename SpareTraits::FilterType;

  static constexpr uint32_t kBinCapacity = PD256::kCapacity;
  static constexpr uint32_t kNumLists = PD256::kNumLists;
  static constexpr uint32_t kMiniFpRange = kNumLists * 256;

  explicit BeFilter(uint64_t capacity, double bin_load_factor = 0.95,
                    uint64_t seed = 0x9f1e61a5u)
      : capacity_(capacity),
        num_bins_(std::max<uint64_t>(
            2, static_cast<uint64_t>(
                   std::ceil(static_cast<double>(capacity) /
                             (bin_load_factor * kBinCapacity))))),
        spare_capacity_(
            analysis::SpareCapacity(capacity, num_bins_, kBinCapacity, 1.1)),
        bins_(num_bins_),
        spare_(SpareTraits::Create(spare_capacity_, seed ^ 0x51a7eull)),
        hash_(seed) {}

  bool Insert(uint64_t key) {
    const uint64_t h = hash_(key);
    const uint64_t b = HashParts::Bin(h, num_bins_);
    const int q = static_cast<int>(HashParts::Quotient(h, kNumLists));
    const uint8_t r = HashParts::Remainder(h);
    ++inserts_;
    PD256& bin = bins_[b];
    if (bin.Insert(q, r)) return true;
    // Full bin: forward the new fingerprint, no eviction (the BE design).
    ++spare_inserts_;
    return spare_.Insert(SpareKey(b, q, r));
  }

  bool Contains(uint64_t key) const {
    const uint64_t h = hash_(key);
    const uint64_t b = HashParts::Bin(h, num_bins_);
    const int q = static_cast<int>(HashParts::Quotient(h, kNumLists));
    const uint8_t r = HashParts::Remainder(h);
    const bool in_bin = bins_[b].Find(q, r);
    // Without the Prefix Invariant there is no way to skip the spare.
    query_counters_.Add(1, in_bin ? 0 : 1);
    return in_bin || spare_.Contains(SpareKey(b, q, r));
  }

  uint64_t capacity() const { return capacity_; }
  uint64_t num_bins() const { return num_bins_; }
  size_t SpaceBytes() const { return bins_.SizeBytes() + spare_.SpaceBytes(); }
  PrefixFilterStats stats() const {
    PrefixFilterStats s;
    s.inserts = inserts_;
    s.spare_inserts = spare_inserts_;
    s.queries = query_counters_.queries();
    s.spare_queries = query_counters_.spare_queries();
    return s;
  }
  std::string Name() const {
    return std::string("BE[") + SpareTraits::Name() + "]";
  }

 private:
  uint64_t SpareKey(uint64_t b, int q, uint8_t r) const {
    return b * kMiniFpRange + static_cast<uint64_t>((q << 8) | r);
  }

  uint64_t capacity_;
  uint64_t num_bins_;
  uint64_t spare_capacity_;
  AlignedBuffer<PD256> bins_;
  Spare spare_;
  Dietzfelbinger64 hash_;
  uint64_t inserts_ = 0;
  uint64_t spare_inserts_ = 0;
  QueryCounters query_counters_;
};

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_CORE_BE_FILTER_H_
