// The prefix filter (paper §4): an incremental filter whose operations
// typically touch a single cache line.
//
// Two-level structure:
//   * Level 1, the *bin table*: m = ceil(n / (alpha * k)) pocket dictionaries
//     PD(25, 8, 25), two per cache line.  A key's fingerprint
//     FP(x) = (bin(x), fp(x)) maps it to one bin and to a mini-fingerprint
//     fp(x) = (q, r) in [25] x [256] (s = 6400, so k/s = 1/256).
//   * Level 2, the *spare*: any incremental filter over the fingerprint
//     universe, holding the fingerprints that do not fit in the bin table.
//
// Insertion (Algorithm 1) maintains the Prefix Invariant: a full bin keeps a
// maximal *prefix* of the sorted multiset of mini-fingerprints mapped to it,
// by always forwarding the maximum of {resident fingerprints} U {new one} to
// the spare.  Queries (Algorithm 2) therefore consult the spare only when
// the bin has overflowed AND the probed fingerprint is larger than the bin's
// maximum — which happens with probability <= 1/sqrt(2*pi*k) (Theorem 17).
// This is what removes the second cache miss that cuckoo/two-choice filters
// pay on every negative query.
//
// The spare's capacity is fixed at construction: n' = slack * E[X], where
// E[X] (the expected number of forwarded fingerprints) is computed exactly
// from the binomial analysis of §6.1, and slack defaults to the paper's 1.1.
#ifndef PREFIXFILTER_SRC_CORE_PREFIX_FILTER_H_
#define PREFIXFILTER_SRC_CORE_PREFIX_FILTER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/bounds.h"
#include "src/core/prefix_filter_stats.h"
#include "src/pd/pd256.h"
#include "src/util/aligned.h"
#include "src/util/hash.h"
#include "src/util/serialize.h"

namespace prefixfilter {

struct PrefixFilterOptions {
  // Maximal load factor of the bin table (the paper evaluates 0.95; 1.0
  // reproduces the worst-case analysis setting m = n/k).
  double bin_load_factor = 0.95;
  // Spare capacity slack over E[X] (§4.2.1 suggests 1.1; §6.1.1 shows 1.015
  // suffices for n >= 2^28 * k).
  double spare_slack = 1.1;
  // §4.4: query the spare before forwarding and skip duplicate fingerprints.
  // Off by default, matching the paper's prototype.
  bool avoid_spare_duplicates = false;
  uint64_t seed = 0x9f1e61a5u;
};

// SpareTraits must provide:
//   using FilterType = ...;                      // the spare filter
//   static FilterType Create(uint64_t n_prime, uint64_t seed);
//   static const char* Name();
// where FilterType supports Insert(uint64_t) -> bool, Contains(uint64_t)
// const -> bool, and SpaceBytes() const.  Create() applies the §7.1.1
// failure-avoidance sizing for that spare type.
template <typename SpareTraits>
class PrefixFilter {
 public:
  using Spare = typename SpareTraits::FilterType;

  static constexpr uint32_t kBinCapacity = PD256::kCapacity;   // k = 25
  static constexpr uint32_t kNumLists = PD256::kNumLists;      // 25
  static constexpr uint32_t kMiniFpRange = kNumLists * 256;    // s = 6400

  explicit PrefixFilter(uint64_t capacity, PrefixFilterOptions options = {})
      : capacity_(capacity),
        options_(options),
        num_bins_(NumBins(capacity, options.bin_load_factor)),
        spare_capacity_(analysis::SpareCapacity(capacity, num_bins_,
                                                kBinCapacity,
                                                options.spare_slack)),
        bins_(num_bins_),
        spare_(SpareTraits::Create(spare_capacity_, options.seed ^ 0x51a7eull)),
        hash_(options.seed) {}

  // Inserts a key (assumed not already present, per the incremental-filter
  // contract).  Returns false iff the filter failed, i.e. the spare could
  // not absorb a forwarded fingerprint.
  bool Insert(uint64_t key) {
    const uint64_t h = hash_(key);
    return InsertHashed(h, HashParts::Bin(h, num_bins_));
  }

  // Batched insert with the query path's rolling prefetch window: each bin
  // is requested for writing kWindow keys before it is inserted into, so the
  // bin misses overlap instead of serializing.  Keys are still inserted in
  // their original order, so the bins, the spare, stats() and the result are
  // exactly those of the scalar Insert loop.  Returns the number of failed
  // inserts (0 == every key absorbed).
  uint64_t InsertBatch(const uint64_t* keys, size_t count) {
    uint64_t failures = 0;
    ForEachPrefetched</*kWrite=*/1>(
        keys, count, [&](size_t, uint64_t h, uint64_t b) {
          failures += !InsertHashed(h, b);
        });
    return failures;
  }

  // Approximate membership: no false negatives; false positives with
  // probability bounded by FprBound().  Implements Algorithm 2: the Prefix
  // Invariant says the fingerprint can only be in the spare if the bin
  // overflowed and fp(x) exceeds the bin maximum.  Const in fact as well as
  // in name: the only write is a relaxed add to the query counters, so any
  // number of threads may probe at once.
  bool Contains(uint64_t key) const {
    const uint64_t h = hash_(key);
    bool spare = false;
    const bool hit = ContainsHashed(h, HashParts::Bin(h, num_bins_), &spare);
    query_counters_.Add(1, spare ? 1 : 0);
    return hit;
  }

  // Contains without the query counters, for a caller that counts its own
  // probes and never reads stats(): the factory's AnyFilter adapter, behind
  // which stats() is out of reach.  A sharded scalar probe then pays its
  // shard's hit-or-miss add and not this filter's add as well.
  bool ContainsUncounted(uint64_t key) const {
    const uint64_t h = hash_(key);
    bool spare = false;
    return ContainsHashed(h, HashParts::Bin(h, num_bins_), &spare);
  }

  // Batched membership with software prefetching.  Since almost every query
  // resolves within one cache line (Theorem 2(3)), keeping the next kWindow
  // bin loads in flight while a key resolves overlaps the misses that a
  // one-at-a-time loop would serialize.  Results are written to out[0..n);
  // the query counters take one add per batch.
  //
  // The uint8_t overload (0/1 results) is the canonical one: callers batching
  // into byte buffers (tests, benches, the service BatchRouter) use it
  // directly instead of aliasing a byte buffer as bool*.
  void ContainsBatch(const uint64_t* keys, size_t count, uint8_t* out) const {
    ContainsBatchImpl(keys, count, out);
  }
  void ContainsBatch(const uint64_t* keys, size_t count, bool* out) const {
    ContainsBatchImpl(keys, count, out);
  }

  uint64_t size() const { return inserts_; }
  uint64_t capacity() const { return capacity_; }
  uint64_t num_bins() const { return num_bins_; }
  uint64_t spare_capacity() const { return spare_capacity_; }

  size_t SpaceBytes() const { return bins_.SizeBytes() + spare_.SpaceBytes(); }
  double BitsPerKey() const {
    return 8.0 * static_cast<double>(SpaceBytes()) /
           static_cast<double>(capacity_);
  }

  // Corollary 31: analytic upper bound on the false positive rate, using the
  // spare's own analytic/empirical rate `spare_fpr` (<= 1 always valid).
  double FprBound(double spare_fpr = 1.0) const {
    return analysis::PrefixFilterFprBound(capacity_, num_bins_, kBinCapacity,
                                          kMiniFpRange, spare_fpr);
  }

  // A snapshot; the query counts are exact once concurrent probes are done.
  PrefixFilterStats stats() const {
    PrefixFilterStats s;
    s.inserts = inserts_;
    s.spare_inserts = spare_inserts_;
    s.evictions = evictions_;
    s.queries = query_counters_.queries();
    s.spare_queries = query_counters_.spare_queries();
    return s;
  }
  void ResetStats() {
    inserts_ = spare_inserts_ = evictions_ = 0;
    query_counters_.Reset();
  }
  // Zeroes only the query counters (keeps insertion accounting; useful for
  // measuring spare-query fractions at a given load).
  void ResetQueryStats() { query_counters_.Reset(); }
  const Spare& spare() const { return spare_; }

  std::string Name() const {
    return std::string("PF[") + SpareTraits::Name() + "]";
  }

  // Test hook: direct read access to a bin.
  const PD256& bin(uint64_t index) const { return bins_[index]; }

  // --- persistence (the LSM lifecycle: build once, persist next to the run,
  // load on restart) ---------------------------------------------------------

  static constexpr uint32_t kMagic = 0x50465046;  // "PFPF"

  void SerializeTo(std::vector<uint8_t>* out) const {
    ByteWriter w(out);
    w.U32(kMagic);
    w.U8(1);
    w.U64(capacity_);
    w.F64(options_.bin_load_factor);
    w.F64(options_.spare_slack);
    w.U8(options_.avoid_spare_duplicates ? 1 : 0);
    w.U64(options_.seed);
    w.U64(inserts_);
    w.U64(spare_inserts_);
    w.U64(evictions_);
    w.Raw(bins_.data(), bins_.SizeBytes());
    spare_.SerializeTo(out);
  }

  static std::optional<PrefixFilter> Deserialize(const uint8_t* data,
                                                 size_t len) {
    ByteReader r(data, len);
    if (r.U32() != kMagic || r.U8() != 1) return std::nullopt;
    PrefixFilterOptions options;
    const uint64_t capacity = r.U64();
    options.bin_load_factor = r.F64();
    options.spare_slack = r.F64();
    options.avoid_spare_duplicates = r.U8() != 0;
    options.seed = r.U64();
    const uint64_t inserts = r.U64();
    const uint64_t spare_inserts = r.U64();
    const uint64_t evictions = r.U64();
    if (!r.ok() || capacity == 0 || options.bin_load_factor <= 0 ||
        options.bin_load_factor > 1.0 || options.spare_slack < 1.0) {
      return std::nullopt;
    }
    // Geometry check before allocating: the bin table alone must fit in the
    // remaining payload (corrupted capacity fields would otherwise trigger
    // enormous allocations).
    const uint64_t num_bins = NumBins(capacity, options.bin_load_factor);
    if (num_bins > r.remaining() / sizeof(PD256) + 1 ||
        RoundUpToCacheLine(num_bins * sizeof(PD256)) > r.remaining()) {
      return std::nullopt;
    }
    PrefixFilter f(capacity, options);
    if (!r.Raw(f.bins_.data(), f.bins_.SizeBytes())) return std::nullopt;
    auto spare = Spare::Deserialize(data + (len - r.remaining()), r.remaining());
    if (!spare.has_value()) return std::nullopt;
    f.spare_ = std::move(*spare);
    f.inserts_ = inserts;
    f.spare_inserts_ = spare_inserts;
    f.evictions_ = evictions;
    return f;
  }

 private:
  // The batch paths' shared loop, a rolling prefetch window: key i+kWindow
  // is hashed, binned and its bin prefetched (kWrite selects a read or a
  // write prefetch) just before key i resolves, from a kWindow-slot ring, so
  // a full window of bin loads stays in flight through the whole batch.
  // resolve(index, hash, bin) sees the keys in their original order.
  template <int kWrite, typename Resolve>
  void ForEachPrefetched(const uint64_t* keys, size_t count,
                         Resolve&& resolve) const {
    constexpr size_t kWindow = 16;
    uint64_t hashes[kWindow];
    uint64_t bins[kWindow];
    const auto stage = [&](size_t i) {
      const size_t slot = i % kWindow;
      hashes[slot] = hash_(keys[i]);
      bins[slot] = HashParts::Bin(hashes[slot], num_bins_);
      __builtin_prefetch(&bins_[bins[slot]], kWrite, 1);
    };
    const size_t lead = std::min(kWindow, count);
    for (size_t i = 0; i < lead; ++i) stage(i);
    size_t i = 0;
    for (; i + kWindow < count; ++i) {
      // Key i+kWindow reuses key i's slot: read it out before restaging.
      const uint64_t h = hashes[i % kWindow];
      const uint64_t b = bins[i % kWindow];
      stage(i + kWindow);
      resolve(i, h, b);
    }
    for (; i < count; ++i) resolve(i, hashes[i % kWindow], bins[i % kWindow]);
  }

  template <typename Out>
  void ContainsBatchImpl(const uint64_t* keys, size_t count, Out* out) const {
    uint64_t spare_queries = 0;
    ForEachPrefetched</*kWrite=*/0>(
        keys, count, [&](size_t i, uint64_t h, uint64_t b) {
          bool spare = false;
          out[i] = static_cast<Out>(ContainsHashed(h, b, &spare));
          spare_queries += spare;
        });
    query_counters_.Add(count, spare_queries);
  }

  // Algorithm 1 for a key whose hash h and bin b are already computed.
  bool InsertHashed(uint64_t h, uint64_t b) {
    const int q = static_cast<int>(HashParts::Quotient(h, kNumLists));
    const uint8_t r = HashParts::Remainder(h);
    ++inserts_;

    PD256& bin = bins_[b];
    if (bin.Insert(q, r)) return true;  // bin not full: common case

    // Bin full: forward max{FP(x), max of bin} to the spare (Algorithm 1).
    if (!bin.Overflowed()) bin.MarkOverflowed();
    const uint16_t fp_new = MiniFp(q, r);
    const uint16_t fp_max = bin.MaxFingerprint();
    const uint16_t forwarded = fp_new > fp_max ? fp_new : fp_max;
    ++spare_inserts_;
    if (fp_new <= fp_max) {
      ++evictions_;
      bin.ReplaceMax(q, r);
    }
    const uint64_t spare_key = SpareKey(b, forwarded);
    if (options_.avoid_spare_duplicates && spare_.Contains(spare_key)) {
      return true;
    }
    return spare_.Insert(spare_key);
  }

  // Algorithm 2 for a key whose hash h and bin b are already computed.
  // Writes no member: a visit to the spare is reported through *spare, and
  // the caller counts it.
  bool ContainsHashed(uint64_t h, uint64_t b, bool* spare) const {
    const int q = static_cast<int>(HashParts::Quotient(h, kNumLists));
    const uint8_t r = HashParts::Remainder(h);
    const PD256& bin = bins_[b];
    if (bin.Overflowed() && MiniFp(q, r) > bin.MaxFingerprint()) {
      *spare = true;
      return spare_.Contains(SpareKey(b, MiniFp(q, r)));
    }
    return bin.Find(q, r);
  }

  static uint64_t NumBins(uint64_t capacity, double load_factor) {
    const double bins = std::ceil(
        static_cast<double>(capacity) / (load_factor * kBinCapacity));
    return std::max<uint64_t>(2, static_cast<uint64_t>(bins));
  }

  static uint16_t MiniFp(int q, uint8_t r) {
    return static_cast<uint16_t>((q << 8) | r);
  }

  // The spare approximates the multiset of full fingerprints; encode
  // (bin, mini-fp) injectively into the 64-bit universe the spare hashes.
  uint64_t SpareKey(uint64_t b, uint16_t fp) const {
    return b * kMiniFpRange + fp;
  }

  uint64_t capacity_;
  PrefixFilterOptions options_;
  uint64_t num_bins_;
  uint64_t spare_capacity_;
  AlignedBuffer<PD256> bins_;
  Spare spare_;
  Dietzfelbinger64 hash_;
  // Written only by the insert path, which the caller serializes.
  uint64_t inserts_ = 0;
  uint64_t spare_inserts_ = 0;
  uint64_t evictions_ = 0;
  QueryCounters query_counters_;
};

}  // namespace prefixfilter

#endif  // PREFIXFILTER_SRC_CORE_PREFIX_FILTER_H_
