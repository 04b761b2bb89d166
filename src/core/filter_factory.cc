#include "src/core/filter_factory.h"

#include <utility>

#include "src/core/prefix_filter.h"
#include "src/core/spare.h"
#include "src/filters/blocked_bloom.h"
#include "src/filters/bloom.h"
#include "src/filters/fast_multiblock.h"
#include "src/filters/cuckoo.h"
#include "src/filters/twochoicer.h"
// Deliberate .cc-level reach into src/service/ for the SHARD<n>[...] names:
// the headers stay acyclic (service includes core, never the reverse), and
// the alternative — a static-init registration hook — silently breaks in a
// static library, where the linker drops sharded_filter.o (and its
// registrar) from any binary that names sharded configs without referencing
// a service symbol directly.
#include "src/service/sharded_filter.h"
#include "src/util/serialize.h"

namespace prefixfilter {
namespace {

// Adapts any concrete filter to the AnyFilter interface.  `factory_name` is
// the canonical MakeFilter() spelling, kept so snapshots are tagged with a
// name DeserializeFilter() can dispatch on (a filter's own Name() may embed
// derived parameters, e.g. "BF-8[k=6]").
template <typename F>
class FilterAdapter final : public AnyFilter {
 public:
  FilterAdapter(F filter, std::string factory_name)
      : filter_(std::move(filter)), factory_name_(std::move(factory_name)) {}

  bool Insert(uint64_t key) override { return filter_.Insert(key); }
  // The wrapped filter's stats() cannot be reached from here, so a prefix
  // filter is probed without its per-key query-counter add (a relaxed RMW;
  // the sharded filter's scalar probe runs through here under a shared
  // shard lock).  Batches add theirs once per batch, which costs nothing
  // per key.
  bool Contains(uint64_t key) const override {
    if constexpr (requires { filter_.ContainsUncounted(key); }) {
      return filter_.ContainsUncounted(key);
    } else {
      return filter_.Contains(key);
    }
  }
  // Devirtualized batch hot paths: one virtual dispatch per batch, then the
  // concrete filter's prefetching batch loop, or a concrete loop over
  // filter_ (inlined Contains/Insert — no per-key virtual calls) for filters
  // without one.
  void ContainsBatch(const uint64_t* keys, size_t count,
                     uint8_t* out) const override {
    ContainsBatchOrScalar(filter_, keys, count, out);
  }
  uint64_t InsertBatch(const uint64_t* keys, size_t count) override {
    return InsertBatchOrScalar(filter_, keys, count);
  }
  bool SerializeTo(std::vector<uint8_t>* out) const override {
    WriteFilterEnvelope(factory_name_, out);
    filter_.SerializeTo(out);
    return true;
  }
  size_t SpaceBytes() const override { return filter_.SpaceBytes(); }
  uint64_t Capacity() const override { return filter_.capacity(); }
  std::string Name() const override { return filter_.Name(); }

  F& filter() { return filter_; }

 private:
  F filter_;
  std::string factory_name_;
};

template <typename F>
std::unique_ptr<AnyFilter> Wrap(F filter, std::string factory_name) {
  return std::make_unique<FilterAdapter<F>>(std::move(filter),
                                            std::move(factory_name));
}

// Restores a concrete filter from an envelope payload and re-wraps it.
// The restored filter's self-reported Name() must agree with the envelope
// tag ("payload/type mismatches -> nullptr"): payload fields fully determine
// the geometry, so a CF-8-Flex payload filed under a rewritten "CF-8" tag
// would otherwise restore with geometry the tag does not promise.  Bloom
// filters append derived parameters ("BF-8[k=6]"), hence the prefix form.
template <typename F>
std::unique_ptr<AnyFilter> Rewrap(const uint8_t* payload, size_t len,
                                  const std::string& factory_name) {
  auto filter = F::Deserialize(payload, len);
  if (!filter.has_value()) return nullptr;
  const std::string actual = filter->Name();
  if (actual != factory_name &&
      actual.rfind(factory_name + "[", 0) != 0) {
    return nullptr;
  }
  return Wrap(std::move(*filter), factory_name);
}

}  // namespace

// "PF[CF-12-Flex]" is accepted as an alias: the spare traits' own tag is
// "CF12-Flex" (see src/core/spare.h), which is what Name() reports.
std::string CanonicalFilterName(const std::string& name) {
  if (name == "PF[CF-12-Flex]") return "PF[CF12-Flex]";
  return name;
}

std::unique_ptr<AnyFilter> MakeFilter(const std::string& raw_name,
                                      uint64_t capacity, uint64_t seed) {
  const std::string name = CanonicalFilterName(raw_name);
  PrefixFilterOptions pf_options;
  pf_options.seed = seed;
  if (name == "BF-8") return Wrap(BloomFilter(capacity, 8.0, 6, seed), name);
  if (name == "BF-12") return Wrap(BloomFilter(capacity, 12.0, 8, seed), name);
  if (name == "BF-16") return Wrap(BloomFilter(capacity, 16.0, 11, seed), name);
  if (name == "BBF") {
    return Wrap(BlockedBloomFilter::MakeNonFlexible(capacity, seed), name);
  }
  if (name == "BBF-Flex") {
    return Wrap(BlockedBloomFilter::MakeFlexible(capacity, 10.67, seed), name);
  }
  if (name == "FMB32") {
    return Wrap(FastMultiBlock32::Make(capacity, 8.0, seed), name);
  }
  if (name == "FMB64") {
    return Wrap(FastMultiBlock64::Make(capacity, 12.0, seed), name);
  }
  if (name == "CF-8") return Wrap(CuckooFilter8(capacity, false, seed), name);
  if (name == "CF-8-Flex") {
    return Wrap(CuckooFilter8(capacity, true, seed), name);
  }
  if (name == "CF-12") return Wrap(CuckooFilter12(capacity, false, seed), name);
  if (name == "CF-12-Flex") {
    return Wrap(CuckooFilter12(capacity, true, seed), name);
  }
  if (name == "CF-16") return Wrap(CuckooFilter16(capacity, false, seed), name);
  if (name == "CF-16-Flex") {
    return Wrap(CuckooFilter16(capacity, true, seed), name);
  }
  if (name == "TC") return Wrap(TwoChoicer(capacity, seed), name);
  if (name == "PF[BBF-Flex]") {
    return Wrap(PrefixFilter<SpareBbfTraits>(capacity, pf_options), name);
  }
  if (name == "PF[CF12-Flex]") {
    return Wrap(PrefixFilter<SpareCf12Traits>(capacity, pf_options), name);
  }
  if (name == "PF[TC]") {
    return Wrap(PrefixFilter<SpareTcTraits>(capacity, pf_options), name);
  }
  // "SHARD<n>[<inner>]": hash-partitioned sharded filter over any
  // non-sharded inner configuration (src/service/sharded_filter.h).
  if (ShardedFilterOptions parsed; ShardedFilter::ParseName(name, &parsed)) {
    parsed.seed = seed;
    return ShardedFilter::Make(capacity, parsed);
  }
  return nullptr;
}

std::vector<std::string> KnownFilterNames() {
  return {"CF-8",  "CF-8-Flex",  "CF-12",    "CF-12-Flex",    "CF-16",
          "CF-16-Flex", "PF[BBF-Flex]", "PF[CF12-Flex]", "PF[TC]",
          "BBF",   "BBF-Flex",   "FMB32",    "FMB64",         "BF-8",
          "BF-12", "BF-16",      "TC",       "SHARD16[PF[TC]]"};
}

void WriteFilterEnvelope(const std::string& factory_name,
                         std::vector<uint8_t>* out) {
  ByteWriter w(out);
  w.U32(kAnyFilterMagic);
  w.U8(1);
  w.Str(factory_name);
}

std::unique_ptr<AnyFilter> DeserializeFilter(const uint8_t* data, size_t len) {
  ByteReader r(data, len);
  if (r.U32() != kAnyFilterMagic || r.U8() != 1) return nullptr;
  const std::string name = r.Str();
  if (!r.ok() || name.empty()) return nullptr;
  const uint8_t* payload = data + (len - r.remaining());
  const size_t payload_len = r.remaining();

  if (name == "BF-8" || name == "BF-12" || name == "BF-16") {
    return Rewrap<BloomFilter>(payload, payload_len, name);
  }
  if (name == "BBF" || name == "BBF-Flex") {
    return Rewrap<BlockedBloomFilter>(payload, payload_len, name);
  }
  if (name == "FMB32") {
    return Rewrap<FastMultiBlock32>(payload, payload_len, name);
  }
  if (name == "FMB64") {
    return Rewrap<FastMultiBlock64>(payload, payload_len, name);
  }
  if (name == "CF-8" || name == "CF-8-Flex") {
    return Rewrap<CuckooFilter8>(payload, payload_len, name);
  }
  if (name == "CF-12" || name == "CF-12-Flex") {
    return Rewrap<CuckooFilter12>(payload, payload_len, name);
  }
  if (name == "CF-16" || name == "CF-16-Flex") {
    return Rewrap<CuckooFilter16>(payload, payload_len, name);
  }
  if (name == "TC") return Rewrap<TwoChoicer>(payload, payload_len, name);
  if (name == "PF[BBF-Flex]") {
    return Rewrap<PrefixFilter<SpareBbfTraits>>(payload, payload_len, name);
  }
  if (name == "PF[CF12-Flex]") {
    return Rewrap<PrefixFilter<SpareCf12Traits>>(payload, payload_len, name);
  }
  if (name == "PF[TC]") {
    return Rewrap<PrefixFilter<SpareTcTraits>>(payload, payload_len, name);
  }
  if (ShardedFilterOptions parsed; ShardedFilter::ParseName(name, &parsed)) {
    return ShardedFilter::DeserializePayload(payload, payload_len, parsed);
  }
  return nullptr;
}

}  // namespace prefixfilter
