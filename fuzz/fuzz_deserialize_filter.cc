// Fuzz target: DeserializeFilter over the AnyFilter envelope — the PFAE
// snapshot surface every factory backend (each concrete family plus
// SHARD<n>[...] composites) restores through.
//
// Any input must either be rejected (nullptr) or produce a fully working
// filter: queries answer, serialization round-trips, and the round-tripped
// image restores again.  A restored-but-broken filter is a bug even if
// nothing crashes.
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/filter_factory.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  auto filter = prefixfilter::DeserializeFilter(data, size);
  if (filter == nullptr) return 0;

  // The restored filter must be usable: probe the whole AnyFilter surface.
  const uint64_t keys[4] = {0, 1, 0x9e3779b97f4a7c15ULL, ~uint64_t{0}};
  uint8_t out[4] = {0, 0, 0, 0};
  filter->ContainsBatch(keys, 4, out);
  for (uint64_t key : keys) (void)filter->Contains(key);
  (void)filter->SpaceBytes();
  (void)filter->Capacity();
  (void)filter->Name();
  // A full filter may legitimately refuse inserts; it must not crash.
  (void)filter->Insert(0x5eedULL);
  (void)filter->InsertBatch(keys, 4);

  // Serialization round-trip: what a valid envelope restores must itself
  // re-serialize into a restorable envelope.
  std::vector<uint8_t> reserialized;
  if (filter->SerializeTo(&reserialized)) {
    auto again = prefixfilter::DeserializeFilter(reserialized.data(),
                                                 reserialized.size());
    if (again == nullptr) __builtin_trap();
    if (again->Name() != filter->Name()) __builtin_trap();
  }
  return 0;
}
