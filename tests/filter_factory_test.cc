#include "src/core/filter_factory.h"

#include <vector>

#include <gtest/gtest.h>

#include "src/util/random.h"

namespace prefixfilter {
namespace {

TEST(FilterFactory, KnownNamesAllConstruct) {
  for (const auto& name : KnownFilterNames()) {
    auto f = MakeFilter(name, 10000, 1);
    ASSERT_NE(f, nullptr) << name;
    EXPECT_EQ(f->Capacity(), 10000u) << name;
  }
}

TEST(FilterFactory, UnknownNameReturnsNull) {
  EXPECT_EQ(MakeFilter("XorFilter", 1000), nullptr);
  EXPECT_EQ(MakeFilter("", 1000), nullptr);
  // The retired quotient filter's name, alone or as a shard backend.
  EXPECT_EQ(MakeFilter("QF", 1000), nullptr);
  EXPECT_EQ(MakeFilter("SHARD8[QF]", 1000), nullptr);
  // A snapshot envelope still tagged with it is refused too.
  std::vector<uint8_t> envelope;
  WriteFilterEnvelope("QF", &envelope);
  envelope.resize(envelope.size() + 64, 0);
  EXPECT_EQ(DeserializeFilter(envelope.data(), envelope.size()), nullptr);
}

TEST(FilterFactory, NamesRoundTrip) {
  // The constructed filter reports the name it was requested by (modulo the
  // Bloom filters, which append their hash count).
  for (const auto& name : KnownFilterNames()) {
    auto f = MakeFilter(name, 10000, 1);
    ASSERT_NE(f, nullptr);
    if (name.rfind("BF-", 0) == 0) {
      EXPECT_EQ(f->Name().rfind(name + "[", 0), 0u) << f->Name();
    } else {
      EXPECT_EQ(f->Name(), name);
    }
  }
}

TEST(FilterFactory, IndependentSeedsGiveIndependentFilters) {
  auto a = MakeFilter("PF[TC]", 10000, 1);
  auto b = MakeFilter("PF[TC]", 10000, 2);
  const auto keys = RandomKeys(10000, 141);
  for (uint64_t k : keys) {
    a->Insert(k);
    b->Insert(k);
  }
  // Different hash seeds: false positive sets should differ.
  const auto probes = RandomKeys(100000, 142);
  uint64_t both = 0, either = 0;
  for (uint64_t k : probes) {
    const bool in_a = a->Contains(k);
    const bool in_b = b->Contains(k);
    both += in_a && in_b;
    either += in_a || in_b;
  }
  EXPECT_GT(either, 0u);
  EXPECT_LT(both, either);  // not the same FP set
}

}  // namespace
}  // namespace prefixfilter
