// Result-cache canonical-key tests: the metamorphic pair (permuting item
// order, rescaling all widths with the strip by a common factor) must
// map to the same cache identity, while a change in release times only —
// same widths, same heights — must not collide. Plus the capacity-
// eviction mechanics of the per-class cache.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "service/canonical.hpp"
#include "service/solver_service.hpp"
#include "test_support.hpp"

namespace stripack::service {
namespace {

Instance make(const std::vector<std::array<double, 3>>& rows,
              double strip) {
  std::vector<Item> items;
  items.reserve(rows.size());
  for (const std::array<double, 3>& r : rows) {
    items.push_back(Item{Rect{r[0], r[1]}, r[2]});
  }
  return Instance(std::move(items), strip);
}

TEST(CanonicalKey, PermutationInvariant) {
  const Instance a = make({{4, 2, 0}, {6, 3, 1}, {5, 1, 0}}, 10);
  const Instance b = make({{5, 1, 0}, {4, 2, 0}, {6, 3, 1}}, 10);
  const CanonicalRequest ca = canonicalize(a);
  const CanonicalRequest cb = canonicalize(b);
  EXPECT_EQ(ca.key, cb.key);
  EXPECT_EQ(ca.class_signature, cb.class_signature);
}

TEST(CanonicalKey, CommonWidthScalingInvariant) {
  // Power-of-two factor: width/strip round-trips exactly in floating
  // point, which is the documented exactness domain of the key.
  const Instance a = make({{4, 2, 0}, {6, 3, 1}, {5, 1, 0}}, 10);
  const Instance b = make({{16, 2, 0}, {24, 3, 1}, {20, 1, 0}}, 40);
  const CanonicalRequest ca = canonicalize(a);
  const CanonicalRequest cb = canonicalize(b);
  EXPECT_EQ(ca.key, cb.key);
  EXPECT_EQ(ca.class_signature, cb.class_signature);
  EXPECT_DOUBLE_EQ(ca.scale, 10.0);
  EXPECT_DOUBLE_EQ(cb.scale, 40.0);
}

TEST(CanonicalKey, ReleaseChangeDoesNotCollide) {
  // Identical widths and heights; only the release times differ. These
  // are different problems and must have different identities.
  const Instance a = make({{4, 2, 0}, {6, 3, 1}, {5, 1, 0}}, 10);
  const Instance b = make({{4, 2, 0}, {6, 3, 2}, {5, 1, 0}}, 10);
  const CanonicalRequest ca = canonicalize(a);
  const CanonicalRequest cb = canonicalize(b);
  EXPECT_NE(ca.key, cb.key);
  // The release grid is part of the master's row structure, so the
  // class changes too.
  EXPECT_NE(ca.class_signature, cb.class_signature);
}

TEST(CanonicalKey, DemandChangeSharesClassButNotKey) {
  // Same widths and releases, different heights: different cache
  // identity, but the same warm master serves both (demand is pure rhs).
  const Instance a = make({{4, 2, 0}, {6, 3, 0}}, 10);
  const Instance b = make({{4, 5, 0}, {6, 3, 0}}, 10);
  const CanonicalRequest ca = canonicalize(a);
  const CanonicalRequest cb = canonicalize(b);
  EXPECT_NE(ca.key, cb.key);
  EXPECT_EQ(ca.class_signature, cb.class_signature);
}

TEST(CanonicalKey, MapPlacementInvertsOrderAndScale) {
  const Instance a = make({{6, 3, 1}, {4, 2, 0}}, 10);
  const CanonicalRequest c = canonicalize(a);
  // Canonical order sorts by (width/strip, height, release): the 4-wide
  // item first, then the 6-wide one.
  ASSERT_EQ(c.order.size(), 2u);
  EXPECT_EQ(c.order[0], 1u);
  EXPECT_EQ(c.order[1], 0u);
  const Placement canonical = {Position{0.0, 0.0}, Position{0.4, 1.0}};
  const Placement mapped = map_placement(c, canonical);
  ASSERT_EQ(mapped.size(), 2u);
  // Item 1 (4-wide) was canonical item 0; x scales by the strip width.
  EXPECT_DOUBLE_EQ(mapped[1].x, 0.0);
  EXPECT_DOUBLE_EQ(mapped[1].y, 0.0);
  EXPECT_DOUBLE_EQ(mapped[0].x, 4.0);
  EXPECT_DOUBLE_EQ(mapped[0].y, 1.0);
}

TEST(ServiceCache, MetamorphicDuplicatesHit) {
  SolverService service;
  (void)service.enqueue(make({{4, 2, 0}, {6, 2, 0}, {4, 3, 0}}, 10));
  // Permuted.
  (void)service.enqueue(make({{4, 3, 0}, {4, 2, 0}, {6, 2, 0}}, 10));
  // Width-rescaled by 2.
  (void)service.enqueue(make({{8, 2, 0}, {12, 2, 0}, {8, 3, 0}}, 20));
  const std::vector<ServiceResponse> responses = service.run();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(responses[0].cache_hit);
  EXPECT_TRUE(responses[1].cache_hit);
  EXPECT_TRUE(responses[2].cache_hit);
  for (const ServiceResponse& r : responses) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_DOUBLE_EQ(r.height, responses[0].height);
    EXPECT_DOUBLE_EQ(r.dual_bound, responses[0].dual_bound);
  }
  EXPECT_EQ(service.stats().cache_hits, 2u);
}

TEST(ServiceCache, CacheHitPlacementIsRemappedPerRequest) {
  const Instance original = make({{4, 2, 0}, {6, 2, 0}}, 10);
  const Instance scaled = make({{12, 2, 0}, {8, 2, 0}}, 20);
  SolverService service;
  (void)service.enqueue(original);
  (void)service.enqueue(scaled);
  const std::vector<ServiceResponse> responses = service.run();
  ASSERT_EQ(responses.size(), 2u);
  ASSERT_TRUE(responses[1].cache_hit);
  // The cached canonical placement must come back in *this* request's
  // units and item order, and be a valid packing for it.
  EXPECT_TRUE(testing::placement_valid(original, responses[0].placement));
  EXPECT_TRUE(testing::placement_valid(scaled, responses[1].placement));
}

TEST(ServiceCache, ReleaseVariantsDoNotShareEntries) {
  SolverService service;
  (void)service.enqueue(make({{4, 2, 0}, {6, 3, 0}}, 10));
  (void)service.enqueue(make({{4, 2, 1}, {6, 3, 0}}, 10));
  const std::vector<ServiceResponse> responses = service.run();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[0].cache_hit);
  EXPECT_FALSE(responses[1].cache_hit);
  // The released variant cannot start item 0 before y = 1.
  EXPECT_GE(responses[1].height, responses[0].height);
}

TEST(ServiceCache, CapacityEvictsOldestEntry) {
  ServiceOptions options;
  options.cache_capacity = 1;
  SolverService service(options);
  const Instance a = make({{4, 2, 0}, {6, 2, 0}}, 10);
  const Instance b = make({{4, 3, 0}, {6, 1, 0}}, 10);
  (void)service.enqueue(a);  // solve, cache {a}
  (void)service.enqueue(b);  // solve, evicts a: cache {b}
  (void)service.enqueue(a);  // miss again — proof a was evicted
  (void)service.enqueue(a);  // back in the cache now
  const std::vector<ServiceResponse> responses = service.run();
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_FALSE(responses[0].cache_hit);
  EXPECT_FALSE(responses[1].cache_hit);
  EXPECT_FALSE(responses[2].cache_hit);
  EXPECT_TRUE(responses[3].cache_hit);
}

}  // namespace
}  // namespace stripack::service
