// Metamorphic properties: relations that must hold between outputs on
// transformed inputs. These catch bugs that example-based tests miss
// (broken tie-breaking, accidental dependence on absolute scale, etc.).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/bounds.hpp"
#include "gen/rect_gen.hpp"
#include "gen/release_gen.hpp"
#include "packers/registry.hpp"
#include "precedence/dc.hpp"
#include "release/config_lp.hpp"
#include "test_support.hpp"

namespace stripack {
namespace {

std::vector<Rect> sample_rects(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  gen::RectParams params;
  params.min_width = 0.03;
  params.min_height = 0.03;
  return gen::random_rects(n, params, rng);
}

class MetamorphicSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetamorphicSweep, HeightScalingScalesShelfPackersExactly) {
  // Multiplying every height by c multiplies shelf-packer heights by c:
  // the decreasing-height order is unchanged, so the shelf structure is.
  const auto rects = sample_rects(GetParam(), 60);
  const double c = 3.25;
  std::vector<Rect> scaled = rects;
  for (Rect& r : scaled) r.height *= c;
  for (const char* name : {"NFDH", "FFDH", "BFDH"}) {
    const auto packer = make_packer(name);
    const double base = packer->pack(rects, 1.0).height;
    const double big = packer->pack(scaled, 1.0).height;
    EXPECT_NEAR(big, c * base, 1e-7 * (1.0 + big)) << name;
  }
}

TEST_P(MetamorphicSweep, JointWidthAndStripScalingIsInvariant) {
  // Scaling all widths and the strip width together changes nothing.
  const auto rects = sample_rects(GetParam() + 1000, 60);
  const double c = 7.5;
  std::vector<Rect> scaled = rects;
  for (Rect& r : scaled) r.width *= c;
  for (const auto& packer : all_packers()) {
    const double base = packer->pack(rects, 1.0).height;
    const double wide = packer->pack(scaled, c).height;
    EXPECT_NEAR(base, wide, 1e-7 * (1.0 + base)) << packer->name();
  }
}

TEST_P(MetamorphicSweep, SortedPackersArePermutationInvariant) {
  // Heights are continuous random values (ties have measure zero), so the
  // decreasing-height packers must not depend on input order.
  auto rects = sample_rects(GetParam() + 2000, 50);
  Rng rng(GetParam() + 3000);
  auto shuffled = rects;
  rng.shuffle(shuffled);
  for (const char* name : {"NFDH", "FFDH", "BFDH", "Sleator"}) {
    const auto packer = make_packer(name);
    EXPECT_NEAR(packer->pack(rects, 1.0).height,
                packer->pack(shuffled, 1.0).height, 1e-9)
        << name;
  }
}

TEST_P(MetamorphicSweep, DcScalesWithUniformHeightScaling) {
  Rng rng(GetParam() + 4000);
  gen::RectParams params;
  const Instance ins =
      testing::random_precedence_instance(40, 0.08, params, rng);
  const double c = 2.5;
  std::vector<Item> scaled_items(ins.items().begin(), ins.items().end());
  for (Item& it : scaled_items) it.rect.height *= c;
  Instance scaled(std::move(scaled_items));
  for (const Edge& e : ins.dag().edges()) scaled.add_precedence(e.from, e.to);

  const double base = dc_pack(ins).packing.height();
  const double big = dc_pack(scaled).packing.height();
  EXPECT_NEAR(big, c * base, 1e-6 * (1.0 + big));
}

TEST_P(MetamorphicSweep, ConfigLpShiftBound) {
  // Shifting every release up by c raises the fractional optimum by at
  // most c and never lowers it.
  Rng rng(GetParam() + 5000);
  gen::ReleaseWorkloadParams params;
  params.n = 30;
  params.K = 3;
  const Instance ins = gen::poisson_release_workload(params, rng);
  const double c = 1.7;
  std::vector<Item> shifted_items(ins.items().begin(), ins.items().end());
  for (Item& it : shifted_items) it.release += c;
  const Instance shifted(std::move(shifted_items));

  const double base = release::fractional_lower_bound(ins);
  const double moved = release::fractional_lower_bound(shifted);
  EXPECT_GE(moved, base - 1e-6);
  EXPECT_LE(moved, base + c + 1e-6);
}

TEST_P(MetamorphicSweep, ConfigLpPermutationInvariant) {
  // The LP sees only aggregated (width, release) demand, so permuting the
  // items must leave the fractional optimum bit-for-bit stable up to
  // solver tolerance.
  Rng rng(GetParam() + 7000);
  gen::ReleaseWorkloadParams params;
  params.n = 24;
  params.K = 3;
  const Instance ins = gen::poisson_release_workload(params, rng);
  std::vector<Item> shuffled_items(ins.items().begin(), ins.items().end());
  Rng shuffler(GetParam() + 7500);
  shuffler.shuffle(shuffled_items);
  const Instance shuffled(std::move(shuffled_items), ins.strip_width());

  const double base = release::fractional_lower_bound(ins);
  const double permuted = release::fractional_lower_bound(shuffled);
  EXPECT_NEAR(base, permuted, 1e-6 * (1.0 + base));
}

TEST_P(MetamorphicSweep, ConfigLpWidthScalingInvariant) {
  // Scaling every width and the strip width together relabels the
  // configurations without changing which ones fit: the LP value is
  // invariant.
  Rng rng(GetParam() + 8000);
  gen::ReleaseWorkloadParams params;
  params.n = 24;
  params.K = 3;
  const Instance ins = gen::poisson_release_workload(params, rng);
  const double c = 3.5;
  std::vector<Item> scaled_items(ins.items().begin(), ins.items().end());
  for (Item& it : scaled_items) it.rect.width *= c;
  const Instance scaled(std::move(scaled_items), c * ins.strip_width());

  const double base = release::fractional_lower_bound(ins);
  const double wide = release::fractional_lower_bound(scaled);
  EXPECT_NEAR(base, wide, 1e-6 * (1.0 + base));
  // Column generation must land on the same value as enumeration (it
  // prices from singleton seeds instead).
  release::ConfigLpOptions colgen;
  colgen.use_column_generation = true;
  const double generated = release::fractional_lower_bound(scaled, colgen);
  EXPECT_NEAR(generated, wide, 1e-6 * (1.0 + wide));
}

TEST_P(MetamorphicSweep, WiderStripNeverHurtsNextFit) {
  // With a wider strip, every Next-Fit shelf absorbs a (weakly) longer
  // prefix of the sorted sequence, so shelf k starts no earlier in the
  // sequence and the total height never increases.
  const auto rects = sample_rects(GetParam() + 6000, 60);
  const auto packer = make_packer("NFDH");
  double last = packer->pack(rects, 1.0).height;
  for (double width : {1.25, 1.5, 2.0, 4.0}) {
    const double wider = packer->pack(rects, width).height;
    EXPECT_LE(wider, last + 1e-9) << "strip width " << width;
    last = wider;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetamorphicSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(Metamorphic, ReleaseRescalingScalesLpHeight) {
  // Scaling all releases AND all heights by c scales the fractional
  // optimum by c (time-unit invariance)... heights are bounded by 1 in the
  // APTAS but the LP itself has no such restriction.
  Rng rng(777);
  gen::ReleaseWorkloadParams params;
  params.n = 25;
  params.K = 3;
  const Instance ins = gen::poisson_release_workload(params, rng);
  const double c = 0.5;
  std::vector<Item> scaled_items(ins.items().begin(), ins.items().end());
  for (Item& it : scaled_items) {
    it.release *= c;
    it.rect.height *= c;
  }
  const Instance scaled(std::move(scaled_items));
  const double base = release::fractional_lower_bound(ins);
  const double small = release::fractional_lower_bound(scaled);
  EXPECT_NEAR(small, c * base, 1e-6 * (1.0 + base));
}

}  // namespace
}  // namespace stripack
