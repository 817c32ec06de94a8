#include "core/interval.h"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/rng.h"

namespace mtds::core {
namespace {

TEST(TimeInterval, FromEdgesBasics) {
  const auto iv = TimeInterval::from_edges(1.0, 3.0);
  EXPECT_DOUBLE_EQ(iv.lo(), 1.0);
  EXPECT_DOUBLE_EQ(iv.hi(), 3.0);
  EXPECT_DOUBLE_EQ(iv.midpoint(), 2.0);
  EXPECT_DOUBLE_EQ(iv.length(), 2.0);
  EXPECT_DOUBLE_EQ(iv.radius(), 1.0);
}

TEST(TimeInterval, FromEdgesRejectsInverted) {
  EXPECT_THROW(TimeInterval::from_edges(3.0, 1.0), std::invalid_argument);
}

TEST(TimeInterval, FromEdgesAllowsDegenerate) {
  const auto iv = TimeInterval::from_edges(2.0, 2.0);
  EXPECT_DOUBLE_EQ(iv.length(), 0.0);
  EXPECT_TRUE(iv.contains(2.0));
}

TEST(TimeInterval, FromCenterError) {
  const auto iv = TimeInterval::from_center_error(10.0, 0.5);
  EXPECT_DOUBLE_EQ(iv.lo(), 9.5);
  EXPECT_DOUBLE_EQ(iv.hi(), 10.5);
  EXPECT_DOUBLE_EQ(iv.radius(), 0.5);
}

TEST(TimeInterval, FromCenterErrorRejectsNegative) {
  EXPECT_THROW(TimeInterval::from_center_error(0.0, -1e-9),
               std::invalid_argument);
}

TEST(TimeInterval, ContainsPoint) {
  const auto iv = TimeInterval::from_edges(-1.0, 1.0);
  EXPECT_TRUE(iv.contains(0.0));
  EXPECT_TRUE(iv.contains(-1.0));  // edges are inclusive
  EXPECT_TRUE(iv.contains(1.0));
  EXPECT_FALSE(iv.contains(1.0000001));
  EXPECT_FALSE(iv.contains(-1.0000001));
}

TEST(TimeInterval, ContainsInterval) {
  const auto outer = TimeInterval::from_edges(0.0, 10.0);
  EXPECT_TRUE(outer.contains(TimeInterval::from_edges(2.0, 3.0)));
  EXPECT_TRUE(outer.contains(outer));
  EXPECT_FALSE(outer.contains(TimeInterval::from_edges(-1.0, 3.0)));
  EXPECT_FALSE(outer.contains(TimeInterval::from_edges(2.0, 11.0)));
}

TEST(TimeInterval, IntersectOverlapping) {
  const auto a = TimeInterval::from_edges(0.0, 5.0);
  const auto b = TimeInterval::from_edges(3.0, 8.0);
  ASSERT_TRUE(a.intersects(b));
  const auto i = a.intersect(b);
  ASSERT_TRUE(i.has_value());
  EXPECT_DOUBLE_EQ(i->lo(), 3.0);
  EXPECT_DOUBLE_EQ(i->hi(), 5.0);
}

TEST(TimeInterval, IntersectNested) {
  // Figure 2, left: one interval inside another - intersection is the
  // smaller one.
  const auto outer = TimeInterval::from_edges(0.0, 10.0);
  const auto inner = TimeInterval::from_edges(4.0, 6.0);
  const auto i = outer.intersect(inner);
  ASSERT_TRUE(i.has_value());
  EXPECT_EQ(*i, inner);
}

TEST(TimeInterval, IntersectTouchingIsPoint) {
  const auto a = TimeInterval::from_edges(0.0, 2.0);
  const auto b = TimeInterval::from_edges(2.0, 4.0);
  EXPECT_TRUE(a.intersects(b));
  const auto i = a.intersect(b);
  ASSERT_TRUE(i.has_value());
  EXPECT_DOUBLE_EQ(i->lo(), 2.0);
  EXPECT_DOUBLE_EQ(i->hi(), 2.0);
}

TEST(TimeInterval, IntersectDisjoint) {
  const auto a = TimeInterval::from_edges(0.0, 1.0);
  const auto b = TimeInterval::from_edges(2.0, 3.0);
  EXPECT_FALSE(a.intersects(b));
  EXPECT_FALSE(a.intersect(b).has_value());
  EXPECT_FALSE(b.intersect(a).has_value());
}

TEST(TimeInterval, IntersectionIsCommutative) {
  const auto a = TimeInterval::from_edges(0.0, 5.0);
  const auto b = TimeInterval::from_edges(3.0, 8.0);
  EXPECT_EQ(*a.intersect(b), *b.intersect(a));
}

TEST(TimeInterval, Inflate) {
  const auto iv = TimeInterval::from_edges(1.0, 3.0);
  const auto inflated = iv.inflated(0.5);
  EXPECT_DOUBLE_EQ(inflated.lo(), 0.5);
  EXPECT_DOUBLE_EQ(inflated.hi(), 3.5);
  // Negative pad is clamped, never shrinks.
  EXPECT_EQ(iv.inflated(-1.0), iv);
}

// Section 2.3's predicate |C_i - C_j| <= E_i + E_j is interval overlap.
bool consistent(double ci, double ei, double cj, double ej) {
  return TimeInterval::from_center_error(ci, ei).intersects(
      TimeInterval::from_center_error(cj, ej));
}

TEST(Consistency, PaperExample) {
  // Section 2.3: 3:01 +/- 0:02 vs 3:06 +/- 0:02 cannot both be right.
  const double c1 = 3 * 60 + 1, e1 = 2;
  const double c2 = 3 * 60 + 6, e2 = 2;
  EXPECT_FALSE(consistent(c1, e1, c2, e2));
  // Widen one error to 3: |3:01-3:06| = 5 <= 2 + 3.
  EXPECT_TRUE(consistent(c1, e1, c2, 3));
}

TEST(Consistency, ExactTouchCounts) {
  EXPECT_TRUE(consistent(0.0, 1.0, 2.0, 1.0));
  EXPECT_FALSE(consistent(0.0, 1.0, 2.0 + 1e-9, 1.0));
}

TEST(TimeInterval, IntersectPropertyRandom) {
  // Property: x in a and x in b  iff  x in intersect(a,b).
  sim::Rng rng(13);
  for (int k = 0; k < 1000; ++k) {
    const auto a = TimeInterval::from_center_error(rng.uniform(-5, 5),
                                                   rng.uniform(0, 2));
    const auto b = TimeInterval::from_center_error(rng.uniform(-5, 5),
                                                   rng.uniform(0, 2));
    const auto i = a.intersect(b);
    const double x = rng.uniform(-8, 8);
    const bool in_both = a.contains(x) && b.contains(x);
    EXPECT_EQ(in_both, i.has_value() && i->contains(x));
  }
}

TEST(TimeInterval, StrFormatsMidpointAndRadius) {
  const auto iv = TimeInterval::from_edges(1.0, 3.0);
  const std::string s = iv.str();
  EXPECT_NE(s.find("[1, 3]"), std::string::npos);
  EXPECT_NE(s.find("c=2"), std::string::npos);
  EXPECT_NE(s.find("e=1"), std::string::npos);
}

}  // namespace
}  // namespace mtds::core
