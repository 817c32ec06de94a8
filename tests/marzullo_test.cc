#include "core/marzullo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/rng.h"

namespace mtds::core {
namespace {

TimeInterval iv(double lo, double hi) { return TimeInterval::from_edges(lo, hi); }

TEST(BestIntersection, EmptyInput) {
  EXPECT_FALSE(best_intersection({}).has_value());
}

TEST(BestIntersection, SingleInterval) {
  const std::vector<TimeInterval> in = {iv(1, 3)};
  const auto best = best_intersection(in);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->coverage, 1u);
  EXPECT_EQ(best->interval, iv(1, 3));
  EXPECT_EQ(best->members, (std::vector<std::size_t>{0}));
}

TEST(BestIntersection, AllOverlap) {
  const std::vector<TimeInterval> in = {iv(0, 10), iv(2, 8), iv(4, 6)};
  const auto best = best_intersection(in);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->coverage, 3u);
  EXPECT_EQ(best->interval, iv(4, 6));
  EXPECT_EQ(best->members, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(BestIntersection, MajorityBeatsOutlier) {
  // Classic NTP example: three agree, one lies far away.
  const std::vector<TimeInterval> in = {iv(10, 12), iv(11, 13), iv(11.5, 12.5),
                                        iv(100, 101)};
  const auto best = best_intersection(in);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->coverage, 3u);
  EXPECT_EQ(best->interval, iv(11.5, 12.0));
  EXPECT_EQ(best->members, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(BestIntersection, TieBreaksLeftmost) {
  const std::vector<TimeInterval> in = {iv(0, 1), iv(0.5, 1.5), iv(10, 11),
                                        iv(10.5, 11.5)};
  const auto best = best_intersection(in);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->coverage, 2u);
  EXPECT_DOUBLE_EQ(best->interval.lo(), 0.5);
  EXPECT_DOUBLE_EQ(best->interval.hi(), 1.0);
}

TEST(BestIntersection, TouchingIntervalsCountAtPoint) {
  const std::vector<TimeInterval> in = {iv(0, 2), iv(2, 4)};
  const auto best = best_intersection(in);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->coverage, 2u);
  EXPECT_DOUBLE_EQ(best->interval.lo(), 2.0);
  EXPECT_DOUBLE_EQ(best->interval.hi(), 2.0);
}

TEST(BestIntersection, CoverageMatchesBruteForce) {
  // Property: sweep result equals brute-force max coverage over candidate
  // points (all edges and midpoints between consecutive edges).
  sim::Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<TimeInterval> in;
    const int n = 2 + static_cast<int>(rng.uniform_index(10));
    for (int i = 0; i < n; ++i) {
      const double lo = rng.uniform(-10, 10);
      in.push_back(iv(lo, lo + rng.uniform(0, 5)));
    }
    std::vector<double> points;
    for (const auto& interval : in) {
      points.push_back(interval.lo());
      points.push_back(interval.hi());
    }
    std::sort(points.begin(), points.end());
    std::size_t brute = 0;
    auto coverage_at = [&](double x) {
      return static_cast<std::size_t>(
          std::count_if(in.begin(), in.end(),
                        [x](const TimeInterval& t) { return t.contains(x); }));
    };
    for (std::size_t i = 0; i < points.size(); ++i) {
      brute = std::max(brute, coverage_at(points[i]));
      if (i + 1 < points.size()) {
        brute = std::max(brute, coverage_at(0.5 * (points[i] + points[i + 1])));
      }
    }
    const auto best = best_intersection(in);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->coverage, brute);
    EXPECT_EQ(best->members.size(), best->coverage);
    // Every member really contains the region.
    for (std::size_t m : best->members) {
      EXPECT_TRUE(in[m].contains(best->interval));
    }
  }
}

TEST(IntersectAll, NonEmptyChain) {
  const std::vector<TimeInterval> in = {iv(0, 5), iv(1, 6), iv(2, 7)};
  const auto common = intersect_all(in);
  ASSERT_TRUE(common.has_value());
  EXPECT_EQ(*common, iv(2, 5));
}

TEST(IntersectAll, EmptyOnDisjoint) {
  const std::vector<TimeInterval> in = {iv(0, 1), iv(2, 3)};
  EXPECT_FALSE(intersect_all(in).has_value());
}

TEST(IntersectAll, EmptyInput) {
  EXPECT_FALSE(intersect_all({}).has_value());
}

TEST(IntersectAdaptive, AlwaysSucceedsOnNonEmptyInput) {
  const std::vector<TimeInterval> in = {iv(0, 1), iv(10, 11), iv(20, 21)};
  const auto best = intersect_adaptive(in);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->coverage, 1u);  // fully disjoint: tolerate n-1 faults
}

TEST(ConsistencyGroups, SingleGroupWhenConsistent) {
  const std::vector<TimeInterval> in = {iv(0, 4), iv(1, 5), iv(2, 6)};
  const auto groups = consistency_groups(in);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].members, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(groups[0].intersection, iv(2, 4));
}

TEST(ConsistencyGroups, DisjointServersSplit) {
  const std::vector<TimeInterval> in = {iv(0, 1), iv(5, 6)};
  const auto groups = consistency_groups(in);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].members, (std::vector<std::size_t>{0}));
  EXPECT_EQ(groups[1].members, (std::vector<std::size_t>{1}));
}

TEST(ConsistencyGroups, Figure4StyleThreeGroups) {
  // Six servers, three consistency groups as in Figure 4: {0,1}, {2,3},
  // {4,5}, with 1-2 and 3-4 NOT overlapping.
  const std::vector<TimeInterval> in = {iv(0, 2),  iv(1, 3),   // group A
                                        iv(4, 6),  iv(5, 7),   // group B
                                        iv(8, 10), iv(9, 11)}; // group C
  const auto groups = consistency_groups(in);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].members, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(groups[1].members, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(groups[2].members, (std::vector<std::size_t>{4, 5}));
  EXPECT_EQ(groups[0].intersection, iv(1, 2));
}

TEST(ConsistencyGroups, OverlappingChainsYieldMaximalSets) {
  // A chain 0-1-2 where 0 and 2 do not overlap: consistency is not
  // transitive (Section 3's observation); groups are {0,1} and {1,2}.
  const std::vector<TimeInterval> in = {iv(0, 2), iv(1.5, 3.5), iv(3, 5)};
  const auto groups = consistency_groups(in);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].members, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(groups[1].members, (std::vector<std::size_t>{1, 2}));
}

TEST(ConsistencyGroups, NoGroupIsSubsetOfAnother) {
  sim::Rng rng(23);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<TimeInterval> in;
    const int n = 2 + static_cast<int>(rng.uniform_index(8));
    for (int i = 0; i < n; ++i) {
      const double lo = rng.uniform(0, 20);
      in.push_back(iv(lo, lo + rng.uniform(0.1, 6)));
    }
    const auto groups = consistency_groups(in);
    ASSERT_FALSE(groups.empty());
    for (std::size_t a = 0; a < groups.size(); ++a) {
      for (std::size_t b = 0; b < groups.size(); ++b) {
        if (a == b) continue;
        const auto& ma = groups[a].members;
        const auto& mb = groups[b].members;
        EXPECT_FALSE(std::includes(mb.begin(), mb.end(), ma.begin(), ma.end()) &&
                     ma != mb)
            << "group is subset of another";
      }
    }
    // Every server appears in at least one group.
    std::vector<bool> seen(in.size(), false);
    for (const auto& g : groups) {
      for (std::size_t m : g.members) seen[m] = true;
      // The group's intersection is inside every member.
      for (std::size_t m : g.members) {
        EXPECT_TRUE(in[m].contains(g.intersection));
      }
    }
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
  }
}

}  // namespace
}  // namespace mtds::core
