#include "sim/trace.h"

#include <gtest/gtest.h>

namespace mtds::sim {
namespace {

TEST(Trace, RecordsSamplesInOrder) {
  Trace trace;
  trace.record(Sample{1.0, 0, 1.01, 0.1});
  trace.record(Sample{1.0, 1, 0.99, 0.2});
  trace.record(Sample{2.0, 0, 2.01, 0.1});
  ASSERT_EQ(trace.samples().size(), 3u);
  EXPECT_EQ(trace.samples()[1].server, 1u);
  EXPECT_DOUBLE_EQ(trace.samples()[2].t.seconds(), 2.0);
}

TEST(Trace, SampleTimesAreSortedUnique) {
  Trace trace;
  trace.record(Sample{2.0, 0, 0, 0});
  trace.record(Sample{1.0, 0, 0, 0});
  trace.record(Sample{2.0, 1, 0, 0});
  EXPECT_EQ(trace.sample_times(), (std::vector<RealTime>{1.0, 2.0}));
}

TEST(Trace, SamplesAtMatchesTolerance) {
  Trace trace;
  trace.record(Sample{1.0, 0, 0, 0});
  trace.record(Sample{1.0 + 1e-12, 1, 0, 0});
  trace.record(Sample{1.5, 2, 0, 0});
  EXPECT_EQ(trace.samples_at(1.0).size(), 2u);
  EXPECT_EQ(trace.samples_at(1.5).size(), 1u);
  EXPECT_TRUE(trace.samples_at(9.0).empty());
}

TEST(Trace, EventFiltersAndCounts) {
  Trace trace;
  trace.record(TraceEvent{1.0, 0, TraceEventKind::kReset, 1, 0.5});
  trace.record(TraceEvent{2.0, 0, TraceEventKind::kInconsistent, 2, 0.0});
  trace.record(TraceEvent{3.0, 1, TraceEventKind::kReset, 0, 0.1});
  EXPECT_EQ(trace.count_events(TraceEventKind::kReset), 2u);
  EXPECT_EQ(trace.count_events(0, TraceEventKind::kReset), 1u);
  EXPECT_EQ(trace.count_events(TraceEventKind::kRecovery), 0u);
}

TEST(Trace, EventKindNames) {
  EXPECT_STREQ(to_string(TraceEventKind::kReset), "reset");
  EXPECT_STREQ(to_string(TraceEventKind::kInconsistent), "inconsistent");
  EXPECT_STREQ(to_string(TraceEventKind::kRecovery), "recovery");
  EXPECT_STREQ(to_string(TraceEventKind::kJoin), "join");
  EXPECT_STREQ(to_string(TraceEventKind::kLeave), "leave");
}

TEST(Trace, CsvContainsHeaderAndOffsets) {
  Trace trace;
  trace.record(Sample{10.0, 3, 10.5, 0.25});
  const std::string csv = trace.samples_csv();
  EXPECT_NE(csv.find("t,server,clock,error,offset"), std::string::npos);
  EXPECT_NE(csv.find("10,3,10.5,0.25,0.5"), std::string::npos);
}

TEST(Trace, ClearEmptiesBoth) {
  Trace trace;
  trace.record(Sample{1.0, 0, 0, 0});
  trace.record(TraceEvent{1.0, 0, TraceEventKind::kJoin, 0, 0});
  trace.clear();
  EXPECT_TRUE(trace.samples().empty());
  EXPECT_TRUE(trace.events().empty());
}

}  // namespace
}  // namespace mtds::sim
