// Tests for ascii_plot and flags.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/ascii_plot.h"
#include "util/flags.h"

namespace mtds::util {
namespace {

TEST(AsciiPlot, EmptyPlot) {
  EXPECT_EQ(plot({}), "(empty plot)\n");
}

TEST(AsciiPlot, RendersSeriesAndLegend) {
  Series s{"err", {0, 1, 2, 3}, {0, 1, 2, 3}};
  PlotOptions opts;
  opts.title = "growth";
  opts.x_label = "t";
  const std::string out = plot({s}, opts);
  EXPECT_NE(out.find("growth"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find("legend:"), std::string::npos);
  EXPECT_NE(out.find("x: t"), std::string::npos);
}

TEST(AsciiPlot, MultipleSeriesUseDistinctGlyphs) {
  Series a{"a", {0, 1}, {0, 0}};
  Series b{"b", {0, 1}, {1, 1}};
  const std::string out = plot({a, b});
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find('+'), std::string::npos);
}

TEST(AsciiPlot, IntervalDiagramShowsEdgesAndMarker) {
  const std::string out = plot_intervals(
      {{"S1", 0.0, 2.0}, {"S2", 1.0, 3.0}}, /*marker=*/1.5, 40);
  EXPECT_NE(out.find("S1"), std::string::npos);
  EXPECT_NE(out.find("S2"), std::string::npos);
  EXPECT_NE(out.find('|'), std::string::npos);
  EXPECT_NE(out.find("true time"), std::string::npos);
}

TEST(Flags, ParsesAllForms) {
  // Note: a bare "--flag value" consumes the next token as its value, so a
  // trailing boolean flag must use "--flag" last or "--flag=true".
  const char* argv[] = {"prog",        "positional", "--alpha=1.5", "--beta",
                        "2",           "--gamma=hello", "--enabled"};
  Flags flags;
  flags.parse(7, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(flags.get_double("alpha", 0.0), 1.5);
  EXPECT_EQ(flags.get_int("beta", 0), 2);
  EXPECT_TRUE(flags.get_bool("enabled", false));
  EXPECT_EQ(flags.get("gamma"), "hello");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(Flags, DefaultsWhenMissing) {
  Flags flags;
  flags.parse(0, nullptr);
  EXPECT_FALSE(flags.has("x"));
  EXPECT_DOUBLE_EQ(flags.get_double("x", 7.5), 7.5);
  EXPECT_EQ(flags.get_int("x", -3), -3);
  EXPECT_TRUE(flags.get_bool("x", true));
  EXPECT_EQ(flags.get("x", "d"), "d");
}

TEST(Flags, NumericGettersRejectJunk) {
  const char* argv[] = {"prog", "--seconds=abc", "--threads=4x", "--empty=",
                        "--huge=1e999", "--bare"};
  Flags flags;
  flags.parse(6, const_cast<char**>(argv));
  EXPECT_THROW(flags.get_double("seconds", 0.0), std::invalid_argument);
  EXPECT_THROW(flags.get_int("threads", 0), std::invalid_argument);
  EXPECT_THROW(flags.get_int("empty", 0), std::invalid_argument);
  EXPECT_THROW(flags.get_double("huge", 0.0), std::invalid_argument);
  EXPECT_THROW(flags.get_int("bare", 0), std::invalid_argument);  // "true"
  try {
    flags.get_double("seconds", 0.0);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--seconds"), std::string::npos);
  }
}

TEST(Flags, GetListSplitsCsv) {
  const char* argv[] = {"prog", "--items=a,b,,c", "--empty="};
  Flags flags;
  flags.parse(3, const_cast<char**>(argv));
  const auto items = flags.get_list("items");
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0], "a");
  EXPECT_EQ(items[1], "b");
  EXPECT_EQ(items[2], "c");
  EXPECT_TRUE(flags.get_list("empty").empty());
  EXPECT_TRUE(flags.get_list("absent").empty());
}

TEST(Flags, GetPortsParsesAndSkipsJunk) {
  // Out-of-range and non-numeric items are skipped, not fatal (the old
  // per-example parse_ports() would std::stoul-throw or truncate).
  const char* argv[] = {"prog", "--peers=9001,9002,,70000,abc,0"};
  Flags flags;
  flags.parse(2, const_cast<char**>(argv));
  const auto ports = flags.get_ports("peers");
  ASSERT_EQ(ports.size(), 3u);
  EXPECT_EQ(ports[0], 9001);
  EXPECT_EQ(ports[1], 9002);
  EXPECT_EQ(ports[2], 0);
  EXPECT_TRUE(flags.get_ports("absent").empty());
}

TEST(Flags, BooleanFalseStrings) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=yes"};
  Flags flags;
  flags.parse(4, const_cast<char**>(argv));
  EXPECT_FALSE(flags.get_bool("a", true));
  EXPECT_FALSE(flags.get_bool("b", true));
  EXPECT_TRUE(flags.get_bool("c", false));
}

}  // namespace
}  // namespace mtds::util
