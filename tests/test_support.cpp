// Unit tests for the support module: RNG, tables, CLI, SVG, Gantt.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/gantt.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/svg.hpp"
#include "support/table.hpp"

namespace tamp {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowZeroBoundReturnsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, BelowCoversRange) {
  Rng rng(42);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.split();
  // Child should not replay the parent's stream.
  Rng parent2(5);
  parent2.split();
  EXPECT_EQ(child(), [&] { Rng p(5); return p.split()(); }());
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(11);
  auto perm = random_permutation(100, rng);
  std::sort(perm.begin(), perm.end());
  for (index_t i = 0; i < 100; ++i) EXPECT_EQ(perm[static_cast<std::size_t>(i)], i);
}

TEST(Rng, ShuffleKeepsElements) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Check, ExpectsThrowsPreconditionError) {
  EXPECT_THROW(TAMP_EXPECTS(false, "boom"), precondition_error);
  EXPECT_NO_THROW(TAMP_EXPECTS(true, "fine"));
}

TEST(Check, EnsureThrowsInvariantError) {
  EXPECT_THROW(TAMP_ENSURE(1 == 2, "bad"), invariant_error);
}

TEST(Check, MessageContainsContext) {
  try {
    TAMP_EXPECTS(false, "details here");
    FAIL();
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("details here"), std::string::npos);
  }
}

TEST(Fnv1aHash, MatchesPublishedTestVectors) {
  // Published 64-bit FNV-1a vectors (Fowler/Noll/Vo reference tables).
  EXPECT_EQ(fnv1a(""), kFnv1aOffset);
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(fnv1a("chongo was here!\n"), 0x46810940eff5f915ULL);
}

TEST(Fnv1aHash, BuilderMatchesOneShotOnBytes) {
  const std::string s = "snapshot-seal";
  std::uint64_t h = kFnv1aOffset;
  fnv1a_bytes(h, s.data(), s.size());
  EXPECT_EQ(h, fnv1a(s));
  EXPECT_EQ(Fnv1a().add_span(s.data(), s.size()).value(), fnv1a(s));
}

TEST(Fnv1aHash, VectorLengthPrefixPreventsConcatenationCollisions) {
  const std::vector<int> ab = {1, 2}, c = {3};
  const std::vector<int> a = {1}, bc = {2, 3};
  const auto h1 = Fnv1a().add_vector(ab).add_vector(c).value();
  const auto h2 = Fnv1a().add_vector(a).add_vector(bc).value();
  EXPECT_NE(h1, h2);
}

TEST(Fnv1aHash, FieldOrderMatters) {
  EXPECT_NE(Fnv1a().add(1).add(2).value(), Fnv1a().add(2).add(1).value());
}

TEST(Table, AlignsColumns) {
  TablePrinter t("demo");
  t.header({"name", "value"});
  t.row({"a", "1"});
  t.row({"bbbb", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("bbbb"), std::string::npos);
  // All data lines share the same width.
  std::istringstream lines(out);
  std::string line;
  std::set<std::size_t> widths;
  while (std::getline(lines, line))
    if (!line.empty() && line[0] == '|') widths.insert(line.size());
  EXPECT_EQ(widths.size(), 1u);
}

TEST(Table, MarkdownEscapesPipesAndDropsSeparators) {
  TablePrinter t("leverage");
  t.header({"class", "saved"});
  t.row({"a|b", "1"});
  t.separator();
  t.row({"c", "2"});
  std::ostringstream os;
  t.print_markdown(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("**leverage**"), std::string::npos);
  EXPECT_NE(out.find("| class | saved |"), std::string::npos);
  EXPECT_NE(out.find("| --- | --- |"), std::string::npos);
  EXPECT_NE(out.find("a\\|b"), std::string::npos);  // pipes escaped
  EXPECT_EQ(out.find("+--"), std::string::npos);    // no ASCII rules
  // Exactly one separator row: the header underline, not t.separator().
  std::size_t seps = 0;
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);)
    if (line.rfind("| ---", 0) == 0) ++seps;
  EXPECT_EQ(seps, 1u);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(fmt_count(12594374), "12,594,374");
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(-1234), "-1,234");
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_percent(0.623, 1), "62.3%");
}

TEST(Table, CsvRoundtrip) {
  TablePrinter t;
  t.header({"a", "b"});
  t.row({"x,y", "plain"});
  const std::string path = testing::TempDir() + "/tamp_table.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,b");
  EXPECT_EQ(line2, "\"x,y\",plain");
}

TEST(Cli, ParsesOptionsAndFlags) {
  CliParser cli("test");
  cli.option("scale", "100", "cells").flag("full", "run full");
  const char* argv[] = {"prog", "--scale", "250", "--full"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_EQ(cli.get_int("scale"), 250);
  EXPECT_TRUE(cli.get_flag("full"));
}

TEST(Cli, EqualsSyntaxAndDefaults) {
  CliParser cli("test");
  cli.option("seed", "42", "rng seed").option("name", "abc", "label");
  const char* argv[] = {"prog", "--seed=7"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_int("seed"), 7);
  EXPECT_EQ(cli.get("name"), "abc");
}

TEST(Cli, RejectsUnknownOption) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(cli.parse(3, argv), precondition_error);
}

TEST(Cli, RejectsNonNumeric) {
  CliParser cli("test");
  cli.option("n", "1", "count");
  const char* argv[] = {"prog", "--n", "abc"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_THROW((void)cli.get_int("n"), precondition_error);
}

TEST(Cli, RejectsTrailingGarbageInNumbers) {
  CliParser cli("test");
  cli.option("threads", "1", "count").option("tol", "0.1", "tolerance");
  cli.option("a", "0", "").option("b", "0", "").option("c", "0", "");
  const char* argv[] = {"prog", "--threads", "4x",  "--tol", "0.5.3", "--a",
                        "nan",  "--b",       "inf", "--c",   "-inf"};
  ASSERT_TRUE(cli.parse(11, argv));
  EXPECT_THROW((void)cli.get_int("threads"), precondition_error);
  EXPECT_THROW((void)cli.get_double("tol"), precondition_error);
  // std::from_chars reads these; no option wants them.
  for (const char* name : {"a", "b", "c"})
    EXPECT_THROW((void)cli.get_double(name), precondition_error) << name;
}

TEST(Cli, RejectsOutOfRangeAndWhitespaceNumbers) {
  CliParser cli("test");
  cli.option("n", "1", "count").option("x", "0", "value");
  const char* argv[] = {"prog", "--n", "99999999999999999999", "--x", " 7"};
  ASSERT_TRUE(cli.parse(5, argv));
  // Overflow used to escape as a raw std::out_of_range from stoll.
  EXPECT_THROW((void)cli.get_int("n"), precondition_error);
  EXPECT_THROW((void)cli.get_int("x"), precondition_error);
  EXPECT_THROW((void)cli.get_double("x"), precondition_error);
}

TEST(Cli, AcceptsSignedNumbers) {
  CliParser cli("test");
  cli.option("a", "0", "").option("b", "0", "").option("c", "0", "");
  const char* argv[] = {"prog", "--a", "-12", "--b", "+34", "--c", "+0.5"};
  ASSERT_TRUE(cli.parse(7, argv));
  EXPECT_EQ(cli.get_int("a"), -12);
  EXPECT_EQ(cli.get_int("b"), 34);
  EXPECT_DOUBLE_EQ(cli.get_double("c"), 0.5);
  // A bare or doubled sign is not a number.
  const char* argv2[] = {"prog", "--a", "+", "--b", "+-3"};
  CliParser cli2("test");
  cli2.option("a", "0", "").option("b", "0", "");
  ASSERT_TRUE(cli2.parse(5, argv2));
  EXPECT_THROW((void)cli2.get_int("a"), precondition_error);
  EXPECT_THROW((void)cli2.get_int("b"), precondition_error);
}

TEST(Cli, HelpReturnsFalse) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Svg, EscapesMarkup) {
  EXPECT_EQ(SvgWriter::escape("a<b>&\"c"), "a&lt;b&gt;&amp;&quot;c");
}

TEST(Svg, ProducesWellFormedDocument) {
  SvgWriter svg(100, 50);
  svg.rect(0, 0, 10, 10, "#ff0000");
  svg.text(5, 5, "hi & bye");
  const std::string doc = svg.str();
  EXPECT_NE(doc.find("<svg"), std::string::npos);
  EXPECT_NE(doc.find("</svg>"), std::string::npos);
  EXPECT_NE(doc.find("hi &amp; bye"), std::string::npos);
}

TEST(Gantt, BusyAndOccupancy) {
  GanttTrace t;
  t.resource_names = {"w0", "w1"};
  t.makespan = 10;
  t.spans = {{0, 0, 5, 0, ""}, {1, 0, 10, 1, ""}};
  const auto busy = t.busy_per_resource();
  EXPECT_DOUBLE_EQ(busy[0], 5.0);
  EXPECT_DOUBLE_EQ(busy[1], 10.0);
  EXPECT_DOUBLE_EQ(t.occupancy(), 0.75);
}

TEST(Gantt, AsciiRendering) {
  GanttTrace t;
  t.resource_names = {"w0"};
  t.makespan = 10;
  t.spans = {{0, 0, 5, 2, ""}};
  const std::string out = render_gantt_ascii(t, 10);
  // First half busy with category glyph '2', second half idle '.'.
  EXPECT_NE(out.find("2"), std::string::npos);
  EXPECT_NE(out.find("."), std::string::npos);
}

TEST(Gantt, SvgFilesWritten) {
  GanttTrace t;
  t.title = "demo";
  t.resource_names = {"w0"};
  t.makespan = 4;
  t.spans = {{0, 1, 3, 0, "task"}};
  const std::string path = testing::TempDir() + "/tamp_gantt.svg";
  write_gantt_svg(t, path);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  write_gantt_comparison_svg(t, t, testing::TempDir() + "/tamp_gantt2.svg");
}

}  // namespace
}  // namespace tamp
