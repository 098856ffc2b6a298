/// Unit tests for the util module: RNG determinism/uniformity, string
/// helpers, file helpers, table rendering.

#include <gtest/gtest.h>

#include <set>

#include "util/files.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace genfv::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(1234);
  Xoshiro256 b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, BelowIsInRangeAndCoversValues) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all residues hit in 1000 draws
}

TEST(Rng, RangeInclusive) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.range(5, 7);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 7u);
  }
}

TEST(Rng, BitsMasksToWidth) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LE(rng.bits(5), 31u);
    EXPECT_LE(rng.bits(1), 1u);
  }
  EXPECT_THROW(rng.bits(0), Error);
  EXPECT_THROW(rng.bits(65), Error);
}

TEST(Rng, ChanceExtremes) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, RealInUnitInterval) {
  Xoshiro256 rng(17);
  for (int i = 0; i < 500; ++i) {
    const double r = rng.real();
    EXPECT_GE(r, 0.0);
    EXPECT_LT(r, 1.0);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Xoshiro256 rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitWsDropsAllWhitespace) {
  const auto parts = split_ws("  foo\t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, JoinAndAffixes) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_TRUE(contains("foobar", "oba"));
}

TEST(Strings, HexLiteral) {
  EXPECT_EQ(hex_literal(0xdeadbeef, 32), "32'hdeadbeef");
  EXPECT_EQ(hex_literal(0xff, 4), "4'hf");  // masked to width
  EXPECT_EQ(hex_literal(1, 1), "1'h1");
}

TEST(Strings, BinString) {
  EXPECT_EQ(bin_string(0b1010, 4), "1010");
  EXPECT_EQ(bin_string(1, 3), "001");
}

TEST(Files, LowerExtensionLooksAtTheLastComponentOnly) {
  EXPECT_EQ(util::lower_extension("design.AIG"), "aig");
  EXPECT_EQ(util::lower_extension("dir/x.btor2"), "btor2");
  EXPECT_EQ(util::lower_extension("dir.v1/design"), "");
  EXPECT_EQ(util::lower_extension("design"), "");
}

TEST(Files, WriteFileThrowsWhenTheBytesCannotBeWritten) {
  EXPECT_THROW(util::write_file("/dev/full", "data"), UsageError);
  EXPECT_THROW(util::write_file(testing::TempDir() + "no/such/dir/x.txt", "data"),
               UsageError);
}

TEST(Table, AlignedRendering) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, RowArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

}  // namespace
}  // namespace genfv::util
