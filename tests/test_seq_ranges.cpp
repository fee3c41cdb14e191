#include "digruber/digruber/seq_ranges.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "digruber/common/rng.hpp"

namespace digruber::digruber {
namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

std::vector<std::uint64_t> enumerate(const SeqRanges& ranges) {
  std::vector<std::uint64_t> out;
  ranges.for_each([&](std::uint64_t seq) { out.push_back(seq); });
  return out;
}

/// Runs of consecutive values in a reference set: the range count an exact,
/// fully merged SeqRanges must report.
std::size_t runs(const std::set<std::uint64_t>& reference) {
  std::size_t count = 0;
  std::uint64_t prev = 0;
  bool first = true;
  for (const std::uint64_t seq : reference) {
    if (first || seq != prev + 1) ++count;
    prev = seq;
    first = false;
  }
  return count;
}

void expect_matches(const SeqRanges& ranges,
                    const std::set<std::uint64_t>& reference) {
  EXPECT_EQ(enumerate(ranges),
            std::vector<std::uint64_t>(reference.begin(), reference.end()));
  EXPECT_EQ(ranges.range_count(), runs(reference));
}

TEST(SeqRanges, EmptyHoldsNothing) {
  const SeqRanges ranges;
  EXPECT_FALSE(ranges.contains(0));
  EXPECT_FALSE(ranges.contains(kMax));
  EXPECT_EQ(ranges.range_count(), 0u);
  EXPECT_TRUE(enumerate(ranges).empty());
}

TEST(SeqRanges, StoresBothEndsOfTheU64Range) {
  SeqRanges ranges;
  EXPECT_TRUE(ranges.insert(kMax - 1));
  EXPECT_TRUE(ranges.insert(kMax));
  EXPECT_TRUE(ranges.insert(0));
  EXPECT_FALSE(ranges.insert(kMax));
  EXPECT_FALSE(ranges.insert(0));
  EXPECT_TRUE(ranges.insert(1));
  EXPECT_TRUE(ranges.contains(kMax));
  EXPECT_FALSE(ranges.contains(kMax - 2));
  EXPECT_FALSE(ranges.contains(2));
  EXPECT_EQ(ranges.range_count(), 2u);
  EXPECT_EQ(enumerate(ranges),
            (std::vector<std::uint64_t>{0, 1, kMax - 1, kMax}));
}

TEST(SeqRanges, MatchesSetOnSeededRandomStreams) {
  // Narrow windows around the values a wire frame can carry at the edges:
  // 0, 2^32, an incarnation-rebased origin ((7 << 32) + 1) and 2^64-1.
  // Narrow windows force adjacency, merges and duplicates.
  constexpr std::uint64_t kWidth = 48;
  const std::uint64_t bases[] = {0, (std::uint64_t{1} << 32) - kWidth / 2,
                                 (std::uint64_t{7} << 32) + 1 - kWidth / 2,
                                 kMax - (kWidth - 1)};
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    Rng rng(seed);
    SeqRanges ranges;
    std::set<std::uint64_t> reference;
    const std::uint64_t ops = 50 + rng.uniform_index(250);
    for (std::uint64_t op = 0; op < ops; ++op) {
      const std::uint64_t seq =
          bases[rng.uniform_index(4)] + rng.uniform_index(kWidth);
      if (rng.bernoulli(0.7)) {
        ASSERT_EQ(ranges.insert(seq), reference.insert(seq).second)
            << "seed " << seed << " op " << op << " seq " << seq;
      } else {
        ASSERT_EQ(ranges.contains(seq), reference.count(seq) == 1)
            << "seed " << seed << " op " << op << " seq " << seq;
      }
    }
    for (const std::uint64_t base : bases) {
      for (std::uint64_t i = 0; i < kWidth; ++i) {
        ASSERT_EQ(ranges.contains(base + i), reference.count(base + i) == 1)
            << "seed " << seed << " seq " << base + i;
      }
    }
    expect_matches(ranges, reference);
    if (HasFailure()) return;
  }
}

TEST(SeqRanges, InOrderInsertsLeaveOneRange) {
  SeqRanges ranges;
  const std::uint64_t first = (std::uint64_t{7} << 32) + 1;
  for (std::uint64_t i = 0; i < 200'000; ++i) {
    ASSERT_TRUE(ranges.insert(first + i));
  }
  EXPECT_EQ(ranges.range_count(), 1u);
  EXPECT_TRUE(ranges.contains(first));
  EXPECT_TRUE(ranges.contains(first + 199'999));
  EXPECT_FALSE(ranges.contains(first - 1));
  EXPECT_FALSE(ranges.contains(first + 200'000));
  EXPECT_FALSE(ranges.insert(first + 100'000));
}

TEST(SeqRanges, DescendingInsertsMatchSet) {
  SeqRanges ranges;
  std::set<std::uint64_t> reference;
  for (std::uint64_t i = 0; i < 200'000; ++i) {
    const std::uint64_t seq = kMax - i;
    ASSERT_EQ(ranges.insert(seq), reference.insert(seq).second);
  }
  EXPECT_EQ(ranges.range_count(), 1u);
  expect_matches(ranges, reference);
  EXPECT_FALSE(ranges.insert(kMax));
  EXPECT_FALSE(ranges.contains(kMax - 200'000));
}

TEST(SeqRanges, AlternatingInsertsMatchSet) {
  // 200k even seqs taken alternately from the low and the high end hold one
  // range per seq; the odd seqs between them, descending, then stitch the
  // ranges back into one.
  constexpr std::uint64_t kCount = 200'000;
  SeqRanges ranges;
  std::set<std::uint64_t> reference;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    const std::uint64_t k = i % 2 == 0 ? i / 2 : kCount - 1 - i / 2;
    ASSERT_EQ(ranges.insert(2 * k), reference.insert(2 * k).second);
  }
  EXPECT_EQ(ranges.range_count(), kCount);
  expect_matches(ranges, reference);
  for (std::uint64_t k = kCount - 1; k-- > 0;) {
    ASSERT_EQ(ranges.insert(2 * k + 1), reference.insert(2 * k + 1).second);
  }
  EXPECT_EQ(ranges.range_count(), 1u);
  expect_matches(ranges, reference);
}

}  // namespace
}  // namespace digruber::digruber
