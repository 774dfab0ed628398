// Unit tests: L1 cache (MOESI states, miss classification), resources.
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "mem/l1_cache.hpp"
#include "mem/resource.hpp"

namespace dsm {
namespace {

TEST(Resource, UnloadedReservationStartsImmediately) {
  Resource r;
  EXPECT_EQ(r.reserve(100, 10), 100u);
  EXPECT_EQ(r.busy_until(), 110u);
}

TEST(Resource, ContendedReservationQueues) {
  Resource r;
  r.reserve(100, 10);
  EXPECT_EQ(r.reserve(105, 10), 110u);  // waits for the first
  EXPECT_EQ(r.reserve(200, 10), 200u);  // idle gap: no wait
  EXPECT_EQ(r.total_busy(), 30u);
  EXPECT_EQ(r.reservations(), 3u);
}

TEST(Resource, OccupyConsumesBandwidthWithoutBlockingCaller) {
  Resource r;
  r.occupy(100, 50);
  // A later transaction sees the occupancy.
  EXPECT_EQ(r.reserve(120, 10), 150u);
}

TEST(Resource, Reset) {
  Resource r;
  r.reserve(10, 10);
  r.reset();
  EXPECT_EQ(r.busy_until(), 0u);
  EXPECT_EQ(r.total_busy(), 0u);
}

TEST(L1Cache, MissThenInstallHits) {
  L1Cache c(16 * 1024);
  EXPECT_EQ(c.n_sets(), 256u);
  EXPECT_EQ(c.probe(42), nullptr);
  c.install(42, L1State::kS);
  ASSERT_NE(c.probe(42), nullptr);
  EXPECT_EQ(c.probe(42)->state, L1State::kS);
}

TEST(L1Cache, DirectMappedConflictEvicts) {
  L1Cache c(16 * 1024);
  c.install(1, L1State::kS);
  const Addr conflicting = 1 + 256;  // same set
  auto v = c.install(conflicting, L1State::kS);
  EXPECT_TRUE(v.valid);
  EXPECT_EQ(v.blk, 1u);
  EXPECT_EQ(c.probe(1), nullptr);
  ASSERT_NE(c.probe(conflicting), nullptr);
}

TEST(L1Cache, VictimCarriesState) {
  L1Cache c(16 * 1024);
  c.install(7, L1State::kM);
  auto v = c.install(7 + 256, L1State::kS);
  ASSERT_TRUE(v.valid);
  EXPECT_EQ(v.state, L1State::kM);
}

TEST(L1Cache, ReinstallSameBlockNoVictim) {
  L1Cache c(16 * 1024);
  c.install(7, L1State::kS);
  auto v = c.install(7, L1State::kM);
  EXPECT_FALSE(v.valid);
  EXPECT_EQ(c.probe(7)->state, L1State::kM);
}

TEST(L1Cache, ColdMissClassification) {
  L1Cache c(16 * 1024);
  EXPECT_EQ(c.classify_miss(100), MissClass::kCold);
  // Re-classifying without any event: default capacity (seen before).
  EXPECT_EQ(c.classify_miss(100), MissClass::kCapacity);
}

TEST(L1Cache, CoherenceMissClassification) {
  L1Cache c(16 * 1024);
  c.classify_miss(5);
  c.install(5, L1State::kS);
  c.invalidate(5, MissClass::kCoherence);
  EXPECT_EQ(c.probe(5), nullptr);
  EXPECT_EQ(c.classify_miss(5), MissClass::kCoherence);
}

TEST(L1Cache, CapacityMissClassificationAfterEviction) {
  L1Cache c(16 * 1024);
  c.classify_miss(5);
  c.install(5, L1State::kS);
  c.install(5 + 256, L1State::kS);  // evicts 5
  EXPECT_EQ(c.classify_miss(5), MissClass::kCapacity);
}

TEST(L1Cache, InclusionInvalidateWithCapacityReason) {
  L1Cache c(16 * 1024);
  c.classify_miss(9);
  c.install(9, L1State::kS);
  c.invalidate(9, MissClass::kCapacity);
  EXPECT_EQ(c.classify_miss(9), MissClass::kCapacity);
}

TEST(L1Cache, DowngradeKeepsLine) {
  L1Cache c(16 * 1024);
  c.install(3, L1State::kM);
  c.downgrade_to_shared(3);
  ASSERT_NE(c.probe(3), nullptr);
  EXPECT_EQ(c.probe(3)->state, L1State::kS);
}

TEST(L1Cache, ForEachLineOfPage) {
  L1Cache c(16 * 1024);
  const Addr page = 5;
  c.install(block_of(block_addr_of_page_block(page, 0)), L1State::kS);
  c.install(block_of(block_addr_of_page_block(page, 7)), L1State::kM);
  c.install(block_of(block_addr_of_page_block(page + 1, 3)), L1State::kS);
  int count = 0;
  c.for_each_line_of_page(page, [&](L1Cache::Line&) { count++; });
  EXPECT_EQ(count, 2);
}

TEST(L1Cache, StateHelpers) {
  EXPECT_TRUE(l1_dirty(L1State::kM));
  EXPECT_TRUE(l1_dirty(L1State::kO));
  EXPECT_FALSE(l1_dirty(L1State::kE));
  EXPECT_FALSE(l1_dirty(L1State::kS));
  EXPECT_TRUE(l1_writable(L1State::kM));
  EXPECT_TRUE(l1_writable(L1State::kE));
  EXPECT_FALSE(l1_writable(L1State::kO));
  EXPECT_FALSE(l1_valid(L1State::kI));
}

// Property sweep: a straight-line write sweep of N distinct blocks in a
// direct-mapped cache leaves exactly min(N, sets) resident and every
// evicted block classified capacity.
class L1SweepTest : public ::testing::TestWithParam<int> {};

TEST_P(L1SweepTest, SweepLeavesResidueAndCapacityHistory) {
  const int n = GetParam();
  L1Cache c(16 * 1024);
  for (int i = 0; i < n; ++i) {
    c.classify_miss(Addr(i));
    c.install(Addr(i), L1State::kM);
  }
  int resident = 0;
  for (int i = 0; i < n; ++i)
    if (c.probe(Addr(i))) resident++;
  EXPECT_EQ(resident, std::min<int>(n, 256));
  if (n > 256) {
    // The first block was evicted by i + 256.
    EXPECT_EQ(c.classify_miss(0), MissClass::kCapacity);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweeps, L1SweepTest,
                         ::testing::Values(1, 17, 255, 256, 257, 1024, 5000));

// ---- miss history: the dense 2-bit table against a hashed reference ----

// Reference history: a hashed map, absent = never seen; first touch
// records kCapacity and reports kCold.
struct RefHistory {
  std::unordered_map<Addr, MissClass> m;
  MissClass classify(Addr blk) {
    auto [it, fresh] = m.try_emplace(blk, MissClass::kCapacity);
    return fresh ? MissClass::kCold : it->second;
  }
};

// Block 0, both sides of chunk boundaries, and sparse high blocks that
// leave most of the directory empty.
const Addr kEdgeBlocks[] = {
    0,    1,    31,    32,    4095,  4096,
    4097, 8191, 8192,  12287, 12288, 0xdeadbeefull >> 6,
    (0xdeadbeefull >> 6) + 1, Addr(1) << 30};

TEST(MissHistory, ChunkBoundarySweep) {
  MissHistory h;
  RefHistory ref;
  // Mark every third block of a span crossing three chunk boundaries,
  // then classify the whole span: unmarked blocks are cold, marked ones
  // return their class, and neighbours within a word do not interfere.
  constexpr Addr kSpan = 3 * 4096 + 100;
  for (Addr b = 0; b < kSpan; b += 3) {
    const MissClass c = MissClass((b / 3) % 3);
    h.mark(b, c);
    ref.m[b] = c;
  }
  for (Addr b = 0; b < kSpan; ++b)
    ASSERT_EQ(h.classify(b), ref.classify(b)) << "blk " << b;
  for (Addr b = 0; b < kSpan; ++b)
    ASSERT_EQ(h.classify(b), ref.classify(b)) << "blk " << b;
}

TEST(MissHistory, SparseHighBlocksAllocateOnlyTheirChunks) {
  MissHistory h;
  const std::size_t empty = h.bytes();
  EXPECT_EQ(h.classify(0xdeadbeefull >> 6), MissClass::kCold);
  EXPECT_EQ(h.classify(0xdeadbeefull >> 6), MissClass::kCapacity);
  const std::size_t one = h.bytes();
  EXPECT_GT(one, empty);
  // A second block of the same chunk costs nothing more.
  h.mark((0xdeadbeefull >> 6) + 1, MissClass::kCoherence);
  EXPECT_EQ(h.bytes(), one);
  EXPECT_EQ(h.classify((0xdeadbeefull >> 6) + 1), MissClass::kCoherence);
  EXPECT_EQ(h.classify(0), MissClass::kCold);
}

// Seeded random classify / install / invalidate streams through the
// L1 itself. The reference history is updated from what the cache
// reports (victims, residency), exactly where the cache records a
// departure, so every classification must agree.
TEST(MissHistory, DifferentialVsUnorderedMapThroughL1) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    L1Cache c(4 * 1024);  // 64 sets: evictions are frequent
    RefHistory ref;
    Rng rng(seed);
    std::vector<Addr> named;
    auto pick = [&]() -> Addr {
      switch (rng.next_below(4)) {
        case 0:  // dense, low
          return rng.next_below(512);
        case 1:  // within 64 blocks of a chunk boundary
          return 4096 * (1 + rng.next_below(3)) - 64 + rng.next_below(128);
        case 2:
          return kEdgeBlocks[rng.next_below(std::size(kEdgeBlocks))];
        default:  // sparse over 2^24 blocks
          return rng.next_below(Addr(1) << 24);
      }
    };
    for (int i = 0; i < 200'000; ++i) {
      const Addr b = pick();
      named.push_back(b);
      switch (rng.next_below(3)) {
        case 0:
          ASSERT_EQ(c.classify_miss(b), ref.classify(b))
              << "seed " << seed << " op " << i << " blk " << b;
          break;
        case 1: {
          const L1Cache::Victim v =
              c.install(b, rng.next_below(2) ? L1State::kS : L1State::kM);
          if (v.valid) ref.m[v.blk] = MissClass::kCapacity;
          break;
        }
        default: {
          const MissClass reason = rng.next_below(2) ? MissClass::kCoherence
                                                     : MissClass::kCapacity;
          if (c.probe(b)) ref.m[b] = reason;
          c.invalidate(b, reason);
          break;
        }
      }
    }
    for (Addr b : named) ASSERT_EQ(c.classify_miss(b), ref.classify(b));
  }
}

}  // namespace
}  // namespace dsm
