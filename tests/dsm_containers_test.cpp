// Unit tests: block cache, S-COMA page cache, directory, page table,
// node miss history.
// (Interconnect fabric timing and accounting live in fabric_test.cpp.)
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "dsm/block_cache.hpp"
#include "dsm/cluster.hpp"
#include "dsm/directory.hpp"
#include "dsm/page_cache.hpp"
#include "dsm/page_table.hpp"

namespace dsm {
namespace {

// Directory and PageTable tests run under the default 8-node full-map
// layout unless they exercise a wider machine explicitly.
NodeSetLayout layout8() {
  return NodeSetLayout::make(8, DirScheme::kFullMap);
}

TEST(BlockCache, InstallProbeInvalidate) {
  BlockCache bc(64 * 1024, 1);
  EXPECT_EQ(bc.probe(10), nullptr);
  bc.install(10, NodeState::kShared);
  ASSERT_NE(bc.probe(10), nullptr);
  EXPECT_EQ(bc.probe(10)->state, NodeState::kShared);
  bc.invalidate(10);
  EXPECT_EQ(bc.probe(10), nullptr);
  EXPECT_EQ(bc.occupancy(), 0u);
}

TEST(BlockCache, DirectMappedEviction) {
  BlockCache bc(64 * 1024, 1);  // 1024 sets
  bc.install(1, NodeState::kShared);
  auto v = bc.install(1 + 1024, NodeState::kModified);
  ASSERT_TRUE(v.valid);
  EXPECT_EQ(v.blk, 1u);
  EXPECT_EQ(v.state, NodeState::kShared);
}

TEST(BlockCache, SetAssociativeLru) {
  BlockCache bc(64 * 1024, 4);  // 256 sets, 4 ways
  // Four blocks in the same set.
  bc.install(0, NodeState::kShared);
  bc.install(256, NodeState::kShared);
  bc.install(512, NodeState::kShared);
  bc.install(768, NodeState::kShared);
  bc.touch(0);  // 256 becomes LRU
  auto v = bc.install(1024, NodeState::kShared);
  ASSERT_TRUE(v.valid);
  EXPECT_EQ(v.blk, 256u);
  EXPECT_NE(bc.probe(0), nullptr);
}

TEST(BlockCache, InfiniteNeverEvicts) {
  BlockCache bc(64, 0);
  for (Addr b = 0; b < 100000; b += 7) {
    auto v = bc.install(b, NodeState::kShared);
    EXPECT_FALSE(v.valid);
  }
  EXPECT_NE(bc.probe(7 * 1000), nullptr);
}

TEST(BlockCache, ReuseInvalidFrame) {
  BlockCache bc(64 * 1024, 1);
  bc.install(5, NodeState::kShared);
  bc.invalidate(5);
  auto v = bc.install(5 + 1024, NodeState::kShared);
  EXPECT_FALSE(v.valid);  // took the invalid frame, no eviction
}

TEST(BlockCache, ForEachBlockOfPage) {
  BlockCache bc(64 * 1024, 4);
  const Addr page = 3;
  bc.install(block_of(block_addr_of_page_block(page, 1)), NodeState::kShared);
  bc.install(block_of(block_addr_of_page_block(page, 63)), NodeState::kModified);
  bc.install(block_of(block_addr_of_page_block(page + 1, 1)), NodeState::kShared);
  int n = 0;
  bc.for_each_block_of_page(page, [&](BlockCache::Entry&) { n++; });
  EXPECT_EQ(n, 2);
}

TEST(BlockCache, ForEachBlockOfPageTinyCache) {
  // Fewer sets than blocks per page: the set-localized walk must wrap
  // and still visit each resident block exactly once.
  BlockCache bc(2 * 1024, 2);  // 16 sets, 2 ways
  const Addr page = 5;
  bc.install(block_of(block_addr_of_page_block(page, 0)), NodeState::kShared);
  bc.install(block_of(block_addr_of_page_block(page, 17)), NodeState::kShared);
  bc.install(block_of(block_addr_of_page_block(page + 2, 3)),
             NodeState::kShared);
  std::vector<Addr> seen;
  bc.for_each_block_of_page(page, [&](BlockCache::Entry& e) {
    seen.push_back(e.blk);
  });
  ASSERT_EQ(seen.size(), 2u);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen[0], block_of(block_addr_of_page_block(page, 0)));
  EXPECT_EQ(seen[1], block_of(block_addr_of_page_block(page, 17)));
}

TEST(BlockCache, InfiniteCongruentAddressesStayBounded) {
  // Blocks congruent in every power-of-two set count (distinct high
  // bits only) must spill within the table instead of forcing endless
  // set doubling — memory tracks resident blocks, not address span.
  BlockCache bc(64, 0);
  constexpr int kN = 64;  // far more than one home window holds
  for (int j = 0; j < kN; ++j) {
    auto v = bc.install(Addr(j) << 40, NodeState::kShared);
    EXPECT_FALSE(v.valid);
  }
  EXPECT_EQ(bc.occupancy(), std::uint64_t(kN));
  for (int j = 0; j < kN; ++j)
    EXPECT_NE(bc.probe(Addr(j) << 40), nullptr) << j;
  bc.invalidate(Addr(5) << 40);
  EXPECT_EQ(bc.probe(Addr(5) << 40), nullptr);
  bc.install(Addr(5) << 40, NodeState::kModified);
  ASSERT_NE(bc.probe(Addr(5) << 40), nullptr);
  EXPECT_EQ(bc.probe(Addr(5) << 40)->state, NodeState::kModified);
  EXPECT_EQ(bc.occupancy(), std::uint64_t(kN));
}

TEST(BlockCache, InfiniteGrowthPreservesContents) {
  // Push far past the initial set capacity: the growable infinite shape
  // must keep every block probeable across splits.
  BlockCache bc(64, 0);
  constexpr Addr kBlocks = 100000;
  for (Addr b = 0; b < kBlocks; ++b) {
    auto v = bc.install(b, b % 3 ? NodeState::kShared : NodeState::kModified);
    EXPECT_FALSE(v.valid);
  }
  EXPECT_EQ(bc.occupancy(), kBlocks);
  for (Addr b = 0; b < kBlocks; b += 997) {
    const BlockCache::Entry* e = bc.probe(b);
    ASSERT_NE(e, nullptr) << b;
    EXPECT_EQ(e->state, b % 3 ? NodeState::kShared : NodeState::kModified);
  }
  // Invalidate + refill survives growth too.
  bc.invalidate(12345);
  EXPECT_EQ(bc.probe(12345), nullptr);
  bc.install(12345, NodeState::kShared);
  ASSERT_NE(bc.probe(12345), nullptr);
  EXPECT_EQ(bc.occupancy(), kBlocks);
}

TEST(PageCache, AllocateFindRelease) {
  PageCache pc(2);
  EXPECT_TRUE(pc.has_free_frame());
  auto& f = pc.allocate(100);
  f.tag[3] = NodeState::kShared;
  f.valid_blocks = 1;
  ASSERT_NE(pc.find(100), nullptr);
  EXPECT_TRUE(pc.find(100)->has(3));
  EXPECT_FALSE(pc.find(100)->has(4));
  pc.release(100);
  EXPECT_EQ(pc.find(100), nullptr);
}

TEST(PageCache, CapacityAndVictimSelection) {
  PageCache pc(2);
  pc.allocate(1);
  pc.allocate(2);
  EXPECT_FALSE(pc.has_free_frame());
  pc.touch(1);  // 2 becomes LRU
  EXPECT_EQ(pc.pick_victim(), 2u);
  pc.touch(2);
  EXPECT_EQ(pc.pick_victim(), 1u);
}

TEST(PageCache, InfiniteCapacity) {
  PageCache pc(0);
  for (Addr p = 0; p < 10000; ++p) pc.allocate(p);
  EXPECT_TRUE(pc.has_free_frame());
  EXPECT_EQ(pc.frames_in_use(), 10000u);
}

TEST(Directory, EntryLifecycle) {
  const NodeSetLayout l = layout8();
  Directory d(l);
  EXPECT_EQ(d.find(9), nullptr);
  DirEntry& e = d.entry(9);
  e.state = DirState::kShared;
  e.add_sharer(3, l);
  e.add_sharer(5, l);
  EXPECT_TRUE(d.find(9)->is_sharer(3, l));
  EXPECT_FALSE(d.find(9)->is_sharer(4, l));
  EXPECT_EQ(d.find(9)->sharer_count(l), 2u);
  e.remove_sharer(3, l);
  EXPECT_EQ(d.find(9)->sharer_count(l), 1u);
  d.erase(9);
  EXPECT_EQ(d.find(9), nullptr);
}

// Regression: sharer ids past bit 31 must not alias low nodes. The old
// raw-uint32 directory computed `1u << n` with n >= 32 (undefined; in
// practice node 33 aliased node 1). A 64-node full-map layout must keep
// the two distinct.
TEST(Directory, WideNodeIdsDoNotAliasLowNodes) {
  const NodeSetLayout l = NodeSetLayout::make(64, DirScheme::kFullMap);
  Directory d(l);
  DirEntry& e = d.entry(4);
  e.state = DirState::kShared;
  e.add_sharer(33, l);
  EXPECT_TRUE(e.is_sharer(33, l));
  EXPECT_FALSE(e.is_sharer(1, l));
  EXPECT_EQ(e.sharer_count(l), 1u);
  e.add_sharer(1, l);
  EXPECT_EQ(e.sharer_count(l), 2u);
  e.remove_sharer(33, l);
  EXPECT_FALSE(e.is_sharer(33, l));
  EXPECT_TRUE(e.is_sharer(1, l));
}

TEST(Directory, UsageCensusCountsSharersAndStorage) {
  const NodeSetLayout l = layout8();
  Directory d(l);
  DirEntry& a = d.entry(1);
  a.state = DirState::kShared;
  a.add_sharer(0, l);
  a.add_sharer(5, l);
  DirEntry& b = d.entry(2);
  b.state = DirState::kExclusive;
  b.owner = 3;
  const DirUsage u = d.usage();
  EXPECT_EQ(u.nodes, 8u);
  EXPECT_EQ(u.entries, 2u);
  EXPECT_EQ(u.shared_entries, 1u);
  EXPECT_EQ(u.coarse_entries, 0u);
  EXPECT_EQ(u.sharers_measured, 2u);
  EXPECT_EQ(u.sharer_bits_full_map, 16u);  // 2 entries x 8 nodes
  EXPECT_GT(u.sharer_bits_used, 0u);
}

TEST(PageTable, FirstTouchBinding) {
  PageTable pt(8, layout8());
  EXPECT_FALSE(pt.is_bound(7));
  pt.info(7).home = 3;
  EXPECT_TRUE(pt.is_bound(7));
  EXPECT_EQ(pt.find(7)->home, 3u);
}

// Report rows and coherence-check walks follow container iteration
// order; these pins keep it sorted-by-address on every stdlib.
TEST(PageTable, ForEachIsSortedByPage) {
  PageTable pt(8, layout8());
  for (Addr p : {Addr(77), Addr(3), Addr(4096), Addr(512), Addr(1)})
    pt.info(p).home = 0;
  std::vector<Addr> order;
  pt.for_each([&](Addr p, PageInfo&) { order.push_back(p); });
  EXPECT_EQ(order, (std::vector<Addr>{1, 3, 77, 512, 4096}));
}

TEST(Directory, ForEachIsSortedByBlock) {
  Directory d(layout8());
  for (Addr b : {Addr(900), Addr(2), Addr(64), Addr(33)})
    d.entry(b).state = DirState::kShared;
  d.erase(64);
  std::vector<Addr> order;
  d.for_each([&](Addr b, DirEntry&) { order.push_back(b); });
  EXPECT_EQ(order, (std::vector<Addr>{2, 33, 900}));
}

TEST(PageCache, ForEachFrameIsSortedByPage) {
  PageCache pc(0);
  for (Addr p : {Addr(42), Addr(7), Addr(1000), Addr(8)}) pc.allocate(p);
  std::vector<Addr> order;
  pc.for_each_frame([&](Addr p, PageCache::Frame&) { order.push_back(p); });
  EXPECT_EQ(order, (std::vector<Addr>{7, 8, 42, 1000}));
}

TEST(PageTable, InfoStartsUnbound) {
  // PageInfo is pure mechanism state now; the observation counters the
  // decision engines use live in PolicyEngine::PageObs (covered by
  // policy_engine_test.cpp).
  PageTable pt(8, layout8());
  PageInfo& pi = pt.info(1);
  EXPECT_EQ(pi.home, kNoNode);
  EXPECT_FALSE(pi.replicated);
  EXPECT_EQ(pi.op_pending_until, 0u);
  for (NodeId n = 0; n < 8; ++n)
    EXPECT_EQ(pi.mode[n], PageMode::kUnmapped);
}

// Wide machines spill the 2-bit-per-node page modes into lazily
// attached extension words; every node id must round-trip its mode.
TEST(PageTable, WideModeVectorRoundTrips) {
  const NodeSetLayout l = NodeSetLayout::make(1024, DirScheme::kCoarse);
  PageTable pt(1024, l);
  PageInfo& pi = pt.info(7);
  pi.mode[0] = PageMode::kCcNuma;
  pi.mode[63] = PageMode::kScoma;
  pi.mode[64] = PageMode::kReplica;
  pi.mode[1023] = PageMode::kCcNuma;
  EXPECT_EQ(pi.mode[0], PageMode::kCcNuma);
  EXPECT_EQ(pi.mode[63], PageMode::kScoma);
  EXPECT_EQ(pi.mode[64], PageMode::kReplica);
  EXPECT_EQ(pi.mode[1023], PageMode::kCcNuma);
  // Untouched ids stay unmapped, including neighbours of the set ones.
  EXPECT_EQ(pi.mode[1], PageMode::kUnmapped);
  EXPECT_EQ(pi.mode[65], PageMode::kUnmapped);
  EXPECT_EQ(pi.mode[1022], PageMode::kUnmapped);
}

// Reference node history: unpacked 16-byte {tag, class, valid} entries
// in a value-initialised table behind the same direct-mapped index.
class RefNodeHistory {
 public:
  explicit RefNodeHistory(std::uint32_t entries) {
    std::uint32_t cap = 1;
    while (cap < entries && cap < (1u << 30)) cap <<= 1;
    table_.resize(cap);
  }
  MissClass classify(Addr blk) {
    Entry& e = table_[index(blk)];
    if (!e.valid || e.tag != blk) {
      e = Entry{blk, MissClass::kCapacity, true};
      return MissClass::kCold;
    }
    return e.cls;
  }
  void mark(Addr blk, MissClass c) {
    table_[index(blk)] = Entry{blk, c, true};
  }

 private:
  struct Entry {
    Addr tag = 0;
    MissClass cls = MissClass::kCapacity;
    bool valid = false;
  };
  std::size_t index(Addr blk) const {
    const Addr h = blk ^ (blk >> 17) ^ (blk >> 31);
    return std::size_t(h) & (table_.size() - 1);
  }
  std::vector<Entry> table_;
};

TEST(NodeHistory, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(NodeHistory(64).capacity(), 64u);
  EXPECT_EQ(NodeHistory(65).capacity(), 128u);
  EXPECT_EQ(NodeHistory().capacity(), std::size_t(1) << 16);
}

// A 64-entry table over a few thousand blocks: nearly every classify
// lands on an entry another block owns, so collision eviction is
// exercised constantly. Block 0 (tag 0 in the reference) and sparse
// high blocks are in the mix.
TEST(NodeHistory, PackedMatchesUnpackedUnderCollisions) {
  for (std::uint64_t seed : {5u, 6u, 7u}) {
    NodeHistory h(64);
    RefNodeHistory ref(64);
    Rng rng(seed);
    for (int i = 0; i < 200'000; ++i) {
      Addr b;
      switch (rng.next_below(3)) {
        case 0: b = rng.next_below(4096); break;
        case 1: b = rng.next_below(8); break;  // includes block 0
        default: b = (rng.next_u64() >> 6) & ~Addr(63); break;
      }
      if (rng.next_below(2)) {
        ASSERT_EQ(h.classify(b), ref.classify(b))
            << "seed " << seed << " op " << i << " blk " << b;
      } else {
        const MissClass c = MissClass(rng.next_below(3));
        h.mark(b, c);
        ref.mark(b, c);
      }
    }
  }
}

}  // namespace
}  // namespace dsm
