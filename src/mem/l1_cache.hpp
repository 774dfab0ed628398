// Processor data cache: direct-mapped, write-back, write-allocate,
// MOESI states, with per-block miss-class history for the paper's
// cold / coherence / capacity-conflict breakdown.
//
// The cache stores no data — workloads compute on host memory — only
// tags and coherence state. Addresses are block-aligned globally; the
// tag is the full block number, so aliasing is impossible by
// construction and the set index is blk % n_sets.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace dsm {

enum class L1State : std::uint8_t { kI = 0, kS, kE, kO, kM };

const char* to_string(L1State s);

inline bool l1_valid(L1State s) { return s != L1State::kI; }
inline bool l1_dirty(L1State s) {
  return s == L1State::kM || s == L1State::kO;
}
inline bool l1_writable(L1State s) {
  return s == L1State::kM || s == L1State::kE;
}

// Per-block miss-class history of one cache: the way the cache last
// lost each block, which classifies the block's next miss.
//
// Two bits per block number (0 = never seen, else MissClass + 1),
// reached through a two-level table in the manner of an array-indexed
// page table: a directory indexed by blk >> kChunkBits points at 1-KiB
// chunks of 4096 blocks (256 KiB of address space), allocated zeroed
// on first touch. Lookups cost two dependent loads and no hash; the
// table is exact and unbounded. The simulator's shared address space
// is allocated densely from the bottom (workloads/workload.hpp), so
// the directory costs 8 bytes per 256 KiB of span below the highest
// block touched, and chunks exist only where this cache has been.
class MissHistory {
 public:
  // The class of `blk`'s next miss: kCold on first touch (which also
  // records kCapacity, so a later miss with no recorded departure in
  // between classifies as capacity), else the last class marked.
  MissClass classify(Addr blk) {
    std::uint64_t& w = word(blk);
    const unsigned sh = shift_of(blk);
    const unsigned code = unsigned(w >> sh) & 3u;
    if (code == 0) {
      w |= code_of(MissClass::kCapacity) << sh;
      return MissClass::kCold;
    }
    return MissClass(code - 1);
  }
  // Record how `blk` left the cache.
  void mark(Addr blk, MissClass c) {
    std::uint64_t& w = word(blk);
    const unsigned sh = shift_of(blk);
    w = (w & ~(std::uint64_t(3) << sh)) | (code_of(c) << sh);
  }

  // Bytes held by the directory and the chunks allocated so far.
  std::size_t bytes() const;

 private:
  // A word holds the 2-bit codes of 32 consecutive blocks.
  static constexpr unsigned kChunkBits = 12;
  static constexpr std::size_t kChunkWords =
      (std::size_t(1) << kChunkBits) >> 5;

  static std::uint64_t code_of(MissClass c) { return std::uint64_t(c) + 1; }
  static unsigned shift_of(Addr blk) { return unsigned(blk & 31) * 2; }

  std::uint64_t& word(Addr blk) {
    const Addr c = blk >> kChunkBits;
    std::uint64_t* chunk = c < dir_.size() ? dir_[c].get() : nullptr;
    if (!chunk) [[unlikely]] chunk = add_chunk(c);
    return chunk[(blk >> 5) & (kChunkWords - 1)];
  }
  std::uint64_t* add_chunk(Addr c);

  std::vector<std::unique_ptr<std::uint64_t[]>> dir_;
};

class L1Cache {
 public:
  struct Line {
    Addr blk = kNoBlock;
    L1State state = L1State::kI;
  };
  struct Victim {
    bool valid = false;
    Addr blk = 0;
    L1State state = L1State::kI;
  };

  static constexpr Addr kNoBlock = ~Addr(0);

  explicit L1Cache(std::uint64_t bytes);

  // Tag probe: returns the resident line if it holds `blk`, else nullptr.
  Line* probe(Addr blk);
  const Line* probe(Addr blk) const;

  // Install `blk` in `state`, returning the replaced victim (if any).
  // The victim's miss history is marked capacity/conflict.
  Victim install(Addr blk, L1State state);

  // Coherence/inclusion actions from the bus/devices. `reason` records
  // how the block was lost for the next miss's classification
  // (coherence invalidation vs. inclusion-driven replacement).
  void invalidate(Addr blk, MissClass reason = MissClass::kCoherence);
  void downgrade_to_shared(Addr blk);    // M/E/O -> S; ownership moves to
                                         // the node-level container
  void set_state(Addr blk, L1State s);

  // Classify the miss reason for `blk`: kCold on first touch, else
  // whatever the block's last departure recorded.
  MissClass classify_miss(Addr blk) { return history_.classify(blk); }

  std::uint32_t n_sets() const { return n_sets_; }
  const Line& line_at(std::uint32_t set) const { return lines_[set]; }

  // Enumerate valid resident blocks of a given page (page flushes).
  template <typename Fn>
  void for_each_line_of_page(Addr page, Fn&& fn) {
    // Blocks of one page map to kBlocksPerPage consecutive sets.
    const Addr first_blk = page << (kPageBits - kBlockBits);
    for (unsigned i = 0; i < kBlocksPerPage; ++i) {
      const Addr blk = first_blk + i;
      Line& ln = lines_[set_of(blk)];
      if (ln.state != L1State::kI && ln.blk == blk) fn(ln);
    }
  }

 private:
  std::uint32_t set_of(Addr blk) const {
    return std::uint32_t(blk & (n_sets_ - 1));
  }

  std::uint32_t n_sets_;
  std::vector<Line> lines_;
  // Block -> classification of its *next* miss. Touched on every L1
  // miss, eviction and invalidation.
  MissHistory history_;
};

}  // namespace dsm
