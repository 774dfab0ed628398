#include "mem/l1_cache.hpp"

#include <bit>

namespace dsm {

const char* to_string(L1State s) {
  switch (s) {
    case L1State::kI: return "I";
    case L1State::kS: return "S";
    case L1State::kE: return "E";
    case L1State::kO: return "O";
    case L1State::kM: return "M";
  }
  return "?";
}

std::uint64_t* MissHistory::add_chunk(Addr c) {
  if (c >= dir_.size()) dir_.resize(std::size_t(c) + 1);
  dir_[c] = std::make_unique<std::uint64_t[]>(kChunkWords);
  return dir_[c].get();
}

std::size_t MissHistory::bytes() const {
  std::size_t n = dir_.capacity() * sizeof(dir_[0]);
  for (const auto& chunk : dir_)
    if (chunk) n += kChunkWords * sizeof(std::uint64_t);
  return n;
}

L1Cache::L1Cache(std::uint64_t bytes) {
  DSM_ASSERT(bytes >= kBlockBytes && (bytes % kBlockBytes) == 0);
  n_sets_ = std::uint32_t(bytes / kBlockBytes);
  DSM_ASSERT(std::has_single_bit(n_sets_), "L1 set count must be a power of 2");
  lines_.resize(n_sets_);
}

L1Cache::Line* L1Cache::probe(Addr blk) {
  Line& ln = lines_[set_of(blk)];
  return (ln.state != L1State::kI && ln.blk == blk) ? &ln : nullptr;
}

const L1Cache::Line* L1Cache::probe(Addr blk) const {
  const Line& ln = lines_[set_of(blk)];
  return (ln.state != L1State::kI && ln.blk == blk) ? &ln : nullptr;
}

L1Cache::Victim L1Cache::install(Addr blk, L1State state) {
  DSM_DEBUG_ASSERT(state != L1State::kI);
  Line& ln = lines_[set_of(blk)];
  Victim v;
  if (ln.state != L1State::kI && ln.blk != blk) {
    v.valid = true;
    v.blk = ln.blk;
    v.state = ln.state;
    history_.mark(ln.blk, MissClass::kCapacity);
  }
  ln.blk = blk;
  ln.state = state;
  return v;
}

void L1Cache::invalidate(Addr blk, MissClass reason) {
  Line* ln = probe(blk);
  if (!ln) return;
  ln->state = L1State::kI;
  history_.mark(blk, reason);
}

void L1Cache::downgrade_to_shared(Addr blk) {
  Line* ln = probe(blk);
  if (!ln) return;
  ln->state = L1State::kS;
}

void L1Cache::set_state(Addr blk, L1State s) {
  Line* ln = probe(blk);
  DSM_ASSERT(ln != nullptr, "set_state on absent block");
  ln->state = s;
}

}  // namespace dsm
