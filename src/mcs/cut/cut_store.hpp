/// \file cut_store.hpp
/// \brief Arena-backed cut storage: per-node cut sets as spans into one
/// contiguous buffer.
///
/// CutStore keeps all cut sets in one bump-allocated arena: nodes are
/// enumerated in topological order and each node's cut set is *built in
/// place* at the arena tail (alloc_tail/commit_tail), so a node's cuts are
/// contiguous, consecutive nodes' cuts are adjacent, the fanin spans a
/// merge step walks are sequential in memory, and publishing a finished
/// set costs nothing (no copy-out of a working buffer).  The arena grows
/// by doubling and is reset per enumeration pass without releasing its
/// buffer, so steady-state passes allocate nothing.
///
/// alloc_tail() pre-reserves the whole worst-case tail region up front;
/// until the matching commit_tail() the arena is guaranteed not to move, so
/// spans of earlier nodes (the fanin sets being merged) stay valid while
/// the new set is assembled.  Cut is trivially copyable, which makes the
/// grow-by-doubling a plain memcpy.
///
/// Passes that build several nodes' sets at once use slot mode instead:
/// reset_slots() reserves one fixed region per scheduled node up front, a
/// node builds its set in place in its own slot, and commit_slot()
/// publishes it.  The arena never moves during such a pass, and distinct
/// nodes touch distinct slots and spans.

#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "mcs/cut/cut.hpp"
#include "mcs/obs/obs.hpp"

namespace mcs {

static_assert(std::is_trivially_copyable_v<Cut>,
              "the arena relies on memcpy/memmove of Cut");

class CutStore {
 public:
  explicit CutStore(std::size_t num_nodes) { reset(num_nodes); }

  /// Clears all cut sets, keeping the arena buffer for reuse.
  void reset(std::size_t num_nodes) {
    size_ = 0;
    spans_.assign(num_nodes, Span{});
  }

  /// Clears all cut sets and reserves \p num_slots slots of \p slot_size
  /// cuts each (slot mode).  The buffer is kept when it is large enough.
  void reset_slots(std::size_t num_nodes, std::size_t num_slots,
                   std::size_t slot_size) {
    reset(num_nodes);
    slot_size_ = slot_size;
    if (num_slots * slot_size > capacity_) reallocate(num_slots * slot_size);
  }

  /// The first cut of slot \p i (see reset_slots()).
  Cut* slot(std::size_t i) const noexcept {
    return arena_.get() + i * slot_size_;
  }

  /// Publishes the first \p count cuts of slot \p i as node \p n's set.
  /// Threads may commit distinct nodes concurrently.
  void commit_slot(NodeId n, std::size_t i, std::size_t count) noexcept {
    spans_[n] = {static_cast<std::uint32_t>(i * slot_size_),
                 static_cast<std::uint32_t>(count)};
  }

  /// The committed cut set of \p n (empty if never committed).
  std::span<const Cut> cuts(NodeId n) const noexcept {
    const Span s = spans_[n];
    return {arena_.get() + s.offset, s.count};
  }

  /// Reserves room for up to \p max_cuts cuts at the arena tail and returns
  /// the tail pointer.  Until commit_tail(), the arena will not move.
  Cut* alloc_tail(std::size_t max_cuts) {
    if (size_ + max_cuts > capacity_) grow(size_ + max_cuts);
    return arena_.get() + size_;
  }

  /// Publishes the first \p count cuts of the current tail region as node
  /// \p n's set (re-committing a node leaks its old span until reset()).
  void commit_tail(NodeId n, std::size_t count) noexcept {
    spans_[n] = {static_cast<std::uint32_t>(size_),
                 static_cast<std::uint32_t>(count)};
    size_ += count;
  }

  /// Total cuts over all committed nodes (statistics).
  std::size_t total_cuts() const noexcept {
    std::size_t n = 0;
    for (const Span s : spans_) n += s.count;
    return n;
  }

  /// Arena footprint in bytes (capacity, not committed size).
  std::size_t arena_bytes() const noexcept { return capacity_ * sizeof(Cut); }

 private:
  struct Span {
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
  };

  void grow(std::size_t needed) {
    std::size_t cap = capacity_ == 0 ? 1024 : capacity_ * 2;
    while (cap < needed) cap *= 2;
    reallocate(cap);
  }

  void reallocate(std::size_t cap) {
    std::unique_ptr<Cut[]> next(new Cut[cap]);
    if (size_ != 0) {
      std::memcpy(next.get(), arena_.get(), size_ * sizeof(Cut));
    }
    arena_ = std::move(next);
    capacity_ = cap;
    // Reallocation is rare; a gauge write here is free in practice.
    const auto bytes = static_cast<std::int64_t>(capacity_ * sizeof(Cut));
    obs::gauge("cut.arena_bytes_max").set_max(bytes);
    obs::domain_peak_max(obs::DomainPeak::kArenaBytes, bytes);
  }

  std::unique_ptr<Cut[]> arena_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  std::size_t slot_size_ = 0;  ///< cuts per slot in slot mode
  std::vector<Span> spans_;
};

}  // namespace mcs
