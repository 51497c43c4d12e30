/// \file cut_store.hpp
/// \brief Arena-backed cut storage: per-node cut sets as spans into one
/// contiguous buffer of fixed-size slots.
///
/// Priority cuts cap every node's set at a constant size, so a pass knows
/// its worst-case storage up front: reset() reserves one fixed slot per
/// scheduled node, the node at schedule position i builds its set in place
/// in slot i, and commit_slot() publishes it (no copy-out of a working
/// buffer).  A node's cuts are contiguous and consecutive schedule
/// positions are adjacent in memory.  The arena never moves during a pass,
/// distinct nodes touch distinct slots and spans, and the buffer is kept
/// across passes when it is large enough, so steady-state passes allocate
/// nothing.

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "mcs/cut/cut.hpp"
#include "mcs/obs/obs.hpp"

namespace mcs {

static_assert(std::is_trivially_copyable_v<Cut>,
              "cut sets are assembled with memmove of Cut");

class CutStore {
 public:
  explicit CutStore(std::size_t num_nodes) : spans_(num_nodes) {}

  /// Clears all cut sets and reserves \p num_slots slots of \p slot_size
  /// cuts each.  The buffer is kept when it is large enough.
  void reset(std::size_t num_slots, std::size_t slot_size) {
    std::fill(spans_.begin(), spans_.end(), Span{});
    slot_size_ = slot_size;
    const std::size_t cap = num_slots * slot_size;
    if (cap <= capacity_) return;
    // Nothing in the old buffer is live: free it before allocating.
    arena_.reset();
    capacity_ = 0;
    arena_.reset(new Cut[cap]);
    capacity_ = cap;
    // Reallocation is rare; a gauge write here is free in practice.
    const auto bytes = static_cast<std::int64_t>(cap * sizeof(Cut));
    obs::gauge("cut.arena_bytes_max").set_max(bytes);
    obs::domain_peak_max(obs::DomainPeak::kArenaBytes, bytes);
  }

  /// The first cut of slot \p i.
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

  /// Total cuts over all committed nodes (statistics).
  std::size_t total_cuts() const noexcept {
    std::size_t n = 0;
    for (const Span s : spans_) n += s.count;
    return n;
  }

 private:
  struct Span {
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
  };

  std::unique_ptr<Cut[]> arena_;
  std::size_t capacity_ = 0;
  std::size_t slot_size_ = 0;  ///< cuts per slot
  std::vector<Span> spans_;
};

}  // namespace mcs
