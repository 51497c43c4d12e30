/// \file dch.hpp
/// \brief Traditional structural choices (the DCH baseline of the paper).
///
/// Classic "lossless synthesis" choices (Chatterjee et al., TCAD'06; ABC's
/// `dch`): several technology-independent optimization snapshots of the same
/// network are merged into one strashed graph, functionally equivalent nodes
/// are detected by random-simulation signatures and proven by SAT, and the
/// proven classes become choice classes.  Unlike MCH, every candidate comes
/// from a homogeneous optimization of the whole network, which is exactly
/// the structural-bias limitation the paper addresses.

#pragma once

#include <cstdint>
#include <vector>

#include "mcs/network/network.hpp"

namespace mcs {

struct DchParams {
  int sim_words = 16;               ///< random words per node for signatures
  std::uint64_t sim_seed = 0x5eed;  ///< signature seed
  /// SAT budget per candidate pair, as Solver::solve counts it: conflicts
  /// since the last restart, so 300 allows up to 1,836 conflicts per pair.
  std::int64_t conflict_limit = 300;
  std::size_t max_pairs = 1u << 20;   ///< overall pair budget
  /// Worker threads for the equivalence proofs (the mcs::sweep engine's
  /// parallel proof batches); values < 1 resolve through
  /// ThreadPool::resolve_threads.  The classes are identical for any
  /// thread count.
  int num_threads = 1;
};

struct DchStats {
  std::size_t num_candidate_pairs = 0;
  std::size_t num_proven = 0;
  std::size_t num_disproven = 0;
  std::size_t num_timeout = 0;
  std::size_t num_rejected_cycle = 0;
};

/// Merges \p snapshots (functionally equivalent networks with identical
/// PI/PO interfaces; snapshots[0] provides the PO structure) into a single
/// choice network.  Returns a network whose choice classes contain the
/// alternative structures contributed by the other snapshots.
Network build_dch(const std::vector<Network>& snapshots,
                  const DchParams& params = {}, DchStats* stats = nullptr);

}  // namespace mcs
