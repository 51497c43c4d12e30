/// \file npn_db.hpp
/// \brief Lazily built databases of optimized structures for 4-input NPN
/// classes.
///
/// This is the "4-input NPN library" used by the level-oriented synthesis
/// strategy of the paper (Sec. III-A, citing fast NPN-based Boolean
/// matching).  For each canonical class we synthesize several candidate
/// structures (DSD, SOP factoring, Shannon) in the requested gate basis,
/// keep the best one under the chosen objective, and replay it whenever an
/// NPN-equivalent cut function must be realized.  The 4-input space has only
/// 222 classes, so the lazy cache converges almost immediately.

#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "mcs/network/network.hpp"
#include "mcs/resyn/basis.hpp"
#include "mcs/tt/npn.hpp"

namespace mcs {

class NpnDatabase {
 public:
  enum class Objective { kLevel, kArea };

  NpnDatabase(GateBasis basis, Objective objective)
      : basis_(basis), objective_(objective) {}

  /// Realizes the (<= 4 variable) function \p f over \p leaves in \p net.
  /// Returns std::nullopt for functions of more than 4 support variables.
  std::optional<Signal> instantiate(Network& net, Tt6 f, int num_vars,
                                    const std::vector<Signal>& leaves);

  /// Shared per-basis/objective instances (the strategies are stateless
  /// apart from this cache).
  ///
  /// **Concurrency contract (multi-job server).**  The instances are
  /// `thread_local`: every pool worker / job-runner thread lazily builds
  /// its own copy per (basis, objective) key, so there is no locking and
  /// no cross-thread mutation.  This stays correct when *jobs from
  /// different flows interleave on the same worker* (the mcs::server
  /// case) because an entry's content is a pure function of its key --
  /// which NPN class, which basis, which objective -- never of who asked
  /// first or in what order: a rewrite in job A warms exactly the cache a
  /// rewrite in job B would have built, bit for bit.  Memory stays
  /// bounded by the 222-class NPN-4 space per key per thread; a
  /// long-lived server does not grow it beyond one warm set per worker.
  /// tests/test_server.cpp locks this in: two different rewrite-heavy
  /// flows through concurrent server jobs produce networks bit-identical
  /// to their serial runs.
  static NpnDatabase& shared(GateBasis basis, Objective objective);

  std::size_t num_classes() const noexcept { return classes_.size(); }

 private:
  /// Replayable optimized structure: a 4-PI scratch network + output.
  /// instantiate() replays `cone` with copy_gates(), so it walks nothing;
  /// the cone's gate count is the entry's size.
  struct Entry {
    Network net;
    Signal root;
    std::uint32_t depth = 0;
    std::vector<NodeId> cone;  ///< root's cone gates in topo_order()
  };

  const Entry& entry_for(Tt6 canon);

  GateBasis basis_;
  Objective objective_;
  std::unordered_map<std::uint16_t, Entry> classes_;
  Npn4Cache canon_cache_;
};

}  // namespace mcs
