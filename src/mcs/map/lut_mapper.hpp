/// \file lut_mapper.hpp
/// \brief Choice-aware K-LUT technology mapping (paper, Algorithm 3).
///
/// A classic priority-cuts FPGA mapper (delay pass, area-flow recovery,
/// exact-area recovery; the first two kinds of pass run on num_threads
/// threads) extended with MCH support: cut sets of choice-class
/// members are folded into their representatives before ranking, so a cut
/// originating from an XMG candidate competes on equal terms with the
/// original AIG structure and wins exactly when its technology cost (LUT
/// count / depth) is lower.  This is the mapper behind the paper's EPFL
/// Best-Results experiment (Table II).

#pragma once

#include <cstdint>
#include <vector>

#include "mcs/cut/cut.hpp"
#include "mcs/network/network.hpp"

namespace mcs {

struct LutMapParams {
  int lut_size = 6;   ///< K
  bool use_choices = true;

  enum class Objective {
    kDelay,  ///< depth-optimal, then recover area under required times
    kArea,   ///< minimum LUT count (depth unconstrained)
  };
  Objective objective = Objective::kArea;

  int exact_area_rounds = 2;

  /// Threads for the delay and area-flow passes (the exact-area passes run
  /// serially); values < 1 resolve via ThreadPool::resolve_threads().  The
  /// mapping is the same for every value.
  int num_threads = 1;
};

/// A mapped LUT network.  Reference space: 0..num_pis-1 are the PIs,
/// num_pis + i is luts[i].
struct LutNetwork {
  struct Lut {
    std::vector<std::int32_t> inputs;  ///< references (see above)
    Tt6 function = 0;                  ///< over the inputs

    friend bool operator==(const Lut&, const Lut&) = default;
  };
  int num_pis = 0;
  std::vector<Lut> luts;
  std::vector<std::int32_t> po_refs;
  std::vector<bool> po_compl;

  /// Structural bit-identity (the LUT-network analogue of
  /// structurally_identical(); used by the mcs::par determinism checks).
  friend bool operator==(const LutNetwork&, const LutNetwork&) = default;

  std::size_t size() const noexcept { return luts.size(); }
  std::uint32_t depth() const;

  /// Evaluates the LUT network on one input assignment (bit i of word i of
  /// \p pi_values ... word-parallel, 64 patterns at a time).
  std::vector<std::uint64_t> simulate(
      const std::vector<std::uint64_t>& pi_values) const;
};

struct LutMapStats {
  std::size_t num_luts = 0;
  std::uint32_t depth = 0;
  std::size_t num_choice_cuts_used = 0;  ///< selected cuts merged from members
};

/// Maps \p net to K-LUTs.  When use_choices is set, \p net may carry MCH/DCH
/// choice classes; otherwise they are ignored.
LutNetwork lut_map(const Network& net, const LutMapParams& params = {},
                   LutMapStats* stats = nullptr);

/// Rebuilds a LUT network as a mixed network (each LUT resynthesized from
/// its truth table).  Used for verification and for iterated flows.
Network lut_network_to_network(const LutNetwork& lnet);

}  // namespace mcs
