/// \file asic_mapper.hpp
/// \brief Choice-aware standard-cell technology mapping (paper, Alg. 3,
/// ASIC flavor).
///
/// A phase-aware, cut-based structural mapper in the style of ABC's `map`:
/// every node is matched in both polarities against the library via NPN
/// Boolean matching, inverters close the phase gaps, and a dynamic program
/// selects the cheapest cover under the chosen objective.  With MCH
/// networks, the cut sets of choice members are merged into their
/// representatives first, so candidates written in a different logic
/// representation compete through their actual *technology* cost -- the
/// paper's central mechanism for defeating structural bias.

#pragma once

#include <string>
#include <vector>

#include "mcs/map/lut_mapper.hpp"
#include "mcs/map/techlib.hpp"
#include "mcs/network/network.hpp"

namespace mcs {

struct AsicMapParams {
  enum class Objective { kDelay, kArea };
  Objective objective = Objective::kDelay;
  bool use_choices = true;
  int exact_area_rounds = 2;  ///< reference-counted area recovery rounds

  /// For the delay objective: fraction by which the frozen delay target is
  /// relaxed before area recovery (0.0 = strictly delay-optimal; ~0.1-0.2
  /// gives the "balanced" trade-off of the paper's MCH-balanced flow).
  double delay_relaxation = 0.0;
};

/// A mapped gate-level netlist.  Reference space: 0..num_pis-1 are PIs,
/// num_pis + i is instances[i].
struct CellNetlist {
  struct Instance {
    int cell = -1;                     ///< index into the library
    std::vector<std::int32_t> fanins;  ///< references (no complements)
  };
  const TechLibrary* library = nullptr;
  int num_pis = 0;
  std::vector<Instance> instances;
  std::vector<std::int32_t> po_refs;
  std::vector<bool> po_const;  ///< POs tied to a constant
  std::vector<bool> po_const_value;

  double area = 0.0;   ///< total cell area (um^2)
  double delay = 0.0;  ///< critical-path delay (ps)

  std::size_t size() const noexcept { return instances.size(); }

  /// This netlist as a LUT network: instance i becomes LUT i over the same
  /// fanins with its cell's function, and a constant PO reads a 0-input
  /// LUT.  simulate() evaluates it, and `cec` and `sim` rebuild it with
  /// lut_network_to_network().
  LutNetwork lut_network() const;

  /// Word-parallel evaluation (for verification), through lut_network().
  std::vector<std::uint64_t> simulate(
      const std::vector<std::uint64_t>& pi_values) const;

  /// Instance count per cell name (reporting).
  std::vector<std::pair<std::string, int>> cell_histogram() const;
};

struct AsicMapStats {
  std::size_t num_instances = 0;
  std::size_t num_inverters = 0;
  double area = 0.0;
  double delay = 0.0;
};

/// Maps \p net onto \p lib.  Precondition: the library must contain an
/// inverter and be able to realize every gate type present in the subject
/// network through some cut match -- in practice, cells for the AND2 class
/// always, the XOR2 class when the network has XOR2 nodes, and the
/// MAJ3/XOR3 classes when it has native MAJ3/XOR3 nodes (asap7_mini covers
/// all four; asap7_mini_basic only the first two).  A violation trips an
/// assertion during the first mapping pass.
CellNetlist asic_map(const Network& net, const TechLibrary& lib,
                     const AsicMapParams& params = {},
                     AsicMapStats* stats = nullptr);

}  // namespace mcs
