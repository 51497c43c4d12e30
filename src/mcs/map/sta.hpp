/// \file sta.hpp
/// \brief Static timing analysis over mapped cell netlists.
///
/// Computes arrival/required/slack per instance under the library's
/// pin-delay model and extracts the critical path.  examples/asic_flow.cpp
/// uses it to report *where* the delay of a mapped netlist comes from --
/// e.g. to show which cells the MCH mapper put on the critical path versus
/// the baseline.

#pragma once

#include <string>
#include <vector>

#include "mcs/map/asic_mapper.hpp"

namespace mcs {

struct TimingInfo {
  /// Per-reference (PIs then instances) arrival and required times.
  std::vector<double> arrival;
  std::vector<double> required;
  double clock = 0.0;  ///< analysis period == critical delay

  double slack(std::size_t ref) const noexcept {
    return required[ref] - arrival[ref];
  }
};

/// Runs STA on \p netlist with the required time at every PO set to the
/// critical delay (zero worst slack).
TimingInfo analyze_timing(const CellNetlist& netlist);

/// One step of a reported path.
struct PathStep {
  std::int32_t ref;       ///< reference (PI or instance)
  std::string cell_name;  ///< empty for PIs
  double arrival = 0.0;
};

/// Extracts a critical path (PO with zero slack back to a PI).
std::vector<PathStep> critical_path(const CellNetlist& netlist,
                                    const TimingInfo& timing);

/// Prints a human-readable timing report (critical path + slack histogram).
void report_timing(const CellNetlist& netlist, std::ostream& os);

}  // namespace mcs
