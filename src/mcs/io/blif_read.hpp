/// \file blif_read.hpp
/// \brief BLIF reading (.names-based combinational subset).
///
/// Complements the BLIF writers: round-trips mapped LUT netlists and
/// accepts external combinational BLIF (each .names cover is rebuilt as
/// logic through the SOP synthesizer).  Latches and subcircuits are not
/// supported -- all experiments are combinational.

#pragma once

#include <iosfwd>
#include <string>

#include "mcs/network/network.hpp"

namespace mcs {

/// Parses a BLIF model into a mixed network.  Throws std::runtime_error on
/// malformed input, latches or .subckt.
Network read_blif(std::istream& is);

}  // namespace mcs
