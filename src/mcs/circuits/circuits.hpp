/// \file circuits.hpp
/// \brief EPFL-analogue benchmark circuits, generated programmatically.
///
/// The paper evaluates on the EPFL combinational benchmark suite (10
/// arithmetic + 10 random/control circuits).  The suite's files are not
/// redistributable inside this repository, so we generate functionally
/// analogous circuits of the same families and structural character
/// (carry chains, shifter mux columns, divider arrays, priority chains,
/// majority trees, control SOPs).  Absolute sizes are scaled down to keep
/// the full 6-flow evaluation tractable on one core; the win/lose *shape*
/// of the experiments is structure-driven and preserved (see DESIGN.md).

#pragma once

#include <span>
#include <string>
#include <vector>

#include "mcs/network/network.hpp"

namespace mcs::circuits {

// --- arithmetic family ----------------------------------------------------

Network adder(int bits);           ///< ripple-carry adder with carry out
Network barrel_shifter(int bits);  ///< variable left-rotate
Network divider(int bits);         ///< restoring array divider
Network hypotenuse(int bits);      ///< isqrt(a^2 + b^2)
Network log2_approx(int bits);     ///< integer log2 + normalized mantissa
Network max4(int bits);            ///< max of four operands
Network multiplier(int bits);      ///< array multiplier
Network sin_approx(int bits);      ///< polynomial sine approximation
Network sqrt_circuit(int bits);    ///< integer square root
Network square(int bits);          ///< a^2

// --- random / control family ----------------------------------------------

Network round_robin_arbiter(int clients);
Network cavlc_like();        ///< code-length decoding tree
Network ctrl_like();         ///< small FSM next-state/control logic
Network decoder(int addr_bits);
Network i2c_like();          ///< bus-control style logic
Network int2float_like();    ///< 32-bit int -> tiny float converter
Network mem_ctrl_like();     ///< request decode + bank control + priority
Network priority_encoder(int width);
Network router_like();       ///< route-select + grant logic
Network voter(int inputs);   ///< majority of many inputs

// --- registry ---------------------------------------------------------------

/// One generated circuit family: the `gen` pass and epfl_suite() both read
/// the table of these, so a family's name, widths and generator live once.
struct CircuitFamily {
  const char* name;
  int full_bits;  ///< width at scale 1 and `gen`'s default; 0 = fixed circuit
  int min_bits;   ///< smallest scaled width
  bool stepped;   ///< full_bits at scale >= 0.9, else min_bits (dec, voter)
  Network (*make)(int bits);  ///< fixed circuits ignore bits
};

/// The 20 families in the paper's Table I order (arithmetic then
/// random/control).
std::span<const CircuitFamily> circuit_families();

struct BenchmarkCircuit {
  std::string name;
  std::string gen;  ///< the flow stage that rebuilds net, "gen:adder,bits=38"
  Network net;
};

/// The full 20-circuit suite in circuit_families() order.  \p scale in
/// (0, 1] shrinks the arithmetic bit-widths for quick runs.
std::vector<BenchmarkCircuit> epfl_suite(double scale = 1.0);

}  // namespace mcs::circuits
