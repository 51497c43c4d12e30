/// \file cnf.hpp
/// \brief Tseitin encoding of mixed networks into CNF.

#pragma once

#include <vector>

#include "mcs/network/network.hpp"
#include "mcs/sat/solver.hpp"

namespace mcs::sat {

/// Maps network nodes to solver variables.
class CnfMapping {
 public:
  explicit CnfMapping(std::size_t num_nodes) : node_var_(num_nodes, -1) {}

  Var var_of_node(NodeId n) const noexcept { return node_var_[n]; }
  bool has_var(NodeId n) const noexcept { return node_var_[n] >= 0; }
  void set_var(NodeId n, Var v) noexcept { node_var_[n] = v; }

  /// Solver literal of a network signal.
  Lit lit(Signal s) const noexcept {
    return mk_lit(node_var_[s.node()], s.complemented());
  }

 private:
  std::vector<Var> node_var_;
};

/// Encodes every node of \p net (including choice members and dangling
/// cones) into \p solver.  PIs get fresh variables unless pre-assigned in
/// \p mapping (enables PI sharing for miters).  The constant node is encoded
/// as a variable forced to 0.
void encode_network(const Network& net, Solver& solver, CnfMapping& mapping);

/// Adds the clauses for a single gate given fanin literals.
void encode_gate(Solver& solver, GateType type, Lit out, Lit a, Lit b, Lit c);

}  // namespace mcs::sat
