/// \file optimize.hpp
/// \brief Technology-independent logic optimization.
///
/// These passes play the role of ABC's `compress2rs` in the paper's
/// experimental setup: they produce the "optimized" networks that feed the
/// mappers and the DCH snapshots.
///
///   - balance():   associativity-flattening tree balancing (depth).
///   - refactor():  MFFC collapse + ISOP factoring (area).
///   - rewrite():   cut-based resynthesis through the NPN-4 database.
///   - compress2rs_like(): the composite script iterated to convergence.

#pragma once

#include "mcs/network/network.hpp"
#include "mcs/resyn/basis.hpp"

namespace mcs {

/// Rebuilds the network with balanced AND/XOR operand trees (reduces depth;
/// never increases the gate count of a chain).
Network balance(const Network& net);

struct RefactorParams {
  int max_leaves = 10;   ///< MFFC leaf bound
  bool zero_cost = false;  ///< accept equal-size rewrites too
  GateBasis basis = GateBasis::xmg();
};

/// MFFC-based refactoring: collapse each qualifying MFFC to a truth table,
/// re-express it as a factored form, keep the smaller structure.
Network refactor(const Network& net, const RefactorParams& params = {});

struct ResubParams {
  int max_window = 24;      ///< divisor candidates per node
  int sim_words = 16;
  std::uint64_t sim_seed = 0x0b5e55ed;
  /// SAT budget per resubstitution check, as Solver::solve counts it:
  /// conflicts since the last restart, so 300 allows up to 1,836.
  std::int64_t conflict_limit = 300;
  std::size_t solver_clause_budget = 60000;  ///< re-encode past this growth
  GateBasis basis = GateBasis::xmg();
};

/// Simulation-guided, SAT-verified resubstitution: re-expresses a node as
/// one gate over two existing divisors when that saves its MFFC (the "rs"
/// passes of ABC's compress2rs).
Network resub(const Network& net, const ResubParams& params = {});

struct RewriteParams {
  int cut_size = 4;
  bool zero_cost = false;
  GateBasis basis = GateBasis::xmg();
};

/// Cut rewriting: replaces each node's best 4-cut structure with the
/// NPN-database structure when that lowers the node count.
Network rewrite(const Network& net, const RewriteParams& params = {});

struct ScriptStats {
  int iterations = 0;
  std::size_t initial_gates = 0;
  std::size_t final_gates = 0;
  std::uint32_t initial_depth = 0;
  std::uint32_t final_depth = 0;
};

/// The compress2rs-like script: rounds of balance / rewrite / refactor /
/// resub / fraig (sweep/sweep.hpp) until the (gates, depth) pair stops
/// improving.
Network compress2rs_like(const Network& net, GateBasis basis,
                         int max_rounds = 4, ScriptStats* stats = nullptr);

}  // namespace mcs
