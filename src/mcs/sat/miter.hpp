/// \file miter.hpp
/// \brief Incremental, assumption-based equivalence miters over one network.
///
/// The SAT client of every pass that proves equalities against one
/// network: the sweeping engine (mcs/sweep), CEC and resubstitution.
/// Encoding the whole network per solver makes every proof carry the whole
/// circuit; paying a fresh solver per pair throws the learnt clauses away.
/// IncrementalMiter is the middle ground one worker holds per proof batch:
/// cones are Tseitin-encoded lazily (a node is encoded at most once, shared
/// cones are shared), each query is activated through a fresh assumption
/// literal that is retired afterwards, and proven equalities can be
/// asserted permanently so later miters over the same cone collapse (proof
/// cascading).

#pragma once

#include <cstdint>
#include <vector>

#include "mcs/network/network.hpp"
#include "mcs/sat/cnf.hpp"
#include "mcs/sat/solver.hpp"

namespace mcs::sat {

class IncrementalMiter {
 public:
  explicit IncrementalMiter(const Network& net)
      : net_(net), cnf_(net.size()) {}

  /// Encodes the fanin cone of \p s (no-op for already-encoded nodes; the
  /// constant node gets a variable forced to 0, PIs stay free).
  void encode(Signal s);

  /// Encodes the union of the fanin cones of all \p roots in a single
  /// traversal (one scratch pass, however many roots) and returns the
  /// union cone as an ascending node-id list, including nodes that were
  /// already encoded.  This is the batch preamble of the sweeping engine:
  /// collect once, encode once, then look equalities up by cone node.
  std::vector<NodeId> encode(const std::vector<Signal>& roots);

  bool encoded(NodeId n) const noexcept { return cnf_.has_var(n); }

  /// Proves a == b: encodes both cones, activates a one-shot miter
  /// (t -> a != b) under assumption t and solves with \p conflict_limit
  /// conflicts (< 0 = unlimited).  kUnsat means the equality holds; kSat
  /// leaves a distinguishing model readable through pi_model().  The
  /// activation literal is retired after the query either way, so learnt
  /// clauses never block later queries.
  Result prove_equal(Signal a, Signal b, std::int64_t conflict_limit);

  /// Proves n == type(a, b) for a two-input candidate gate that is not in
  /// the network: the gate gets a fresh variable and its clauses, then the
  /// query runs as in prove_equal().
  Result prove_gate(Signal n, GateType type, Signal a, Signal b,
                    std::int64_t conflict_limit);

  /// Permanently asserts a == b (both cones are encoded if needed).  Sound
  /// only for proven facts; used for cascading within and across batches.
  void assert_equal(Signal a, Signal b);

  /// After a kSat prove_equal(): the model value of interface PI \p i.
  /// PIs outside every encoded cone read as 0 -- together with the solver
  /// this makes the returned counterexample a deterministic total input
  /// assignment.
  bool pi_model(std::size_t i) const noexcept;

  std::size_t num_clauses() const noexcept { return solver_.num_clauses(); }

  /// Total solver conflicts over this miter's lifetime (effort metric; the
  /// sweep engine folds it into the sweep.conflicts counter per batch).
  std::int64_t num_conflicts() const noexcept {
    return solver_.num_conflicts();
  }

 private:
  /// Solves for an input on which \p a != \p b under a one-shot
  /// activation literal, retired afterwards.
  Result prove_lits_equal(Lit a, Lit b, std::int64_t conflict_limit);

  const Network& net_;
  Solver solver_;
  CnfMapping cnf_;
  std::vector<char> seen_;  ///< cone-collection scratch
};

}  // namespace mcs::sat
