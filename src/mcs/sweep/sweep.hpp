/// \file sweep.hpp
/// \brief mcs::sweep -- parallel incremental SAT sweeping (fraiging).
///
/// The engine behind the `fraig` pass, compress2rs_like() and the DCH
/// choice construction.  It proves functional node equivalences on one network
/// with the simulate / prove / refine loop of ABC-style fraiging:
///
///   1. *Seed* candidate equivalence classes from random-simulation
///      signatures (RandomSimulation; seed-derived PI words).  Nodes whose
///      value words are all-0/all-1 form the constant-candidate class.
///   2. *Prove* each class member against the class representative (the
///      smallest node id) with cone-restricted SAT miters
///      (sat::IncrementalMiter), batched and fanned out on
///      ThreadPool::global().  Batches are fixed-size slices of the
///      member-ordered pair list -- a function of the candidates alone,
///      never of the thread count -- and each batch owns one incremental
///      solver that cascades its own proofs and the previously proven
///      equalities falling inside its cone.
///   3. *Refine*: SAT answers yield counterexample input assignments; they
///      are packed 64-per-word, injected into the simulation
///      (RandomSimulation::add_pattern_words) and split every candidate
///      class they distinguish.  UNSAT answers become proven equivalences.
///      Iterate until no counterexample is found (fixpoint) or the round /
///      pair budgets run out; conflict-limited (kUnknown) pairs are never
///      retried, since no refinement can change their class.
///
/// Determinism contract (same as mcs::par): the proven set, and therefore
/// the fraig()ed network, is bit-identical for any thread count.  Batches
/// are independent solvers whose content depends only on the pair list,
/// results are merged in member-id order, and counterexample patterns are
/// harvested in that same order -- threads only change wall-clock time.
/// This holds even under a finite conflict_limit, and so do the proof
/// counts in FraigStats, conflicts included (summed per fixed batch).

#pragma once

#include <cstdint>
#include <vector>

#include "mcs/network/network.hpp"

namespace mcs {

struct FraigParams {
  /// Worker threads for the proof batches; values < 1 resolve through
  /// ThreadPool::resolve_threads (MCS_THREADS / hardware).
  int num_threads = 1;
  int sim_words = 16;                  ///< random words seeding the classes
  std::uint64_t sim_seed = 0xdead5eed;
  /// SAT budget per candidate pair, as Solver::solve counts it: conflicts
  /// since the last restart, so 300 allows up to 1,836 conflicts per pair.
  std::int64_t conflict_limit = 300;
  int max_rounds = 16;                 ///< simulate/prove/refine iterations
  std::size_t max_pairs = 1u << 20;    ///< overall proof budget
  /// Also sweep nodes whose simulated values are constant into the
  /// constant node.  Off for choice construction (a constant makes no
  /// sense as a choice-class member).
  bool sweep_constants = true;
  /// Consider nodes not reachable from the POs as candidates too.  Off for
  /// fraig() (merging into a dangling node would be meaningless); on for
  /// DCH, whose merged snapshots keep candidate structures as dangling
  /// cones.
  bool include_dangling = false;
};

struct FraigStats {
  std::size_t num_rounds = 0;
  std::size_t num_candidate_pairs = 0;  ///< proof attempts
  std::size_t num_proven = 0;           ///< UNSAT: equality holds
  std::size_t num_disproven = 0;        ///< SAT: counterexample found
  std::size_t num_unknown = 0;          ///< conflict limit hit
  std::int64_t num_conflicts = 0;       ///< solver conflicts, all batches
  std::size_t num_patterns_added = 0;   ///< cex words injected into the sim
  std::size_t num_threads = 0;
  std::size_t initial_gates = 0;
  std::size_t final_gates = 0;  ///< set by fraig(); 0 from sweep_equivalences
};

/// One proven functional equality: function(node) == function(repr) ^ phase,
/// with repr < node (repr is the smallest member of the candidate class;
/// 0 = the constant node).  A non-constant repr can itself be proven
/// constant (one-level chain); rebuilding in ascending id order resolves
/// that for free.  With sweep_constants off (DCH), representatives are
/// never themselves proven equal to anything, so no chains exist.
struct ProvenEquiv {
  NodeId node;
  NodeId repr;
  bool phase;
};

/// Runs the engine and returns every proven equivalence, sorted by node id.
/// The network is not modified.
std::vector<ProvenEquiv> sweep_equivalences(const Network& net,
                                            const FraigParams& params = {},
                                            FraigStats* stats = nullptr);

/// SAT sweeping: proves equivalences and merges them -- the network is
/// rebuilt with every proven node redirected onto its representative (the
/// strash rewires the fanouts) and cleaned up.  CEC-equivalent to the
/// input; bit-identical for any thread count.
Network fraig(const Network& net, const FraigParams& params = {},
              FraigStats* stats = nullptr);

}  // namespace mcs
