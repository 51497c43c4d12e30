/// \file cec.hpp
/// \brief Combinational equivalence checking (the role of ABC's `cec`).
///
/// Every experiment in the paper is formally verified; we provide the same
/// guarantee with a two-stage check: word-parallel random simulation for
/// fast falsification, then a proof on one strashed miter network (shared
/// PIs, both networks' POs) in the simulate-first, SAT-last order of
/// Mishchenko et al., "Improvements to combinational equivalence checking"
/// (ICCAD 2006): simulation of every input pattern when the miter has few
/// enough inputs for that to be cheap, a bounded SAT solve of the open PO
/// pairs, enumeration again under a larger cost cap, fraig passes with
/// growing per-pair budgets that merge the pairs through their internal
/// equivalences, then a SAT solve of the residual pairs.

#pragma once

#include <cstdint>

#include "mcs/network/network.hpp"

namespace mcs {

enum class CecResult { kEquivalent, kNotEquivalent, kUnknown };

struct CecOptions {
  int sim_words = 16;                  ///< random words per node in stage 1
  std::uint64_t sim_seed = 0xc0ffee;   ///< simulation seed

  /// Conflict budget of the whole proof stage; < 0 means unlimited, so the
  /// check always decides.  Each SAT solve and fraig pass draws the
  /// conflicts it actually spent from what is left; once the budget is
  /// spent they are skipped.  Enumerating every input pattern spends no
  /// conflicts and still runs, so a miter with few inputs is decided under
  /// any budget; otherwise a spent budget returns kUnknown.
  std::int64_t conflict_limit = -1;

  /// Worker threads for the simulation stages and the fraig passes; values
  /// < 1 resolve through ThreadPool::resolve_threads (MCS_THREADS /
  /// hardware).  The SAT solves are serial, enumeration is complete, and
  /// the fraig passes spend the same conflicts for any thread count, so the
  /// verdict -- under any conflict_limit -- never depends on the thread
  /// count.
  int num_threads = 1;
};

/// Checks combinational equivalence of two networks with identical PI/PO
/// counts (POs are compared positionally).  kEquivalent means every PO
/// pair merged through proven equivalences, the residual miter is UNSAT or
/// it reads 0 on every input pattern; kNotEquivalent comes only from
/// simulation or a SAT model.
CecResult check_equivalence(const Network& a, const Network& b,
                            const CecOptions& opts = {});

}  // namespace mcs
