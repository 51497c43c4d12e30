/// \file solver.hpp
/// \brief A compact CDCL SAT solver (MiniSat-style).
///
/// Used by the combinational equivalence checker (cec.hpp) and by the
/// SAT-sweeping engine that builds DCH-style structural choices.  The solver
/// implements two-watched-literal propagation, first-UIP clause learning,
/// VSIDS branching with a binary heap, phase saving and Luby restarts.
/// Clause deletion is intentionally omitted: the instances produced by logic
/// synthesis windows and miters stay small enough.

#pragma once

#include <cstdint>
#include <vector>

namespace mcs::sat {

/// Boolean variable index (0-based).
using Var = std::int32_t;

/// Literal: 2 * var + (1 if negated).
using Lit = std::int32_t;

constexpr Lit mk_lit(Var v, bool negated = false) noexcept {
  return 2 * v + (negated ? 1 : 0);
}
constexpr Lit negate(Lit l) noexcept { return l ^ 1; }
constexpr Var var_of(Lit l) noexcept { return l >> 1; }
constexpr bool sign_of(Lit l) noexcept { return (l & 1) != 0; }

enum class Result { kSat, kUnsat, kUnknown };

class Solver {
 public:
  Solver() = default;

  /// Creates a fresh variable and returns its index.
  Var new_var();

  int num_vars() const noexcept { return static_cast<int>(assign_.size()); }

  /// Adds a clause.  Returns false when the clause system is already
  /// unsatisfiable at the root level.
  bool add_clause(std::vector<Lit> lits);

  /// Convenience overloads.
  bool add_clause(Lit a) { return add_clause(std::vector<Lit>{a}); }
  bool add_clause(Lit a, Lit b) { return add_clause(std::vector<Lit>{a, b}); }
  bool add_clause(Lit a, Lit b, Lit c) {
    return add_clause(std::vector<Lit>{a, b, c});
  }

  /// Solves under the given assumptions.  \p conflict_limit < 0 means no
  /// limit; when the limit is hit the result is kUnknown.  The limit counts
  /// conflicts since the last restart, not since the call: the solver gives
  /// up only inside the first Luby restart interval (64, 64, 128, 64, 64,
  /// 128, 256, ... conflicts) at least \p conflict_limit long, so a limit
  /// of 10 allows 10 conflicts, 100 allows 228, 300 allows 1,836, 500
  /// allows 2,036 and 2,000 allows 12,240.  num_conflicts() tells what a
  /// call really spent.
  Result solve(const std::vector<Lit>& assumptions = {},
               std::int64_t conflict_limit = -1);

  /// Model value of \p v after a kSat answer.
  bool model_value(Var v) const noexcept { return model_[v] == 1; }

  std::int64_t num_conflicts() const noexcept { return conflicts_total_; }
  std::size_t num_clauses() const noexcept { return clauses_.size(); }

 private:
  using ClauseRef = std::int32_t;
  static constexpr ClauseRef kNoReason = -1;

  struct Watch {
    ClauseRef clause;
    Lit blocker;
  };

  // lbool encoding: 0 = false, 1 = true, 2 = unassigned.
  static constexpr std::uint8_t kFalse = 0;
  static constexpr std::uint8_t kTrue = 1;
  static constexpr std::uint8_t kUndef = 2;

  std::uint8_t lit_value(Lit l) const noexcept {
    const std::uint8_t v = assign_[var_of(l)];
    return v == kUndef ? kUndef : (v ^ static_cast<std::uint8_t>(l & 1));
  }

  void attach_clause(ClauseRef cr);
  void enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();
  void analyze(ClauseRef conflict, std::vector<Lit>& learnt, int& bt_level);
  void backtrack(int level);
  int decision_level() const noexcept {
    return static_cast<int>(trail_lim_.size());
  }
  Lit pick_branch();
  void bump_var(Var v);
  void decay_activities();

  // Variable-order heap (max-heap on activity).
  void heap_insert(Var v);
  void heap_update(Var v);
  Var heap_pop();
  bool heap_empty() const noexcept { return heap_.empty(); }
  void heap_sift_up(int i);
  void heap_sift_down(int i);

  std::vector<std::vector<Lit>> clauses_;
  std::vector<std::vector<Watch>> watches_;  // indexed by literal
  std::vector<std::uint8_t> assign_;         // per var
  std::vector<std::uint8_t> model_;          // per var, saved on SAT
  std::vector<std::uint8_t> phase_;          // saved phase per var
  std::vector<ClauseRef> reason_;            // per var
  std::vector<std::int32_t> level_;          // per var
  std::vector<double> activity_;             // per var
  std::vector<Lit> trail_;
  std::vector<std::int32_t> trail_lim_;
  std::size_t propagate_head_ = 0;

  std::vector<std::int32_t> heap_;           // heap of vars
  std::vector<std::int32_t> heap_pos_;       // var -> position or -1

  std::vector<std::uint8_t> seen_;           // analyze() scratch
  double var_inc_ = 1.0;
  bool ok_ = true;
  std::int64_t conflicts_total_ = 0;
};

}  // namespace mcs::sat
