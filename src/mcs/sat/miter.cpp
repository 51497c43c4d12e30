#include "mcs/sat/miter.hpp"

#include <cassert>

#include "mcs/network/network_utils.hpp"

namespace mcs::sat {

void IncrementalMiter::encode(Signal s) {
  if (cnf_.has_var(s.node())) return;
  encode(std::vector<Signal>{s});
}

std::vector<NodeId> IncrementalMiter::encode(
    const std::vector<Signal>& roots) {
  // collect_cone_nodes uses caller-owned scratch (not the network's shared
  // traversal marks), so concurrent miters over one network -- the
  // parallel proof batches -- are safe; its ascending-id order makes the
  // variable numbering deterministic and guarantees fanins are encoded
  // before their fanouts.
  std::vector<NodeId> root_nodes;
  root_nodes.reserve(roots.size());
  for (const Signal s : roots) root_nodes.push_back(s.node());
  const std::vector<NodeId> cone =
      collect_cone_nodes(net_, root_nodes, /*follow_choices=*/false, seen_);
  for (const NodeId n : cone) {
    // Variables are only ever created here, together with the node's
    // clauses, so has_var(n) implies n is fully encoded.
    if (cnf_.has_var(n)) continue;
    const Var v = solver_.new_var();
    cnf_.set_var(n, v);
    if (net_.is_const0(n)) {
      solver_.add_clause(mk_lit(v, true));
      continue;
    }
    if (!net_.is_gate(n)) continue;  // PI: free variable
    const Node& nd = net_.node(n);
    encode_gate(solver_, nd.type, mk_lit(v), cnf_.lit(nd.fanin[0]),
                cnf_.lit(nd.fanin[1]),
                nd.num_fanins == 3 ? cnf_.lit(nd.fanin[2]) : Lit{0});
  }
  return cone;
}

Result IncrementalMiter::prove_equal(Signal a, Signal b,
                                     std::int64_t conflict_limit) {
  encode(a);
  encode(b);
  return prove_lits_equal(cnf_.lit(a), cnf_.lit(b), conflict_limit);
}

Result IncrementalMiter::prove_gate(Signal n, GateType type, Signal a,
                                    Signal b, std::int64_t conflict_limit) {
  assert(type == GateType::kAnd2 || type == GateType::kXor2);
  encode(n);
  encode(a);
  encode(b);
  const Lit g = mk_lit(solver_.new_var());
  encode_gate(solver_, type, g, cnf_.lit(a), cnf_.lit(b), Lit{0});
  return prove_lits_equal(cnf_.lit(n), g, conflict_limit);
}

Result IncrementalMiter::prove_lits_equal(Lit la, Lit lb,
                                          std::int64_t conflict_limit) {
  const Var t = solver_.new_var();
  const Lit lt = mk_lit(t);
  // t -> (a != b): asserting t makes the solver search a distinguishing
  // input.
  solver_.add_clause(negate(lt), la, lb);
  solver_.add_clause(negate(lt), negate(la), negate(lb));
  const Result r = solver_.solve({lt}, conflict_limit);
  // Retire the activation literal: the two clauses above become satisfied
  // and learnt clauses mentioning t stay consistent, so this query can
  // never slow a later one down.  (Sound for every outcome -- t is
  // auxiliary.)
  solver_.add_clause(negate(lt));
  return r;
}

void IncrementalMiter::assert_equal(Signal a, Signal b) {
  encode(a);
  encode(b);
  const Lit la = cnf_.lit(a);
  const Lit lb = cnf_.lit(b);
  solver_.add_clause(negate(la), lb);
  solver_.add_clause(la, negate(lb));
}

bool IncrementalMiter::pi_model(std::size_t i) const noexcept {
  const NodeId pi = net_.pi_at(i);
  if (!cnf_.has_var(pi)) return false;
  return solver_.model_value(cnf_.var_of_node(pi));
}

}  // namespace mcs::sat
