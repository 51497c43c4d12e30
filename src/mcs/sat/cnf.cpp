#include "mcs/sat/cnf.hpp"

#include <cassert>

namespace mcs::sat {

void encode_gate(Solver& solver, GateType type, Lit y, Lit a, Lit b, Lit c) {
  switch (type) {
    case GateType::kAnd2:
      solver.add_clause(negate(y), a);
      solver.add_clause(negate(y), b);
      solver.add_clause(y, negate(a), negate(b));
      break;
    case GateType::kXor2:
      solver.add_clause(negate(y), a, b);
      solver.add_clause(negate(y), negate(a), negate(b));
      solver.add_clause(y, negate(a), b);
      solver.add_clause(y, a, negate(b));
      break;
    case GateType::kMaj3:
      solver.add_clause(negate(y), a, b);
      solver.add_clause(negate(y), a, c);
      solver.add_clause(negate(y), b, c);
      solver.add_clause(y, negate(a), negate(b));
      solver.add_clause(y, negate(a), negate(c));
      solver.add_clause(y, negate(b), negate(c));
      break;
    case GateType::kXor3:
      // y == a ^ b ^ c: forbid the eight inconsistent assignments.
      for (int mask = 0; mask < 8; ++mask) {
        const bool pa = mask & 1, pb = mask & 2, pc = mask & 4;
        const bool parity = pa ^ pb ^ pc;
        // If (a,b,c) == (pa,pb,pc) then y must equal parity; clause forbids
        // y == !parity under that assignment.
        std::vector<Lit> cl{pa ? negate(a) : a, pb ? negate(b) : b,
                            pc ? negate(c) : c, parity ? y : negate(y)};
        solver.add_clause(std::move(cl));
      }
      break;
    default:
      assert(false && "encode_gate: not a gate");
  }
}

}  // namespace mcs::sat
