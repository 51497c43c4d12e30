/// \file wordlib.hpp
/// \brief Word-level construction helpers for the benchmark generators.
///
/// Multi-bit buses are vectors of signals (LSB first).  All operators build
/// straightforward textbook structures (ripple carry, array multiplier,
/// restoring divider, barrel shifter): the goal is circuits with the same
/// structural character as the EPFL arithmetic suite, not optimized RTL.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mcs/network/network.hpp"

namespace mcs::circuits {

using Word = std::vector<Signal>;

/// Creates \p bits named primary inputs (LSB first).
Word make_pi_word(Network& net, int bits, const std::string& prefix);

/// Constant word.
Word const_word(Network& net, std::uint64_t value, int bits);

/// Creates POs for every bit of the word.
void make_po_word(Network& net, const Word& w, const std::string& prefix);

/// Variadic reductions.
Signal reduce_or(Network& net, const Word& w);
Signal reduce_and(Network& net, const Word& w);
Signal reduce_xor(Network& net, const Word& w);

/// Bitwise select: sel ? t : e (per bit).
Word mux_word(Network& net, Signal sel, const Word& t, const Word& e);

/// Ripple-carry addition; result has the size of the wider operand, the
/// carry-out is appended when \p with_carry_out.
Word add(Network& net, const Word& a, const Word& b,
         Signal carry_in, bool with_carry_out = false);
inline Word add(Network& net, const Word& a, const Word& b,
                bool with_carry_out = false) {
  return add(net, a, b, net.constant(false), with_carry_out);
}

/// a - b (two's complement); \p borrow_out, when non-null, receives
/// NOT(carry) == (a < b) for equal-width operands.
Word sub(Network& net, const Word& a, const Word& b,
         Signal* no_borrow = nullptr);

/// Unsigned comparison a < b.
Signal less_than(Network& net, const Word& a, const Word& b);

/// Logical left shift by a variable amount (barrel structure, one mux stage
/// per amount bit).  Shifted-out positions fill with zero.
Word shift_left(Network& net, const Word& a, const Word& amount);
/// Rotations by a variable amount.  rotate_left moves bit j to j+k
/// (result[i] = a[i-k mod n]); rotate_right is the inverse.
Word rotate_left(Network& net, const Word& a, const Word& amount);
Word rotate_right(Network& net, const Word& a, const Word& amount);

/// Array multiplier; result has size(a) + size(b) bits.
Word multiply(Network& net, const Word& a, const Word& b);

/// Restoring array divider: returns (quotient, remainder).
/// \pre a.size() >= b.size(); division by zero yields all-ones quotient.
std::pair<Word, Word> divide(Network& net, const Word& a, const Word& b);

/// Integer square root (bit-serial restoring method); result has
/// ceil(size/2) bits.
Word isqrt(Network& net, const Word& a);

/// Population count of the word (result has enough bits for the count).
Word popcount(Network& net, const Word& a);

/// Zero-extends / truncates to \p bits.
Word resize(Network& net, Word w, int bits);

}  // namespace mcs::circuits
