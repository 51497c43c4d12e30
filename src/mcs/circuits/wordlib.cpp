#include "mcs/circuits/wordlib.hpp"

#include <algorithm>
#include <cassert>

namespace mcs::circuits {

Word make_pi_word(Network& net, int bits, const std::string& prefix) {
  Word w;
  w.reserve(bits);
  for (int i = 0; i < bits; ++i) {
    w.push_back(net.create_pi(prefix + "[" + std::to_string(i) + "]"));
  }
  return w;
}

Word const_word(Network& net, std::uint64_t value, int bits) {
  Word w;
  w.reserve(bits);
  // Words can be wider than the 64-bit seed value (a 2n-bit product row
  // seeded with 0); bits past the value are 0, not a UB-wide shift.
  for (int i = 0; i < bits; ++i) {
    const bool bit = i < 64 && ((value >> i) & 1ull) != 0;
    w.push_back(net.constant(bit));
  }
  return w;
}

void make_po_word(Network& net, const Word& w, const std::string& prefix) {
  for (std::size_t i = 0; i < w.size(); ++i) {
    net.create_po(w[i], prefix + "[" + std::to_string(i) + "]");
  }
}

namespace {

Signal reduce(Network& net, Word w, Signal (Network::*op)(Signal, Signal),
              Signal empty) {
  if (w.empty()) return empty;
  // Balanced reduction tree.
  while (w.size() > 1) {
    Word next;
    for (std::size_t i = 0; i + 1 < w.size(); i += 2) {
      next.push_back((net.*op)(w[i], w[i + 1]));
    }
    if (w.size() % 2) next.push_back(w.back());
    w = std::move(next);
  }
  return w[0];
}

}  // namespace

Signal reduce_or(Network& net, const Word& w) {
  return reduce(net, w, &Network::create_or, net.constant(false));
}
Signal reduce_and(Network& net, const Word& w) {
  return reduce(net, w, &Network::create_and, net.constant(true));
}
Signal reduce_xor(Network& net, const Word& w) {
  return reduce(net, w, &Network::create_xor, net.constant(false));
}

Word mux_word(Network& net, Signal sel, const Word& t, const Word& e) {
  assert(t.size() == e.size());
  Word r;
  r.reserve(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    r.push_back(net.create_ite(sel, t[i], e[i]));
  }
  return r;
}

Word add(Network& net, const Word& a, const Word& b, Signal carry_in,
         bool with_carry_out) {
  const std::size_t n = std::max(a.size(), b.size());
  Word r;
  r.reserve(n + 1);
  Signal carry = carry_in;
  for (std::size_t i = 0; i < n; ++i) {
    const Signal ai = i < a.size() ? a[i] : net.constant(false);
    const Signal bi = i < b.size() ? b[i] : net.constant(false);
    r.push_back(net.create_xor3(ai, bi, carry));
    carry = net.create_maj(ai, bi, carry);
  }
  if (with_carry_out) r.push_back(carry);
  return r;
}

Word sub(Network& net, const Word& a, const Word& b, Signal* no_borrow) {
  assert(a.size() >= b.size());
  Word nb;
  nb.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    nb.push_back(i < b.size() ? !b[i] : net.constant(true));
  }
  Word r = add(net, a, nb, net.constant(true), /*with_carry_out=*/true);
  if (no_borrow) *no_borrow = r.back();
  r.pop_back();
  return r;
}

Signal less_than(Network& net, const Word& a, const Word& b) {
  // a < b  <=>  borrow out of a - b.
  Word bp = b;
  if (bp.size() < a.size()) bp.resize(a.size(), net.constant(false));
  Word ap = a;
  if (ap.size() < bp.size()) ap.resize(bp.size(), net.constant(false));
  Signal no_borrow = net.constant(true);
  (void)sub(net, ap, bp, &no_borrow);
  return !no_borrow;
}

namespace {

Word shift_impl(Network& net, Word w, const Word& amount, bool left,
                bool rotate) {
  const int n = static_cast<int>(w.size());
  for (std::size_t s = 0; s < amount.size(); ++s) {
    const int k = 1 << s;
    if (k >= n && !rotate) {
      // Shifting by >= n zeroes everything when the bit is set.
      Word zero = const_word(net, 0, n);
      w = mux_word(net, amount[s], zero, w);
      continue;
    }
    Word shifted(n, net.constant(false));
    for (int i = 0; i < n; ++i) {
      const int src = left ? i - (k % n) : i + (k % n);
      if (rotate) {
        shifted[i] = w[((src % n) + n) % n];
      } else if (src >= 0 && src < n) {
        shifted[i] = w[src];
      }
    }
    w = mux_word(net, amount[s], shifted, w);
  }
  return w;
}

}  // namespace

Word shift_left(Network& net, const Word& a, const Word& amount) {
  return shift_impl(net, a, amount, /*left=*/true, /*rotate=*/false);
}
Word rotate_left(Network& net, const Word& a, const Word& amount) {
  return shift_impl(net, a, amount, /*left=*/true, /*rotate=*/true);
}
Word rotate_right(Network& net, const Word& a, const Word& amount) {
  return shift_impl(net, a, amount, /*left=*/false, /*rotate=*/true);
}

Word multiply(Network& net, const Word& a, const Word& b) {
  Word acc = const_word(net, 0, static_cast<int>(a.size() + b.size()));
  for (std::size_t j = 0; j < b.size(); ++j) {
    // Partial product a * b[j] << j.
    Word pp(a.size() + b.size(), net.constant(false));
    for (std::size_t i = 0; i < a.size(); ++i) {
      pp[i + j] = net.create_and(a[i], b[j]);
    }
    acc = add(net, acc, pp);
    acc.resize(a.size() + b.size(), net.constant(false));
  }
  return acc;
}

std::pair<Word, Word> divide(Network& net, const Word& a, const Word& b) {
  assert(a.size() >= b.size());
  const int n = static_cast<int>(a.size());
  // Restoring division, MSB-first.
  Word rem = const_word(net, 0, n + 1);
  Word quo(n, net.constant(false));
  Word bw = b;
  bw.resize(n + 1, net.constant(false));
  for (int i = n - 1; i >= 0; --i) {
    // rem = (rem << 1) | a[i].
    Word shifted(n + 1, net.constant(false));
    shifted[0] = a[i];
    for (int k = 1; k <= n; ++k) shifted[k] = rem[k - 1];
    Signal no_borrow = net.constant(true);
    const Word diff = sub(net, shifted, bw, &no_borrow);
    quo[i] = no_borrow;  // subtraction succeeded
    rem = mux_word(net, no_borrow, diff, shifted);
  }
  rem.resize(static_cast<int>(b.size()), net.constant(false));
  return {quo, rem};
}

Word isqrt(Network& net, const Word& a) {
  const int n = static_cast<int>(a.size());
  const int rn = (n + 1) / 2;
  // Restoring square root: try setting result bits MSB-first and keep the
  // candidate when candidate^2 <= a.  The comparison is done on a running
  // remainder to bound the structure.
  Word root = const_word(net, 0, rn);
  // Build with explicit compare against the input (simple and regular):
  for (int bit = rn - 1; bit >= 0; --bit) {
    Word trial = root;
    trial[bit] = net.constant(true);
    // trial^2 <= a?
    Word sq = multiply(net, trial, trial);
    sq = resize(net, std::move(sq), n + 1);
    Word aw = resize(net, a, n + 1);
    const Signal le = !less_than(net, aw, sq);  // a >= sq
    root = mux_word(net, le, trial, root);
  }
  return root;
}

Word popcount(Network& net, const Word& a) {
  // Tree of word additions over single-bit words.
  std::vector<Word> items;
  items.reserve(a.size());
  for (const Signal s : a) items.push_back(Word{s});
  while (items.size() > 1) {
    std::vector<Word> next;
    for (std::size_t i = 0; i + 1 < items.size(); i += 2) {
      next.push_back(add(net, items[i], items[i + 1],
                         /*with_carry_out=*/true));
    }
    if (items.size() % 2) next.push_back(items.back());
    items = std::move(next);
  }
  return items[0];
}

Word resize(Network& net, Word w, int bits) {
  w.resize(bits, net.constant(false));
  return w;
}

}  // namespace mcs::circuits
