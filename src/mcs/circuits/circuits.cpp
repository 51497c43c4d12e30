#include "mcs/circuits/circuits.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "mcs/circuits/wordlib.hpp"
#include "mcs/common/rng.hpp"

namespace mcs::circuits {

namespace {

/// Seeded random control-logic block: a layered mixture of SOP terms over
/// the inputs (the EPFL "random control" circuits are exactly this kind of
/// flattened controller logic).  Deterministic for a given seed.
Word random_control_block(Network& net, const Word& in, int num_out,
                          int terms_per_out, std::uint64_t seed) {
  Rng rng(seed);
  Word out;
  out.reserve(num_out);
  for (int o = 0; o < num_out; ++o) {
    Word terms;
    for (int t = 0; t < terms_per_out; ++t) {
      const int width = 2 + static_cast<int>(rng.next_below(3));
      Signal term = net.constant(true);
      for (int k = 0; k < width; ++k) {
        Signal lit = in[rng.next_below(in.size())];
        if (rng.next_bool()) lit = !lit;
        term = net.create_and(term, lit);
      }
      terms.push_back(term);
    }
    out.push_back(reduce_or(net, terms));
  }
  return out;
}

}  // namespace

// --- arithmetic --------------------------------------------------------------

Network adder(int bits) {
  Network net;
  net.reserve(1 + static_cast<std::size_t>(bits) * 8);
  const Word a = make_pi_word(net, bits, "a");
  const Word b = make_pi_word(net, bits, "b");
  const Word s = add(net, a, b, /*with_carry_out=*/true);
  make_po_word(net, s, "sum");
  return net;
}

Network barrel_shifter(int bits) {
  Network net;
  int amount_bits = 0;
  while ((1 << amount_bits) < bits) ++amount_bits;
  const Word a = make_pi_word(net, bits, "a");
  const Word amt = make_pi_word(net, amount_bits, "shift");
  const Word r = rotate_left(net, a, amt);
  make_po_word(net, r, "out");
  return net;
}

Network divider(int bits) {
  Network net;
  const Word a = make_pi_word(net, bits, "a");
  const Word b = make_pi_word(net, bits, "b");
  const auto [q, r] = divide(net, a, b);
  make_po_word(net, q, "quot");
  make_po_word(net, r, "rem");
  return net;
}

Network hypotenuse(int bits) {
  Network net;
  const Word a = make_pi_word(net, bits, "a");
  const Word b = make_pi_word(net, bits, "b");
  const Word a2 = multiply(net, a, a);
  const Word b2 = multiply(net, b, b);
  Word sum = add(net, a2, b2, /*with_carry_out=*/true);
  const Word r = isqrt(net, sum);
  make_po_word(net, r, "hyp");
  return net;
}

Network log2_approx(int bits) {
  Network net;
  const Word a = make_pi_word(net, bits, "a");
  // Integer part: position of the most significant set bit (priority).
  int pos_bits = 0;
  while ((1 << pos_bits) < bits) ++pos_bits;
  Word ipart = const_word(net, 0, pos_bits);
  Signal seen = net.constant(false);
  for (int i = bits - 1; i >= 0; --i) {
    const Signal here = net.create_and(a[i], !seen);
    for (int k = 0; k < pos_bits; ++k) {
      if ((i >> k) & 1) ipart[k] = net.create_or(ipart[k], here);
    }
    seen = net.create_or(seen, a[i]);
  }
  // Mantissa: normalize a to the left (shift by bits-1 - ipart).
  Word shift_amt = sub(net, const_word(net, bits - 1, pos_bits), ipart);
  const Word mant = shift_left(net, a, shift_amt);
  make_po_word(net, ipart, "ilog");
  make_po_word(net, mant, "mant");
  net.create_po(seen, "valid");
  return net;
}

Network max4(int bits) {
  Network net;
  Word ops[4];
  for (int i = 0; i < 4; ++i) {
    ops[i] = make_pi_word(net, bits, "op" + std::to_string(i));
  }
  auto max2 = [&](const Word& x, const Word& y) {
    const Signal lt = less_than(net, x, y);
    return mux_word(net, lt, y, x);
  };
  const Word m = max2(max2(ops[0], ops[1]), max2(ops[2], ops[3]));
  make_po_word(net, m, "max");
  return net;
}

Network multiplier(int bits) {
  Network net;
  // An array multiplier is ~bits^2 full adders of a few gates each.
  net.reserve(1 + static_cast<std::size_t>(bits) * bits * 8);
  const Word a = make_pi_word(net, bits, "a");
  const Word b = make_pi_word(net, bits, "b");
  const Word p = multiply(net, a, b);
  make_po_word(net, p, "prod");
  return net;
}

Network sin_approx(int bits) {
  Network net;
  // Parabolic approximation on x in [0,1):  s0 = 4x(1-x), refined with
  // s = s0 * (0.775 + 0.225 * s0) -- two multiplier arrays plus adders,
  // the same multiply-add structure as a table-free sine datapath.
  const Word x = make_pi_word(net, bits, "x");
  Word one_minus_x = sub(net, const_word(net, (1u << bits) - 1, bits), x);
  Word s0 = multiply(net, x, one_minus_x);  // scale 2^(2bits-2) ~ x(1-x)
  // Keep the top `bits` bits (s0 <<= 2 for the factor 4).
  Word s0_top(s0.end() - bits, s0.end());
  const std::uint64_t c775 =
      static_cast<std::uint64_t>(0.775 * ((1u << bits) - 1));
  const std::uint64_t c225 =
      static_cast<std::uint64_t>(0.225 * ((1u << bits) - 1));
  Word scaled = multiply(net, s0_top, const_word(net, c225, bits));
  Word scaled_top(scaled.end() - bits, scaled.end());
  Word coeff = add(net, scaled_top, const_word(net, c775, bits));
  coeff.resize(bits, net.constant(false));
  Word s = multiply(net, s0_top, coeff);
  Word s_top(s.end() - bits, s.end());
  make_po_word(net, s_top, "sin");
  return net;
}

Network sqrt_circuit(int bits) {
  Network net;
  const Word a = make_pi_word(net, bits, "a");
  const Word r = isqrt(net, a);
  make_po_word(net, r, "root");
  return net;
}

Network square(int bits) {
  Network net;
  const Word a = make_pi_word(net, bits, "a");
  const Word p = multiply(net, a, a);
  make_po_word(net, p, "sq");
  return net;
}

// --- random / control --------------------------------------------------------

Network round_robin_arbiter(int clients) {
  Network net;
  int ptr_bits = 0;
  while ((1 << ptr_bits) < clients) ++ptr_bits;
  const Word req = make_pi_word(net, clients, "req");
  const Word ptr = make_pi_word(net, ptr_bits, "ptr");

  // Rotate requests so the pointer position becomes index 0, grant the
  // first set bit, rotate the one-hot grant back.
  Word rot = rotate_right(net, req, ptr);  // rot[i] = req[(i + ptr) mod n]
  Word grant_rot(clients, net.constant(false));
  Signal taken = net.constant(false);
  for (int i = 0; i < clients; ++i) {
    grant_rot[i] = net.create_and(rot[i], !taken);
    taken = net.create_or(taken, rot[i]);
  }
  // Rotate back: grant[(i + ptr) mod n] = grant_rot[i].
  const Word grant = rotate_left(net, grant_rot, ptr);
  make_po_word(net, grant, "grant");
  net.create_po(taken, "any");
  return net;
}

Network cavlc_like() {
  Network net;
  // Code-length decoding: a 10-bit codeword and a 2-bit table id select a
  // 5-bit length plus 3 flag bits through nested comparator/mux trees --
  // the shape of H.264 CAVLC length decoding.
  const Word code = make_pi_word(net, 10, "code");
  const Word table = make_pi_word(net, 2, "tab");
  Rng rng(0xca41c);
  Word outs;
  for (int t = 0; t < 4; ++t) {
    // Each table: compare against 8 thresholds; the count of thresholds
    // below the code value is the length.
    Word len = const_word(net, 0, 5);
    for (int k = 0; k < 8; ++k) {
      const Word threshold =
          const_word(net, rng.next_below(1u << 10), 10);
      const Signal above = !less_than(net, code, threshold);
      len = add(net, len, Word{above});
      len.resize(5, net.constant(false));
    }
    const Signal sel = net.create_and(table[0] ^ !(t & 1),
                                      table[1] ^ !((t >> 1) & 1));
    if (outs.empty()) {
      for (const Signal s : len) outs.push_back(net.create_and(sel, s));
    } else {
      for (std::size_t i = 0; i < len.size(); ++i) {
        outs[i] = net.create_or(outs[i], net.create_and(sel, len[i]));
      }
    }
  }
  make_po_word(net, outs, "len");
  net.create_po(reduce_xor(net, code), "parity");
  return net;
}

Network ctrl_like() {
  Network net;
  const Word in = make_pi_word(net, 7, "in");
  const Word out = random_control_block(net, in, 26, 5, 0xc791);
  make_po_word(net, out, "ctl");
  return net;
}

Network decoder(int addr_bits) {
  Network net;
  const Word addr = make_pi_word(net, addr_bits, "addr");
  for (int i = 0; i < (1 << addr_bits); ++i) {
    Word lits;
    for (int k = 0; k < addr_bits; ++k) {
      lits.push_back(((i >> k) & 1) ? addr[k] : !addr[k]);
    }
    net.create_po(reduce_and(net, lits), "dec[" + std::to_string(i) + "]");
  }
  return net;
}

Network i2c_like() {
  Network net;
  // Bus controller style: state decode + counter compare + shift control.
  const Word state = make_pi_word(net, 4, "state");
  const Word cnt = make_pi_word(net, 8, "cnt");
  const Word data = make_pi_word(net, 8, "data");
  const Signal scl = net.create_pi("scl");
  const Signal sda = net.create_pi("sda");

  Word all = state;
  all.insert(all.end(), cnt.begin(), cnt.end());
  all.push_back(scl);
  all.push_back(sda);
  const Word ctl = random_control_block(net, all, 12, 4, 0x12c0);
  const Signal cnt_done =
      !less_than(net, cnt, const_word(net, 200, 8));
  Word next_cnt = add(net, cnt, const_word(net, 1, 8));
  next_cnt.resize(8, net.constant(false));
  next_cnt = mux_word(net, cnt_done, const_word(net, 0, 8), next_cnt);
  const Word shifted = mux_word(net, ctl[0], Word(data.begin() + 1, data.end()),
                                Word(data.begin(), data.end() - 1));
  make_po_word(net, ctl, "ctl");
  make_po_word(net, next_cnt, "cnt_n");
  make_po_word(net, shifted, "sh");
  net.create_po(cnt_done, "done");
  return net;
}

Network int2float_like() {
  Network net;
  const int n = 32;
  const Word a = make_pi_word(net, n, "a");
  // Leading-one position -> exponent; normalized top bits -> mantissa.
  Word exp = const_word(net, 0, 6);
  Signal seen = net.constant(false);
  for (int i = n - 1; i >= 0; --i) {
    const Signal here = net.create_and(a[i], !seen);
    for (int k = 0; k < 6; ++k) {
      if ((i >> k) & 1) exp[k] = net.create_or(exp[k], here);
    }
    seen = net.create_or(seen, a[i]);
  }
  Word shift_amt = sub(net, const_word(net, n - 1, 6), exp);
  const Word norm = shift_left(net, a, shift_amt);
  Word mant(norm.end() - 11, norm.end() - 1);  // 10 bits below the MSB
  make_po_word(net, exp, "exp");
  make_po_word(net, mant, "mant");
  net.create_po(seen, "nonzero");
  return net;
}

Network mem_ctrl_like() {
  Network net;
  // Four requestors, bank decode, a priority grant and control SOPs.
  const Word addr = make_pi_word(net, 12, "addr");
  const Word req = make_pi_word(net, 4, "req");
  const Word state = make_pi_word(net, 6, "state");
  const Word cfg = make_pi_word(net, 8, "cfg");

  // Bank decode from the top 4 address bits.
  Word bank;
  for (int i = 0; i < 16; ++i) {
    Word lits;
    for (int k = 0; k < 4; ++k) {
      lits.push_back(((i >> k) & 1) ? addr[8 + k] : !addr[8 + k]);
    }
    bank.push_back(reduce_and(net, lits));
  }
  // Priority grant among the requestors, qualified by config bits.
  Word grant(4, net.constant(false));
  Signal taken = net.constant(false);
  for (int i = 0; i < 4; ++i) {
    const Signal q = net.create_and(req[i], cfg[i]);
    grant[i] = net.create_and(q, !taken);
    taken = net.create_or(taken, q);
  }
  // Row/column compare against config.
  const Signal row_hit =
      !less_than(net, Word(addr.begin(), addr.begin() + 8), cfg);
  Word all = state;
  all.insert(all.end(), cfg.begin(), cfg.end());
  all.insert(all.end(), grant.begin(), grant.end());
  all.push_back(row_hit);
  const Word ctl = random_control_block(net, all, 24, 6, 0x3e3c);

  make_po_word(net, bank, "bank");
  make_po_word(net, grant, "gnt");
  make_po_word(net, ctl, "ctl");
  net.create_po(row_hit, "rowhit");
  return net;
}

Network priority_encoder(int width) {
  Network net;
  const Word in = make_pi_word(net, width, "in");
  int pos_bits = 0;
  while ((1 << pos_bits) < width) ++pos_bits;
  Word pos = const_word(net, 0, pos_bits);
  Signal seen = net.constant(false);
  for (int i = width - 1; i >= 0; --i) {
    const Signal here = net.create_and(in[i], !seen);
    for (int k = 0; k < pos_bits; ++k) {
      if ((i >> k) & 1) pos[k] = net.create_or(pos[k], here);
    }
    seen = net.create_or(seen, in[i]);
  }
  make_po_word(net, pos, "pos");
  net.create_po(seen, "valid");
  return net;
}

Network router_like() {
  Network net;
  // 4-port route selection: destination compare per port + arbitration +
  // a small payload mux.
  const Word dest = make_pi_word(net, 4, "dest");
  const Word my_addr = make_pi_word(net, 4, "my");
  const Word req = make_pi_word(net, 4, "req");
  const Word payload = make_pi_word(net, 8, "pay");

  Signal local = net.constant(true);
  for (int i = 0; i < 4; ++i) {
    local = net.create_and(local, net.create_xnor(dest[i], my_addr[i]));
  }
  // Direction: compare dest vs my_addr (less/greater per nibble half).
  const Signal go_east = less_than(net, my_addr, dest);
  Word grant(4, net.constant(false));
  Signal taken = net.constant(false);
  for (int i = 0; i < 4; ++i) {
    grant[i] = net.create_and(req[i], !taken);
    taken = net.create_or(taken, req[i]);
  }
  Word out = mux_word(net, local, payload,
                      mux_word(net, go_east,
                               Word(payload.rbegin(), payload.rend()),
                               payload));
  make_po_word(net, grant, "gnt");
  make_po_word(net, out, "out");
  net.create_po(local, "local");
  net.create_po(go_east, "east");
  return net;
}

Network voter(int inputs) {
  Network net;
  const Word in = make_pi_word(net, inputs, "v");
  const Word count = popcount(net, in);
  const int majority = inputs / 2 + 1;
  const Signal yes =
      !less_than(net, count, const_word(net, majority,
                                        static_cast<int>(count.size())));
  net.create_po(yes, "maj");
  return net;
}

// --- registry ---------------------------------------------------------------

std::span<const CircuitFamily> circuit_families() {
  static const CircuitFamily kFamilies[] = {
      {"adder", 64, 8, false, adder},
      {"bar", 64, 8, false, barrel_shifter},
      {"div", 16, 4, false, divider},
      {"hyp", 12, 4, false, hypotenuse},
      {"log2", 16, 4, false, log2_approx},
      {"max", 32, 4, false, max4},
      {"multiplier", 16, 4, false, multiplier},
      {"sin", 10, 4, false, sin_approx},
      {"sqrt", 24, 4, false, sqrt_circuit},
      {"square", 20, 4, false, square},
      {"arbiter", 32, 8, false, round_robin_arbiter},
      {"cavlc", 0, 0, false, [](int) { return cavlc_like(); }},
      {"ctrl", 0, 0, false, [](int) { return ctrl_like(); }},
      {"dec", 7, 5, true, decoder},
      {"i2c", 0, 0, false, [](int) { return i2c_like(); }},
      {"int2float", 0, 0, false, [](int) { return int2float_like(); }},
      {"mem_ctrl", 0, 0, false, [](int) { return mem_ctrl_like(); }},
      {"priority", 64, 8, false, priority_encoder},
      {"router", 0, 0, false, [](int) { return router_like(); }},
      {"voter", 63, 15, true, voter},
  };
  return kFamilies;
}

std::vector<BenchmarkCircuit> epfl_suite(double scale) {
  std::vector<BenchmarkCircuit> suite;
  for (const CircuitFamily& f : circuit_families()) {
    int bits = 0;  // fixed circuit
    if (f.stepped) {
      bits = scale >= 0.9 ? f.full_bits : f.min_bits;
    } else if (f.full_bits > 0) {
      bits = std::max(f.min_bits,
                      static_cast<int>(std::lround(f.full_bits * scale)));
    }
    std::string gen = std::string("gen:") + f.name;
    if (bits > 0) gen += ",bits=" + std::to_string(bits);
    suite.push_back({f.name, std::move(gen), f.make(bits)});
  }
  return suite;
}

}  // namespace mcs::circuits
