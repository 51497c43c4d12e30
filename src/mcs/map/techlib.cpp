#include "mcs/map/techlib.hpp"

#include <cassert>

namespace mcs {

void TechLibrary::add_cell(Cell cell) {
  assert(cell.num_pins <= 4 && "matching index supports up to 4-pin cells");
  assert(static_cast<int>(cell.pin_delays.size()) == cell.num_pins);
  cells_.push_back(std::move(cell));
}

void TechLibrary::prepare_matching() {
  index_.clear();
  inverter_ = -1;
  buffer_ = -1;
  for (int i = 0; i < static_cast<int>(cells_.size()); ++i) {
    const Cell& c = cells_[i];
    // Cells must have full support over their declared pins.
    const auto support = tt6_support(c.function, c.num_pins);
    assert(support == (1u << c.num_pins) - 1u &&
           "cell function must depend on every pin");
    (void)support;
    const auto canon = npn_canonicalize_exact(c.function, c.num_pins);
    const std::uint32_t key =
        (static_cast<std::uint32_t>(c.num_pins) << 16) |
        static_cast<std::uint32_t>(canon.canon & tt6_mask(4));
    index_[key].push_back({i, canon.transform});

    if (c.num_pins == 1) {
      const bool is_inv = tt6_equal(c.function, ~tt6_var(0), 1);
      const bool is_buf = tt6_equal(c.function, tt6_var(0), 1);
      if (is_inv && (inverter_ < 0 || c.area < cells_[inverter_].area)) {
        inverter_ = i;
      }
      if (is_buf && (buffer_ < 0 || c.area < cells_[buffer_].area)) {
        buffer_ = i;
      }
    }
  }
  assert(inverter_ >= 0 && "library must contain an inverter");
}

const std::vector<TechLibrary::MatchEntry>* TechLibrary::matches(
    Tt6 canon, int num_vars) const {
  const std::uint32_t key = (static_cast<std::uint32_t>(num_vars) << 16) |
                            static_cast<std::uint32_t>(canon & tt6_mask(4));
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// asap7_mini
// ---------------------------------------------------------------------------

namespace {

/// Convenience: builds a cell with a uniform pin delay.
Cell make_cell(std::string name, double area, int pins, Tt6 f, double delay) {
  Cell c;
  c.name = std::move(name);
  c.area = area;
  c.num_pins = pins;
  c.function = tt6_replicate(f, pins);
  c.pin_delays.assign(pins, delay);
  return c;
}

}  // namespace

TechLibrary TechLibrary::asap7_mini() {
  TechLibrary lib("asap7_mini");
  const Tt6 a = tt6_var(0), b = tt6_var(1), c = tt6_var(2), d = tt6_var(3);

  // Areas in um^2 and delays in ps, scaled from published ASAP7 RVT data
  // (7.5-track cells; one representative drive strength per function).
  lib.add_cell(make_cell("INVx1", 0.054, 1, ~a, 7.5));
  lib.add_cell(make_cell("BUFx2", 0.108, 1, a, 13.0));
  lib.add_cell(make_cell("NAND2x1", 0.081, 2, ~(a & b), 9.8));
  lib.add_cell(make_cell("NOR2x1", 0.081, 2, ~(a | b), 12.4));
  lib.add_cell(make_cell("AND2x2", 0.135, 2, a & b, 16.8));
  lib.add_cell(make_cell("OR2x2", 0.135, 2, a | b, 18.9));
  lib.add_cell(make_cell("NAND3x1", 0.135, 3, ~(a & b & c), 13.1));
  lib.add_cell(make_cell("NOR3x1", 0.135, 3, ~(a | b | c), 17.9));
  lib.add_cell(make_cell("AND3x1", 0.162, 3, a & b & c, 19.5));
  lib.add_cell(make_cell("OR3x1", 0.162, 3, a | b | c, 22.2));
  lib.add_cell(make_cell("NAND4x1", 0.189, 4, ~(a & b & c & d), 16.7));
  lib.add_cell(make_cell("NOR4x1", 0.189, 4, ~(a | b | c | d), 23.6));
  lib.add_cell(make_cell("XOR2x1", 0.216, 2, a ^ b, 21.0));
  lib.add_cell(make_cell("XNOR2x1", 0.216, 2, ~(a ^ b), 21.0));
  lib.add_cell(make_cell("XOR3x1", 0.324, 3, a ^ b ^ c, 30.2));
  lib.add_cell(make_cell("XNOR3x1", 0.324, 3, ~(a ^ b ^ c), 30.2));
  lib.add_cell(make_cell("AOI21x1", 0.108, 3, ~((a & b) | c), 13.7));
  lib.add_cell(make_cell("OAI21x1", 0.108, 3, ~((a | b) & c), 12.9));
  lib.add_cell(make_cell("AOI22x1", 0.135, 4, ~((a & b) | (c & d)), 15.8));
  lib.add_cell(make_cell("OAI22x1", 0.135, 4, ~((a | b) & (c | d)), 15.2));
  lib.add_cell(make_cell("AO21x1", 0.162, 3, (a & b) | c, 18.3));
  lib.add_cell(make_cell("OA21x1", 0.162, 3, (a | b) & c, 17.6));
  lib.add_cell(make_cell("AO22x1", 0.189, 4, (a & b) | (c & d), 20.4));
  lib.add_cell(make_cell("OA22x1", 0.189, 4, (a | b) & (c | d), 19.7));
  const Tt6 maj = (a & b) | (a & c) | (b & c);
  lib.add_cell(make_cell("MAJx2", 0.243, 3, maj, 23.4));
  lib.add_cell(make_cell("MAJIx1", 0.216, 3, ~maj, 18.9));
  lib.add_cell(make_cell("MUX2x1", 0.216, 3, (c & b) | (~c & a), 22.8));
  lib.add_cell(make_cell("AOI211x1", 0.135, 4, ~((a & b) | c | d), 17.4));
  lib.add_cell(make_cell("OAI211x1", 0.135, 4, ~((a | b) & c & d), 16.6));

  lib.prepare_matching();
  return lib;
}

TechLibrary TechLibrary::asap7_mini_basic() {
  const TechLibrary full = asap7_mini();
  TechLibrary lib("asap7_mini_basic");
  for (const Cell& c : full.cells()) {
    if (c.name.rfind("XOR3", 0) == 0 || c.name.rfind("XNOR3", 0) == 0 ||
        c.name.rfind("MAJ", 0) == 0) {
      continue;
    }
    lib.add_cell(c);
  }
  lib.prepare_matching();
  return lib;
}

}  // namespace mcs
