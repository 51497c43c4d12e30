/// \file techlib.hpp
/// \brief Standard-cell technology libraries and Boolean matching index.
///
/// The ASIC experiments of the paper use the ASAP7 7nm predictive PDK.  We
/// ship `asap7_mini()`, a reduced combinational cell set whose areas (um^2)
/// and pin delays (ps) are scaled from published ASAP7 RVT figures -- the
/// mapper consumes only (function, area, pin delays), so relative
/// comparisons between flows are preserved (see DESIGN.md, substitutions).
/// The libraries are built in code; there is no genlib reader.

#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "mcs/tt/npn.hpp"
#include "mcs/tt/tt6.hpp"

namespace mcs {

/// One combinational cell.
struct Cell {
  std::string name;
  double area = 0.0;
  int num_pins = 0;
  Tt6 function = 0;  ///< over pins 0..num_pins-1
  std::vector<double> pin_delays;  ///< worst-case pin-to-output delay (ps)

  double max_pin_delay() const noexcept {
    double d = 0.0;
    for (const double p : pin_delays) d = std::max(d, p);
    return d;
  }
};

/// A library with an NPN matching index.
class TechLibrary {
 public:
  /// A cell that can realize an NPN class, with its canonicalizing
  /// transform (see NpnMatch composition in npn.hpp).
  struct MatchEntry {
    int cell = -1;
    NpnTransform transform;
  };

  explicit TechLibrary(std::string name = "lib") : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }
  void add_cell(Cell cell);
  const std::vector<Cell>& cells() const noexcept { return cells_; }
  const Cell& cell(int i) const noexcept { return cells_[i]; }

  /// Builds the NPN matching index; must be called after the last add_cell.
  void prepare_matching();

  /// Cells matching the NPN class of \p canon for functions of exactly
  /// \p num_vars (full-support) variables; nullptr when none.
  const std::vector<MatchEntry>* matches(Tt6 canon, int num_vars) const;

  /// Index of the smallest-area inverter (required for phase assignment).
  int inverter() const noexcept { return inverter_; }
  /// Index of the smallest-area buffer, -1 if absent.
  int buffer() const noexcept { return buffer_; }

  /// The reduced ASAP7-like library used throughout the benches.
  static TechLibrary asap7_mini();

  /// The same library without XOR3/XNOR3/MAJ/MAJI cells (NAND/NOR/AOI
  /// style only).  Used by the library ablation: heterogeneous MCH
  /// candidates can only pay off in cells the library actually offers.
  static TechLibrary asap7_mini_basic();

 private:
  std::string name_;
  std::vector<Cell> cells_;
  int inverter_ = -1;
  int buffer_ = -1;
  // Key: (num_vars << 16) | canonical truth table (<= 4 vars -> 16 bits).
  std::unordered_map<std::uint32_t, std::vector<MatchEntry>> index_;
};

}  // namespace mcs
