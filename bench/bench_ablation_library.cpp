/// Ablation C (DESIGN.md): library dependence of the MCH gains.
///
/// The paper's heterogeneous candidates (MAJ/XOR structures) can only win
/// mapping if the target library contains cells that realize them cheaply.
/// This bench maps the same MCH networks against the full mini-ASAP7
/// library and against a basic NAND/NOR/AOI-only variant (no XOR3/MAJ
/// cells), isolating how much of the MCH area gain is attributable to the
/// heterogeneous cells themselves.

#include <cstdio>

#include "bench_util.hpp"
#include "mcs/choice/mch.hpp"
#include "mcs/circuits/circuits.hpp"
#include "mcs/network/convert.hpp"
#include "mcs/opt/optimize.hpp"

using namespace mcs;

int main() {
  const double scale = bench::suite_scale();
  std::printf("=== Ablation C: library dependence of MCH gains (suite scale "
              "%.2f) ===\n\n", scale);
  const TechLibrary full = TechLibrary::asap7_mini();
  const TechLibrary basic = TechLibrary::asap7_mini_basic();
  std::printf("full library: %zu cells; basic library: %zu cells (no "
              "XOR3/MAJ)\n\n", full.cells().size(), basic.cells().size());

  const char* names[] = {"adder", "sin", "multiplier", "voter", "max",
                         "priority"};
  std::vector<circuits::BenchmarkCircuit> cases;
  for (auto& bc : circuits::epfl_suite(scale)) {
    for (const char* n : names) {
      if (bc.name == n) cases.push_back(std::move(bc));
    }
  }

  std::printf("%-11s | %-21s | %-21s | %-10s\n", "circuit",
              "full lib base/MCH A", "basic lib base/MCH A", "MCH gain");
  std::printf("%-11s | %-21s | %-21s | full/basic\n", "", "", "");
  std::printf("--------------------------------------------------------------"
              "-------\n");

  std::vector<double> gain_full, gain_basic;
  for (const auto& bc : cases) {
    const Network opt =
        compress2rs_like(expand_to_aig(bc.net), GateBasis::aig(), 2);
    // Full library: XMG candidates.  Basic library: the richest candidates
    // it can realize are XAG (a basic library cannot even host native
    // MAJ3/XOR3 nodes -- which is precisely the technology dependence this
    // ablation measures).
    MchParams mch_params;
    mch_params.candidate_basis = GateBasis::xmg();
    mch_params.critical_ratio = 0.95;
    const Network mch_full = build_mch(opt, mch_params);
    mch_params.candidate_basis = GateBasis::xag();
    const Network mch_basic = build_mch(opt, mch_params);

    AsicMapParams area;
    area.objective = AsicMapParams::Objective::kArea;
    AsicMapParams area_plain = area;
    area_plain.use_choices = false;

    const double f_base = asic_map(opt, full, area_plain).area;
    const double f_mch = asic_map(mch_full, full, area).area;
    const double b_base = asic_map(opt, basic, area_plain).area;
    const double b_mch = asic_map(mch_basic, basic, area).area;
    gain_full.push_back(f_base / std::max(f_mch, 1e-9));
    gain_basic.push_back(b_base / std::max(b_mch, 1e-9));

    std::printf("%-11s | %9.2f %9.2f   | %9.2f %9.2f   | %5.1f%% / %5.1f%%\n",
                bc.name.c_str(), f_base, f_mch, b_base, b_mch,
                100.0 * (1.0 - f_mch / f_base),
                100.0 * (1.0 - b_mch / b_base));
    std::fflush(stdout);
  }

  std::printf("--------------------------------------------------------------"
              "-------\n");
  std::printf("geomean MCH area gain: full lib %.2f%%, basic lib %.2f%%\n",
              100.0 * (1.0 - 1.0 / bench::geomean(gain_full)),
              100.0 * (1.0 - 1.0 / bench::geomean(gain_basic)));
  std::printf(
      "\nExpected shape: the MCH area gain shrinks on the basic library, "
      "most sharply on\nMAJ/XOR-rich arithmetic (multiplier) -- "
      "heterogeneous candidates matter most when\nthe library can realize "
      "MAJ/XOR3 structures as single cells, supporting the\npaper's "
      "technology-aware premise.\n");
  return 0;
}
