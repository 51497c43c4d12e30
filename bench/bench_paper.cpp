/// \file bench_paper.cpp
/// \brief The paper's Table I and Table II and ablations A and C, each
/// written as a table of flow specs run through run_flow().
///
/// A table names its circuits, a prefix spec and columns of tail specs.
/// Per circuit, the circuit's `gen` stage plus the prefix runs once (tables
/// with the same prefix and scale share that run).  Columns whose tails
/// begin with the same stages under the same library run those stages once,
/// on a copy of the prefix's FlowContext; each column then runs the rest of
/// its tail and `sim` on a copy of that context (or of the prefix's), and
/// its text cell times only what it ran itself.  Text tables go to stdout.
/// With MCS_BENCH_OUT set, one JSON row per (table, circuit, column) goes
/// there: the replayable spec (the whole tail), the library, `ok` and the QoR
/// (LUTs/levels or area/delay, and choices); a prefix that maps also gets a
/// row, "prefix".  BENCH_qor.json is that output at MCS_SCALE=0.3, and
/// bench/compare_bench.py fails on any QoR difference from it.
///
///   bench_paper [table1] [table2] [ablation_a] [ablation_c]   (default: all)
///
/// MCS_SCALE in [0.05, 1] scales the suite (default 0.6, Table II 1.0).
/// Exits 1 when any flow or its `sim` check fails, 2 on a usage error.
///
/// Figures 1, 2 and 6 and ablation B stay hand-wired benches: each needs a
/// pass option the registry lacks (iterated or MCH graph mapping, custom DCH
/// snapshots, strategy selection).

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mcs/circuits/circuits.hpp"
#include "mcs/flow/flow.hpp"

using namespace mcs;

namespace {

struct Column {
  const char* name;
  const char* tail;
  int twin = -1;  ///< index of the same flow without choices, -1 if none
  TechLibrary (*lib)() = nullptr;  ///< nullptr: the FlowContext default
};

struct Table {
  const char* name;  ///< command-line selector and JSON "table" field
  const char* title;
  double default_scale;
  std::vector<std::string> circuits;  ///< run in suite order; empty: all
  const char* prefix;
  std::vector<Column> columns;
  const char* expected;  ///< the shape the paper reports
};

const char* const kAsicPrefix = "to:basis=aig; compress2rs:rounds=2,basis=aig";

const Table kTables[] = {
    {"table1",
     "Table I: ASIC technology mapping, ASAP7-mini",
     0.6,
     {},
     kAsicPrefix,
     {{"F1 &nf (delay)", "map_asic:obj=delay"},
      {"F2 dch;&nf", "dch; map_asic:obj=delay", 0},
      {"F3 dch;map-a", "dch; map_asic:obj=area", 8},
      {"F4 MCH bal", "mch:basis=xmg,ratio=0.9; map_asic:obj=delay,relax=0.08",
       6},
      {"F5 MCH delay",
       "balance; detect_xors; mch:basis=xag,ratio=0.2,cut=5,max_choices=6; "
       "map_asic:obj=delay",
       7},
      {"F6 MCH area", "mch:basis=xmg,ratio=0.95; map_asic:obj=area", 8},
      {"F4 twin", "map_asic:obj=delay,relax=0.08"},
      {"F5 twin", "balance; detect_xors; map_asic:obj=delay"},
      {"area twin", "map_asic:obj=area"}},
     "MCH balanced improves both area and delay over F1; MCH delay-oriented "
     "gives\nthe largest delay gain (paper: 20.35%) at an area cost; MCH "
     "area-oriented the\nlargest area gain (paper: 21.02%) at a delay cost; "
     "DCH gains are smaller than\nMCH gains.  A twin is its column's flow "
     "without the choice stage: the gain\nover it is what the choices buy."},
    {"table2",
     "Table II: best 6-LUT area results",
     1.0,
     {"hyp", "sin", "sqrt", "square", "voter"},
     "to:basis=aig; compress2rs:rounds=3,basis=aig; map_lut:k=6; strash",
     {{"remap", "map_lut:k=6"},
      {"MCH", "mch:basis=xmg,ratio=0.95; map_lut:k=6", 0}},
     "direct re-mapping of the strashed AIG is no better than Best (the "
     "prefix's\nmapping, standing in for the best known result), while the MCH "
     "mapper reaches\nLUT counts at or below it (the paper sets records by 1-3 "
     "LUTs)."},
    {"ablation_a",
     "Ablation A: MCH critical-path ratio r",
     0.6,
     {"adder", "bar", "max", "sin", "priority", "voter"},
     kAsicPrefix,
     {{"r=0.00", "mch:basis=xmg,ratio=0; map_asic:obj=delay"},
      {"r=0.25", "mch:basis=xmg,ratio=0.25; map_asic:obj=delay"},
      {"r=0.50", "mch:basis=xmg,ratio=0.5; map_asic:obj=delay"},
      {"r=0.75", "mch:basis=xmg,ratio=0.75; map_asic:obj=delay"},
      {"r=0.90", "mch:basis=xmg,ratio=0.9; map_asic:obj=delay"},
      {"r=1.00", "mch:basis=xmg,ratio=1; map_asic:obj=delay"}},
     "r shifts the candidate mix between level-oriented (small r) and "
     "area-oriented\n(large r) strategies.  The effect is mild here (the two "
     "bundles share DSD and\nthe choice cap makes them overlap), but r moves "
     "area and choices monotonically."},
    {"ablation_c",
     "Ablation C: library dependence of MCH gains",
     0.6,
     {"adder", "max", "multiplier", "sin", "priority", "voter"},
     kAsicPrefix,
     {{"full base", "map_asic:obj=area", -1, &TechLibrary::asap7_mini},
      {"full MCH", "mch:basis=xmg,ratio=0.95; map_asic:obj=area", 0,
       &TechLibrary::asap7_mini},
      {"basic base", "map_asic:obj=area", -1, &TechLibrary::asap7_mini_basic},
      {"basic MCH", "mch:basis=xag,ratio=0.95; map_asic:obj=area", 2,
       &TechLibrary::asap7_mini_basic}},
     "the MCH area gain shrinks on the basic library (no XOR3/MAJ cells, so "
     "XAG\ncandidates), most sharply on MAJ/XOR-rich arithmetic "
     "(multiplier)."},
};

/// One table cell: size/depth are area/delay, or LUTs/levels.
struct Result {
  bool ok = false;
  bool luts = false;
  double size = 0.0;
  double depth = 0.0;
  std::size_t choices = 0;
  double seconds = 0.0;
};

struct Prefix {
  flow::FlowContext ctx;
  flow::FlowReport report;
  Result mapped;  ///< the prefix's last LUT mapping, if any
};

/// The stages of a tail: "a; b:k=v" -> {"a", "b:k=v"}.
std::vector<std::string> stages_of(const char* tail) {
  std::vector<std::string> out;
  std::string rest = tail;
  for (std::size_t end; (end = rest.find("; ")) != std::string::npos;
       rest.erase(0, end + 2)) {
    out.push_back(rest.substr(0, end));
  }
  out.push_back(rest);
  return out;
}

/// How many leading stages of \p c's tail another column of \p t, under
/// the same library, begins with too (the most over all such columns).
std::size_t num_shared_stages(const Table& t, const Column& c) {
  const std::vector<std::string> mine = stages_of(c.tail);
  std::size_t best = 0;
  for (const Column& o : t.columns) {
    if (&o == &c || o.lib != c.lib) continue;
    const std::vector<std::string> other = stages_of(o.tail);
    const auto diff =
        std::mismatch(mine.begin(), mine.end(), other.begin(), other.end());
    best = std::max(best, static_cast<std::size_t>(diff.first - mine.begin()));
  }
  return best;
}

Result result_of(const flow::FlowContext& ctx, const flow::FlowReport& r) {
  Result out;
  out.ok = r.ok;
  out.seconds = r.total_seconds;
  out.choices = ctx.net.num_choices();
  if (ctx.luts) {
    out.luts = true;
    out.size = static_cast<double>(ctx.luts->size());
    out.depth = ctx.luts->depth();
  } else if (ctx.cells) {
    out.size = ctx.cells->area;
    out.depth = ctx.cells->delay;
  }
  return out;
}

/// Writes one JSON row to the MCS_BENCH_OUT sink, when it is set.
void emit(const Table& t, const std::string& circuit, const char* column,
          const std::string& lib, const std::string& spec, const Result& r) {
  std::FILE* out = bench::bench_out_file();
  if (out == nullptr) return;
  bench::JsonLine line("paper", out);
  line.field("table", std::string(t.name))
      .field("circuit", circuit)
      .field("column", std::string(column))
      .field("lib", lib)
      .field("spec", spec)
      .field("ok", r.ok)
      .field(r.luts ? "luts" : "area", r.size)
      .field(r.luts ? "levels" : "delay", r.depth)
      .field("choices", r.choices);
}

void print_cell(const Result& r) {
  std::printf(r.luts ? " | %9.0f %8.0f %5zu %5.2f%s"
                     : " | %9.2f %8.1f %5zu %5.2f%s",
              r.size, r.depth, r.choices, r.seconds, r.ok ? " " : "!");
}

/// Runs \p t, printing its text table; false when any flow failed.
bool run_table(const Table& t, std::map<std::string, Prefix>& prefixes) {
  const double scale = bench::suite_scale_or(t.default_scale);
  // A prefix that maps (Table II's stand-in for the best known result) adds
  // a Best column: the smaller of that mapping and the first column's.
  const flow::Flow prefix_flow = flow::Flow::parse(t.prefix);
  bool has_best = false;
  for (const auto& stage : prefix_flow.stages()) {
    has_best = has_best || stage.pass->kind == flow::PassKind::kMapping;
  }
  std::vector<const char*> names;
  for (const Column& c : t.columns) names.push_back(c.name);
  if (has_best) names.push_back("Best");

  std::printf("=== %s (%s, suite scale %.2f) ===\n\n", t.title, t.name, scale);
  TechLibrary (*shown)() = nullptr;
  for (const Column& c : t.columns) {
    if (c.lib == nullptr || c.lib == shown) continue;
    shown = c.lib;
    const TechLibrary lib = c.lib();
    std::printf("library %s: %zu cells\n", lib.name().c_str(),
                lib.cells().size());
  }
  std::printf("cells: area delay choices seconds, or LUTs levels choices "
              "seconds; '!' = failed\n\n%-11s", "circuit");
  for (const char* n : names) std::printf(" | %-31s", n);
  std::printf(" || gain vs twin");
  for (const Column& c : t.columns) {
    if (c.twin >= 0) std::printf(" %8.8s", c.name);
  }
  std::printf("\n");

  std::vector<std::vector<double>> sizes(names.size()), depths(names.size());
  bool all_ok = true;
  bool luts = false;
  for (const auto& bc : circuits::epfl_suite(scale)) {
    if (!t.circuits.empty() &&
        std::find(t.circuits.begin(), t.circuits.end(), bc.name) ==
            t.circuits.end()) {
      continue;
    }
    const std::string prefix_spec = bc.gen + "; " + t.prefix;
    auto [it, fresh] = prefixes.try_emplace(prefix_spec);
    Prefix& p = it->second;
    if (fresh) {
      p.report = flow::run_flow(prefix_spec, p.ctx);
      p.mapped.ok = p.report.ok;
      for (const flow::StageReport& s : p.report.stages) {
        if (s.luts == 0) continue;
        p.mapped = {p.report.ok, true, static_cast<double>(s.luts),
                    static_cast<double>(s.lut_depth), s.choices, 0.0};
      }
    }
    all_ok = all_ok && p.report.ok;
    if (has_best) {
      emit(t, bc.name, "prefix", p.ctx.lib.name(), prefix_spec, p.mapped);
    }
    if (!p.report.ok) {
      std::printf("%-11s prefix failed: %s\n", bc.name.c_str(),
                  p.report.error.c_str());
      continue;
    }
    std::printf("%-11s", bc.name.c_str());
    std::vector<Result> row;
    // This circuit's shared stage runs, by library and stages.
    std::map<std::pair<TechLibrary (*)(), std::string>, Prefix> shared;
    for (const Column& c : t.columns) {
      const std::vector<std::string> stages = stages_of(c.tail);
      const std::size_t num_shared = num_shared_stages(t, c);
      std::string head, rest;
      for (std::size_t i = 0; i < stages.size(); ++i) {
        std::string& part = i < num_shared ? head : rest;
        part += (part.empty() ? "" : "; ") + stages[i];
      }
      rest += rest.empty() ? "sim" : "; sim";
      const Prefix* base = &p;
      if (num_shared > 0) {
        auto [at, first] = shared.try_emplace({c.lib, head});
        if (first) {
          at->second.ctx = p.ctx;
          if (c.lib != nullptr) at->second.ctx.lib = c.lib();
          at->second.report = flow::run_flow(head, at->second.ctx);
        }
        base = &at->second;
      }
      flow::FlowContext ctx = base->ctx;
      if (c.lib != nullptr) ctx.lib = c.lib();
      // A failed shared run fails its columns without running them.
      flow::FlowReport report = base->report;
      if (report.ok) report = flow::run_flow(rest, ctx);
      const std::string tail = std::string(c.tail) + "; sim";
      if (!report.ok) {
        std::fprintf(stderr, "%s / %s / %s: %s\n", t.name, bc.name.c_str(),
                     c.name, report.error.c_str());
      }
      const Result r = result_of(ctx, report);
      all_ok = all_ok && r.ok;
      emit(t, bc.name, c.name, ctx.lib.name(), prefix_spec + "; " + tail, r);
      row.push_back(r);
    }
    if (has_best) {
      row.push_back(row[0].size < p.mapped.size ? row[0] : p.mapped);
    }
    luts = luts || row[0].luts;
    for (std::size_t i = 0; i < row.size(); ++i) {
      print_cell(row[i]);
      sizes[i].push_back(row[i].size);
      depths[i].push_back(row[i].depth);
    }
    std::printf(" ||");
    for (std::size_t i = 0; i < t.columns.size(); ++i) {
      if (t.columns[i].twin < 0) continue;
      std::printf(" %8.1f%%", bench::improvement(row[t.columns[i].twin].size,
                                                 row[i].size));
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  std::vector<double> size, depth;
  for (std::size_t i = 0; i < names.size(); ++i) {
    size.push_back(bench::geomean(sizes[i]));
    depth.push_back(bench::geomean(depths[i]));
  }
  std::printf("%-11s", "geomean");
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::printf(luts ? " | %9.1f %8.1f %13s" : " | %9.2f %8.1f %13s",
                size[i], depth[i], "");
  }
  std::printf("\n%-11s", "impr.vs 1st");
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::printf(" | %8.2f%% %7.2f%% %13s",
                bench::improvement(size[0], size[i]),
                bench::improvement(depth[0], depth[i]), "");
  }
  std::printf("\n%-11s", "gain v twin");
  for (std::size_t i = 0; i < names.size(); ++i) {
    const int twin = i < t.columns.size() ? t.columns[i].twin : -1;
    if (twin < 0) {
      std::printf(" | %32s", "");
    } else {
      std::printf(" | %8.2f%% %7.2f%% %13s",
                  bench::improvement(size[twin], size[i]),
                  bench::improvement(depth[twin], depth[i]), "");
    }
  }
  std::printf("\n\nfunctional checks: %s\n",
              all_ok ? "every flow passed `sim` against its generated circuit"
                     : "FAILED (see cells marked '!')");
  std::printf("Expected shape (paper):\n%s\n\n", t.expected);
  return all_ok;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> picks(argv + 1, argv + argc);
  for (const std::string& pick : picks) {
    if (std::none_of(std::begin(kTables), std::end(kTables),
                     [&](const Table& t) { return pick == t.name; })) {
      std::fprintf(stderr,
                   "usage: bench_paper [table1] [table2] [ablation_a] "
                   "[ablation_c]\nunknown table '%s'\n",
                   pick.c_str());
      return 2;
    }
  }
  bool all_ok = true;
  std::map<std::string, Prefix> prefixes;
  for (const Table& t : kTables) {
    if (picks.empty() || std::count(picks.begin(), picks.end(), t.name) > 0) {
      all_ok = run_table(t, prefixes) && all_ok;
    }
  }
  return all_ok ? 0 : 1;
}
