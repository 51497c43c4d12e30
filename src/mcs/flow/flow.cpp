#include "mcs/flow/flow.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "mcs/common/json.hpp"
#include "mcs/fail/fail.hpp"
#include "mcs/flow/registration.hpp"
#include "mcs/sim/simulator.hpp"

namespace mcs::flow {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

const char* type_name(ParamType t) {
  switch (t) {
    case ParamType::kInt: return "integer";
    case ParamType::kUint64: return "integer";
    case ParamType::kDouble: return "number";
    case ParamType::kBool: return "bool";
    case ParamType::kString: return "string";
    case ParamType::kBasis: return "basis (aig|xag|mig|xmg)";
  }
  return "?";
}

/// Throws unless \p value parses under \p spec's type.
void check_typed(const std::string& pass, const ParamSpec& spec,
                 const std::string& value) {
  bool ok = false;
  switch (spec.type) {
    case ParamType::kInt: ok = parse_int(value).has_value(); break;
    case ParamType::kUint64: {
      unsigned long long v = 0;
      const std::string_view t = trim(value);
      const auto [p, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
      ok = ec == std::errc() && p == t.data() + t.size();
      break;
    }
    case ParamType::kDouble: ok = parse_double(value).has_value(); break;
    case ParamType::kBool: ok = parse_bool(value).has_value(); break;
    case ParamType::kString: ok = true; break;
    case ParamType::kBasis: ok = parse_basis(value).has_value(); break;
  }
  if (!ok) {
    throw FlowError(pass + ": parameter '" + spec.key + "' expects " +
                    type_name(spec.type) + ", got '" + value + "'");
  }
}

const ParamSpec* find_spec(const PassInfo& info, std::string_view key) {
  for (const ParamSpec& spec : info.params) {
    if (spec.key == key) return &spec;
  }
  return nullptr;
}

}  // namespace

// --- validated scalar parsing ----------------------------------------------

std::optional<long long> parse_int(std::string_view text) {
  const std::string_view t = trim(text);
  long long v = 0;
  const auto [p, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
  if (ec != std::errc() || p != t.data() + t.size() || t.empty()) {
    return std::nullopt;
  }
  return v;
}

std::optional<double> parse_double(std::string_view text) {
  const std::string t(trim(text));
  if (t.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(t.c_str(), &end);
  if (errno != 0 || end != t.c_str() + t.size() || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::optional<bool> parse_bool(std::string_view text) {
  const std::string_view t = trim(text);
  if (t == "1" || t == "true" || t == "on") return true;
  if (t == "0" || t == "false" || t == "off") return false;
  return std::nullopt;
}

std::optional<GateBasis> parse_basis(std::string_view text) {
  const std::string_view t = trim(text);
  if (t == "aig") return GateBasis::aig();
  if (t == "xag") return GateBasis::xag();
  if (t == "mig") return GateBasis::mig();
  if (t == "xmg") return GateBasis::xmg();
  return std::nullopt;
}

// --- PassArgs ---------------------------------------------------------------

PassArgs PassArgs::bind(const PassInfo& info,
                        const std::vector<std::string>& tokens) {
  PassArgs args;
  args.info_ = &info;
  std::size_t next_positional = 0;
  for (const std::string& raw_tok : tokens) {
    const std::string tok(trim(raw_tok));
    if (tok.empty()) continue;
    const std::size_t eq = tok.find('=');
    std::string key, value;
    const ParamSpec* spec = nullptr;
    if (eq != std::string::npos) {
      key = std::string(trim(std::string_view(tok).substr(0, eq)));
      value = std::string(trim(std::string_view(tok).substr(eq + 1)));
      spec = find_spec(info, key);
      if (!spec) {
        if (info.allow_extra_args) {
          args.extras_.emplace_back(key, value);
          continue;
        }
        throw FlowError(info.name + ": unknown parameter '" + key +
                        "' (known: " + params_summary(info) + ")");
      }
    } else {
      // Positional: bind to the next schema param not yet set by key.
      while (next_positional < info.params.size() &&
             args.has(info.params[next_positional].key)) {
        ++next_positional;
      }
      if (next_positional >= info.params.size()) {
        throw FlowError(info.name + ": unexpected argument '" + tok +
                        "' (params: " + params_summary(info) + ")");
      }
      spec = &info.params[next_positional++];
      key = spec->key;
      value = tok;
    }
    if (args.has(key)) {
      throw FlowError(info.name + ": parameter '" + key + "' given twice");
    }
    check_typed(info.name, *spec, value);
    args.values_.emplace_back(key, value);
  }
  for (const ParamSpec& spec : info.params) {
    if (spec.required && !args.has(spec.key)) {
      throw FlowError(info.name + ": missing required parameter '" +
                      spec.key + "'");
    }
  }
  if (info.validate) info.validate(args);
  return args;
}

bool PassArgs::has(const std::string& key) const {
  for (const auto& [k, v] : values_) {
    if (k == key) return true;
  }
  return false;
}

std::string PassArgs::raw(const std::string& key) const {
  for (const auto& [k, v] : values_) {
    if (k == key) return v;
  }
  const ParamSpec* spec = info_ ? find_spec(*info_, key) : nullptr;
  if (!spec || spec->default_value.empty()) {
    throw FlowError(std::string(info_ ? info_->name : "?") + ": parameter '" +
                    key + "' has no value and no default");
  }
  return spec->default_value;
}

long long PassArgs::get_int(const std::string& key) const {
  return *parse_int(raw(key));
}

std::uint64_t PassArgs::get_uint64(const std::string& key) const {
  const std::string v = raw(key);
  unsigned long long out = 0;
  const std::string_view t = trim(v);
  std::from_chars(t.data(), t.data() + t.size(), out);
  return out;
}

double PassArgs::get_double(const std::string& key) const {
  return *parse_double(raw(key));
}

bool PassArgs::get_bool(const std::string& key) const {
  return *parse_bool(raw(key));
}

std::string PassArgs::get_string(const std::string& key) const {
  return raw(key);
}

GateBasis PassArgs::get_basis(const std::string& key) const {
  return *parse_basis(raw(key));
}

std::string PassArgs::canonical() const {
  std::string out;
  for (const auto& [k, v] : values_) {
    if (!out.empty()) out += ',';
    out += k + "=" + v;
  }
  for (const auto& [k, v] : extras_) {
    if (!out.empty()) out += ',';
    out += k + "=" + v;
  }
  return out;
}

// --- PassInfo / PassRegistry ------------------------------------------------

std::string params_summary(const PassInfo& info) {
  if (info.params.empty()) return "—";
  std::string out;
  for (const ParamSpec& spec : info.params) {
    if (!out.empty()) out += ", ";
    out += spec.key;
    if (!spec.default_value.empty()) out += "=" + spec.default_value;
  }
  return out;
}

PassRegistry& PassRegistry::instance() {
  static PassRegistry registry;
  return registry;
}

PassRegistry::PassRegistry() {
  register_core_passes(*this);
  register_opt_passes(*this);
  register_sweep_passes(*this);
  register_choice_passes(*this);
  register_map_passes(*this);
  register_par_passes(*this);
  register_obs_passes(*this);
  register_fail_passes(*this);
  register_ckpt_passes(*this);
}

void PassRegistry::add(PassInfo info) {
  if (info.name.empty() || !info.run) {
    throw std::logic_error("PassRegistry: pass needs a name and a run hook");
  }
  if (by_name_.count(info.name)) {
    throw std::logic_error("PassRegistry: duplicate pass '" + info.name + "'");
  }
  for (std::size_t i = 0; i < info.params.size(); ++i) {
    const ParamSpec& spec = info.params[i];
    for (std::size_t j = 0; j < i; ++j) {
      if (info.params[j].key == spec.key) {
        throw std::logic_error("PassRegistry: pass '" + info.name +
                               "' repeats param '" + spec.key + "'");
      }
    }
    if (!spec.default_value.empty()) {
      check_typed(info.name, spec, spec.default_value);  // throws FlowError
    }
  }
  if (info.parallel_ok && info.kind != PassKind::kTransform &&
      info.kind != PassKind::kChoice) {
    throw std::logic_error("PassRegistry: pass '" + info.name +
                           "' is parallel_ok but not a transform");
  }
  passes_.push_back(std::make_unique<PassInfo>(std::move(info)));
  by_name_.emplace(passes_.back()->name, passes_.back().get());
}

const PassInfo* PassRegistry::find(std::string_view name) const {
  const auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? nullptr : it->second;
}

std::vector<const PassInfo*> PassRegistry::all() const {
  std::vector<const PassInfo*> out;
  out.reserve(passes_.size());
  for (const auto& p : passes_) out.push_back(p.get());
  return out;
}

std::string PassRegistry::help() const {
  static constexpr struct {
    PassKind kind;
    const char* title;
  } kGroups[] = {
      {PassKind::kSource, "sources"},
      {PassKind::kTransform, "transforms"},
      {PassKind::kChoice, "choices"},
      {PassKind::kMapping, "mapping"},
      {PassKind::kAnalysis, "analysis"},
      {PassKind::kOutput, "output"},
      {PassKind::kSetting, "settings"},
  };
  std::ostringstream os;
  os << "passes (run as commands, or compose: flow \"a:k=v; b; c\"):\n";
  for (const auto& group : kGroups) {
    bool any = false;
    for (const auto& p : passes_) {
      if (p->kind != group.kind) continue;
      if (!any) os << " " << group.title << ":\n";
      any = true;
      std::string head = "  " + p->name;
      const std::string params = params_summary(*p);
      if (params != "—") head += " [" + params + "]";
      os << head;
      if (head.size() < 40) os << std::string(40 - head.size(), ' ');
      os << " " << p->summary << "\n";
    }
  }
  return os.str();
}

// --- stage / flow execution -------------------------------------------------

namespace {

/// Stage-validation metric handles (catalogued in the README).
struct TxnMetrics {
  obs::Counter& validation_failures = obs::counter("ckpt.validation_failures");
  obs::Counter& rollbacks = obs::counter("ckpt.rollbacks");
  obs::Counter& retries = obs::counter("ckpt.retries");
  obs::Counter& skips = obs::counter("ckpt.skips");
};

TxnMetrics& txn_metrics() {
  static TxnMetrics m;
  return m;
}

/// PO signatures under ctx.txn.sim_words words of seeded random stimulus.
/// Equality is a necessary condition of PO-function equality: signature()
/// respects complement edges and the stimulus is a pure function of
/// (seed, PI index), so it survives any structural rewrite.
std::vector<std::uint64_t> po_signatures(const FlowContext& ctx) {
  const RandomSimulation sim(ctx.net, ctx.txn.sim_words, ctx.txn.sim_seed);
  std::vector<std::uint64_t> sigs;
  sigs.reserve(ctx.net.num_pos());
  for (std::size_t i = 0; i < ctx.net.num_pos(); ++i) {
    sigs.push_back(sim.signature(ctx.net.po_at(i)));
  }
  return sigs;
}

/// Finishes \p report: snapshots the working network and any mapped
/// artifacts, numbers the report, streams it through ctx.on_stage and
/// prints the shell's line.  Every report -- ran, failed attempt, skipped
/// or stopped -- is finished here exactly once.  \p tag starts the
/// printed line of a stage that did not run to completion ("error: ",
/// "stopped: ", "" for a skip); nullptr prints a completed stage's stats.
StageReport record(FlowContext& ctx, StageReport report, const char* tag) {
  report.gates = ctx.net.num_gates();
  report.depth = ctx.net.depth();
  report.choices = ctx.net.num_choices();
  if (ctx.luts) {
    report.luts = ctx.luts->size();
    report.lut_depth = ctx.luts->depth();
  }
  if (ctx.cells) {
    report.cells = ctx.cells->size();
    report.area = ctx.cells->area;
    report.delay = ctx.cells->delay;
  }
  if (ctx.on_stage) ctx.on_stage(report, ctx.report_count);
  ++ctx.report_count;
  if (!ctx.verbose) return report;
  if (tag != nullptr) {
    std::printf("%s: %s%s\n", report.pass.c_str(), tag, report.note.c_str());
    return report;
  }
  std::printf("%s%s%s: gates=%zu depth=%u choices=%zu", report.pass.c_str(),
              report.args.empty() ? "" : ":", report.args.c_str(),
              report.gates, report.depth, report.choices);
  if (ctx.luts) {
    std::printf(" | luts=%zu lut_depth=%u", report.luts, report.lut_depth);
  }
  if (ctx.cells) {
    std::printf(" | cells=%zu area=%.3f delay=%.2f", report.cells,
                report.area, report.delay);
  }
  std::printf(" (%.2fs)", report.seconds);
  if (!report.note.empty()) std::printf("  -- %s", report.note.c_str());
  std::printf("\n");
  return report;
}

/// One attempt at a stage, recorded.
StageReport attempt(FlowContext& ctx, const PassInfo& pass,
                    const PassArgs& args) {
  StageReport report;
  report.pass = pass.name;
  report.args = args.canonical();
  ctx.note.clear();
  // Every registered pass gets an enter/exit span and a metrics window for
  // free: the stage (and, through pool inheritance, all of its tasks) runs
  // under the flow's domain, so the domain's counter movement during the
  // stage is exactly this stage's work and lands in report.metrics; spans
  // started during the stage (the pass's own span included) land in
  // report.spans.
  obs::Scope domain_scope(ctx.domain.get());
  const obs::MetricsSnapshot metrics_before = ctx.domain->snapshot();
  const std::uint64_t span_window_start = obs::now_us();
  const auto t0 = std::chrono::steady_clock::now();
  const bool rewrites =
      pass.kind == PassKind::kTransform || pass.kind == PassKind::kChoice;
  // Sim spot check only guards function-preserving rewrites: transforms and
  // choice builders.  Sources replace the function; mappings/analyses do
  // not touch the network.
  const bool sim_check = ctx.txn.sim_words > 0 && rewrites;
  try {
    obs::Span span([&] { return "pass:" + pass.name; });
    std::vector<std::uint64_t> sigs_before;
    if (sim_check) sigs_before = po_signatures(ctx);
    // Inside the try block: an injected fault becomes a failed stage, the
    // same containment real pass errors get.
    fail::point("flow.stage");
    pass.run(ctx, args);
    // A changed working network invalidates earlier mapped artifacts;
    // without this, `cec` after a transform would verify a stale mapping.
    if (rewrites) {
      ctx.luts.reset();
      ctx.cells.reset();
    }
    if (ctx.txn.validate) {
      // A validation fault injects here so tests can drill the rollback
      // path without first corrupting a network for real.
      fail::point("flow.validate");
      std::string why;
      if (!ctx.net.check(&why)) {
        throw FlowError("validate: " + why);
      }
    }
    if (sim_check) {
      const std::vector<std::uint64_t> sigs_after = po_signatures(ctx);
      if (sigs_after.size() != sigs_before.size()) {
        throw FlowError("validate: stage changed the PO count (" +
                        std::to_string(sigs_before.size()) + " -> " +
                        std::to_string(sigs_after.size()) + ")");
      }
      for (std::size_t i = 0; i < sigs_after.size(); ++i) {
        if (sigs_after[i] != sigs_before[i]) {
          throw FlowError("validate: simulation signature changed at PO " +
                          std::to_string(i) + " (functional bug)");
        }
      }
    }
  } catch (const std::exception& e) {
    report.ok = false;
    ctx.note = e.what();
    if (ctx.note.rfind("validate:", 0) == 0) {
      txn_metrics().validation_failures.increment();
    }
  }
  report.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  report.metrics = obs::snapshot_diff(ctx.domain->snapshot(), metrics_before);
  if (obs::tracing_enabled()) {
    report.spans = obs::aggregate_spans(span_window_start);
  }
  report.note = ctx.note;
  const char* tag = report.ok ? nullptr : "error: ";
  return record(ctx, std::move(report), tag);
}

}  // namespace

StageReport run_stage(FlowContext& ctx, const PassInfo& pass,
                      const PassArgs& args) {
  // kFail (the default) rolls nothing back, and analysis, output and
  // setting stages are not rolled back: one attempt, one branch.
  if (ctx.txn.on_failure == TxnPolicy::OnFailure::kFail ||
      !(changes_network(pass.kind) || pass.kind == PassKind::kMapping)) {
    return attempt(ctx, pass, args);
  }

  // The state such a stage can change, kept by value.  A rewrite drops the
  // mapped artifacts before its validation audit, so they are kept too.
  const Network net = ctx.net;
  const std::optional<Network> original = ctx.original;
  const std::optional<LutNetwork> luts = ctx.luts;
  const std::optional<CellNetlist> cells = ctx.cells;

  int attempts = 0;
  for (;;) {
    StageReport report = attempt(ctx, pass, args);
    if (report.ok) return report;

    // Roll back: the pass may have torn the state arbitrarily before
    // failing.
    ctx.net = net;
    ctx.original = original;
    ctx.luts = luts;
    ctx.cells = cells;
    txn_metrics().rollbacks.increment();

    if (ctx.txn.on_failure == TxnPolicy::OnFailure::kRetry) {
      // Out of budget, the last failed report stands and the flow stops.
      if (attempts >= ctx.txn.max_retries) return report;
      ++attempts;
      txn_metrics().retries.increment();
      if (ctx.verbose) {
        std::printf("%s: rolled back, retry %d/%d\n", pass.name.c_str(),
                    attempts, ctx.txn.max_retries);
      }
      continue;  // the failed attempt is already recorded
    }

    // kSkip: the stage is dropped, surfaced as a synthetic ok report (the
    // rollback makes "dropped" true -- the state is as if it never ran).
    txn_metrics().skips.increment();
    StageReport skipped;
    skipped.pass = pass.name;
    skipped.args = report.args;
    skipped.note = "skipped after rollback: " + report.note;
    return record(ctx, std::move(skipped), "");
  }
}

std::optional<StageReport> check_interrupted(FlowContext& ctx,
                                             const Flow::Stage& next) {
  const char* reason =
      ctx.cancel ? ctx.cancel->stop_reason() : nullptr;
  if (reason == nullptr) return std::nullopt;
  StageReport report;
  report.pass = next.pass->name;
  report.args = next.args.canonical();
  report.ok = false;
  report.note = reason;
  return record(ctx, std::move(report), "stopped: ");
}

Flow Flow::parse(const std::string& spec) {
  Flow flow;
  for (const std::string& stage_text : split(spec, ';')) {
    const std::string_view stage = trim(stage_text);
    if (stage.empty()) continue;
    const std::size_t colon = stage.find(':');
    const std::string name(trim(stage.substr(0, colon)));
    if (name.empty()) {
      throw FlowError("flow spec: stage '" + std::string(stage) +
                      "' has no pass name");
    }
    const PassInfo* pass = PassRegistry::instance().find(name);
    if (!pass) {
      throw FlowError("flow spec: unknown pass '" + name + "' (try 'help')");
    }
    std::vector<std::string> tokens;
    if (colon != std::string_view::npos) {
      tokens = split(stage.substr(colon + 1), ',');
    }
    flow.stages_.push_back({pass, PassArgs::bind(*pass, tokens)});
  }
  if (flow.stages_.empty()) throw FlowError("flow spec: no stages");
  return flow;
}

std::string Flow::canonical() const {
  std::string out;
  for (const Stage& stage : stages_) {
    if (!out.empty()) out += "; ";
    out += stage.pass->name;
    const std::string args = stage.args.canonical();
    if (!args.empty()) out += ":" + args;
  }
  return out;
}

FlowReport Flow::run(FlowContext& ctx) const {
  // Headless tracing: MCS_TRACE=<file> captures this run without any shell
  // or bench plumbing (idempotent; the dump happens at process exit).
  obs::init_from_env();
  fail::init_from_env();
  FlowReport report;
  const auto t0 = std::chrono::steady_clock::now();
  for (const Stage& stage : stages_) {
    // Cooperative stop: a cancelled token or a passed deadline stops the
    // flow *between* stages, recorded as a failed stage that never ran.
    if (auto stopped = check_interrupted(ctx, stage)) {
      report.stages.push_back(std::move(*stopped));
      report.ok = false;
      report.error =
          report.stages.back().pass + ": " + report.stages.back().note;
      break;
    }
    report.stages.push_back(run_stage(ctx, *stage.pass, stage.args));
    if (!report.stages.back().ok) {
      report.ok = false;
      report.error =
          report.stages.back().pass + ": " + report.stages.back().note;
      break;
    }
  }
  report.total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return report;
}

FlowReport run_flow(const std::string& spec, FlowContext& ctx) {
  return Flow::parse(spec).run(ctx);
}

FlowReport run_flow(const std::string& spec) {
  FlowContext ctx;
  return run_flow(spec, ctx);
}

// --- JSON serialization -----------------------------------------------------

namespace {

void append_json_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

}  // namespace

std::string StageReport::to_json() const {
  const StageReport& s = *this;
  std::string out;
  out += "{\"pass\": ";
  out += json_quote(s.pass);
  out += ", \"args\": ";
  out += json_quote(s.args);
  out += ", \"ok\": ";
  out += s.ok ? "true" : "false";
  out += ", \"seconds\": ";
  append_json_double(out, s.seconds);
  out += ", \"gates\": " + std::to_string(s.gates);
  out += ", \"depth\": " + std::to_string(s.depth);
  out += ", \"choices\": " + std::to_string(s.choices);
  out += ", \"luts\": " + std::to_string(s.luts);
  out += ", \"lut_depth\": " + std::to_string(s.lut_depth);
  out += ", \"cells\": " + std::to_string(s.cells);
  out += ", \"area\": ";
  append_json_double(out, s.area);
  out += ", \"delay\": ";
  append_json_double(out, s.delay);
  out += ", \"note\": ";
  out += json_quote(s.note);
  // Observability fields (see README "Observability"): counter *deltas*
  // of the flow's domain over the stage, gauges at stage end, per-name
  // span aggregates.
  out += ", \"metrics\": {\"counters\": {";
  for (std::size_t k = 0; k < s.metrics.counters.size(); ++k) {
    if (k) out += ", ";
    out += json_quote(s.metrics.counters[k].name);
    out += ": " + std::to_string(s.metrics.counters[k].value);
  }
  out += "}, \"gauges\": {";
  for (std::size_t k = 0; k < s.metrics.gauges.size(); ++k) {
    if (k) out += ", ";
    out += json_quote(s.metrics.gauges[k].name);
    out += ": " + std::to_string(s.metrics.gauges[k].value);
  }
  out += "}}, \"spans\": [";
  for (std::size_t k = 0; k < s.spans.size(); ++k) {
    if (k) out += ", ";
    out += "{\"name\": ";
    out += json_quote(s.spans[k].name);
    out += ", \"count\": " + std::to_string(s.spans[k].count);
    out += ", \"seconds\": ";
    append_json_double(out, s.spans[k].seconds);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string FlowReport::to_json() const {
  std::string out = "{\"ok\": ";
  out += ok ? "true" : "false";
  out += ", \"error\": ";
  out += json_quote(error);
  out += ", \"total_seconds\": ";
  append_json_double(out, total_seconds);
  out += ", \"stages\": [";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (i) out += ", ";
    out += stages[i].to_json();
  }
  out += "]}";
  return out;
}

}  // namespace mcs::flow
