/// \file mcs_shell.cpp
/// \brief An ABC-style shell over the library, driven entirely by the
/// mcs::flow pass registry: every registered pass is a command, `help` is
/// generated from the registered schemas, and `flow "<spec>"` runs a whole
/// pipeline from a flow-spec string.
///
///   ./build/examples/mcs_shell                 # interactive
///   echo "gen adder 16; mch; map_lut; ps" | ./build/examples/mcs_shell
///   ./build/examples/mcs_shell script.mcs      # batch file
///
/// Command arguments may be positional (`gen adder 16`, bound in schema
/// order) or key=value (`gen name=adder bits=16`); values are validated --
/// junk numbers are errors, not silently zero.  In batch mode (script file
/// or piped stdin) the first unknown command or failed pass stops the run
/// and exits nonzero, so CI scripts cannot silently pass.
///
/// The `threads <n>` command selects the worker count for the parallel
/// passes (`par`, `fraig`, `dch`, `map_lut`, `cec`); their results are
/// bit-identical for any thread count.

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "mcs/flow/flow.hpp"

using namespace mcs;

namespace {

/// Splits \p line on \p sep, keeping double-quoted sections intact
/// (so `flow "a; b"` is one command even though the spec contains ';').
std::vector<std::string> split_outside_quotes(const std::string& line,
                                              char sep) {
  std::vector<std::string> out;
  std::string cur;
  bool quoted = false;
  for (const char c : line) {
    if (c == '"') {
      quoted = !quoted;
      cur += c;
    } else if (c == sep && !quoted) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

/// Whitespace tokenization with double quotes (stripped from the token).
std::vector<std::string> tokenize(const std::string& command) {
  std::vector<std::string> tokens;
  std::string cur;
  bool quoted = false;
  bool have = false;
  for (const char c : command) {
    if (c == '"') {
      quoted = !quoted;
      have = true;
    } else if ((c == ' ' || c == '\t') && !quoted) {
      if (have) tokens.push_back(cur);
      cur.clear();
      have = false;
    } else {
      cur += c;
      have = true;
    }
  }
  if (have) tokens.push_back(cur);
  return tokens;
}

std::string join(const std::vector<std::string>& tokens, std::size_t from) {
  std::string out;
  for (std::size_t i = from; i < tokens.size(); ++i) {
    if (i > from) out += ' ';
    out += tokens[i];
  }
  return out;
}

void print_help() {
  std::fputs(flow::PassRegistry::instance().help().c_str(), stdout);
  std::fputs(
      " shell built-ins:\n"
      "  flow \"<spec>\"        run a whole pipeline, e.g.\n"
      "                        flow \"gen:adder,bits=16; compress2rs; "
      "mch; map_lut:k=6; cec\"\n"
      "  help                  this text\n"
      "  quit | exit\n"
      "commands separate with newlines or ';'; args are positional or "
      "key=value\n",
      stdout);
}

/// Executes one tokenized command.  Returns false on error (unknown
/// command, bad arguments, failed pass).
bool execute(flow::FlowContext& ctx, const std::vector<std::string>& tokens,
             bool* quit) {
  const std::string& cmd = tokens[0];
  if (cmd == "quit" || cmd == "exit") {
    *quit = true;
    return true;
  }
  if (cmd == "help") {
    print_help();
    return true;
  }
  if (cmd == "flow") {
    if (tokens.size() < 2) {
      std::printf("flow: missing spec (flow \"a; b; c\")\n");
      return false;
    }
    try {
      const flow::Flow f = flow::Flow::parse(join(tokens, 1));
      const flow::FlowReport report = f.run(ctx);
      std::printf("flow: %s (%zu stages, %.2fs)\n",
                  report.ok ? "ok" : "FAILED", report.stages.size(),
                  report.total_seconds);
      return report.ok;
    } catch (const flow::FlowError& e) {
      std::printf("flow: %s\n", e.what());
      return false;
    }
  }
  const flow::PassInfo* pass = flow::PassRegistry::instance().find(cmd);
  if (!pass) {
    std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
    return false;
  }
  try {
    const flow::PassArgs args = flow::PassArgs::bind(
        *pass, {tokens.begin() + 1, tokens.end()});
    return flow::run_stage(ctx, *pass, args).ok;
  } catch (const flow::FlowError& e) {
    std::printf("%s\n", e.what());
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // MCS_TRACE=<file>: record spans for the whole session, dump at exit.
  obs::init_from_env();
  flow::FlowContext ctx;
  ctx.verbose = true;

  std::istream* in = &std::cin;
  std::ifstream file;
  bool batch = !isatty(fileno(stdin));
  if (argc > 1) {
    file.open(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    in = &file;
    batch = true;
  }
  if (!batch) std::printf("mcs shell -- type 'help' for commands\n");

  bool quit = false;
  std::string line;
  while (!quit && std::getline(*in, line)) {
    // Whole-line comments are skipped before ';' splitting, so a '#'
    // line may mention ';' without its tail running as a command.
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    for (const std::string& one : split_outside_quotes(line, ';')) {
      if (quit) break;
      const std::vector<std::string> tokens = tokenize(one);
      if (tokens.empty() || tokens[0][0] == '#') continue;
      if (!execute(ctx, tokens, &quit) && batch) {
        std::fprintf(stderr, "mcs_shell: stopping on failed command '%s'\n",
                     tokens[0].c_str());
        return 1;
      }
    }
  }
  return 0;
}
