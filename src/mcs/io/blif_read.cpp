#include "mcs/io/blif_read.hpp"

#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "mcs/fail/fail.hpp"
#include "mcs/network/network_utils.hpp"

namespace mcs {

namespace {

struct NamesBlock {
  std::vector<std::string> inputs;
  std::string output;
  std::vector<std::pair<std::string, char>> rows;  // (input pattern, value)
};

/// Builds the cover of one .names block over already-resolved signals.
Signal build_cover(Network& net, const NamesBlock& block,
                   const std::vector<Signal>& inputs) {
  // BLIF covers list either the onset ("... 1") or the offset ("... 0");
  // mixing is illegal.
  bool has_on = false, has_off = false;
  for (const auto& [pattern, value] : block.rows) {
    (value == '1' ? has_on : has_off) = true;
  }
  if (has_on && has_off) {
    throw std::runtime_error("blif: mixed onset/offset cover for " +
                             block.output);
  }
  if (block.rows.empty()) return net.constant(false);  // empty onset

  Signal sum = net.constant(false);
  for (const auto& [pattern, value] : block.rows) {
    if (pattern.size() != block.inputs.size()) {
      throw std::runtime_error("blif: row width mismatch for " +
                               block.output);
    }
    Signal term = net.constant(true);
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      if (pattern[i] == '-') continue;
      if (pattern[i] != '0' && pattern[i] != '1') {
        throw std::runtime_error("blif: bad cover character");
      }
      term = net.create_and(term, inputs[i] ^ (pattern[i] == '0'));
    }
    sum = net.create_or(sum, term);
  }
  return has_off ? !sum : sum;
}

}  // namespace

Network read_blif(std::istream& is) {
  fail::point("io.read.blif");
  // Join continuation lines and tokenize.
  std::vector<std::vector<std::string>> lines;
  {
    std::string raw, joined;
    while (std::getline(is, raw)) {
      if (const auto hash = raw.find('#'); hash != std::string::npos) {
        raw.resize(hash);
      }
      const bool cont = !raw.empty() && raw.back() == '\\';
      if (cont) raw.pop_back();
      joined += raw;
      if (cont) continue;
      std::istringstream ls(joined);
      std::vector<std::string> tok;
      std::string t;
      while (ls >> t) tok.push_back(t);
      if (!tok.empty()) lines.push_back(std::move(tok));
      joined.clear();
    }
  }

  std::vector<std::string> input_names, output_names;
  std::vector<NamesBlock> blocks;
  NamesBlock* current = nullptr;

  for (auto& tok : lines) {
    const std::string& kw = tok[0];
    if (kw == ".model" || kw == ".end") {
      current = nullptr;
    } else if (kw == ".inputs") {
      input_names.insert(input_names.end(), tok.begin() + 1, tok.end());
      current = nullptr;
    } else if (kw == ".outputs") {
      output_names.insert(output_names.end(), tok.begin() + 1, tok.end());
      current = nullptr;
    } else if (kw == ".names") {
      if (tok.size() < 2) throw std::runtime_error("blif: empty .names");
      NamesBlock b;
      b.inputs.assign(tok.begin() + 1, tok.end() - 1);
      b.output = tok.back();
      blocks.push_back(std::move(b));
      current = &blocks.back();
    } else if (kw == ".latch" || kw == ".subckt" || kw == ".gate") {
      throw std::runtime_error("blif: unsupported construct " + kw);
    } else if (kw[0] == '.') {
      current = nullptr;  // ignore other dot directives
    } else {
      // A cover row.
      if (current == nullptr) {
        throw std::runtime_error("blif: cover row outside .names");
      }
      if (tok.size() == 1) {
        // Constant block: single output column.
        current->rows.push_back({"", tok[0][0]});
      } else if (tok.size() == 2) {
        current->rows.push_back({tok[0], tok[1][0]});
      } else {
        throw std::runtime_error("blif: malformed cover row");
      }
    }
  }

  // Resolve blocks in dependency order (BLIF allows any order).
  Network net;
  std::unordered_map<std::string, Signal> signal_of;
  for (const auto& name : input_names) {
    signal_of.emplace(name, net.create_pi(name));
  }
  std::unordered_map<std::string, const NamesBlock*> block_of;
  for (const auto& b : blocks) {
    if (!block_of.emplace(b.output, &b).second) {
      throw std::runtime_error("blif: multiple drivers for " + b.output);
    }
  }

  // Iterative DFS resolution; the frame stack is exactly the current path,
  // so path membership detects combinational cycles precisely.
  struct Frame {
    const NamesBlock* block;
    std::size_t next_input = 0;
  };
  std::unordered_map<std::string, bool> on_path;
  auto resolve = [&](const std::string& name) {
    if (signal_of.count(name)) return;
    const auto it = block_of.find(name);
    if (it == block_of.end()) {
      throw std::runtime_error("blif: undriven signal " + name);
    }
    std::vector<Frame> stack{{it->second}};
    on_path[name] = true;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const NamesBlock* b = f.block;
      // Advance past already-resolved inputs.
      while (f.next_input < b->inputs.size() &&
             signal_of.count(b->inputs[f.next_input])) {
        ++f.next_input;
      }
      if (f.next_input < b->inputs.size()) {
        const std::string& in = b->inputs[f.next_input];
        const auto bit = block_of.find(in);
        if (bit == block_of.end()) {
          throw std::runtime_error("blif: undriven signal " + in);
        }
        if (on_path[in]) {
          throw std::runtime_error("blif: combinational cycle at " + in);
        }
        on_path[in] = true;
        stack.push_back({bit->second});
        continue;
      }
      std::vector<Signal> ins;
      ins.reserve(b->inputs.size());
      for (const auto& in : b->inputs) ins.push_back(signal_of.at(in));
      signal_of[b->output] = build_cover(net, *b, ins);
      on_path[b->output] = false;
      stack.pop_back();
    }
  };

  for (const auto& name : output_names) {
    resolve(name);
    net.create_po(signal_of.at(name), name);
  }
  return cleanup(net);
}

}  // namespace mcs
