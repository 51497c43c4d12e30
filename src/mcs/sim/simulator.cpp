#include "mcs/sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "mcs/common/hash.hpp"
#include "mcs/common/rng.hpp"
#include "mcs/obs/obs.hpp"
#include "mcs/par/thread_pool.hpp"

namespace mcs {

namespace {

/// Minimum gates on one level before the sweep fans that level out; below
/// this the submit_bulk bookkeeping costs more than the evaluation.
constexpr std::size_t kParallelGrain = 128;

}  // namespace

RandomSimulation::RandomSimulation(const Network& net, int num_words,
                                   std::uint64_t seed, int num_threads,
                                   int reserve_extra_words)
    : net_(net),
      num_words_(num_words),
      // The stride stays tight here; the reserve is only a *budget* and
      // materializes lazily in restride_to_budget() on the first
      // add_pattern_words() -- sweeps without counterexamples never touch
      // (or zero-fill) the reserved columns.
      capacity_words_(num_words),
      budget_words_(num_words + std::max(0, reserve_extra_words)) {
  obs::Span span("sim:random");
  // gate-words: one 64-pattern word evaluated for one gate.
  obs::counter("sim.gate_words")
      .add(static_cast<std::uint64_t>(net.num_gates()) *
           static_cast<std::uint64_t>(num_words));
  values_.assign(net.size() * static_cast<std::size_t>(capacity_words_),
                 0ull);

  // PI words are a pure function of (seed, interface index) -- never of a
  // shared generator's draw order -- so any evaluation schedule (and any
  // network with the same PI count) sees identical input vectors.
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    Rng rng(hash_combine(hash_mix64(seed), i + 1));
    std::uint64_t* w = mutable_values(net.pi_at(i));
    for (int k = 0; k < num_words_; ++k) w[k] = rng.next();
  }

  auto eval = [&](NodeId n) { eval_node(n, 0, num_words_); };

  const std::size_t threads = ThreadPool::resolve_threads(num_threads);
  if (threads <= 1) {
    // The node array is a topological order by construction.
    for (NodeId n = 0; n < net.size(); ++n) {
      if (net.is_gate(n)) eval(n);
    }
    return;
  }

  // Level-blocked parallel sweep: gates of one level depend only on lower
  // levels (fanin levels are strictly smaller), so each level block fans
  // out freely; blocks run in ascending level order.  Every gate writes
  // exactly its own words, so values are bit-identical to the serial sweep
  // for any thread count.  Levels are used instead of a plain node-range
  // split because node ids within a level are NOT contiguous.
  std::uint32_t max_level = 0;
  std::size_t num_gates = 0;
  for (NodeId n = 0; n < net.size(); ++n) {
    if (!net.is_gate(n)) continue;
    max_level = std::max(max_level, net.level(n));
    ++num_gates;
  }
  std::vector<std::size_t> offset(max_level + 2, 0);
  for (NodeId n = 0; n < net.size(); ++n) {
    if (net.is_gate(n)) ++offset[net.level(n) + 1];
  }
  for (std::size_t l = 1; l < offset.size(); ++l) offset[l] += offset[l - 1];
  std::vector<NodeId> by_level(num_gates);
  {
    std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
    for (NodeId n = 0; n < net.size(); ++n) {
      if (net.is_gate(n)) by_level[cursor[net.level(n)]++] = n;
    }
  }

  ThreadPool& pool = ThreadPool::global();
  for (std::uint32_t l = 1; l <= max_level; ++l) {
    const std::size_t begin = offset[l];
    const std::size_t count = offset[l + 1] - begin;
    if (count == 0) continue;
    if (count < 2 * kParallelGrain) {
      for (std::size_t k = 0; k < count; ++k) eval(by_level[begin + k]);
      continue;
    }
    const std::size_t chunks =
        std::min(threads * 2, (count + kParallelGrain - 1) / kParallelGrain);
    const std::size_t chunk = (count + chunks - 1) / chunks;
    pool.submit_bulk(
        chunks,
        [&](std::size_t c) {
          const std::size_t lo = begin + c * chunk;
          const std::size_t hi = std::min(begin + count, lo + chunk);
          for (std::size_t k = lo; k < hi; ++k) eval(by_level[k]);
        },
        threads);
  }
}

void RandomSimulation::eval_node(NodeId n, int begin_word,
                                 int end_word) noexcept {
  const Node& nd = net_.node(n);
  std::array<const std::uint64_t*, 3> in{};
  std::array<std::uint64_t, 3> flip{};
  for (int k = 0; k < nd.num_fanins; ++k) {
    in[k] = node_values(nd.fanin[k].node());
    flip[k] = nd.fanin[k].complemented() ? ~0ull : 0ull;
  }
  eval_gate_words(nd.type, in, flip, mutable_values(n), begin_word, end_word);
}

void RandomSimulation::add_pattern_words(
    const std::vector<std::uint64_t>& pi_words, int count) {
  assert(count >= 1);
  assert(pi_words.size() == net_.num_pis() * static_cast<std::size_t>(count));
  // A silent overrun would spill words into the next node's value row and
  // corrupt its signatures (unsound merges downstream) -- fail loudly even
  // in Release builds.
  if (count < 1 || count > spare_words()) {
    throw std::length_error("RandomSimulation::add_pattern_words: " +
                            std::to_string(count) + " words requested, " +
                            std::to_string(spare_words()) + " reserved");
  }
  restride_to_budget();
  const int w0 = num_words_;
  for (std::size_t i = 0; i < net_.num_pis(); ++i) {
    std::uint64_t* w = mutable_values(net_.pi_at(i));
    for (int k = 0; k < count; ++k) {
      w[w0 + k] = pi_words[static_cast<std::size_t>(k) * net_.num_pis() + i];
    }
  }
  // A handful of words across the whole network is cheap; the serial
  // ascending-id sweep (a valid topological order) keeps the result
  // trivially deterministic.
  for (NodeId n = 0; n < net_.size(); ++n) {
    if (net_.is_gate(n)) eval_node(n, w0, w0 + count);
  }
  num_words_ += count;
  obs::counter("sim.gate_words")
      .add(static_cast<std::uint64_t>(net_.num_gates()) *
           static_cast<std::uint64_t>(count));
}

void RandomSimulation::restride_to_budget() {
  if (capacity_words_ == budget_words_) return;
  std::vector<std::uint64_t> wide(
      net_.size() * static_cast<std::size_t>(budget_words_), 0ull);
  for (std::size_t n = 0; n < net_.size(); ++n) {
    const std::uint64_t* src = values_.data() + n * capacity_words_;
    std::uint64_t* dst = wide.data() + n * budget_words_;
    std::copy(src, src + num_words_, dst);
  }
  values_ = std::move(wide);
  capacity_words_ = budget_words_;
  obs::counter("sim.restrides").increment();
}

std::uint64_t RandomSimulation::signature(Signal s) const noexcept {
  const std::uint64_t flip = s.complemented() ? ~0ull : 0ull;
  const std::uint64_t* w = node_values(s.node());
  std::uint64_t h = 0x12345678u;
  for (int i = 0; i < num_words_; ++i) h = hash_combine(h, w[i] ^ flip);
  return h;
}

bool RandomSimulation::values_equal(Signal a, Signal b) const noexcept {
  const std::uint64_t* wa = node_values(a.node());
  const std::uint64_t* wb = node_values(b.node());
  const std::uint64_t flip =
      (a.complemented() != b.complemented()) ? ~0ull : 0ull;
  for (int i = 0; i < num_words_; ++i) {
    if ((wa[i] ^ flip) != wb[i]) return false;
  }
  return true;
}

std::ptrdiff_t sim_falsify(const Network& a, const Network& b, int num_words,
                           std::uint64_t seed, int num_threads) {
  assert(a.num_pis() == b.num_pis());
  assert(a.num_pos() == b.num_pos());
  const RandomSimulation sa(a, num_words, seed, num_threads);
  const RandomSimulation sb(b, num_words, seed, num_threads);
  for (std::size_t i = 0; i < a.num_pos(); ++i) {
    const Signal pa = a.po_at(i);
    const Signal pb = b.po_at(i);
    const std::uint64_t flip =
        pa.complemented() != pb.complemented() ? ~0ull : 0ull;
    const std::uint64_t* wa = sa.node_values(pa.node());
    const std::uint64_t* wb = sb.node_values(pb.node());
    for (int w = 0; w < num_words; ++w) {
      if ((wa[w] ^ flip) != wb[w]) return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

std::vector<TruthTable> simulate_pos(const Network& net) {
  const int n = static_cast<int>(net.num_pis());
  assert(n <= TruthTable::kMaxVars);

  std::vector<TruthTable> value(net.size(), TruthTable(n));
  for (int i = 0; i < n; ++i) {
    value[net.pi_at(i)] = TruthTable::projection(i, n);
  }
  for (NodeId id = 0; id < net.size(); ++id) {
    const Node& nd = net.node(id);
    if (!net.is_gate(id)) continue;
    std::array<TruthTable, 3> in;
    for (int i = 0; i < nd.num_fanins; ++i) {
      in[i] = value[nd.fanin[i].node()];
      if (nd.fanin[i].complemented()) in[i] = ~in[i];
    }
    switch (nd.type) {
      case GateType::kAnd2:
        value[id] = in[0] & in[1];
        break;
      case GateType::kXor2:
        value[id] = in[0] ^ in[1];
        break;
      case GateType::kMaj3:
        value[id] = (in[0] & in[1]) | (in[0] & in[2]) | (in[1] & in[2]);
        break;
      case GateType::kXor3:
        value[id] = in[0] ^ in[1] ^ in[2];
        break;
      default:
        break;
    }
  }

  std::vector<TruthTable> pos;
  pos.reserve(net.num_pos());
  for (const Signal s : net.pos()) {
    TruthTable t = value[s.node()];
    if (s.complemented()) t = ~t;
    pos.push_back(std::move(t));
  }
  return pos;
}

}  // namespace mcs
