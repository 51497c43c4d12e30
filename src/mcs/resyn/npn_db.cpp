#include "mcs/resyn/npn_db.hpp"

#include <cassert>
#include <map>

#include "mcs/network/network_utils.hpp"
#include "mcs/obs/obs.hpp"
#include "mcs/resyn/sop.hpp"
#include "mcs/resyn/strategies.hpp"

namespace mcs {

namespace {

/// Depth of a signal's cone in a scratch network whose levels are exact.
std::uint32_t cone_depth(const Network& net, Signal s) {
  return net.node(s.node()).level;
}

}  // namespace

const NpnDatabase::Entry& NpnDatabase::entry_for(Tt6 canon) {
  const auto key = static_cast<std::uint16_t>(canon & tt6_mask(4));
  if (auto it = classes_.find(key); it != classes_.end()) return it->second;

  // Lazy class synthesis fills a shared (thread-local) cache whose cost is
  // amortized over every later caller -- it is not work of the job that
  // happens to miss first.  Detach metric attribution for the synthesis so
  // per-job deltas stay bit-identical regardless of cache warmth (the
  // process-wide registry still sees the counters).
  obs::Scope detached(nullptr);

  // Synthesize the canonical function with each candidate strategy into its
  // own scratch network; keep the best under the objective.
  const TruthTable f = TruthTable::from_tt6(canon, 4);

  const SopStrategy sop;
  const DsdStrategy dsd;
  const ShannonStrategy shannon;
  const ResynStrategy* candidates[] = {&sop, &dsd, &shannon};

  Entry best;
  bool have_best = false;
  for (const ResynStrategy* strat : candidates) {
    Entry e;
    std::vector<Signal> leaves;
    for (int i = 0; i < 4; ++i) leaves.push_back(e.net.create_pi());
    const auto root = strat->synthesize(e.net, basis_, f, leaves);
    assert(root.has_value());
    e.root = *root;
    e.depth = cone_depth(e.net, e.root);
    e.cone = topo_order(e.net, {e.root});
    std::erase_if(e.cone, [&](NodeId n) { return !e.net.is_gate(n); });
    const auto cost = [this](const Entry& x) {
      const std::size_t size = x.cone.size();
      const auto depth = static_cast<std::size_t>(x.depth);
      return objective_ == Objective::kLevel ? std::make_pair(depth, size)
                                             : std::make_pair(size, depth);
    };
    if (!have_best || cost(e) < cost(best)) {
      best = std::move(e);
      have_best = true;
    }
  }
  assert(have_best);
  return classes_.emplace(key, std::move(best)).first->second;
}

std::optional<Signal> NpnDatabase::instantiate(
    Network& net, Tt6 f, int num_vars, const std::vector<Signal>& leaves) {
  assert(static_cast<int>(leaves.size()) == num_vars);
  if (num_vars > 4) return std::nullopt;

  // Work in the 4-variable space (pad with vacuous variables).
  const Tt6 f4 = tt6_replicate(f, num_vars);
  const auto& canon = canon_cache_.canonicalize(f4);
  const Entry& entry = entry_for(canon.canon);

  // f(u) = out ^ canon(z) with z_j = u[perm[j]] ^ flips[perm[j]]
  // (composition of the canonicalizing transform with the identity).
  NpnTransform identity;
  identity.num_vars = 4;
  const NpnMatch m = npn_match(canon.transform, identity);

  std::vector<Signal> map(entry.net.size());
  for (int j = 0; j < 4; ++j) {
    const int leaf = m.pin_to_leaf[j];
    // Vacuous positions (beyond num_vars) can be fed anything.
    Signal s = leaf < num_vars ? leaves[leaf] : net.constant(false);
    if (m.pin_negation & (1u << j)) s = !s;
    map[entry.net.pi_at(j)] = s;
  }
  copy_gates(entry.net, entry.cone, net, map);
  return map[entry.root.node()] ^ entry.root.complemented() ^
         m.output_negation;
}

NpnDatabase& NpnDatabase::shared(GateBasis basis, Objective objective) {
  // One instance per (basis, objective) *per thread*: lookups mutate the
  // database (lazy class synthesis + canonicalization cache), so sharing
  // across mcs::par workers would need a lock on the hot path.  Entries are
  // pure functions of the key, so per-thread copies are bit-identical and
  // parallel results stay independent of the thread count; the 222-class
  // NPN-4 space makes the duplication cheap.
  static thread_local std::map<std::pair<int, int>, NpnDatabase> instances;
  const int basis_key = (basis.use_xor ? 1 : 0) | (basis.use_maj ? 2 : 0);
  const auto key = std::make_pair(basis_key, static_cast<int>(objective));
  auto it = instances.find(key);
  if (it == instances.end()) {
    it = instances.emplace(key, NpnDatabase(basis, objective)).first;
  }
  return it->second;
}

}  // namespace mcs
