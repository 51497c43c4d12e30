#include "mcs/par/partition.hpp"

#include <algorithm>
#include <cassert>

#include "mcs/network/network_utils.hpp"
#include "mcs/par/thread_pool.hpp"

namespace mcs {

namespace {

constexpr std::uint32_t kNoBand = 0xffffffffu;

/// Reverse PI lookup (node id -> interface position), shared by all
/// shards of one partitioning run.
std::vector<std::size_t> pi_ordinals(const Network& net) {
  std::vector<std::size_t> ord(net.size(), 0);
  for (std::size_t i = 0; i < net.num_pis(); ++i) ord[net.pi_at(i)] = i;
  return ord;
}

/// Builds one shard from \p gates (ascending-id gate subset of \p net;
/// membership in \p in_shard).  Every fanin outside the shard -- original
/// PI or lower-shard node -- becomes a boundary PI; gates with
/// \p exported set become boundary POs.  Reads \p net and the shared
/// arrays only, so distinct shards build concurrently.
Partition build_shard(const Network& net, const std::vector<NodeId>& gates,
                      const std::vector<bool>& in_shard,
                      const std::vector<bool>& exported, bool keep_choices,
                      const std::vector<std::size_t>& pi_ordinal) {
  Partition part;

  // Boundary inputs, deduplicated, in ascending source-node order.
  std::vector<NodeId> ext;
  {
    std::vector<bool> seen(net.size(), false);
    for (const NodeId n : gates) {
      const Node& nd = net.node(n);
      for (int i = 0; i < nd.num_fanins; ++i) {
        const NodeId f = nd.fanin[i].node();
        if (net.is_const0(f) || in_shard[f] || seen[f]) continue;
        seen[f] = true;
        ext.push_back(f);
      }
    }
    std::sort(ext.begin(), ext.end());
  }

  std::vector<Signal> map(net.size());
  part.net.reserve(1 + ext.size() + gates.size());
  for (const NodeId f : ext) {
    map[f] = part.net.create_pi(net.is_pi(f) ? net.pi_name(pi_ordinal[f])
                                             : std::string{});
    part.inputs.push_back(f);
  }

  copy_gates(net, gates, part.net, map);
  if (keep_choices) copy_choices(net, gates, part.net, map);

  for (const NodeId n : gates) {
    if (!exported[n]) continue;
    part.net.create_po(map[n]);
    part.outputs.push_back(n);
  }
  return part;
}

/// Builds the shards for \p shard_gates (one ascending-id gate list each;
/// empty lists yield no shard) on up to \p num_threads workers and appends
/// them to \p set in list order.  This is the parallel section of
/// partitioning: banding is a cheap serial sweep, while building a shard
/// re-strashes every one of its gates.
void build_shards(const Network& net,
                  const std::vector<std::vector<NodeId>>& shard_gates,
                  const std::vector<bool>& exported, bool keep_choices,
                  int num_threads, PartitionSet& set) {
  const std::vector<std::size_t> pi_ordinal = pi_ordinals(net);
  const std::size_t threads = ThreadPool::resolve_threads(num_threads);
  std::vector<Partition> built(shard_gates.size());
  ThreadPool::global().submit_bulk(
      shard_gates.size(),
      [&](std::size_t i) {
        const std::vector<NodeId>& gates = shard_gates[i];
        if (gates.empty()) return;
        std::vector<bool> in_shard(net.size(), false);
        for (const NodeId n : gates) in_shard[n] = true;
        built[i] = build_shard(net, gates, in_shard, exported, keep_choices,
                               pi_ordinal);
      },
      threads);
  for (std::size_t i = 0; i < built.size(); ++i) {
    if (!shard_gates[i].empty()) set.parts.push_back(std::move(built[i]));
  }
}

}  // namespace

PartitionSet partition_network(const Network& net,
                               const PartitionParams& params) {
  PartitionSet set;
  if (net.num_pos() == 0) return set;

  // PO-reachable gates through fanin edges: the "regular" structure.
  // Choice members are not PO-reachable and are banded with their
  // representative below.
  std::vector<bool> regular(net.size(), false);
  std::size_t num_regular = 0;
  for (const NodeId n : topo_order(net)) {
    if (net.is_gate(n)) {
      regular[n] = true;
      ++num_regular;
    }
  }
  const std::uint32_t depth = net.depth();
  if (num_regular == 0 || depth == 0) return set;

  std::size_t want =
      (num_regular + params.max_gates - 1) / std::max<std::size_t>(
                                                 1, params.max_gates);
  want = std::max<std::size_t>(1, want);
  const std::uint32_t width = std::max<std::uint32_t>(
      1, (depth + static_cast<std::uint32_t>(want) - 1) /
             static_cast<std::uint32_t>(want));
  const std::uint32_t num_bands = (depth + width - 1) / width;

  std::vector<std::uint32_t> band(net.size(), kNoBand);
  for (NodeId n = 0; n < net.size(); ++n) {
    if (!regular[n]) continue;
    band[n] = std::min((net.level(n) - 1) / width, num_bands - 1);
  }

  // Choice members ride in their representative's band.  A member cone is
  // every node reachable from the member that is not regular; it may only
  // consume regular nodes of the same or lower bands (always true for MCH
  // candidates, which are built over cut/MFFC leaves of the
  // representative) -- violating members are dropped.
  std::vector<std::vector<NodeId>> extra(num_bands);
  if (params.keep_choices) {
    std::vector<std::uint32_t> extra_band(net.size(), kNoBand);
    std::vector<NodeId> cone;
    std::vector<NodeId> stack;
    for (NodeId n = 0; n < net.size(); ++n) {
      if (!regular[n] || !net.is_repr(n)) continue;
      const std::uint32_t b = band[n];
      for (NodeId m = net.node(n).next_choice; m != kNullNode;
           m = net.node(m).next_choice) {
        cone.clear();
        bool fits = true;
        if (extra_band[m] != b && !regular[m]) {
          stack.push_back(m);
          while (!stack.empty()) {
            const NodeId c = stack.back();
            stack.pop_back();
            if (extra_band[c] == b) continue;
            extra_band[c] = b;
            cone.push_back(c);
            const Node& cd = net.node(c);
            for (int i = 0; i < cd.num_fanins; ++i) {
              const NodeId f = cd.fanin[i].node();
              if (net.is_const0(f) || net.is_pi(f)) continue;
              if (regular[f]) {
                if (band[f] > b) fits = false;
                continue;
              }
              if (extra_band[f] != b) stack.push_back(f);
            }
          }
        }
        if (fits) {
          extra[b].insert(extra[b].end(), cone.begin(), cone.end());
        } else {
          // Un-stamp so a later class in this band can still adopt the
          // shared nodes it can legally host.
          for (const NodeId c : cone) extra_band[c] = kNoBand;
        }
      }
    }
  }

  // Exports: a regular gate consumed by any higher band (through regular
  // fanins or member cones) or rooting a source PO.
  std::vector<bool> exported(net.size(), false);
  for (const auto s : net.pos()) {
    if (net.is_gate(s.node())) exported[s.node()] = true;
  }
  auto mark_uses = [&](NodeId n, std::uint32_t consumer_band) {
    const Node& nd = net.node(n);
    for (int i = 0; i < nd.num_fanins; ++i) {
      const NodeId f = nd.fanin[i].node();
      if (regular[f] && band[f] < consumer_band) exported[f] = true;
    }
  };
  for (NodeId n = 0; n < net.size(); ++n) {
    if (regular[n]) mark_uses(n, band[n]);
  }
  for (std::uint32_t b = 0; b < num_bands; ++b) {
    for (const NodeId n : extra[b]) mark_uses(n, b);
  }

  // Per-band gate lists in one sweep (the old code swept the whole node
  // array once per band), then the parallel shard build.
  std::vector<std::vector<NodeId>> shard_gates(num_bands);
  for (NodeId n = 0; n < net.size(); ++n) {
    if (regular[n]) shard_gates[band[n]].push_back(n);
  }
  for (std::uint32_t b = 0; b < num_bands; ++b) {
    if (extra[b].empty()) continue;
    shard_gates[b].insert(shard_gates[b].end(), extra[b].begin(),
                          extra[b].end());
    std::sort(shard_gates[b].begin(), shard_gates[b].end());
  }

  build_shards(net, shard_gates, exported, params.keep_choices,
               params.num_threads, set);
  return set;
}

Network reassemble(const Network& source, const PartitionSet& parts,
                   const ReassembleOptions& opts) {
  // Parallel preparation: collect each shard's PO cone with the member
  // cones of the classes it reaches (the node set the ordered merge will
  // copy, classes included).  Shard networks are distinct objects and the
  // collection uses task-local scratch, so shards prepare concurrently; the
  // merge below stays a single deterministic ordered pass over the results.
  const std::size_t num_parts = parts.parts.size();
  std::vector<std::vector<NodeId>> shard_nodes(num_parts);
  ThreadPool::global().submit_bulk(
      num_parts,
      [&](std::size_t i) {
        const Network& sn = parts.parts[i].net;
        std::vector<NodeId> roots;
        roots.reserve(sn.num_pos());
        for (const auto s : sn.pos()) roots.push_back(s.node());
        std::vector<char> seen;
        shard_nodes[i] = collect_cone_nodes(sn, roots, /*follow_choices=*/true,
                                            seen);
      },
      ThreadPool::resolve_threads(opts.num_threads));

  Network dst;
  std::size_t total_nodes = 1 + source.num_pis();
  for (const Partition& part : parts.parts) {
    total_nodes += part.net.num_gates();
  }
  dst.reserve(total_nodes);
  std::vector<Signal> map(source.size());
  std::vector<bool> have(source.size(), false);
  map[0] = dst.constant(false);
  have[0] = true;
  for (std::size_t i = 0; i < source.num_pis(); ++i) {
    map[source.pi_at(i)] = dst.create_pi(source.pi_name(i));
    have[source.pi_at(i)] = true;
  }

  for (std::size_t i = 0; i < num_parts; ++i) {
    const Partition& part = parts.parts[i];
    const Network& sn = part.net;
    assert(sn.num_pis() == part.inputs.size() &&
           "pass changed a shard's PI interface");
    assert(sn.num_pos() == part.outputs.size() &&
           "pass changed a shard's PO interface");

    std::vector<Signal> smap(sn.size());
    for (std::size_t j = 0; j < sn.num_pis(); ++j) {
      assert(have[part.inputs[j]] && "shard consumes an unresolved boundary");
      smap[sn.pi_at(j)] = map[part.inputs[j]];
    }

    const std::vector<NodeId>& nodes = shard_nodes[i];
    copy_gates(sn, nodes, dst, smap);
    copy_choices(sn, nodes, dst, smap);

    for (std::size_t j = 0; j < sn.num_pos(); ++j) {
      const Signal s = sn.po_at(j);
      map[part.outputs[j]] = smap[s.node()] ^ s.complemented();
      have[part.outputs[j]] = true;
    }
  }

  for (std::size_t i = 0; i < source.num_pos(); ++i) {
    const Signal s = source.po_at(i);
    assert(have[s.node()] && "source PO not covered by any shard");
    dst.create_po(map[s.node()] ^ s.complemented(), source.po_name(i));
  }
  return dst;
}

}  // namespace mcs
