#include "mcs/par/par_engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <numeric>
#include <utility>
#include <vector>

#include "mcs/common/hash.hpp"
#include "mcs/obs/obs.hpp"
#include "mcs/par/thread_pool.hpp"
#include "mcs/tt/tt6.hpp"

namespace mcs {

namespace {

/// Largest-shard-first claim order: with shards of mixed sizes, a big shard
/// scheduled last would serialize the tail of the work phase.  Ties (and
/// therefore results -- scheduling never changes them) break toward the
/// lower index.
std::vector<std::uint32_t> largest_first_order(const PartitionSet& parts) {
  std::vector<std::uint32_t> order(parts.parts.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return parts.parts[a].net.num_gates() >
                            parts.parts[b].net.num_gates();
                   });
  return order;
}

/// Runs \p fn(i) for every shard index on the persistent pool, claiming the
/// biggest shards first.  Results are joined by index (the callers write
/// into indexed slots), so the output is bit-identical for any thread
/// count; exceptions surface for the smallest failing shard index.
void for_each_shard(const PartitionSet& parts, std::size_t num_threads,
                    const std::function<void(std::size_t)>& fn) {
  if (parts.parts.empty()) return;
  const std::vector<std::uint32_t> order = largest_first_order(parts);
  // Per-shard spans carry the worker attribution in trace exports (the
  // span name is only materialized when tracing is on).
  const std::function<void(std::size_t)> traced = [&](std::size_t i) {
    obs::Span span([&] { return "par:shard:" + std::to_string(i); });
    fn(i);
  };
  ThreadPool::global().submit_bulk(parts.parts.size(), traced, num_threads,
                                   order.data());
}

/// partition_network with a trace span and a run counter.
PartitionSet partition_traced(const Network& net, const PartitionParams& pp) {
  obs::Span span("par:partition");
  obs::counter("par.partition_runs").increment();
  return partition_network(net, pp);
}

void fill_stats(ParStats* stats, const PartitionSet& parts,
                std::size_t threads) {
  if (!stats) return;
  stats->num_partitions = parts.parts.size();
  stats->num_threads = threads;
}

PartitionParams partition_params(const ParParams& params,
                                 std::size_t threads) {
  PartitionParams pp = params.partition;
  pp.num_threads = static_cast<int>(threads);
  return pp;
}

/// Open-addressed structural-hash table for the LUT stitch: a merged-LUT
/// ref keyed by (function, inputs).  The keys live in the merged LUT array
/// itself; a slot stores only the 64-bit hash and the ref, so probing is
/// one flat-array scan with a full key compare just on hash hits.  Linear
/// probing, power-of-two capacity grown at ~0.7 load, no erase support
/// needed (LUTs are never removed while stitching), hence tombstone-free.
/// This replaces the old std::map<pair<Tt6, vector<int32>>> whose
/// O(log n) node-hopping and per-insert key copies dominated the stitch.
class LutStrashTable {
 public:
  LutStrashTable(const LutNetwork& merged, std::size_t expected)
      : merged_(merged) {
    std::size_t cap = kMinCapacity;
    while ((expected + 1) * 10 > cap * 7) cap <<= 1;
    slots_.assign(cap, Slot{});
  }

  static std::uint64_t hash_key(const LutNetwork::Lut& lut) noexcept {
    std::uint64_t h = hash_mix64(lut.function);
    h = hash_combine(h, lut.inputs.size());
    for (const std::int32_t in : lut.inputs) {
      h = hash_combine(h, static_cast<std::uint32_t>(in));
    }
    return h;
  }

  /// The merged ref stored for a LUT equal to \p lut, or -1.
  std::int32_t lookup(const LutNetwork::Lut& lut,
                      std::uint64_t h) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.ref < 0) return -1;
      if (s.hash == h && equal(s.ref, lut)) return s.ref;
    }
  }

  /// Inserts \p ref under \p h.  \pre the key is absent and \p ref already
  /// resolves inside merged_ (the caller pushes the LUT first).
  void insert(std::uint64_t h, std::int32_t ref) {
    if ((size_ + 1) * 10 > slots_.size() * 7) rehash(slots_.size() * 2);
    place(Slot{h, ref});
    ++size_;
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::int32_t ref = -1;  ///< -1 marks an empty slot
  };
  static constexpr std::size_t kMinCapacity = 64;  // power of two

  bool equal(std::int32_t ref, const LutNetwork::Lut& lut) const noexcept {
    const LutNetwork::Lut& other = merged_.luts[ref - merged_.num_pis];
    return other.function == lut.function && other.inputs == lut.inputs;
  }

  void place(const Slot& slot) noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = slot.hash & mask;
    while (slots_[i].ref >= 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }

  void rehash(std::size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    for (const Slot& s : old) {
      if (s.ref >= 0) place(s);
    }
  }

  const LutNetwork& merged_;
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace

Network par_run(const Network& net, const ShardPassFn& pass,
                const ParParams& params, ParStats* stats,
                const ReassembleOptions& reassemble_opts) {
  const std::size_t threads = ThreadPool::resolve_threads(params.num_threads);
  PartitionSet parts = partition_traced(net, partition_params(params, threads));
  fill_stats(stats, parts, threads);

  for_each_shard(parts, threads, [&](std::size_t i) {
    Partition& p = parts.parts[i];
    p.net = pass(p.net);
  });

  ReassembleOptions ropts = reassemble_opts;
  ropts.num_threads = static_cast<int>(threads);
  obs::Span span("par:reassemble");
  return reassemble(net, parts, ropts);
}

LutNetwork par_run_lut(const Network& net, const ShardMapFn& map_shard,
                       const ParParams& params, ParStats* stats) {
  const std::size_t threads = ThreadPool::resolve_threads(params.num_threads);
  const PartitionSet parts =
      partition_traced(net, partition_params(params, threads));
  fill_stats(stats, parts, threads);

  std::vector<LutNetwork> shard_luts(parts.parts.size());
  for_each_shard(parts, threads, [&](std::size_t i) {
    shard_luts[i] = map_shard(parts.parts[i].net);
  });

  // Stitch the shard LUT networks over the original interface.  Reference
  // space of LutNetwork: 0..num_pis-1 are the PIs, num_pis + i is luts[i].
  // Each boundary source node resolves to a (merged ref, complemented)
  // pair; a complemented boundary feeding a LUT is absorbed into that
  // LUT's function (LUT inputs carry no polarity).  LUTs are structurally
  // hashed on (function, inputs) while stitching -- the LUT-level analogue
  // of reassemble()'s re-strashing -- so a LUT identical to one already
  // stitched (same function over the same merged inputs) reuses it, and
  // constant POs share one 0-input LUT.
  obs::Span stitch_span("par:stitch");
  LutNetwork merged;
  merged.num_pis = static_cast<int>(net.num_pis());
  merged.po_refs.resize(net.num_pos(), 0);
  merged.po_compl.resize(net.num_pos(), false);
  std::size_t total_luts = 0;
  for (const LutNetwork& sl : shard_luts) total_luts += sl.luts.size();
  merged.luts.reserve(total_luts);
  LutStrashTable strash(merged, total_luts);
  auto strashed_lut = [&](LutNetwork::Lut lut) {
    const std::uint64_t h = LutStrashTable::hash_key(lut);
    const std::int32_t hit = strash.lookup(lut, h);
    if (hit >= 0) return hit;
    merged.luts.push_back(std::move(lut));
    const auto ref =
        static_cast<std::int32_t>(merged.num_pis + merged.luts.size() - 1);
    strash.insert(h, ref);
    return ref;
  };
  std::vector<std::int32_t> ref_of(net.size(), -1);
  std::vector<bool> compl_of(net.size(), false);
  for (std::size_t i = 0; i < net.num_pis(); ++i) {
    ref_of[net.pi_at(i)] = static_cast<std::int32_t>(i);
  }

  for (std::size_t i = 0; i < parts.parts.size(); ++i) {
    const Partition& p = parts.parts[i];
    const LutNetwork& sl = shard_luts[i];
    // Merged refs of this shard's LUTs (shard LUT arrays are topologically
    // ordered, so a forward pass resolves all internal references).
    std::vector<std::int32_t> shard_ref(sl.luts.size(), -1);
    auto resolve = [&](std::int32_t ref) -> std::pair<std::int32_t, bool> {
      if (ref >= sl.num_pis) return {shard_ref[ref - sl.num_pis], false};
      const NodeId src = p.inputs[ref];
      assert(ref_of[src] >= 0 && "shard consumes an unresolved boundary");
      return {ref_of[src], compl_of[src]};
    };
    for (std::size_t k = 0; k < sl.luts.size(); ++k) {
      LutNetwork::Lut copy = sl.luts[k];
      for (std::size_t in = 0; in < copy.inputs.size(); ++in) {
        const auto [ref, compl_in] = resolve(copy.inputs[in]);
        copy.inputs[in] = ref;
        if (compl_in) {
          copy.function = tt6_flip_var(copy.function, static_cast<int>(in));
        }
      }
      shard_ref[k] = strashed_lut(std::move(copy));
    }
    for (std::size_t j = 0; j < sl.po_refs.size(); ++j) {
      const auto [ref, compl_in] = resolve(sl.po_refs[j]);
      ref_of[p.outputs[j]] = ref;
      compl_of[p.outputs[j]] = compl_in ^ static_cast<bool>(sl.po_compl[j]);
    }
  }

  for (std::size_t i = 0; i < net.num_pos(); ++i) {
    const Signal s = net.po_at(i);
    if (net.is_const0(s.node())) {
      merged.po_refs[i] = strashed_lut({});  // 0-input constant-0 LUT
      merged.po_compl[i] = s.complemented();
      continue;
    }
    assert(ref_of[s.node()] >= 0 && "source PO not covered by any shard");
    merged.po_refs[i] = ref_of[s.node()];
    merged.po_compl[i] = compl_of[s.node()] ^ s.complemented();
  }
  return merged;
}

}  // namespace mcs
