/// \file partition.hpp
/// \brief Network partitioning for parallel synthesis.
///
/// A combinational network is split into self-contained shards; every shard
/// is an ordinary Network, so each existing single-threaded pass --
/// optimization scripts, MCH construction, the mappers -- runs on a shard
/// unchanged.  The network is sliced into level windows: horizontal bands
/// by gate level.  Boundary PIs/POs sit at *internal* nodes (a shard PI
/// stands for the non-complemented function of a lower band's node), so no
/// gate is ever duplicated: total shard work equals network size
/// regardless of structure, even on globally shared structures such as a
/// multiplier array.
///
/// Determinism contract: partitioning depends only on the input network
/// and the parameters, and reassemble() stitches shards back in fixed
/// partition order, re-strashing every gate through Network::create_gate.
/// Results are therefore bit-identical regardless of how many threads
/// later process the shards.

#pragma once

#include <cstddef>
#include <vector>

#include "mcs/network/network.hpp"

namespace mcs {

struct PartitionParams {
  /// Soft cap on the gate count of one shard: the band count is chosen as
  /// ceil(gates / max_gates).
  std::size_t max_gates = 4000;

  /// Carry choice classes into the shards (members ride with their
  /// representative's shard), so choice-aware passes see them;
  /// reassemble() carries them back.
  bool keep_choices = false;

  /// Worker threads for the shard *construction* phase (banding stays
  /// serial; building the per-shard Networks fans out).  Values < 1
  /// resolve through ThreadPool::resolve_threads (MCS_THREADS / hardware).
  /// The result is bit-identical for any value.
  int num_threads = 1;
};

/// One shard.  The boundary is expressed in *source node* terms: shard
/// PI i realizes the non-complemented function of source node inputs[i]
/// (an original PI or an internal node of a lower band); shard PO j
/// computes the non-complemented function of source node outputs[j].
/// Passes run on `net` may restructure it freely as long as the PI/PO
/// interface (count, order, function) is preserved.
struct Partition {
  Network net;
  std::vector<NodeId> inputs;
  std::vector<NodeId> outputs;
};

struct PartitionSet {
  std::vector<Partition> parts;
};

/// Splits \p net into level-window shards (see file comment).  The cone of
/// every PO of \p net is covered; shards are ordered bottom-up, so within
/// reassemble() a shard only consumes boundary nodes produced by earlier
/// shards or original PIs.
PartitionSet partition_network(const Network& net,
                               const PartitionParams& params = {});

struct ReassembleOptions {
  /// Worker threads for the per-shard preparation phase (cone collection
  /// over each shard network).  The merge into the destination strash table
  /// itself stays a deterministic ordered pass.  Bit-identical for any
  /// value; values < 1 resolve through ThreadPool::resolve_threads.
  int num_threads = 1;
};

/// Stitches the (possibly rewritten) shard networks of \p parts back into
/// one network with the PI/PO interface and names of \p source.  Shards
/// are processed in fixed partition order and every gate is re-strashed,
/// which deterministically merges structurally identical logic that
/// different shards produce.  Whatever choice classes the shards hold come
/// along through copy_choices(): classes partition_network() carried in
/// (PartitionParams::keep_choices) and those a choice pass added.
/// Transforms return choice-free shards, so their results have none.
Network reassemble(const Network& source, const PartitionSet& parts,
                   const ReassembleOptions& opts = {});

}  // namespace mcs
