/// \file par_engine.hpp
/// \brief Generic partition-parallel driver for the synthesis passes.
///
/// par_run() shards the input network with partition_network(), runs *any*
/// network->network pass on every shard via a ThreadPool, and stitches the
/// results back with reassemble().  Because shards are self-contained
/// Networks and reassembly happens in fixed partition order, the output is
/// bit-identical for any thread count (see partition.hpp for the
/// determinism contract); threads only change the wall-clock time.  The
/// flow layer's `par` meta-pass (mcs/flow) drives registered transforms and
/// choice builders through it.

#pragma once

#include <cstddef>
#include <functional>

#include "mcs/network/network.hpp"
#include "mcs/par/partition.hpp"

namespace mcs {

struct ParParams {
  /// Worker threads; values < 1 resolve to the hardware concurrency.
  int num_threads = 0;
  PartitionParams partition;
};

struct ParStats {
  std::size_t num_partitions = 0;
  std::size_t num_threads = 0;
};

/// A network->network pass applied to one shard.  Must be safe to invoke
/// concurrently on distinct shards.
using ShardPassFn = std::function<Network(const Network&)>;

/// Generic partition-parallel driver: partitions \p net (params.partition),
/// applies \p pass to every shard on up to params.num_threads workers, and
/// reassembles in fixed partition order.  Exceptions thrown by \p pass
/// surface in shard-index order.  Bit-identical for any thread count.
/// The result carries whatever choice classes the rewritten shards hold
/// (see reassemble()).
Network par_run(const Network& net, const ShardPassFn& pass,
                const ParParams& params = {}, ParStats* stats = nullptr);

}  // namespace mcs
