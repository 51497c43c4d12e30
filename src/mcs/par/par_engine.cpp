#include "mcs/par/par_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "mcs/obs/obs.hpp"
#include "mcs/par/thread_pool.hpp"

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

}  // namespace

Network par_run(const Network& net, const ShardPassFn& pass,
                const ParParams& params, ParStats* stats) {
  const std::size_t threads = ThreadPool::resolve_threads(params.num_threads);
  PartitionSet parts = [&] {
    obs::Span span("par:partition");
    obs::counter("par.partition_runs").increment();
    PartitionParams pp = params.partition;
    pp.num_threads = static_cast<int>(threads);
    return partition_network(net, pp);
  }();
  if (stats) {
    stats->num_partitions = parts.parts.size();
    stats->num_threads = threads;
  }

  // Each shard is rewritten in its own slot, biggest shards first, so the
  // result is bit-identical for any thread count; exceptions surface for
  // the smallest failing shard index.  Per-shard spans carry the worker
  // attribution in trace exports (the span name is only materialized when
  // tracing is on).
  const std::vector<std::uint32_t> order = largest_first_order(parts);
  ThreadPool::global().submit_bulk(
      parts.parts.size(),
      [&](std::size_t i) {
        obs::Span span([&] { return "par:shard:" + std::to_string(i); });
        Partition& p = parts.parts[i];
        p.net = pass(p.net);
      },
      threads, order.data());

  obs::Span span("par:reassemble");
  return reassemble(net, parts, {.num_threads = static_cast<int>(threads)});
}

}  // namespace mcs
