/// \file snapshot.hpp
/// \brief mcs::ckpt -- compact binary network snapshots.
///
/// A snapshot is the durable unit of the checkpoint layer: the job server
/// persists one after every completed stage that changes a job's network,
/// so a kill -9'd worker's replacement resumes the flow after that stage
/// instead of at stage 0.  (A stage rollback under a `ckpt` policy needs
/// nothing durable: flow::run_stage keeps in-memory copies.)
///
/// **Format** (version 1, little-endian, length-prefixed strings):
///
///   magic "MCSS" | u32 version
///   u64 num_nodes | u64 num_pis | u64 num_pos | u64 num_choices
///   node records, ids 1..num_nodes-1 in ascending order
///     (node 0, the constant, is implicit):
///       u8 GateType | arity x u32 raw fanin Signal   (PIs have no fanins)
///   num_pos x u32 raw PO Signal
///   choice classes, representatives in ascending id order:
///       u32 repr | u32 member_count | per member u32 id + u8 phase
///         (members in chain order, head first)
///   num_pis x (u32 len + bytes) PI names
///   num_pos x (u32 len + bytes) PO names
///   u64 checksum over every preceding byte
///
/// **Round-trip bit-identity.**  Nodes are serialized with their already
/// strash-normalized fanins and restored in ascending id order through
/// Network::restore_gate, which bypasses the create_and/xor/maj rewrite
/// rules; since node ids are a topological order and the level/fanout
/// bookkeeping is a pure function of the fanins, the restored network
/// reproduces ids, levels, fanout counts, type counters and the strash
/// table exactly.  Choice members are re-attached in reverse chain order
/// (add_choice inserts at the head), reproducing the lists verbatim.
/// tests/test_ckpt.cpp pins write_blif-level bit identity across every
/// base.
///
/// **Corruption detection.**  restore() rejects bad magic/version, short
/// or oversized blobs, out-of-range ids and checksum mismatches with
/// SnapshotError -- it never fabricates a half-restored network.  The
/// file helpers write via temp file + fsync + atomic rename (a crash
/// mid-checkpoint leaves the previous checkpoint intact) and carry the
/// `ckpt.write` / `ckpt.load` fault-injection sites.
///
/// Every capture is counted in the `ckpt.snapshots` / `ckpt.snapshot_bytes`
/// obs metrics (see the README metric catalogue).

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "mcs/network/network.hpp"

namespace mcs::ckpt {

/// Raised on malformed, truncated or corrupted snapshots and on file I/O
/// failures in the file-backed helpers.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Serializes \p net into a self-contained snapshot blob.
std::vector<std::uint8_t> snapshot(const Network& net);

/// Rebuilds a network from \p blob.  Throws SnapshotError on any
/// structural or checksum violation.
Network restore(const std::vector<std::uint8_t>& blob);

/// Writes \p net's snapshot to \p path atomically (temp file + fsync +
/// rename).  Throws SnapshotError on I/O errors; fault site `ckpt.write`.
void write_snapshot_file(const Network& net, const std::string& path);

/// Reads and restores a snapshot file.  Throws SnapshotError when the
/// file is missing, unreadable or corrupt; fault site `ckpt.load`.
Network read_snapshot_file(const std::string& path);

}  // namespace mcs::ckpt
