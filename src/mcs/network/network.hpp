/// \file network.hpp
/// \brief The mixed logic network: a strashed DAG hosting heterogeneous gates.
///
/// This is the substrate of the whole library and the data structure behind
/// the Mixed Structural CHoices (MCH) operator.  A single network can host
/// AND2, XOR2, MAJ3 and XOR3 gates simultaneously, connected by complemented
/// edges.  Classic homogeneous representations are restrictions:
///
///   - AIG:  only AND2
///   - XAG:  AND2 + XOR2
///   - MIG:  MAJ3 (+ AND2, since AND(a,b) == MAJ(a,b,0))
///   - XMG:  MAJ3 + XOR3 (+ their 2-input special cases)
///
/// Choice classes (paper, Sec. III-A) are expressed with three per-node
/// fields: `repr` (class representative), `next_choice` (intrusive singly
/// linked list of equivalent nodes) and `choice_phase` (the member realizes
/// the representative's function XOR phase).  Only representatives are
/// reachable from primary outputs; members hang off the choice list and are
/// traversed by choice-aware algorithms (mappers, Alg. 3).

#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "mcs/common/hash.hpp"
#include "mcs/obs/obs.hpp"

namespace mcs {

/// Gate/node kinds hosted by the mixed network.
enum class GateType : std::uint8_t {
  kConst0 = 0,  ///< the constant-zero node (always node 0)
  kPi,          ///< primary input
  kAnd2,        ///< 2-input AND
  kXor2,        ///< 2-input XOR
  kMaj3,        ///< 3-input majority
  kXor3,        ///< 3-input XOR
};

/// Number of fanins of a gate of the given type.
constexpr int gate_arity(GateType t) noexcept {
  switch (t) {
    case GateType::kAnd2:
    case GateType::kXor2:
      return 2;
    case GateType::kMaj3:
    case GateType::kXor3:
      return 3;
    default:
      return 0;
  }
}

const char* gate_type_name(GateType t) noexcept;

/// Index of a node inside a Network.
using NodeId = std::uint32_t;

inline constexpr NodeId kNullNode = 0xffffffffu;

/// A (node, complement) edge handle.
class Signal {
 public:
  constexpr Signal() noexcept : data_(0) {}
  constexpr Signal(NodeId node, bool complemented) noexcept
      : data_((node << 1) | (complemented ? 1u : 0u)) {}

  static constexpr Signal from_raw(std::uint32_t raw) noexcept {
    Signal s;
    s.data_ = raw;
    return s;
  }

  constexpr NodeId node() const noexcept { return data_ >> 1; }
  constexpr bool complemented() const noexcept { return (data_ & 1u) != 0; }
  constexpr std::uint32_t raw() const noexcept { return data_; }

  /// Complemented copy of this signal.
  constexpr Signal operator!() const noexcept {
    return from_raw(data_ ^ 1u);
  }
  /// XORs the complement flag with \p c.
  constexpr Signal operator^(bool c) const noexcept {
    return from_raw(data_ ^ (c ? 1u : 0u));
  }

  friend constexpr bool operator==(Signal a, Signal b) noexcept {
    return a.data_ == b.data_;
  }
  friend constexpr bool operator!=(Signal a, Signal b) noexcept {
    return a.data_ != b.data_;
  }
  friend constexpr bool operator<(Signal a, Signal b) noexcept {
    return a.data_ < b.data_;
  }

 private:
  std::uint32_t data_;
};

/// One node of the network.  Plain data; invariants are maintained by
/// Network (fanins precede the node, fanins are strash-normalized).
struct Node {
  GateType type = GateType::kConst0;
  std::uint8_t num_fanins = 0;
  bool choice_phase = false;  ///< function == repr function XOR phase
  std::array<Signal, 3> fanin{};
  std::uint32_t level = 0;
  std::uint32_t fanout_size = 0;
  NodeId repr = kNullNode;         ///< class representative; kNullNode if self
  NodeId next_choice = kNullNode;  ///< next equivalent node in the class
  mutable std::uint32_t trav_id = 0;   ///< traversal marker (see Network)
  mutable std::uint64_t scratch = 0;   ///< scratch space for algorithms
};

/// Open-addressed structural-hash table: NodeId keyed by (type, fanins).
///
/// Linear probing over a flat slot array (stored 64-bit hash + packed
/// {type, fanin[3]} key per slot, one cache line per two probes), capacity
/// a power of two, grown at ~0.7 load.  Gates are never removed from a
/// Network, so the table needs no erase support and stays tombstone-free --
/// every probe sequence ends at a genuine hit or the first empty slot.
/// This replaces the chained std::unordered_map on the gate-creation hot
/// path: every strashed create_* goes through exactly one probe sequence.
class StrashTable {
 public:
  using Key = std::array<std::uint32_t, 3>;  ///< raw fanin signals

  StrashTable() : slots_(kMinCapacity) {}

  static std::uint64_t hash(GateType t, const Key& fanin) noexcept {
    std::uint64_t h = hash_mix64(static_cast<std::uint64_t>(t));
    for (const auto f : fanin) h = hash_combine(h, f);
    return h;
  }

  /// The node stored under (t, fanin), or kNullNode.  Instrumentation is
  /// one unconditional counter add (strash.lookups) plus a conditional one
  /// (strash.collisions, extra probes past the first) only when the probe
  /// sequence actually collided -- the common clean-hit path pays a single
  /// relaxed store.  Total probes are derivable: lookups + collisions.
  NodeId lookup(GateType t, const Key& fanin) const {
    const std::uint64_t h = hash(t, fanin);
    const std::size_t mask = slots_.size() - 1;
    std::uint64_t probes = 0;
    NodeId found = kNullNode;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      ++probes;
      const Slot& s = slots_[i];
      if (s.id == kNullNode) break;
      if (s.hash == h && s.type == t && s.fanin == fanin) {
        found = s.id;
        break;
      }
    }
    metrics().lookups.increment();
    if (probes > 1) metrics().collisions.add(probes - 1);
    return found;
  }

  /// Inserts (t, fanin) -> id.  \pre the key is absent.
  void insert(GateType t, const Key& fanin, NodeId id) {
    if ((size_ + 1) * 10 > slots_.size() * 7) rehash(slots_.size() * 2);
    place(Slot{hash(t, fanin), fanin, id, t});
    ++size_;
    metrics().inserts.increment();
  }

  /// Pre-sizes the table for \p num_gates insertions without rehashing.
  void reserve(std::size_t num_gates) {
    std::size_t cap = kMinCapacity;
    while (num_gates * 10 > cap * 7) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    Key fanin{};
    NodeId id = kNullNode;  ///< kNullNode marks an empty slot
    GateType type = GateType::kConst0;
  };
  static constexpr std::size_t kMinCapacity = 64;  // power of two

  /// Process-wide strash counters (all tables share them; per-table stats
  /// would bloat every Network copy).  Cached refs: one registry lookup
  /// per process, not per call.  First-call construction allocates in the
  /// obs registry and may throw, so neither this nor the instrumented
  /// methods are noexcept.
  struct Metrics {
    obs::Counter& lookups = obs::counter("strash.lookups");
    obs::Counter& collisions = obs::counter("strash.collisions");
    obs::Counter& inserts = obs::counter("strash.inserts");
    obs::Gauge& bytes_max = obs::gauge("strash.bytes_max");
  };
  static Metrics& metrics() {
    static Metrics m;
    return m;
  }

  void place(const Slot& slot) noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = slot.hash & mask;
    while (slots_[i].id != kNullNode) i = (i + 1) & mask;
    slots_[i] = slot;
  }

  void rehash(std::size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    for (const Slot& s : old) {
      if (s.id != kNullNode) place(s);
    }
    const auto bytes = static_cast<std::int64_t>(slots_.size() * sizeof(Slot));
    metrics().bytes_max.set_max(bytes);
    // Same high-water mark, attributed: the job whose network this table
    // belongs to (the active obs scope) records its own peak.
    obs::domain_peak_max(obs::DomainPeak::kStrashBytes, bytes);
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// The mixed, strashed logic network.
class Network {
 public:
  Network();

  Network(const Network&) = default;
  Network(Network&&) noexcept = default;
  Network& operator=(const Network&) = default;
  Network& operator=(Network&&) noexcept = default;

  /// \name Construction
  /// @{

  /// Pre-sizes the node array and the strash table for a network of about
  /// \p num_nodes nodes.  Builders that know their size up front (circuit
  /// generators, file readers, partition/reassemble) use this to avoid
  /// rehash/reallocation churn during construction.
  void reserve(std::size_t num_nodes) {
    nodes_.reserve(num_nodes);
    strash_.reserve(num_nodes);
  }

  /// The constant-\p value signal.
  Signal constant(bool value) const noexcept {
    return Signal(0, value);
  }

  Signal create_pi(std::string name = {});
  void create_po(Signal s, std::string name = {});

  /// Strashed gate constructors.  All apply constant folding, idempotence /
  /// complement rules and fanin normalization, so the returned signal may
  /// refer to an existing node or even a constant.
  Signal create_and(Signal a, Signal b);
  Signal create_or(Signal a, Signal b);
  Signal create_nand(Signal a, Signal b) { return !create_and(a, b); }
  Signal create_nor(Signal a, Signal b) { return !create_or(a, b); }
  Signal create_xor(Signal a, Signal b);
  Signal create_xnor(Signal a, Signal b) { return !create_xor(a, b); }
  Signal create_maj(Signal a, Signal b, Signal c);
  Signal create_xor3(Signal a, Signal b, Signal c);
  /// if-then-else: cond ? then_s : else_s, built with AND/OR.
  Signal create_ite(Signal cond, Signal then_s, Signal else_s);

  /// Creates a gate of type \p t with the given fanins (dispatch helper).
  Signal create_gate(GateType t, const std::array<Signal, 3>& fanins);

  /// Looks up a normalized gate in the strash table without creating it.
  /// Returns kNullNode if absent (fanins must already be normalized).
  NodeId lookup_gate(GateType t, const std::array<Signal, 3>& fanins) const;

  /// Recreates a gate from already-normalized fanins, bypassing the
  /// create_and/xor/maj rewrite rules (snapshot restore, mcs::ckpt).
  /// \pre \p fanins obey \p t's strash normalization, as produced by an
  /// existing Network.  Returns the existing node's id when the gate is
  /// already present (callers treat that as id drift and reject the blob).
  NodeId restore_gate(GateType t, const std::array<Signal, 3>& fanins);

  /// @}
  /// \name Access
  /// @{

  std::size_t size() const noexcept { return nodes_.size(); }
  const Node& node(NodeId n) const noexcept { return nodes_[n]; }
  Node& node(NodeId n) noexcept { return nodes_[n]; }

  std::size_t num_pis() const noexcept { return pis_.size(); }
  std::size_t num_pos() const noexcept { return pos_.size(); }
  const std::vector<NodeId>& pis() const noexcept { return pis_; }
  const std::vector<Signal>& pos() const noexcept { return pos_; }
  NodeId pi_at(std::size_t i) const noexcept { return pis_[i]; }
  Signal po_at(std::size_t i) const noexcept { return pos_[i]; }

  const std::string& pi_name(std::size_t i) const noexcept {
    return pi_names_[i];
  }
  const std::string& po_name(std::size_t i) const noexcept {
    return po_names_[i];
  }

  bool is_const0(NodeId n) const noexcept {
    return nodes_[n].type == GateType::kConst0;
  }
  bool is_pi(NodeId n) const noexcept {
    return nodes_[n].type == GateType::kPi;
  }
  bool is_gate(NodeId n) const noexcept {
    return nodes_[n].type >= GateType::kAnd2;
  }

  /// Number of logic gates (excludes constant and PIs).
  std::size_t num_gates() const noexcept { return num_gates_; }

  /// Number of nodes per type (O(1): maintained incrementally).
  std::size_t num_gates_of(GateType t) const noexcept {
    return type_counts_[static_cast<std::size_t>(t)];
  }

  /// Longest PI-to-PO path length, counting gates (combinational depth).
  /// Cached; recomputed only after create_po / invalidate_depth_cache().
  std::uint32_t depth() const noexcept;

  /// Drops the cached depth().  Only needed by code that mutates node
  /// levels directly (recompute_levels); normal construction keeps the
  /// cache coherent on its own.
  void invalidate_depth_cache() const noexcept { depth_cache_valid_ = false; }

  std::uint32_t level(NodeId n) const noexcept { return nodes_[n].level; }

  /// @}
  /// \name Representation predicates
  /// @{

  bool is_aig() const noexcept;   ///< only AND2 gates

  /// @}
  /// \name Choice classes
  /// @{

  /// True iff \p n heads a choice class (has at least one member).
  bool has_choice(NodeId n) const noexcept {
    return nodes_[n].next_choice != kNullNode && is_repr(n);
  }
  /// True iff \p n is not a member of someone else's class.
  bool is_repr(NodeId n) const noexcept {
    return nodes_[n].repr == kNullNode;
  }
  NodeId repr_of(NodeId n) const noexcept {
    return is_repr(n) ? n : nodes_[n].repr;
  }

  /// Attaches \p member to the class of representative \p repr.
  /// \p phase: function(member) == function(repr) XOR phase.
  /// \pre repr is a representative; member is not in any class and heads no
  /// class of its own; member != repr.
  void add_choice(NodeId repr, NodeId member, bool phase);

  /// Total number of choice-class members over all classes.
  std::size_t num_choices() const noexcept { return num_choices_; }

  /// @}
  /// \name Invariant audit
  /// @{

  /// Full structural self-check: node 0 is the constant, every fanin
  /// precedes its node (ids are a topological order) and is in range,
  /// arities match types, levels obey level = max(fanin levels) + 1, the
  /// cached type/gate/choice counters and depth cache match recounts,
  /// pis_/pos_ are consistent, fanout counts re-derive, choice chains are
  /// acyclic with members pointing at true representatives, no member
  /// depends on its own head through fanins and members, and every
  /// gate is findable in the strash table under its own key.  O(n); the
  /// transactional stage runner calls this after every stage when
  /// validation is on.  Returns false and fills \p error (when given)
  /// with the first violation.
  bool check(std::string* error = nullptr) const;

  /// @}
  /// \name Traversal support
  /// @{

  /// Starts a new traversal epoch; `mark`/`marked` then operate on it.
  void new_traversal() const noexcept { ++trav_epoch_; }
  void mark(NodeId n) const noexcept { nodes_[n].trav_id = trav_epoch_; }
  bool marked(NodeId n) const noexcept {
    return nodes_[n].trav_id == trav_epoch_;
  }

  /// @}

 private:
  NodeId create_node(GateType t, const std::array<Signal, 3>& fanins,
                     int arity);

  std::vector<Node> nodes_;
  std::vector<NodeId> pis_;
  std::vector<Signal> pos_;
  std::vector<std::string> pi_names_;
  std::vector<std::string> po_names_;
  StrashTable strash_;
  std::size_t num_gates_ = 0;
  std::size_t num_choices_ = 0;
  /// Per-GateType node counts, maintained incrementally (num_gates_of and
  /// the representation predicates used to be O(n) sweeps per call).
  std::array<std::size_t, 6> type_counts_{};
  /// Lazily cached depth(); invalidated by create_po and
  /// invalidate_depth_cache() (levels are otherwise immutable).
  mutable std::uint32_t depth_cache_ = 0;
  mutable bool depth_cache_valid_ = true;  ///< empty network has depth 0
  mutable std::uint32_t trav_epoch_ = 0;
};

}  // namespace mcs
