#include "mcs/network/convert.hpp"

#include <optional>
#include <vector>

#include "mcs/network/network_utils.hpp"

namespace mcs {

Network convert_basis(const Network& net, GateBasis basis) {
  return rebuild(
      net, topo_order(net),
      [&](NodeId n, const std::vector<Signal>& map,
          Network& dst) -> std::optional<Signal> {
        const BasisBuilder bb(dst, basis);
        const std::array<Signal, 3> in = copied_fanins(net, n, map);
        switch (net.node(n).type) {
          case GateType::kAnd2:
            return bb.and2(in[0], in[1]);
          case GateType::kXor2:
            return bb.xor2(in[0], in[1]);
          case GateType::kMaj3:
            return bb.maj3(in[0], in[1], in[2]);
          default:  // kXor3
            return bb.xor3(in[0], in[1], in[2]);
        }
      });
}

Network detect_xors(const Network& net) {
  // n = AND(!x, !y), x = AND(xa, xb), y = AND(ya, yb) with {ya, yb} ==
  // {!xa, !xb} computes XOR(xa, xb).  (NOR of the two "both" cases.)
  return cleanup(rebuild(
      net, topo_order(net),
      [&](NodeId n, const std::vector<Signal>& map,
          Network& dst) -> std::optional<Signal> {
        const Node& nd = net.node(n);
        if (nd.type != GateType::kAnd2) return std::nullopt;
        const Signal fx = nd.fanin[0];
        const Signal fy = nd.fanin[1];
        if (!fx.complemented() || !fy.complemented()) return std::nullopt;
        const Node& x = net.node(fx.node());
        const Node& y = net.node(fy.node());
        if (x.type != GateType::kAnd2 || y.type != GateType::kAnd2) {
          return std::nullopt;
        }
        const Signal xa = x.fanin[0], xb = x.fanin[1];
        const Signal ya = y.fanin[0], yb = y.fanin[1];
        const bool match =
            (ya == !xa && yb == !xb) || (ya == !xb && yb == !xa);
        if (!match) return std::nullopt;
        // n = !(xa&xb) & !(!xa&!xb) = xa ^ xb (over the rebuilt signals).
        return dst.create_xor(map[xa.node()] ^ xa.complemented(),
                              map[xb.node()] ^ xb.complemented());
      }));
}

}  // namespace mcs
