#include "topology/routing.h"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

namespace nocmap {

PortDir opposite(PortDir d) {
  switch (d) {
    case PortDir::kNorth: return PortDir::kSouth;
    case PortDir::kEast: return PortDir::kWest;
    case PortDir::kSouth: return PortDir::kNorth;
    case PortDir::kWest: return PortDir::kEast;
    case PortDir::kLocal: return PortDir::kLocal;
    case PortDir::kUp: return PortDir::kDown;
    case PortDir::kDown: return PortDir::kUp;
  }
  return PortDir::kLocal;
}

std::vector<TreeBranch> multicast_branches(const Mesh& mesh, TileId from,
                                           std::span<const TileId> dests) {
  NOCMAP_REQUIRE(!mesh.is_torus(),
                 "dimension-order multicast models a plain mesh, not a torus");
  const TileCoord here = mesh.coord_of(from);
  auto dist = [](std::uint32_t a, std::uint32_t b) {
    return a > b ? a - b : b - a;
  };
  // Per first-hop port: the group's members and its nearest member's
  // distance along that port's dimension.
  std::array<std::vector<TileId>, kNumPorts> groups;
  std::array<std::uint32_t, kNumPorts> reach;
  reach.fill(std::numeric_limits<std::uint32_t>::max());
  for (TileId m : dests) {
    const PortDir port = next_port(mesh, from, m, /*yx=*/false);
    if (port == PortDir::kLocal) continue;
    const TileCoord c = mesh.coord_of(m);
    const std::uint32_t d =
        port == PortDir::kEast || port == PortDir::kWest
            ? dist(c.col, here.col)
            : port == PortDir::kSouth || port == PortDir::kNorth
                  ? dist(c.row, here.row)
                  : dist(c.layer, here.layer);
    const std::size_t p = port_index(port);
    reach[p] = std::min(reach[p], d);
    groups[p].push_back(m);
  }

  std::vector<TreeBranch> branches;
  for (PortDir port : {PortDir::kEast, PortDir::kWest, PortDir::kSouth,
                       PortDir::kNorth, PortDir::kUp, PortDir::kDown}) {
    const std::size_t p = port_index(port);
    if (groups[p].empty()) continue;
    const auto endpoint = static_cast<TileId>(
        from + port_offset(mesh, port) * static_cast<std::int64_t>(reach[p]));
    branches.push_back({endpoint, std::move(groups[p])});
  }
  return branches;
}

std::uint64_t num_directed_links(const Mesh& mesh) {
  const std::uint64_t r = mesh.rows();
  const std::uint64_t c = mesh.cols();
  const std::uint64_t l = mesh.layers();
  std::uint64_t undirected = (r * (c - 1) + c * (r - 1)) * l;
  // Vertical (TSV) links between adjacent layers, one per tile position.
  undirected += (l - 1) * r * c;
  if (mesh.is_torus()) {
    // A wrap link is a *distinct* adjacent pair only when the wrapped
    // dimension has >= 3 tiles: at width 2 the wrap connects the same two
    // tiles as the existing mesh link, and at width 1 it is a self-loop.
    if (c >= 3) undirected += r;  // one horizontal wrap per row
    if (r >= 3) undirected += c;  // one vertical wrap per column
  }
  return 2 * undirected;
}

}  // namespace nocmap
