// Dimension-order routing on a (possibly stacked) mesh: the one place the
// analytic contention model and the cycle-level simulator take their
// next-hop rule, link indexing and multicast tree shape from.
//
// Ports name the directions out of a router. A directed link is identified
// by (tile, port) — the link leaving `tile` through `port` — and flattened
// as tile·kNumPorts + port, the per-(tile, dir) layout the router engine and
// the contention model share. Tile ids are layer-major (mesh.h), so one hop
// is a fixed id offset: ±1 east/west, ±cols south/north and ±rows·cols
// up/down; no neighbour table is needed.
//
// Routing is XYZ (columns, then rows, then layers) or, for the Y-first
// sub-route of YX/O1TURN, YXZ. Resolving layers last keeps both sub-routes
// deadlock-free and keeps planar traffic off the TSV ports. The walk and
// the multicast builder model a plain mesh: on a torus Mesh::hops takes the
// short way round, which a non-wrapping walk would contradict, so they
// reject one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "topology/mesh.h"

namespace nocmap {

/// Mesh router ports. kLocal connects to the tile's network interface;
/// kUp/kDown are the TSV ports of a stacked mesh. They come *after* kLocal
/// so the (port, vc) slot numbering of a planar router — and with it every
/// round-robin arbitration decision — is unchanged from the 5-port layout:
/// on a 2D mesh slots of ports 5–6 are never occupied, and the allocator
/// skips empty slots, so the extra ports are exactly inert.
enum class PortDir : std::uint8_t {
  kNorth = 0,
  kEast = 1,
  kSouth = 2,
  kWest = 3,
  kLocal = 4,
  kUp = 5,
  kDown = 6,
};
inline constexpr std::size_t kNumPorts = 7;

inline std::size_t port_index(PortDir d) { return static_cast<std::size_t>(d); }

/// Opposite direction (the input port a flit arrives on after traversing a
/// link out of `d`).
PortDir opposite(PortDir d);

/// The port out of `at` on the dimension-order route to `dst`: XYZ, or YXZ
/// when `yx` is set; kLocal when at == dst.
inline PortDir next_port(const Mesh& mesh, TileId at, TileId dst, bool yx) {
  const TileCoord here = mesh.coord_of(at);
  const TileCoord there = mesh.coord_of(dst);
  if (yx) {
    if (there.row > here.row) return PortDir::kSouth;
    if (there.row < here.row) return PortDir::kNorth;
  }
  if (there.col > here.col) return PortDir::kEast;
  if (there.col < here.col) return PortDir::kWest;
  if (there.row > here.row) return PortDir::kSouth;
  if (there.row < here.row) return PortDir::kNorth;
  if (there.layer > here.layer) return PortDir::kUp;
  if (there.layer < here.layer) return PortDir::kDown;
  return PortDir::kLocal;
}

/// Tile-id offset of one hop out of `d` (0 for kLocal).
inline std::int64_t port_offset(const Mesh& mesh, PortDir d) {
  const auto cols = static_cast<std::int64_t>(mesh.cols());
  const auto layer = static_cast<std::int64_t>(mesh.tiles_per_layer());
  switch (d) {
    case PortDir::kNorth: return -cols;
    case PortDir::kEast: return 1;
    case PortDir::kSouth: return cols;
    case PortDir::kWest: return -1;
    case PortDir::kLocal: return 0;
    case PortDir::kUp: return layer;
    case PortDir::kDown: return -layer;
  }
  return 0;
}

/// The tile one hop out of `at` through `d`. The hop must stay on the mesh
/// (dimension-order routes never leave it).
inline TileId neighbor_of(const Mesh& mesh, TileId at, PortDir d) {
  const std::int64_t next = at + port_offset(mesh, d);
  NOCMAP_REQUIRE(next >= 0 && next < static_cast<std::int64_t>(
                                         mesh.num_tiles()),
                 "hop leaves the mesh");
  return static_cast<TileId>(next);
}

/// Invokes fn(tile, port) for every directed link on the XYZ path
/// src→dst, in path order (nothing when src == dst). Plain meshes only.
template <typename Fn>
void for_each_link(const Mesh& mesh, TileId src, TileId dst, Fn&& fn) {
  NOCMAP_REQUIRE(!mesh.is_torus(),
                 "dimension-order walks model a plain mesh, not a torus");
  const TileCoord a = mesh.coord_of(src);
  const TileCoord b = mesh.coord_of(dst);
  TileId at = src;
  auto leg = [&](std::uint32_t from, std::uint32_t to, PortDir inc,
                 PortDir dec) {
    const PortDir port = to > from ? inc : dec;
    const std::int64_t offset = port_offset(mesh, port);
    for (std::uint32_t n = to > from ? to - from : from - to; n > 0; --n) {
      fn(at, port);
      at = static_cast<TileId>(at + offset);
    }
  };
  leg(a.col, b.col, PortDir::kEast, PortDir::kWest);
  leg(a.row, b.row, PortDir::kSouth, PortDir::kNorth);
  leg(a.layer, b.layer, PortDir::kUp, PortDir::kDown);
}

/// One branch of a dimension-order multicast tree: the segment from the
/// branching tile to `endpoint` carries the request once for every tile in
/// `dests`, which the endpoint fans out to in turn.
struct TreeBranch {
  TileId endpoint = 0;
  std::vector<TileId> dests;
};

/// Expands the XYZ multicast tree rooted at `from` one level. Destinations
/// are grouped by their first hop from `from`; a group's endpoint is where
/// its shared path prefix ends (the member nearest along that hop's
/// dimension), so recursing from each endpoint reproduces the tree.
/// Branches come in east, west, south, north, up, down order and keep the
/// input order of their destinations. Destinations equal to `from` belong
/// to no branch (they are delivered at `from`). Plain meshes only.
std::vector<TreeBranch> multicast_branches(const Mesh& mesh, TileId from,
                                           std::span<const TileId> dests);

/// Directed inter-router links in the mesh: each adjacent tile pair
/// contributes one link per direction. Torus wrap links only count where
/// the wrapped dimension has >= 3 tiles — at width 2 the wrap coincides
/// with the existing adjacent-pair link and at width 1 it is a self-loop,
/// so counting it would deflate link utilization.
std::uint64_t num_directed_links(const Mesh& mesh);

}  // namespace nocmap
