// Routing-algorithm tests: XY (the paper's configuration), YX, and O1TURN
// with VC partitioning, plus the routing layer (topology/routing.h) the
// simulator and the contention model share.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "netsim/network.h"
#include "util/rng.h"

namespace nocmap {
namespace {

NetworkConfig config_for(RoutingAlgo algo) {
  NetworkConfig c;
  c.routing = algo;
  c.vcs_per_port = 4;  // even split for O1TURN
  return c;
}

PacketInfo make_packet(PacketId id, TileId src, TileId dst,
                       std::uint32_t flits = 1) {
  PacketInfo p;
  p.id = id;
  p.src = src;
  p.dst = dst;
  p.flits = flits;
  return p;
}

std::vector<Ejection> run_until_drained(Network& net, Cycle limit = 100000) {
  std::vector<Ejection> all;
  for (Cycle c = 0; c < limit && net.packets_in_flight() > 0; ++c) {
    net.step();
    for (auto& e : net.take_ejections()) all.push_back(e);
  }
  return all;
}

TEST(RoutingNames, AllNamed) {
  EXPECT_STREQ(routing_name(RoutingAlgo::kXY), "XY");
  EXPECT_STREQ(routing_name(RoutingAlgo::kYX), "YX");
  EXPECT_STREQ(routing_name(RoutingAlgo::kO1Turn), "O1TURN");
}

TEST(VcRange, PartitionedOnlyForO1Turn) {
  NetworkConfig c = config_for(RoutingAlgo::kXY);
  std::uint32_t lo = 9, hi = 9;
  c.vc_range(true, lo, hi);
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 4u);

  c = config_for(RoutingAlgo::kO1Turn);
  c.vc_range(false, lo, hi);
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 2u);
  c.vc_range(true, lo, hi);
  EXPECT_EQ(lo, 2u);
  EXPECT_EQ(hi, 4u);
}

class RoutingDelivery : public ::testing::TestWithParam<RoutingAlgo> {};

TEST_P(RoutingDelivery, AllToAllDrainsAndConserves) {
  const Mesh mesh = Mesh::square(4);
  Network net(mesh, config_for(GetParam()));
  PacketId id = 1;
  std::uint64_t flits = 0;
  for (TileId src = 0; src < 16; ++src) {
    for (TileId dst = 0; dst < 16; ++dst) {
      if (src == dst) continue;
      const std::uint32_t f = (src + dst) % 2 ? 1 : 5;
      net.inject_packet(make_packet(id++, src, dst, f));
      flits += f;
    }
  }
  const auto ejections = run_until_drained(net);
  EXPECT_EQ(ejections.size(), id - 1);
  EXPECT_EQ(net.packets_in_flight(), 0u);
  EXPECT_EQ(net.flits_ejected(), flits);
}

TEST_P(RoutingDelivery, HotspotDrains) {
  const Mesh mesh = Mesh::square(5);
  Network net(mesh, config_for(GetParam()));
  const TileId hot = mesh.tile_at(2, 2);
  PacketId id = 1;
  for (TileId src = 0; src < 25; ++src) {
    if (src == hot) continue;
    net.inject_packet(make_packet(id++, src, hot, 5));
  }
  EXPECT_EQ(run_until_drained(net, 200000).size(), 24u);
}

INSTANTIATE_TEST_SUITE_P(Algos, RoutingDelivery,
                         ::testing::Values(RoutingAlgo::kXY,
                                           RoutingAlgo::kYX,
                                           RoutingAlgo::kO1Turn));

TEST(Routing, AllAlgorithmsAreMinimal) {
  // Same unloaded single-packet latency under every algorithm (all three
  // are minimal-path).
  const Mesh mesh = Mesh::square(6);
  std::vector<Cycle> lats;
  for (auto algo : {RoutingAlgo::kXY, RoutingAlgo::kYX,
                    RoutingAlgo::kO1Turn}) {
    Network net(mesh, config_for(algo));
    net.inject_packet(
        make_packet(1, mesh.tile_at(0, 0), mesh.tile_at(3, 2)));
    const auto e = run_until_drained(net);
    ASSERT_EQ(e.size(), 1u);
    lats.push_back(e[0].latency());
  }
  EXPECT_EQ(lats[0], lats[1]);
  EXPECT_EQ(lats[0], lats[2]);
}

TEST(Routing, XyUsesOnlyXFirstIntermediate) {
  // (0,0) -> (1,1): XY passes through (0,1); YX through (1,0).
  const Mesh mesh = Mesh::square(3);
  {
    Network net(mesh, config_for(RoutingAlgo::kXY));
    for (PacketId id = 1; id <= 20; ++id) {
      net.inject_packet(make_packet(id, mesh.tile_at(0, 0),
                                    mesh.tile_at(1, 1)));
    }
    run_until_drained(net);
    EXPECT_GT(net.router_activity(mesh.tile_at(0, 1)).buffer_writes, 0u);
    EXPECT_EQ(net.router_activity(mesh.tile_at(1, 0)).buffer_writes, 0u);
  }
  {
    Network net(mesh, config_for(RoutingAlgo::kYX));
    for (PacketId id = 1; id <= 20; ++id) {
      net.inject_packet(make_packet(id, mesh.tile_at(0, 0),
                                    mesh.tile_at(1, 1)));
    }
    run_until_drained(net);
    EXPECT_EQ(net.router_activity(mesh.tile_at(0, 1)).buffer_writes, 0u);
    EXPECT_GT(net.router_activity(mesh.tile_at(1, 0)).buffer_writes, 0u);
  }
}

TEST(Routing, O1TurnSplitsAcrossBothIntermediates) {
  const Mesh mesh = Mesh::square(3);
  Network net(mesh, config_for(RoutingAlgo::kO1Turn));
  for (PacketId id = 1; id <= 64; ++id) {
    net.inject_packet(
        make_packet(id, mesh.tile_at(0, 0), mesh.tile_at(1, 1)));
  }
  run_until_drained(net);
  EXPECT_GT(net.router_activity(mesh.tile_at(0, 1)).buffer_writes, 0u);
  EXPECT_GT(net.router_activity(mesh.tile_at(1, 0)).buffer_writes, 0u);
}

TEST(Routing, O1TurnNeedsTwoVcs) {
  NetworkConfig c = config_for(RoutingAlgo::kO1Turn);
  c.vcs_per_port = 1;
  EXPECT_THROW(Network(Mesh::square(3), c), Error);
}

TEST(Routing, DeterministicAcrossRuns) {
  auto run_once = [&] {
    const Mesh mesh = Mesh::square(4);
    Network net(mesh, config_for(RoutingAlgo::kO1Turn));
    for (PacketId id = 1; id <= 30; ++id) {
      net.inject_packet(
          make_packet(id, static_cast<TileId>(id % 16),
                      static_cast<TileId>((id * 7 + 3) % 16), 2));
    }
    std::vector<Cycle> lats;
    for (const auto& e : run_until_drained(net)) lats.push_back(e.latency());
    return lats;
  };
  EXPECT_EQ(run_once(), run_once());
}

// The meshes the routing-layer checks run on: square, rectangular and a
// 4-layer stack.
std::vector<Mesh> routing_meshes() {
  return {Mesh::square(8), Mesh(3, 5, {0}), Mesh(4, 8, 8, {0})};
}

TEST(Routing, NextPortWalkTakesHopsSteps) {
  for (const Mesh& mesh : routing_meshes()) {
    const auto n = static_cast<TileId>(mesh.num_tiles());
    for (const bool yx : {false, true}) {
      for (TileId a = 0; a < n; ++a) {
        for (TileId b = 0; b < n; ++b) {
          TileId at = a;
          std::uint32_t steps = 0;
          for (PortDir p; (p = next_port(mesh, at, b, yx)) != PortDir::kLocal;
               ++steps) {
            ASSERT_LE(steps, mesh.hops(a, b)) << a << "->" << b;
            const TileId next = neighbor_of(mesh, at, p);
            ASSERT_EQ(mesh.hops(next, b) + 1, mesh.hops(at, b));
            at = next;
          }
          ASSERT_EQ(at, b);
          ASSERT_EQ(steps, mesh.hops(a, b)) << a << "->" << b;
        }
      }
    }
  }
}

TEST(Routing, LinkWalkFollowsNextPort) {
  // for_each_link is the XYZ next_port walk, link by link.
  for (const Mesh& mesh : routing_meshes()) {
    const auto n = static_cast<TileId>(mesh.num_tiles());
    for (TileId a = 0; a < n; ++a) {
      for (TileId b = 0; b < n; ++b) {
        TileId at = a;
        for_each_link(mesh, a, b, [&](TileId tile, PortDir port) {
          ASSERT_EQ(tile, at);
          ASSERT_EQ(port, next_port(mesh, at, b, /*yx=*/false));
          at = neighbor_of(mesh, at, port);
        });
        ASSERT_EQ(at, b);
      }
    }
  }
}

/// Expands the multicast tree from `from` recursively: counts deliveries
/// per destination and every directed link the tree's segments use.
void expand_tree(const Mesh& mesh, TileId from,
                 std::span<const TileId> dests,
                 std::map<TileId, int>& delivered,
                 std::map<std::pair<TileId, PortDir>, int>& links) {
  if (std::find(dests.begin(), dests.end(), from) != dests.end()) {
    ++delivered[from];
  }
  for (const TreeBranch& b : multicast_branches(mesh, from, dests)) {
    EXPECT_FALSE(b.dests.empty());
    EXPECT_NE(b.endpoint, from);
    for_each_link(mesh, from, b.endpoint, [&](TileId t, PortDir p) {
      ++links[{t, p}];
    });
    expand_tree(mesh, b.endpoint, b.dests, delivered, links);
  }
}

TEST(Routing, MulticastTreeIsUnionOfUnicastPaths) {
  for (const Mesh& mesh : routing_meshes()) {
    const auto n = static_cast<std::uint32_t>(mesh.num_tiles());
    Rng rng(0x6d63617374ULL + n);
    for (int trial = 0; trial < 200; ++trial) {
      const auto root = static_cast<TileId>(rng.uniform_u32(n));
      std::vector<TileId> dests;
      const std::uint32_t want = 1 + rng.uniform_u32(12);
      while (dests.size() < want) {
        const auto d = static_cast<TileId>(rng.uniform_u32(n));
        if (std::find(dests.begin(), dests.end(), d) == dests.end()) {
          dests.push_back(d);
        }
      }
      std::map<TileId, int> delivered;
      std::map<std::pair<TileId, PortDir>, int> tree;
      expand_tree(mesh, root, dests, delivered, tree);

      std::set<std::pair<TileId, PortDir>> unicast;
      for (TileId d : dests) {
        EXPECT_EQ(delivered[d], 1) << "dest " << d << " from " << root;
        for_each_link(mesh, root, d, [&](TileId t, PortDir p) {
          unicast.insert({t, p});
        });
      }
      EXPECT_EQ(delivered.size(), dests.size());
      ASSERT_EQ(tree.size(), unicast.size()) << "root " << root;
      for (const auto& [link, uses] : tree) {
        EXPECT_EQ(uses, 1) << "link out of " << link.first;
        EXPECT_TRUE(unicast.count(link)) << "link out of " << link.first;
      }
    }
  }
}

TEST(Routing, MulticastBranchOrderAndGrouping) {
  // From the centre of layer 0 of a 2-layer 5×5 stack, destinations in
  // every first-hop direction but down, given out of order. Branches come east, west, south, north,
  // up, down, and each group's endpoint is its nearest member's coordinate
  // along the group's dimension.
  const Mesh mesh(2, 5, 5, {0});
  const TileId c = mesh.tile_at(0u, 2u, 2u);
  const std::vector<TileId> dests = {
      mesh.tile_at(1u, 2u, 2u), mesh.tile_at(0u, 0u, 2u),
      mesh.tile_at(0u, 4u, 2u), mesh.tile_at(1u, 0u, 0u),
      mesh.tile_at(0u, 3u, 4u), mesh.tile_at(0u, 1u, 3u), c};
  const auto branches = multicast_branches(mesh, c, dests);
  ASSERT_EQ(branches.size(), 5u);  // nothing below layer 0
  EXPECT_EQ(branches[0].endpoint, mesh.tile_at(0u, 2u, 3u));  // east
  EXPECT_EQ(branches[0].dests,
            (std::vector<TileId>{dests[4], dests[5]}));
  EXPECT_EQ(branches[1].endpoint, mesh.tile_at(0u, 2u, 0u));  // west
  EXPECT_EQ(branches[2].endpoint, mesh.tile_at(0u, 4u, 2u));  // south
  EXPECT_EQ(branches[3].endpoint, mesh.tile_at(0u, 0u, 2u));  // north
  EXPECT_EQ(branches[4].endpoint, mesh.tile_at(1u, 2u, 2u));  // up
}

TEST(Routing, StepsAndWalksStayOnPlainMesh) {
  const Mesh mesh(2, 3, 3, {0});
  EXPECT_EQ(neighbor_of(mesh, 4, PortDir::kNorth), 1u);
  EXPECT_EQ(neighbor_of(mesh, 4, PortDir::kUp), 13u);
  EXPECT_EQ(neighbor_of(mesh, 13, PortDir::kDown), 4u);
  EXPECT_THROW(neighbor_of(mesh, 1, PortDir::kNorth), Error);
  EXPECT_THROW(neighbor_of(mesh, 13, PortDir::kUp), Error);
  for (std::size_t p = 0; p < kNumPorts; ++p) {
    const auto d = static_cast<PortDir>(p);
    EXPECT_EQ(opposite(opposite(d)), d);
  }
  // On a torus Mesh::hops wraps; a non-wrapping walk would disagree.
  const Mesh torus = Mesh::square_torus(4);
  EXPECT_THROW(for_each_link(torus, 0, 5, [](TileId, PortDir) {}), Error);
  const std::vector<TileId> dests = {5};
  EXPECT_THROW(multicast_branches(torus, 0, dests), Error);
}

}  // namespace
}  // namespace nocmap
