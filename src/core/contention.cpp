#include "core/contention.h"

#include <algorithm>
#include <limits>

#include "topology/routing.h"

namespace nocmap {

std::size_t ContentionModel::link_index(TileId from, TileId to) const {
  const PortDir port = next_port(*mesh_, from, to, /*yx=*/false);
  NOCMAP_REQUIRE(port != PortDir::kLocal &&
                     neighbor_of(*mesh_, from, port) == to,
                 "link endpoints are not mesh-adjacent");
  return static_cast<std::size_t>(from) * kNumPorts + port_index(port);
}

void ContentionModel::add_flow(TileId src, TileId dst,
                               double flits_per_cycle) {
  if (src == dst || flits_per_cycle <= 0.0) return;
  for_each_link(*mesh_, src, dst, [&](TileId at, PortDir port) {
    load_[at * kNumPorts + port_index(port)] += flits_per_cycle;
  });
}

void ContentionModel::add_multicast_tree(TileId from,
                                         std::span<const TileId> dests,
                                         double flits_per_cycle) {
  // The tree TrafficEngine::emit_multicast sends: shared prefixes carry the
  // request once; replication happens at branch points.
  if (flits_per_cycle <= 0.0) return;
  for (const TreeBranch& branch : multicast_branches(*mesh_, from, dests)) {
    add_flow(from, branch.endpoint, flits_per_cycle);
    add_multicast_tree(branch.endpoint, branch.dests, flits_per_cycle);
  }
}

ContentionModel::ContentionModel(const ObmProblem& problem,
                                 const Mapping& mapping,
                                 const ContentionConfig& config)
    : mesh_(&problem.mesh()) {
  NOCMAP_REQUIRE(mapping.is_valid_permutation(problem.num_threads()),
                 "contention model needs a valid mapping");
  NOCMAP_REQUIRE(config.injection_scale > 0.0,
                 "injection scale must be positive");
  load_.assign(problem.num_tiles() * kNumPorts, 0.0);

  const Workload& wl = problem.workload();
  const auto n = static_cast<double>(problem.num_tiles());
  const MemoryTrafficMode mode = problem.model().mode();
  const auto mcs = mesh_->mc_tiles();

  for (std::size_t j = 0; j < wl.num_threads(); ++j) {
    const ThreadProfile& t = wl.thread(j);
    const TileId s = mapping.tile_of(j);
    // Rates are requests per kilocycle.
    const double cache_rate =
        t.cache_rate / 1000.0 * config.injection_scale;
    const double memory_rate =
        t.memory_rate / 1000.0 * config.injection_scale;

    if (cache_rate > 0.0) {
      const double per_bank = cache_rate / n;
      for (TileId bank = 0; bank < problem.num_tiles(); ++bank) {
        add_flow(s, bank, per_bank * config.request_flits);
        if (config.include_replies) {
          add_flow(bank, s, per_bank * config.reply_flits);
        }
      }
    }
    if (memory_rate > 0.0) {
      switch (mode) {
        case MemoryTrafficMode::kProximity: {
          const TileId mc = mesh_->nearest_mc(s);
          add_flow(s, mc, memory_rate * config.request_flits);
          if (config.include_replies) {
            add_flow(mc, s, memory_rate * config.reply_flits);
          }
          break;
        }
        case MemoryTrafficMode::kInterleaved: {
          const double per_mc =
              memory_rate / static_cast<double>(mcs.size());
          for (TileId mc : mcs) {
            add_flow(s, mc, per_mc * config.request_flits);
            if (config.include_replies) {
              add_flow(mc, s, per_mc * config.reply_flits);
            }
          }
          break;
        }
        case MemoryTrafficMode::kMulticast: {
          add_multicast_tree(s, mcs, memory_rate * config.request_flits);
          // One data reply, from the designated responder (nearest MC).
          if (config.include_replies) {
            add_flow(mesh_->nearest_mc(s), s,
                     memory_rate * config.reply_flits);
          }
          break;
        }
      }
    }
  }
}

double ContentionModel::link_load(TileId from, TileId to) const {
  return load_[link_index(from, to)];
}

double ContentionModel::max_utilization() const {
  return *std::max_element(load_.begin(), load_.end());
}

double ContentionModel::mean_utilization() const {
  // Count only physical links (border tiles lack some directions and the
  // local port is no link; their slots stay zero and are excluded).
  const std::uint64_t links = num_directed_links(*mesh_);
  double sum = 0.0;
  for (double u : load_) sum += u;
  return links > 0 ? sum / static_cast<double>(links) : 0.0;
}

double ContentionModel::saturation_scale() const {
  const double u = max_utilization();
  return u > 0.0 ? 1.0 / u : std::numeric_limits<double>::infinity();
}

double ContentionModel::queue_delay(double utilization) {
  const double u = std::clamp(utilization, 0.0, 0.999);
  return u / (2.0 * (1.0 - u));
}

double ContentionModel::expected_packet_queuing(TileId src,
                                                TileId dst) const {
  if (src == dst) return 0.0;
  double total = 0.0;
  for_each_link(*mesh_, src, dst, [&](TileId at, PortDir port) {
    total += queue_delay(load_[at * kNumPorts + port_index(port)]);
  });
  return total;
}

double ContentionModel::predicted_td_q() const {
  // A random flit lands on link L with probability proportional to L's
  // load, and then waits W(u_L).
  double weighted = 0.0;
  double total = 0.0;
  for (double u : load_) {
    weighted += u * queue_delay(u);
    total += u;
  }
  return total > 0.0 ? weighted / total : 0.0;
}

double ContentionModel::total_flit_hops() const {
  double sum = 0.0;
  for (double u : load_) sum += u;
  return sum;
}

}  // namespace nocmap
