#include "core/contention.h"

#include <gtest/gtest.h>

#include "core/global_mapper.h"
#include "core/sss_mapper.h"
#include "netsim/sim.h"
#include "workload/synthesis.h"

namespace nocmap {
namespace {

ObmProblem c1_problem() {
  const Mesh mesh = Mesh::square(8);
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    synthesize_workload(parsec_config("C1"), 41));
}

/// Hand-checkable instance: one thread with memory traffic only, rest idle.
ObmProblem single_flow_problem(double memory_rate) {
  const Mesh mesh = Mesh::square(4);
  Application a;
  a.name = "one";
  a.threads = {{0.0, memory_rate}};
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    Workload({a}).padded_to(16));
}

/// One thread with memory traffic only on a 2-layer 4×4 stack with the
/// paper's corner MCs on the base layer, rest idle.
ObmProblem stacked_memory_problem(MemoryTrafficMode mode) {
  const Mesh mesh = Mesh::stacked_with_placement(2, 4, McPlacement::kCorners);
  Application a;
  a.name = "one";
  a.threads = {{0.0, 1000.0}};
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}, mode),
                    Workload({a}).padded_to(32));
}

TEST(Contention, SingleFlowLoadsExactPath) {
  // Thread on tile (1,1); nearest MC is the (0,0) corner. XY path:
  // (1,1) -> (1,0) -> (0,0). Request 1 flit + reply 5 flits, rate 1000/kc
  // = 1 req/cycle.
  const ObmProblem p = single_flow_problem(1000.0);
  const Mesh& mesh = p.mesh();
  Mapping m = p.identity_mapping();
  std::swap(m.thread_to_tile[0], m.thread_to_tile[5]);  // thread 0 -> (1,1)
  ContentionConfig cfg;
  cfg.reply_flits = 5.0;
  const ContentionModel model(p, m, cfg);

  const TileId t11 = mesh.tile_at(1, 1);
  const TileId t10 = mesh.tile_at(1, 0);
  const TileId t00 = mesh.tile_at(0, 0);
  EXPECT_NEAR(model.link_load(t11, t10), 1.0, 1e-12);  // request leg 1
  EXPECT_NEAR(model.link_load(t10, t00), 1.0, 1e-12);  // request leg 2
  // Reply path (0,0) -> (0,1) -> (1,1): 5 flits/cycle.
  EXPECT_NEAR(model.link_load(t00, mesh.tile_at(0, 1)), 5.0, 1e-12);
  EXPECT_NEAR(model.link_load(mesh.tile_at(0, 1), t11), 5.0, 1e-12);
  // Unrelated link untouched.
  EXPECT_NEAR(model.link_load(mesh.tile_at(3, 3), mesh.tile_at(3, 2)), 0.0,
              1e-12);
}

TEST(Contention, StackedFlowLoadsTsvLinks) {
  // Thread on (layer 1, row 1, col 1); nearest MC is the (0,0) corner of
  // layer 0. XYZ request path: west, north, then down the TSV at (0,0);
  // the reply climbs the TSV at (1,1) last.
  const ObmProblem p = stacked_memory_problem(MemoryTrafficMode::kProximity);
  const Mesh& mesh = p.mesh();
  Mapping m = p.identity_mapping();
  const TileId s = mesh.tile_at(1u, 1u, 1u);
  std::swap(m.thread_to_tile[0], m.thread_to_tile[s]);
  ContentionConfig cfg;
  cfg.reply_flits = 5.0;
  const ContentionModel model(p, m, cfg);

  EXPECT_NEAR(model.link_load(s, mesh.tile_at(1u, 1u, 0u)), 1.0, 1e-12);
  EXPECT_NEAR(model.link_load(mesh.tile_at(1u, 0u, 0u),
                              mesh.tile_at(0u, 0u, 0u)),
              1.0, 1e-12);  // request TSV, down
  EXPECT_NEAR(model.link_load(mesh.tile_at(0u, 1u, 1u), s), 5.0,
              1e-12);  // reply TSV, up
  EXPECT_NEAR(model.link_load(mesh.tile_at(0u, 0u, 0u),
                              mesh.tile_at(1u, 0u, 0u)),
              0.0, 1e-12);
  EXPECT_NEAR(model.total_flit_hops(), 3.0 * (1.0 + 5.0), 1e-12);
  // A TSV pair is adjacent; a diagonal across layers is not.
  EXPECT_THROW(model.link_load(mesh.tile_at(0u, 0u, 0u),
                               mesh.tile_at(1u, 0u, 1u)),
               Error);
}

TEST(Contention, StackedMulticastSharesTreePrefixes) {
  // Multicast from (layer 1, row 1, col 1) to the four base-layer corners:
  // XYZ tree east to col 3 and west to col 0, then north/south, then one
  // TSV down at each corner. Shared prefixes carry the request once.
  const ObmProblem p = stacked_memory_problem(MemoryTrafficMode::kMulticast);
  const Mesh& mesh = p.mesh();
  Mapping m = p.identity_mapping();
  const TileId s = mesh.tile_at(1u, 1u, 1u);
  std::swap(m.thread_to_tile[0], m.thread_to_tile[s]);
  ContentionConfig cfg;
  cfg.include_replies = false;
  const ContentionModel model(p, m, cfg);

  // East leg (1,1,1)->(1,1,2)->(1,1,3) serves two corners, once.
  EXPECT_NEAR(model.link_load(s, mesh.tile_at(1u, 1u, 2u)), 1.0, 1e-12);
  EXPECT_NEAR(model.link_load(mesh.tile_at(1u, 1u, 2u),
                              mesh.tile_at(1u, 1u, 3u)),
              1.0, 1e-12);
  for (TileId mc : mesh.mc_tiles()) {
    const TileCoord c = mesh.coord_of(mc);
    EXPECT_NEAR(model.link_load(mesh.tile_at(1u, c.row, c.col), mc), 1.0,
                1e-12)
        << "TSV down to MC " << mc;
  }
  // Tree links: east 2 + west 1, then per column north 1 + south 2, then
  // four TSVs.
  EXPECT_NEAR(model.total_flit_hops(), 2.0 + 1.0 + 2 * (1.0 + 2.0) + 4.0,
              1e-12);
}

TEST(Contention, RepliesCanBeExcluded) {
  const ObmProblem p = single_flow_problem(1000.0);
  Mapping m = p.identity_mapping();
  ContentionConfig cfg;
  cfg.include_replies = false;
  const ContentionModel model(p, m, cfg);
  // Thread 0 sits on tile 0 == the MC corner: no flow at all.
  EXPECT_NEAR(model.total_flit_hops(), 0.0, 1e-12);
}

TEST(Contention, FlitHopConservation) {
  // Total link load must equal sum over flows of rate x flits x hops.
  const ObmProblem p = c1_problem();
  SortSelectSwapMapper sss;
  const Mapping m = sss.map(p);
  ContentionConfig cfg;
  const ContentionModel model(p, m, cfg);

  const Mesh& mesh = p.mesh();
  const auto n = static_cast<double>(p.num_tiles());
  double expected = 0.0;
  for (std::size_t j = 0; j < p.num_threads(); ++j) {
    const ThreadProfile& t = p.workload().thread(j);
    const TileId s = m.tile_of(j);
    for (TileId d = 0; d < p.num_tiles(); ++d) {
      const double hops = mesh.hops(s, d);
      expected += t.cache_rate / 1000.0 / n *
                  (cfg.request_flits + cfg.reply_flits) * hops;
    }
    expected += t.memory_rate / 1000.0 *
                (cfg.request_flits + cfg.reply_flits) *
                static_cast<double>(mesh.hops(s, mesh.nearest_mc(s)));
  }
  EXPECT_NEAR(model.total_flit_hops(), expected, 1e-9);
}

TEST(Contention, LoadScalesLinearly) {
  const ObmProblem p = c1_problem();
  const Mapping m = p.identity_mapping();
  ContentionConfig c1, c2;
  c2.injection_scale = 3.0;
  const ContentionModel m1(p, m, c1);
  const ContentionModel m2(p, m, c2);
  EXPECT_NEAR(m2.max_utilization(), 3.0 * m1.max_utilization(), 1e-9);
  EXPECT_NEAR(m2.total_flit_hops(), 3.0 * m1.total_flit_hops(), 1e-9);
  EXPECT_NEAR(m1.saturation_scale(), 3.0 * m2.saturation_scale(), 1e-9);
}

TEST(Contention, QueueDelayProperties) {
  EXPECT_DOUBLE_EQ(ContentionModel::queue_delay(0.0), 0.0);
  EXPECT_NEAR(ContentionModel::queue_delay(0.5), 0.5, 1e-12);
  EXPECT_LT(ContentionModel::queue_delay(0.3),
            ContentionModel::queue_delay(0.6));
  // Clamped near capacity: finite.
  EXPECT_LT(ContentionModel::queue_delay(5.0), 1000.0);
}

TEST(Contention, MeanBelowMax) {
  const ObmProblem p = c1_problem();
  const Mapping m = p.identity_mapping();
  const ContentionModel model(p, m);
  EXPECT_LE(model.mean_utilization(), model.max_utilization() + 1e-12);
  EXPECT_GT(model.max_utilization(), 0.0);
}

// The model must predict the simulator: td_q estimate within the right
// order of magnitude at paper loads, and the saturation knee near the
// predicted scale.
TEST(Contention, PredictsMeasuredQueuingOrderOfMagnitude) {
  const ObmProblem p = c1_problem();
  SortSelectSwapMapper sss;
  const Mapping m = sss.map(p);
  const ContentionModel model(p, m);

  SimConfig cfg;
  cfg.warmup_cycles = 2000;
  cfg.measure_cycles = 30000;
  const SimResult r = run_simulation(p, m, cfg);
  const double measured = r.activity.avg_queue_wait();
  const double predicted = model.predicted_td_q();
  EXPECT_GT(predicted, measured * 0.2);
  EXPECT_LT(predicted, measured * 5.0 + 0.2);
}

TEST(Contention, SaturationScaleBracketsSimulatedKnee) {
  const ObmProblem p = c1_problem();
  SortSelectSwapMapper sss;
  const Mapping m = sss.map(p);
  const double predicted = ContentionModel(p, m).saturation_scale();

  // Below half the predicted scale the network must still be fluid; well
  // above it, clearly saturated (latency an order of magnitude up).
  auto g_apl_at = [&](double scale) {
    SimConfig cfg;
    cfg.warmup_cycles = 2000;
    cfg.measure_cycles = 15000;
    cfg.traffic.injection_scale = scale;
    return run_simulation(p, m, cfg).g_apl;
  };
  const double fluid = g_apl_at(predicted * 0.4);
  const double saturated = g_apl_at(predicted * 3.0);
  EXPECT_LT(fluid, 60.0);
  EXPECT_GT(saturated, 3.0 * fluid);
}

TEST(Contention, ExpectedPacketQueuingSumsPath) {
  const ObmProblem p = single_flow_problem(1000.0);
  const Mesh& mesh = p.mesh();
  Mapping m = p.identity_mapping();
  std::swap(m.thread_to_tile[0], m.thread_to_tile[5]);
  const ContentionModel model(p, m);
  const double along =
      model.expected_packet_queuing(mesh.tile_at(1, 1), mesh.tile_at(0, 0));
  const double hop1 = ContentionModel::queue_delay(
      model.link_load(mesh.tile_at(1, 1), mesh.tile_at(1, 0)));
  const double hop2 = ContentionModel::queue_delay(
      model.link_load(mesh.tile_at(1, 0), mesh.tile_at(0, 0)));
  EXPECT_NEAR(along, hop1 + hop2, 1e-12);
  EXPECT_DOUBLE_EQ(model.expected_packet_queuing(3, 3), 0.0);
}

TEST(Contention, InvalidInputsRejected) {
  const ObmProblem p = c1_problem();
  Mapping bad;
  bad.thread_to_tile.assign(p.num_threads(), 0);
  EXPECT_THROW(ContentionModel(p, bad), Error);
  ContentionConfig cfg;
  cfg.injection_scale = 0.0;
  EXPECT_THROW(ContentionModel(p, p.identity_mapping(), cfg), Error);
  // A torus: the XYZ walk would go the long way round while Mesh::hops
  // wraps, so the model refuses it, as the simulator does.
  const ObmProblem torus(
      TileLatencyModel(Mesh::square_torus(8), LatencyParams{}),
      synthesize_workload(parsec_config("C1"), 41));
  EXPECT_THROW(ContentionModel(torus, torus.identity_mapping()), Error);
}

}  // namespace
}  // namespace nocmap
