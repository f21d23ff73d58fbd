// Each output check of the benchmark must pass on the program's real output
// and report a deliberately broken copy of it.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "checks.h"
#include "core/pipeline.h"
#include "core/schema_json.h"
#include "datagen/datasets.h"
#include "datagen/evolution.h"
#include "datagen/generator.h"
#include "drift/replay.h"
#include "eval/f1.h"

namespace e2e {
namespace {

using pghive::PropertyGraph;
using pghive::SchemaGraph;

struct Discovered {
  PropertyGraph graph;
  SchemaGraph schema;
};

Discovered DiscoverSmallGraph() {
  pghive::GenerateOptions gen;
  gen.num_nodes = 600;
  gen.num_edges = 1200;
  gen.seed = 7;
  auto g = pghive::GenerateGraph(pghive::MakePoleSpec(), gen);
  EXPECT_TRUE(g.ok());
  pghive::PgHivePipeline pipeline;
  auto schema = pipeline.DiscoverSchema(*g);
  EXPECT_TRUE(schema.ok());
  return {std::move(*g), std::move(*schema)};
}

TEST(ConservationCheck, ReportsAnInstanceRemovedFromAType) {
  Discovered d = DiscoverSmallGraph();
  EXPECT_TRUE(CheckConservation(d.graph, d.schema).empty());
  ASSERT_FALSE(d.schema.node_types.empty());
  d.schema.node_types[0].instances.pop_back();
  EXPECT_FALSE(CheckConservation(d.graph, d.schema).empty());
}

TEST(ConservationCheck, ReportsAnInstanceListedTwice) {
  Discovered d = DiscoverSmallGraph();
  ASSERT_GE(d.schema.edge_types.size(), 2u);
  d.schema.edge_types[1].instances.push_back(
      d.schema.edge_types[0].instances.front());
  EXPECT_FALSE(CheckConservation(d.graph, d.schema).empty());
}

TEST(ConformanceCheck, ReportsAnUndeclaredKey) {
  Discovered d = DiscoverSmallGraph();
  EXPECT_TRUE(CheckInstanceConformance(d.graph, d.schema).empty());
  auto& type = d.schema.node_types[0];
  ASSERT_FALSE(type.property_keys.empty());
  type.property_keys.erase(type.property_keys.begin());
  EXPECT_FALSE(CheckInstanceConformance(d.graph, d.schema).empty());
}

TEST(MonotoneCheck, ReportsALostLabel) {
  const Discovered d = DiscoverSmallGraph();
  EXPECT_TRUE(CheckMonotone(d.schema, d.schema).empty());
  EXPECT_TRUE(CheckMonotone(SchemaGraph{}, d.schema).empty());
  SchemaGraph next = d.schema;
  ASSERT_FALSE(next.node_types[0].labels.empty());
  next.node_types[0].labels.clear();
  EXPECT_FALSE(CheckMonotone(d.schema, next).empty());
}

TEST(MonotoneCheck, ReportsASplitType) {
  const Discovered d = DiscoverSmallGraph();
  SchemaGraph next = d.schema;
  auto& type = next.node_types[0];
  ASSERT_GE(type.instances.size(), 2u);
  pghive::SchemaNodeType half = type;
  half.instances.assign(1, type.instances.back());
  type.instances.pop_back();
  next.node_types.push_back(half);
  EXPECT_FALSE(CheckMonotone(d.schema, next).empty());
}

TEST(ServedSchemaCheck, ReportsAChangedByte) {
  const Discovered d = DiscoverSmallGraph();
  const std::string reference = pghive::SchemaToJson(d.schema);
  std::string served = reference;
  EXPECT_TRUE(CheckSameBytes("served schema", served, reference).empty());
  served[served.size() / 2] ^= 0x01;
  const Problems problems = CheckSameBytes("served schema", served, reference);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find(std::to_string(served.size() / 2)),
            std::string::npos);
}

TEST(SurvivorCheck, ReportsADroppedSurvivor) {
  const std::vector<pghive::MutationBatch> stream =
      pghive::MakeSteadyMutationStream(6, 8);
  auto survivors = pghive::drift::NetSurvivingStream(stream);
  ASSERT_TRUE(survivors.ok());
  EXPECT_TRUE(CheckSurvivors(stream, *survivors).empty());

  std::vector<pghive::MutationBatch> dropped_edge = *survivors;
  ASSERT_FALSE(dropped_edge[3].edges.empty());
  dropped_edge[3].edges.pop_back();
  EXPECT_FALSE(CheckSurvivors(stream, dropped_edge).empty());

  std::vector<pghive::MutationBatch> dropped_node = *survivors;
  ASSERT_FALSE(dropped_node[5].nodes.empty());
  dropped_node[5].nodes.pop_back();
  EXPECT_FALSE(CheckSurvivors(stream, dropped_node).empty());
}

TEST(F1Check, ReportsPermutedGroundTruth) {
  const Discovered d = DiscoverSmallGraph();
  const double program_f1 = pghive::MajorityF1Nodes(d.graph, d.schema).f1;
  const auto clusters = NodeClusters(d.schema);
  std::vector<std::string> truth = NodeTruth(d.graph);
  EXPECT_TRUE(CheckF1("node", program_f1, clusters, truth).empty());

  std::mt19937_64 rng(11);
  std::shuffle(truth.begin(), truth.end(), rng);
  EXPECT_FALSE(CheckF1("node", program_f1, clusters, truth).empty());
}

TEST(F1Check, MatchesTheProgramOnEdges) {
  const Discovered d = DiscoverSmallGraph();
  EXPECT_TRUE(CheckF1("edge", pghive::MajorityF1Edges(d.graph, d.schema).f1,
                      EdgeClusters(d.schema), EdgeTruth(d.graph))
                  .empty());
}

}  // namespace
}  // namespace e2e
