// CSV import/export round-trip guarantees (graph/csv_io.h): save -> load
// yields a structurally identical graph, including values that stress the
// quoting/escaping rules of the dialect.

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "datagen/datasets.h"
#include "datagen/generator.h"
#include "graph/csv_io.h"
#include "graph/property_graph.h"
#include "test_temp.h"

namespace pghive {
namespace {

PropertyGraph MakeTrickyGraph() {
  PropertyGraph g;
  NodeId a = g.AddNode({"Person"},
                       {{"name", Value::String("Doe, Jane")},
                        {"bio", Value::String("says \"hi\"\nand leaves")},
                        {"age", Value::Int(41)}},
                       "Person");
  NodeId b = g.AddNode({"Person", "Admin"},
                       {{"name", Value::String(";semi;colons;")},
                        {"score", Value::Double(2.5)}},
                       "Person");
  NodeId c = g.AddNode({}, {{"flag", Value::Bool(true)}}, "");
  EXPECT_TRUE(g.AddEdge(a, b, {"KNOWS"},
                        {{"since", Value::String("a,b\"c\"\nd")}}, "KNOWS")
                  .ok());
  EXPECT_TRUE(g.AddEdge(b, c, {}, {}, "").ok());
  EXPECT_TRUE(
      g.AddEdge(c, a, {"LIKES"}, {{"weight", Value::Double(0.125)}}, "LIKES")
          .ok());
  return g;
}

TEST(CsvIoTest, TextRoundTripPreservesGraph) {
  PropertyGraph g = MakeTrickyGraph();
  auto loaded = GraphFromCsv(NodesToCsv(g), EdgesToCsv(g));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(GraphsEqual(g, *loaded));
}

TEST(CsvIoTest, LoadSaveLoadIsIdentical) {
  std::string prefix = TestTempPath("csv_roundtrip");
  PropertyGraph g = MakeTrickyGraph();
  ASSERT_TRUE(SaveGraphCsv(g, prefix).ok());
  auto first = LoadGraphCsv(prefix);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(GraphsEqual(g, *first));

  // Second generation: saving the loaded graph reproduces it exactly.
  std::string prefix2 = prefix + "_again";
  ASSERT_TRUE(SaveGraphCsv(*first, prefix2).ok());
  auto second = LoadGraphCsv(prefix2);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(GraphsEqual(*first, *second));
  EXPECT_EQ(NodesToCsv(*first), NodesToCsv(*second));
  EXPECT_EQ(EdgesToCsv(*first), EdgesToCsv(*second));
}

TEST(CsvIoTest, GeneratedDatasetRoundTrips) {
  auto spec = DatasetSpecByName("ICIJ").value();
  GenerateOptions gen;
  gen.num_nodes = 400;
  gen.num_edges = 700;
  PropertyGraph g = GenerateGraph(spec, gen).value();
  auto loaded = GraphFromCsv(NodesToCsv(g), EdgesToCsv(g));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(GraphsEqual(g, *loaded));
}

TEST(CsvIoTest, GraphsEqualDetectsDifferences) {
  PropertyGraph a = MakeTrickyGraph();
  EXPECT_TRUE(GraphsEqual(a, a));

  PropertyGraph b = MakeTrickyGraph();
  std::map<std::string, Value> props = b.node(0).properties;
  props["age"] = Value::Int(42);
  b.SetNodeProperties(0, props);
  EXPECT_FALSE(GraphsEqual(a, b));

  PropertyGraph c = MakeTrickyGraph();
  std::set<std::string> labels = c.edge(0).labels;
  labels.insert("EXTRA");
  c.SetEdgeLabels(0, labels);
  EXPECT_FALSE(GraphsEqual(a, c));

  PropertyGraph d = MakeTrickyGraph();
  d.AddNode({"Extra"}, {}, "");
  EXPECT_FALSE(GraphsEqual(a, d));
}

}  // namespace
}  // namespace pghive
