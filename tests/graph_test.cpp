// Unit tests for the property graph substrate: Value, PropertyGraph,
// builder, statistics and CSV I/O.

#include <gtest/gtest.h>

#include "graph/csv_io.h"
#include "graph/graph_builder.h"
#include "graph/graph_stats.h"
#include "graph/property_graph.h"
#include "graph/value.h"
#include "test_temp.h"

namespace pghive {
namespace {

// ---------- Value ----------

TEST(ValueTest, TypedConstruction) {
  EXPECT_EQ(Value::Int(5).type(), DataType::kInt);
  EXPECT_EQ(Value::Double(2.5).type(), DataType::kDouble);
  EXPECT_EQ(Value::Bool(true).type(), DataType::kBool);
  EXPECT_EQ(Value::String("x").type(), DataType::kString);
  EXPECT_EQ(Value::Date("2020-01-01").type(), DataType::kDate);
  EXPECT_EQ(Value::Timestamp("2020-01-01T10:00:00").type(),
            DataType::kTimestamp);
  EXPECT_TRUE(Value().is_null());
}

TEST(ValueTest, Accessors) {
  EXPECT_EQ(Value::Int(-7).AsInt(), -7);
  EXPECT_DOUBLE_EQ(Value::Double(1.5).AsDouble(), 1.5);
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_EQ(Value::String("abc").AsString(), "abc");
}

TEST(ValueTest, ToTextLexicalForms) {
  EXPECT_EQ(Value::Int(42).ToText(), "42");
  EXPECT_EQ(Value::Bool(false).ToText(), "false");
  EXPECT_EQ(Value::Date("1999-12-19").ToText(), "1999-12-19");
  EXPECT_EQ(Value().ToText(), "");
}

TEST(ValueTest, Equality) {
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  EXPECT_FALSE(Value::Int(1) == Value::Int(2));
  EXPECT_FALSE(Value::String("1") == Value::Int(1));
  // Same lexical text, different tag -> different values.
  EXPECT_FALSE(Value::Date("2020-01-01") == Value::String("2020-01-01"));
}

TEST(ValueTest, InferDataTypePriority) {
  EXPECT_EQ(InferDataTypeFromText("123"), DataType::kInt);
  EXPECT_EQ(InferDataTypeFromText("-45"), DataType::kInt);
  EXPECT_EQ(InferDataTypeFromText("1.5"), DataType::kDouble);
  EXPECT_EQ(InferDataTypeFromText("1e3"), DataType::kDouble);
  EXPECT_EQ(InferDataTypeFromText("true"), DataType::kBool);
  EXPECT_EQ(InferDataTypeFromText("FALSE"), DataType::kBool);
  EXPECT_EQ(InferDataTypeFromText("2021-03-04"), DataType::kDate);
  EXPECT_EQ(InferDataTypeFromText("2021-03-04T05:06:07"),
            DataType::kTimestamp);
  EXPECT_EQ(InferDataTypeFromText("hello"), DataType::kString);
  EXPECT_EQ(InferDataTypeFromText(""), DataType::kString);
  // Near-misses fall back to string.
  EXPECT_EQ(InferDataTypeFromText("2021-3-04"), DataType::kString);
  EXPECT_EQ(InferDataTypeFromText("12abc"), DataType::kString);
}

TEST(ValueTest, ParseValueRoundTrip) {
  EXPECT_EQ(ParseValue("17").AsInt(), 17);
  EXPECT_DOUBLE_EQ(ParseValue("2.25").AsDouble(), 2.25);
  EXPECT_TRUE(ParseValue("true").AsBool());
  EXPECT_EQ(ParseValue("2020-05-06").type(), DataType::kDate);
  EXPECT_EQ(ParseValue("plain text").AsString(), "plain text");
}

TEST(ValueTest, GeneralizeDataType) {
  EXPECT_EQ(GeneralizeDataType(DataType::kInt, DataType::kInt),
            DataType::kInt);
  EXPECT_EQ(GeneralizeDataType(DataType::kInt, DataType::kDouble),
            DataType::kDouble);
  EXPECT_EQ(GeneralizeDataType(DataType::kDouble, DataType::kInt),
            DataType::kDouble);
  EXPECT_EQ(GeneralizeDataType(DataType::kDate, DataType::kTimestamp),
            DataType::kTimestamp);
  EXPECT_EQ(GeneralizeDataType(DataType::kInt, DataType::kBool),
            DataType::kString);
  EXPECT_EQ(GeneralizeDataType(DataType::kDate, DataType::kInt),
            DataType::kString);
}

TEST(ValueTest, DataTypeNames) {
  EXPECT_STREQ(DataTypeGqlName(DataType::kInt), "INT");
  EXPECT_STREQ(DataTypeGqlName(DataType::kTimestamp), "TIMESTAMP");
  EXPECT_STREQ(DataTypeXsdName(DataType::kDouble), "xs:double");
  EXPECT_STREQ(DataTypeName(DataType::kBool), "Bool");
}

// ---------- PropertyGraph ----------

TEST(PropertyGraphTest, AddNodesAndEdges) {
  PropertyGraph g;
  NodeId a = g.AddNode({"A"}, {{"x", Value::Int(1)}}, "TA");
  NodeId b = g.AddNode({}, {});
  ASSERT_EQ(g.num_nodes(), 2u);
  auto e = g.AddEdge(a, b, {"REL"}, {{"w", Value::Double(0.5)}}, "TR");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edge(*e).source, a);
  EXPECT_EQ(g.edge(*e).target, b);
  EXPECT_TRUE(g.node(a).HasProperty("x"));
  EXPECT_FALSE(g.node(b).HasProperty("x"));
}

TEST(PropertyGraphTest, AddEdgeWithBadEndpointFails) {
  PropertyGraph g;
  g.AddNode({"A"}, {});
  auto e = g.AddEdge(0, 99, {"R"}, {});
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
}

TEST(PropertyGraphTest, PropertyKeysSortedAndDistinct) {
  PropertyGraph g;
  g.AddNode({"A"}, {{"z", Value::Int(1)}, {"a", Value::Int(2)}});
  g.AddNode({"B"}, {{"a", Value::Int(3)}, {"m", Value::Int(4)}});
  auto keys = g.NodePropertyKeys();
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "m", "z"}));
}

TEST(PropertyGraphTest, LabelsCollected) {
  PropertyGraph g;
  g.AddNode({"B", "A"}, {});
  g.AddNode({"C"}, {});
  g.AddNode({}, {});
  EXPECT_EQ(g.NodeLabels(), (std::vector<std::string>{"A", "B", "C"}));
}

TEST(PropertyGraphTest, PatternCounting) {
  PropertyGraph g;
  // Two nodes with same (labels, keys) -> one pattern; a third differs.
  g.AddNode({"A"}, {{"x", Value::Int(1)}});
  g.AddNode({"A"}, {{"x", Value::Int(9)}});
  g.AddNode({"A"}, {{"y", Value::Int(1)}});
  EXPECT_EQ(g.CountNodePatterns(), 2u);
}

TEST(PropertyGraphTest, EdgePatternsIncludeEndpoints) {
  PropertyGraph g;
  NodeId a = g.AddNode({"A"}, {});
  NodeId b = g.AddNode({"B"}, {});
  // Same edge label/properties but different endpoint labels -> 2 patterns.
  ASSERT_TRUE(g.AddEdge(a, a, {"R"}, {}).ok());
  ASSERT_TRUE(g.AddEdge(a, b, {"R"}, {}).ok());
  EXPECT_EQ(g.CountEdgePatterns(), 2u);
}

TEST(PropertyGraphTest, FullBatchCoversEverything) {
  PropertyGraph g = MakeFigure1Graph();
  GraphBatch b = FullBatch(g);
  EXPECT_EQ(b.num_nodes(), g.num_nodes());
  EXPECT_EQ(b.num_edges(), g.num_edges());
}

TEST(PropertyGraphTest, SplitIntoBatchesPartitions) {
  PropertyGraph g;
  for (int i = 0; i < 17; ++i) g.AddNode({"A"}, {});
  NodeId first = 0;
  for (int i = 0; i < 11; ++i) {
    ASSERT_TRUE(g.AddEdge(first, first, {"R"}, {}).ok());
  }
  auto batches = SplitIntoBatches(g, 4);
  ASSERT_EQ(batches.size(), 4u);
  size_t nodes = 0, edges = 0;
  size_t prev_node_end = 0, prev_edge_end = 0;
  for (const auto& b : batches) {
    EXPECT_EQ(b.node_begin, prev_node_end);
    EXPECT_EQ(b.edge_begin, prev_edge_end);
    prev_node_end = b.node_end;
    prev_edge_end = b.edge_end;
    nodes += b.num_nodes();
    edges += b.num_edges();
  }
  EXPECT_EQ(nodes, 17u);
  EXPECT_EQ(edges, 11u);
}

TEST(PropertyGraphTest, SplitMoreBatchesThanNodes) {
  PropertyGraph g;
  g.AddNode({"A"}, {});
  g.AddNode({"A"}, {});
  auto batches = SplitIntoBatches(g, 10);
  EXPECT_LE(batches.size(), 2u);
}

// ---------- Figure 1 graph ----------

TEST(GraphBuilderTest, Figure1Shape) {
  PropertyGraph g = MakeFigure1Graph();
  EXPECT_EQ(g.num_nodes(), 7u);
  EXPECT_EQ(g.num_edges(), 6u);
  // Example 2 lists 6 node patterns and 6 edge patterns.
  EXPECT_EQ(g.CountNodePatterns(), 6u);
  EXPECT_EQ(g.CountEdgePatterns(), 6u);
  // Alice is unlabeled.
  size_t unlabeled = 0;
  for (const auto& n : g.nodes()) unlabeled += n.labels.empty();
  EXPECT_EQ(unlabeled, 1u);
}

TEST(GraphStatsTest, Figure1Stats) {
  GraphStats s = ComputeGraphStats(MakeFigure1Graph(), "fig1");
  EXPECT_EQ(s.nodes, 7u);
  EXPECT_EQ(s.edges, 6u);
  EXPECT_EQ(s.node_types, 4u);
  EXPECT_EQ(s.edge_types, 4u);
  EXPECT_EQ(s.node_labels, 4u);
  EXPECT_EQ(s.edge_labels, 4u);
  std::string row = FormatStatsRow(s);
  EXPECT_NE(row.find("fig1"), std::string::npos);
  EXPECT_FALSE(FormatStatsHeader().empty());
}

// ---------- CSV I/O ----------

TEST(CsvIoTest, RoundTripPreservesStructure) {
  PropertyGraph g = MakeFigure1Graph();
  auto loaded = GraphFromCsv(NodesToCsv(g), EdgesToCsv(g));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded->num_edges(), g.num_edges());
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    EXPECT_EQ(loaded->node(i).labels, g.node(i).labels);
    EXPECT_EQ(loaded->node(i).truth_type, g.node(i).truth_type);
    EXPECT_EQ(loaded->node(i).properties.size(), g.node(i).properties.size());
  }
  for (size_t i = 0; i < g.num_edges(); ++i) {
    EXPECT_EQ(loaded->edge(i).source, g.edge(i).source);
    EXPECT_EQ(loaded->edge(i).target, g.edge(i).target);
    EXPECT_EQ(loaded->edge(i).labels, g.edge(i).labels);
  }
}

TEST(CsvIoTest, ValuesSurviveRoundTrip) {
  PropertyGraph g;
  g.AddNode({"T"}, {{"i", Value::Int(5)},
                    {"d", Value::Double(1.5)},
                    {"b", Value::Bool(true)},
                    {"s", Value::String("hello, world")},
                    {"dt", Value::Date("2020-02-02")}});
  g.AddNode({"T"}, {});
  ASSERT_TRUE(g.AddEdge(0, 1, {"R"}, {}).ok());
  auto loaded = GraphFromCsv(NodesToCsv(g), EdgesToCsv(g));
  ASSERT_TRUE(loaded.ok());
  const auto& props = loaded->node(0).properties;
  EXPECT_EQ(props.at("i").AsInt(), 5);
  EXPECT_DOUBLE_EQ(props.at("d").AsDouble(), 1.5);
  EXPECT_TRUE(props.at("b").AsBool());
  EXPECT_EQ(props.at("s").AsString(), "hello, world");
  EXPECT_EQ(props.at("dt").type(), DataType::kDate);
}

TEST(CsvIoTest, BadHeaderRejected) {
  auto r = GraphFromCsv("bogus,header\n", "src,tgt,labels,truth\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(CsvIoTest, WrongFieldCountRejected) {
  auto r = GraphFromCsv("id,labels,truth,x\n0,A,T\n",
                        "src,tgt,labels,truth\n");
  EXPECT_FALSE(r.ok());
}

TEST(CsvIoTest, EdgeToMissingNodeRejected) {
  auto r = GraphFromCsv("id,labels,truth\n0,A,T\n",
                        "src,tgt,labels,truth\n0,5,R,TR\n");
  EXPECT_FALSE(r.ok());
}

TEST(CsvIoTest, SaveAndLoadFiles) {
  PropertyGraph g = MakeFigure1Graph();
  std::string prefix = TestTempPath("graph");
  ASSERT_TRUE(SaveGraphCsv(g, prefix).ok());
  auto loaded = LoadGraphCsv(prefix);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_nodes(), g.num_nodes());
}

}  // namespace
}  // namespace pghive
