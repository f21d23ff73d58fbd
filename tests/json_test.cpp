// Tests for the JSON model/parser/writer and schema JSON persistence.

#include <gtest/gtest.h>

#include "common/json.h"
#include "core/pipeline.h"
#include "core/schema_json.h"
#include "graph/graph_builder.h"
#include "test_temp.h"

namespace pghive {
namespace {

// ---------- JsonValue basics ----------

TEST(JsonValueTest, Kinds) {
  EXPECT_TRUE(JsonValue().is_null());
  EXPECT_TRUE(JsonValue(true).is_bool());
  EXPECT_TRUE(JsonValue(1.5).is_number());
  EXPECT_TRUE(JsonValue(42).is_number());
  EXPECT_TRUE(JsonValue("x").is_string());
  EXPECT_TRUE(JsonValue(JsonArray{}).is_array());
  EXPECT_TRUE(JsonValue(JsonObject{}).is_object());
}

TEST(JsonValueTest, ObjectAccess) {
  JsonObject obj;
  obj.emplace("a", 1);
  obj.emplace("s", "text");
  obj.emplace("b", true);
  JsonValue v(std::move(obj));
  EXPECT_EQ(v["a"].AsInt(), 1);
  EXPECT_TRUE(v["missing"].is_null());
  EXPECT_EQ(v.GetString("s").value(), "text");
  EXPECT_TRUE(v.GetBool("b").value());
  EXPECT_FALSE(v.GetString("a").ok());  // kind mismatch
  EXPECT_FALSE(v.GetInt("nope").ok());
}

TEST(JsonDumpTest, CompactForms) {
  EXPECT_EQ(JsonValue().Dump(), "null");
  EXPECT_EQ(JsonValue(true).Dump(), "true");
  EXPECT_EQ(JsonValue(42).Dump(), "42");
  EXPECT_EQ(JsonValue(-1.5).Dump(), "-1.5");
  EXPECT_EQ(JsonValue("a\"b\n").Dump(), "\"a\\\"b\\n\"");
  EXPECT_EQ(JsonValue(JsonArray{1, 2}).Dump(), "[1,2]");
  JsonObject obj;
  obj.emplace("k", "v");
  EXPECT_EQ(JsonValue(std::move(obj)).Dump(), "{\"k\":\"v\"}");
}

TEST(JsonDumpTest, PrettyIndents) {
  JsonObject obj;
  obj.emplace("list", JsonArray{1});
  std::string pretty = JsonValue(std::move(obj)).Pretty();
  EXPECT_NE(pretty.find("{\n  \"list\": [\n    1\n  ]\n}"),
            std::string::npos);
}

TEST(JsonDumpTest, DeterministicKeyOrder) {
  JsonObject obj;
  obj.emplace("z", 1);
  obj.emplace("a", 2);
  EXPECT_EQ(JsonValue(std::move(obj)).Dump(), "{\"a\":2,\"z\":1}");
}

// ---------- parser ----------

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->AsBool());
  EXPECT_FALSE(ParseJson("false")->AsBool());
  EXPECT_EQ(ParseJson("42")->AsInt(), 42);
  EXPECT_DOUBLE_EQ(ParseJson("-2.5e2")->AsDouble(), -250.0);
  EXPECT_EQ(ParseJson("\"hi\"")->AsString(), "hi");
}

TEST(JsonParseTest, NestedStructure) {
  auto v = ParseJson(R"({"a": [1, {"b": null}, "s"], "c": {"d": false}})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ((*v)["a"].AsArray().size(), 3u);
  EXPECT_TRUE((*v)["a"].AsArray()[1]["b"].is_null());
  EXPECT_FALSE((*v)["c"]["d"].AsBool());
}

TEST(JsonParseTest, StringEscapes) {
  auto v = ParseJson(R"("line\nquote\"back\\slash\tuA")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "line\nquote\"back\\slash\tuA");
}

TEST(JsonParseTest, UnicodeEscapeUtf8) {
  auto v = ParseJson(R"("é€")");  // é €
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "\xc3\xa9\xe2\x82\xac");
}

TEST(JsonParseTest, Whitespace) {
  auto v = ParseJson("  {\n \"a\" :\t[ 1 , 2 ]\r\n} ");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ((*v)["a"].AsArray().size(), 2u);
}

TEST(JsonParseTest, Errors) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());          // trailing content
  EXPECT_FALSE(ParseJson("\"\\u00zz\"").ok());  // bad hex
  EXPECT_FALSE(ParseJson("--3").ok());
}

TEST(JsonParseTest, DeepNestingRejected) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonRoundTripTest, DumpParseDump) {
  const char* doc =
      R"({"arr":[1,2.5,"s",null,true],"nested":{"k":"v"},"n":-7})";
  auto v1 = ParseJson(doc);
  ASSERT_TRUE(v1.ok());
  auto v2 = ParseJson(v1->Dump());
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v1, *v2);
  EXPECT_EQ(v1->Dump(), v2->Dump());
  // Pretty form parses back to the same value too.
  auto v3 = ParseJson(v1->Pretty());
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(*v1, *v3);
}

// ---------- schema JSON ----------

SchemaGraph DiscoveredFigure1() {
  PgHivePipeline pipeline;
  return pipeline.DiscoverSchema(MakeFigure1Graph()).value();
}

TEST(SchemaJsonTest, RoundTripPreservesEverything) {
  SchemaGraph schema = DiscoveredFigure1();
  SchemaJsonOptions opt;
  opt.include_instances = true;
  auto loaded = SchemaFromJson(SchemaToJson(schema, opt));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->node_types.size(), schema.node_types.size());
  ASSERT_EQ(loaded->edge_types.size(), schema.edge_types.size());
  for (size_t i = 0; i < schema.node_types.size(); ++i) {
    const auto& a = schema.node_types[i];
    const auto& b = loaded->node_types[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.property_keys, b.property_keys);
    EXPECT_EQ(a.is_abstract, b.is_abstract);
    EXPECT_EQ(a.instances, b.instances);
    ASSERT_EQ(a.constraints.size(), b.constraints.size());
    for (const auto& [key, c] : a.constraints) {
      EXPECT_EQ(b.constraints.at(key).type, c.type);
      EXPECT_EQ(b.constraints.at(key).mandatory, c.mandatory);
    }
  }
  for (size_t i = 0; i < schema.edge_types.size(); ++i) {
    const auto& a = schema.edge_types[i];
    const auto& b = loaded->edge_types[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.source_labels, b.source_labels);
    EXPECT_EQ(a.target_labels, b.target_labels);
    EXPECT_EQ(a.cardinality, b.cardinality);
    EXPECT_EQ(a.max_out_degree, b.max_out_degree);
    EXPECT_EQ(a.max_in_degree, b.max_in_degree);
  }
}

TEST(SchemaJsonTest, InstancesOmittedByDefault) {
  SchemaGraph schema = DiscoveredFigure1();
  auto loaded = SchemaFromJson(SchemaToJson(schema));
  ASSERT_TRUE(loaded.ok());
  for (const auto& t : loaded->node_types) {
    EXPECT_TRUE(t.instances.empty());
  }
}

TEST(SchemaJsonTest, RejectsForeignDocuments) {
  EXPECT_FALSE(SchemaFromJson("{}").ok());
  EXPECT_FALSE(SchemaFromJson("[1,2]").ok());
  EXPECT_FALSE(SchemaFromJson(R"({"format":"something-else"})").ok());
  EXPECT_FALSE(SchemaFromJson("not json at all").ok());
}

TEST(SchemaJsonTest, RejectsBadDatatypeAndCardinality) {
  std::string bad_type = R"({"format":"pghive-schema","version":1,
    "node_types":[{"name":"T","labels":[],"properties":["p"],
                   "constraints":{"p":{"type":"Quantum","mandatory":true}},
                   "abstract":false}],
    "edge_types":[]})";
  EXPECT_FALSE(SchemaFromJson(bad_type).ok());
  std::string bad_card = R"({"format":"pghive-schema","version":1,
    "node_types":[],
    "edge_types":[{"name":"E","labels":[],"properties":[],
                   "source_labels":[],"target_labels":[],
                   "cardinality":"7:7","abstract":false}]})";
  EXPECT_FALSE(SchemaFromJson(bad_card).ok());
}

TEST(SchemaJsonTest, FileRoundTrip) {
  SchemaGraph schema = DiscoveredFigure1();
  std::string path = TestTempPath("schema.json");
  ASSERT_TRUE(SaveSchemaJson(schema, path).ok());
  auto loaded = LoadSchemaJson(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->node_types.size(), schema.node_types.size());
}

TEST(SchemaJsonTest, EmptySchema) {
  auto loaded = SchemaFromJson(SchemaToJson(SchemaGraph()));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_types(), 0u);
}

}  // namespace
}  // namespace pghive
