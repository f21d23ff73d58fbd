// Unit tests for the delta-maintained post-processing aggregates
// (core/aggregates.h): fold/build/merge equivalence with the rescan passes,
// watermark semantics, consistency detection, the numeric partials, and the
// flat degree tables (core/count_table.h) under fold/retract streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregates.h"
#include "core/cardinality.h"
#include "core/constraints.h"
#include "core/count_table.h"
#include "core/datatype_inference.h"
#include "core/pipeline.h"
#include "core/retraction.h"
#include "core/value_stats.h"
#include "datagen/datasets.h"
#include "datagen/generator.h"
#include "graph/property_graph.h"
#include "runtime/thread_pool.h"

namespace pghive {
namespace {

// A mixed-type graph: two node types with overlapping/partial keys, two
// edge types with fan-out/fan-in, plus datatype-join cases (int+double,
// date+timestamp, bool+string).
struct Fixture {
  PropertyGraph graph;
  SchemaGraph schema;

  NodeId AddNode(const std::string& type,
                 std::map<std::string, Value> props) {
    SchemaNodeType* t = nullptr;
    for (auto& nt : schema.node_types) {
      if (nt.name == type) t = &nt;
    }
    if (t == nullptr) {
      SchemaNodeType nt;
      nt.name = type;
      nt.labels = {type};
      schema.node_types.push_back(std::move(nt));
      t = &schema.node_types.back();
    }
    for (const auto& [k, v] : props) t->property_keys.insert(k);
    NodeId id = graph.AddNode({type}, std::move(props));
    t->instances.push_back(id);
    return id;
  }

  void AddEdge(const std::string& type, NodeId src, NodeId dst,
               std::map<std::string, Value> props) {
    SchemaEdgeType* t = nullptr;
    for (auto& et : schema.edge_types) {
      if (et.name == type) t = &et;
    }
    if (t == nullptr) {
      SchemaEdgeType et;
      et.name = type;
      et.labels = {type};
      schema.edge_types.push_back(std::move(et));
      t = &schema.edge_types.back();
    }
    for (const auto& [k, v] : props) t->property_keys.insert(k);
    EdgeId id = graph.AddEdge(src, dst, {type}, std::move(props)).value();
    t->instances.push_back(id);
  }
};

Fixture MakeFixture() {
  Fixture f;
  NodeId p0 = f.AddNode("Person", {{"name", Value::String("ann")},
                                   {"age", Value::Int(30)}});
  NodeId p1 = f.AddNode("Person", {{"name", Value::String("bob")},
                                   {"age", Value::Double(41.5)}});
  NodeId p2 = f.AddNode("Person", {{"name", Value::String("cyd")}});
  NodeId o0 = f.AddNode("Org", {{"founded", Value::Date("2001-04-01")},
                                {"active", Value::Bool(true)}});
  NodeId o1 =
      f.AddNode("Org", {{"founded", Value::Timestamp("2010-05-02T10:00:00")},
                        {"active", Value::String("yes")}});
  f.AddEdge("WORKS_AT", p0, o0, {{"since", Value::Int(2019)}});
  f.AddEdge("WORKS_AT", p1, o0, {});
  f.AddEdge("WORKS_AT", p2, o1, {{"since", Value::Int(2021)}});
  f.AddEdge("KNOWS", p0, p1, {});
  f.AddEdge("KNOWS", p0, p2, {});
  return f;
}

SchemaGraph RescanPostProcess(const Fixture& f) {
  SchemaGraph s = f.schema;
  InferPropertyConstraints(f.graph, &s);
  InferDataTypes(f.graph, {}, &s);
  ComputeCardinalities(f.graph, &s);
  return s;
}

SchemaGraph FinalizeFrom(const Fixture& f, const SchemaAggregates& agg,
                         ThreadPool* pool = nullptr) {
  SchemaGraph s = f.schema;
  FinalizeConstraints(f.graph.symbols(), agg, &s, pool);
  FinalizeDataTypes(f.graph.symbols(), agg, &s, pool);
  FinalizeCardinalities(agg, &s, pool);
  return s;
}

std::string SchemaText(const SchemaGraph& s) {
  std::string out;
  auto constraint_text = [&](const auto& t) {
    out += t.name + "{";
    for (const auto& [key, c] : t.constraints) {
      out += key + ":" + std::to_string(static_cast<int>(c.type)) +
             (c.mandatory ? "!" : "?") + " ";
    }
    out += "}";
  };
  for (const auto& t : s.node_types) constraint_text(t);
  for (const auto& t : s.edge_types) {
    constraint_text(t);
    out += "[" + std::to_string(t.max_out_degree) + "," +
           std::to_string(t.max_in_degree) + "," +
           std::to_string(static_cast<int>(t.cardinality)) + "]";
  }
  return out;
}

TEST(AggregatesTest, FinalizationMatchesRescanPasses) {
  Fixture f = MakeFixture();
  SchemaAggregates agg = BuildAggregates(f.graph, f.schema);
  ASSERT_TRUE(agg.ConsistentWith(f.schema));
  EXPECT_EQ(SchemaText(FinalizeFrom(f, agg)), SchemaText(RescanPostProcess(f)));
}

TEST(AggregatesTest, DatatypeJoinsMatchSequentialFold) {
  Fixture f = MakeFixture();
  SchemaGraph s = FinalizeFrom(f, BuildAggregates(f.graph, f.schema));
  const auto& person = s.node_types[0].constraints;
  EXPECT_EQ(person.at("age").type, DataType::kDouble);    // Int ⊔ Double
  EXPECT_EQ(person.at("name").type, DataType::kString);
  const auto& org = s.node_types[1].constraints;
  EXPECT_EQ(org.at("founded").type, DataType::kTimestamp);  // Date ⊔ Ts
  EXPECT_EQ(org.at("active").type, DataType::kString);      // Bool ⊔ String
  const auto& works = s.edge_types[0];
  EXPECT_EQ(works.constraints.at("since").type, DataType::kInt);
  EXPECT_FALSE(works.constraints.at("since").mandatory);  // 2 of 3
  EXPECT_EQ(works.max_in_degree, 2u);  // o0 has two employees
  EXPECT_EQ(works.max_out_degree, 1u);
  EXPECT_EQ(works.cardinality, SchemaCardinality::kManyToOne);
  const auto& knows = s.edge_types[1];
  EXPECT_EQ(knows.max_out_degree, 2u);  // p0 knows two people
  EXPECT_EQ(knows.cardinality, SchemaCardinality::kOneToMany);
}

TEST(AggregatesTest, ParallelBuildMatchesSequential) {
  Fixture f = MakeFixture();
  const SchemaAggregates seq = BuildAggregates(f.graph, f.schema);
  for (int threads : {2, 4}) {
    ThreadPool pool(threads);
    EXPECT_EQ(BuildAggregates(f.graph, f.schema, &pool), seq);
  }
}

// On every paper dataset: the one-shot build at any pool size equals a
// sequential fold that consumes each type's instance list in three
// watermark steps.
TEST(AggregatesTest, BuildAtAnyPoolSizeMatchesSteppedSequentialFold) {
  for (const DatasetSpec& spec : AllDatasetSpecs()) {
    SCOPED_TRACE(spec.name);
    GenerateOptions gen;
    gen.num_nodes = 600;
    gen.num_edges = 1500;
    PropertyGraph g = GenerateGraph(spec, gen).value();
    SchemaGraph schema;
    PgHivePipeline pipeline{PipelineOptions{}};
    ASSERT_TRUE(pipeline.ProcessBatch(FullBatch(g), &schema).ok());

    SchemaAggregates stepped;
    for (size_t step = 1; step <= 3; ++step) {
      SchemaGraph prefix = schema;
      auto cut = [step](auto* types) {
        for (auto& t : *types) {
          t.instances.resize(t.instances.size() * step / 3);
        }
      };
      cut(&prefix.node_types);
      cut(&prefix.edge_types);
      ASSERT_TRUE(stepped.FoldNew(g, prefix));
    }
    ASSERT_TRUE(stepped.ConsistentWith(schema));
    EXPECT_EQ(BuildAggregates(g, schema), stepped);
    for (int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      EXPECT_EQ(BuildAggregates(g, schema, &pool), stepped) << threads;
    }
  }
}

TEST(AggregatesTest, IncrementalFoldEqualsOneShotBuild) {
  // Replay the fixture's construction in two stages: aggregates folded
  // after each stage must equal the one-shot build over the final state.
  Fixture staged;
  NodeId p0 = staged.AddNode("Person", {{"name", Value::String("ann")},
                                        {"age", Value::Int(30)}});
  NodeId p1 = staged.AddNode("Person", {{"name", Value::String("bob")},
                                        {"age", Value::Double(41.5)}});
  SchemaAggregates agg;
  EXPECT_TRUE(agg.FoldNew(staged.graph, staged.schema));
  EXPECT_EQ(agg.FoldedInstances(), 2u);

  NodeId p2 = staged.AddNode("Person", {{"name", Value::String("cyd")}});
  NodeId o0 = staged.AddNode("Org", {{"founded", Value::Date("2001-04-01")},
                                     {"active", Value::Bool(true)}});
  NodeId o1 = staged.AddNode(
      "Org", {{"founded", Value::Timestamp("2010-05-02T10:00:00")},
              {"active", Value::String("yes")}});
  staged.AddEdge("WORKS_AT", p0, o0, {{"since", Value::Int(2019)}});
  staged.AddEdge("WORKS_AT", p1, o0, {});
  staged.AddEdge("WORKS_AT", p2, o1, {{"since", Value::Int(2021)}});
  staged.AddEdge("KNOWS", p0, p1, {});
  staged.AddEdge("KNOWS", p0, p2, {});
  EXPECT_TRUE(agg.FoldNew(staged.graph, staged.schema));
  EXPECT_TRUE(agg.ConsistentWith(staged.schema));
  EXPECT_EQ(agg, BuildAggregates(staged.graph, staged.schema));
}

TEST(AggregatesTest, MergeEqualsCombinedFold) {
  Fixture f = MakeFixture();
  // Split each type's instance list into halves, fold each half into its
  // own aggregate via a truncated schema view, then merge.
  SchemaGraph first = f.schema, second = f.schema;
  auto halve = [](auto* types) {
    for (auto& t : *types) t.instances.resize(t.instances.size() / 2);
  };
  halve(&first.node_types);
  halve(&first.edge_types);
  SchemaAggregates a, b;
  EXPECT_TRUE(a.FoldNew(f.graph, first));
  // b starts at first's watermarks and folds the remainder.
  b = a;
  EXPECT_TRUE(b.FoldNew(f.graph, second));
  EXPECT_EQ(b, BuildAggregates(f.graph, f.schema));

  // Index-wise Merge of two independently folded halves also matches: the
  // second half folded standalone (fresh aggregate over a schema whose
  // instance lists are ONLY the second halves).
  SchemaGraph tail = f.schema;
  auto keep_tail = [](auto* types, const auto& full_types) {
    for (size_t i = 0; i < types->size(); ++i) {
      const auto& all = full_types[i].instances;
      (*types)[i].instances.assign(all.begin() + all.size() / 2, all.end());
    }
  };
  keep_tail(&tail.node_types, f.schema.node_types);
  keep_tail(&tail.edge_types, f.schema.edge_types);
  SchemaAggregates c;
  EXPECT_TRUE(c.FoldNew(f.graph, tail));
  SchemaAggregates merged = a;
  merged.Merge(c);
  EXPECT_EQ(merged, BuildAggregates(f.graph, f.schema));
}

TEST(AggregatesTest, ShrunkInstanceListDetected) {
  Fixture f = MakeFixture();
  SchemaAggregates agg;
  EXPECT_TRUE(agg.FoldNew(f.graph, f.schema));
  SchemaGraph shrunk = f.schema;
  shrunk.node_types[0].instances.pop_back();
  EXPECT_FALSE(agg.ConsistentWith(shrunk));
  EXPECT_FALSE(agg.FoldNew(f.graph, shrunk));
}

TEST(AggregatesTest, PipelineFallsBackOnStaleAggregates) {
  Fixture f = MakeFixture();
  SchemaAggregates stale = BuildAggregates(f.graph, f.schema);
  // External surgery: drop one Person instance. The pipeline must ignore
  // the stale aggregates and still match a rescan of the mutated schema.
  Fixture mutated = f;
  mutated.schema.node_types[0].instances.pop_back();
  PgHivePipeline pipeline{PipelineOptions{}};
  SchemaGraph via_pipeline = mutated.schema;
  pipeline.PostProcessWithAggregates(mutated.graph, &stale, &via_pipeline);
  EXPECT_EQ(SchemaText(via_pipeline), SchemaText(RescanPostProcess(mutated)));
}

TEST(AggregatesTest, NumericPartialsMatchValueStats) {
  Fixture f = MakeFixture();
  SchemaAggregates agg = BuildAggregates(f.graph, f.schema);
  SchemaValueStats stats = ComputeValueStats(f.graph, f.schema, {});
  const GraphSymbols& sym = f.graph.symbols();
  for (size_t i = 0; i < f.schema.node_types.size(); ++i) {
    for (const auto& [key, ps] : stats.node_types[i]) {
      SCOPED_TRACE(f.schema.node_types[i].name + "." + key);
      const SymbolId* sid = sym.keys.Find(key);
      ASSERT_NE(sid, nullptr);
      auto it = agg.node_types[i].keys.find(*sid);
      if (it == agg.node_types[i].keys.end()) {
        EXPECT_EQ(ps.observed, 0u);
        continue;
      }
      EXPECT_EQ(it->second.present, ps.observed);
      EXPECT_EQ(it->second.numeric_count, ps.numeric_count);
      if (ps.numeric_count > 0) {
        EXPECT_DOUBLE_EQ(it->second.numeric_min, ps.numeric_min);
        EXPECT_DOUBLE_EQ(it->second.numeric_max, ps.numeric_max);
      }
    }
  }
}

// End-to-end on a real dataset: the full pipeline with aggregates on/off
// produces identical schemas, one-shot and with the gauges published.
TEST(AggregatesTest, DiscoveryIdenticalWithAndWithoutAggregates) {
  GenerateOptions gen;
  gen.num_nodes = 500;
  gen.num_edges = 900;
  PropertyGraph g = GenerateGraph(MakePoleSpec(), gen).value();
  PipelineOptions on, off;
  off.aggregate_post_process = false;
  auto with = PgHivePipeline(on).DiscoverSchema(g);
  auto without = PgHivePipeline(off).DiscoverSchema(g);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(SchemaText(*with), SchemaText(*without));
  PublishAggregateGauges(BuildAggregates(g, *with));
}

// Sampling mode cannot be served from tallies; the pipeline must fall back
// to the rescan and stay identical to the aggregate-off path.
TEST(AggregatesTest, SamplingModeFallsBackToRescan) {
  GenerateOptions gen;
  gen.num_nodes = 400;
  gen.num_edges = 700;
  PropertyGraph g = GenerateGraph(MakePoleSpec(), gen).value();
  PipelineOptions on, off;
  on.datatypes.sample = true;
  off.datatypes.sample = true;
  off.aggregate_post_process = false;
  auto with = PgHivePipeline(on).DiscoverSchema(g);
  auto without = PgHivePipeline(off).DiscoverSchema(g);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(SchemaText(*with), SchemaText(*without));
}


// --- Flat degree tables ---

// Identity slot hash: in the 8-slot table key k's home slot is k % 8, so a
// test can lay out probe runs exactly. ForEach visits slots in order, which
// exposes the layout.
struct IdentityHash {
  uint64_t operator()(uint64_t k) const { return k; }
};

std::vector<uint64_t> SlotOrder(const CountTable<uint64_t, IdentityHash>& t) {
  std::vector<uint64_t> keys;
  t.ForEach([&](uint64_t k, uint64_t) { keys.push_back(k); });
  return keys;
}

TEST(CountTableTest, BackwardShiftDeletionAcrossWraparound) {
  CountTable<uint64_t, IdentityHash> t;
  // 7, 15 and 23 all home at slot 7: 7 takes it, 15 and 23 wrap to slots 0
  // and 1, and 0 (home 0) is displaced to slot 2.
  for (uint64_t k : {7u, 15u, 23u, 0u}) t.Add(k);
  ASSERT_EQ(t.capacity(), 8u);
  EXPECT_EQ(SlotOrder(t), (std::vector<uint64_t>{15, 23, 0, 7}));

  uint64_t remaining = 1;
  ASSERT_TRUE(t.Decrement(7, &remaining));
  EXPECT_EQ(remaining, 0u);
  // Every follower shifts back one slot, across the wrap: 15 -> 7,
  // 23 -> 0, 0 -> 1 (its home), slot 2 empties.
  EXPECT_EQ(SlotOrder(t), (std::vector<uint64_t>{23, 0, 15}));
  EXPECT_EQ(t.size(), 3u);
  for (uint64_t k : {15u, 23u, 0u}) EXPECT_EQ(t.Get(k), 1u) << k;
  EXPECT_EQ(t.Get(7), 0u);

  // An entry at its home slot must not move back into a hole before it:
  // after 7 goes, 1 sits at its home slot 1 and stays there when 23 leaves
  // slot 0.
  CountTable<uint64_t, IdentityHash> u;
  for (uint64_t k : {7u, 15u, 23u, 1u}) u.Add(k);
  EXPECT_EQ(SlotOrder(u), (std::vector<uint64_t>{15, 23, 1, 7}));
  ASSERT_TRUE(u.Decrement(7, &remaining));
  EXPECT_EQ(SlotOrder(u), (std::vector<uint64_t>{23, 1, 15}));
  ASSERT_TRUE(u.Decrement(23, &remaining));
  EXPECT_EQ(SlotOrder(u), (std::vector<uint64_t>{1, 15}));
  EXPECT_EQ(u.Get(1), 1u);
  EXPECT_EQ(u.Get(15), 1u);
  EXPECT_FALSE(u.Decrement(23, &remaining));
}

TEST(CountTableTest, InsertDeleteCyclesKeepCapacity) {
  CountTable<std::pair<uint64_t, uint64_t>, PairMix64Hash> t;
  for (uint64_t i = 0; i < 100; ++i) t.Add({i, i + 1});
  const size_t capacity = t.capacity();
  std::mt19937_64 rng(7);
  for (uint64_t cycle = 0; cycle < 10000; ++cycle) {
    const std::pair<uint64_t, uint64_t> key{rng(), cycle};
    EXPECT_EQ(t.Add(key, 3), 3u);
    uint64_t remaining = 0;
    for (uint64_t left : {2u, 1u, 0u}) {
      ASSERT_TRUE(t.Decrement(key, &remaining));
      ASSERT_EQ(remaining, left);
    }
  }
  EXPECT_EQ(t.capacity(), capacity);
  EXPECT_EQ(t.size(), 100u);
  for (uint64_t i = 0; i < 100; ++i) EXPECT_EQ(t.Get({i, i + 1}), 1u) << i;
}

// Reference degree maxima of a pair multiset.
std::pair<uint64_t, uint64_t> OracleMaxDegrees(
    const std::map<std::pair<NodeId, NodeId>, uint64_t>& live) {
  std::map<NodeId, uint64_t> out, in;
  for (const auto& [p, n] : live) {
    ++out[p.first];
    ++in[p.second];
  }
  uint64_t max_out = 0, max_in = 0;
  for (const auto& [v, d] : out) max_out = std::max(max_out, d);
  for (const auto& [v, d] : in) max_in = std::max(max_in, d);
  return {max_out, max_in};
}

// Random add/retract interleavings over a small node space (parallel edges,
// self loops, whole pairs retiring and returning) always equal a fresh fold
// of the surviving edges in a different order, and keep exact maxima.
TEST(DegreeStateTest, RandomFoldRetractEqualsFreshFoldOfSurvivors) {
  std::mt19937_64 rng(42);
  for (int round = 0; round < 20; ++round) {
    DegreeState d;
    std::map<std::pair<NodeId, NodeId>, uint64_t> live;
    std::vector<std::pair<NodeId, NodeId>> edges;  // live edge multiset
    for (int op = 0; op < 2000; ++op) {
      if (edges.empty() || rng() % 3 != 0) {
        const std::pair<NodeId, NodeId> e{rng() % 24, rng() % 24};
        d.Add(e.first, e.second);
        ++live[e];
        edges.push_back(e);
      } else {
        const size_t i = rng() % edges.size();
        const auto e = edges[i];
        edges[i] = edges.back();
        edges.pop_back();
        ASSERT_TRUE(d.Retract(e.first, e.second));
        if (--live[e] == 0) live.erase(e);
      }
      if (op % 97 == 0) {
        const auto [max_out, max_in] = OracleMaxDegrees(live);
        ASSERT_EQ(d.max_out(), max_out);
        ASSERT_EQ(d.max_in(), max_in);
      }
    }
    EXPECT_FALSE(d.Retract(1000, 1000));  // never folded: underflow

    std::shuffle(edges.begin(), edges.end(), rng);
    DegreeState fresh;
    for (const auto& [s, t] : edges) fresh.Add(s, t);
    EXPECT_EQ(d, fresh);
    EXPECT_EQ(d.num_pairs(), live.size());
    std::vector<std::pair<DegreeState::Pair, uint64_t>> expected(live.begin(),
                                                                 live.end());
    EXPECT_EQ(d.SortedPairs(), expected);
    const auto [max_out, max_in] = OracleMaxDegrees(live);
    EXPECT_EQ(d.max_out(), max_out);
    EXPECT_EQ(d.max_in(), max_in);
  }
}

TEST(DegreeStateTest, WideNodeIdsStayDistinct) {
  // Ids that agree in their low 32 bits are different nodes.
  const NodeId hi = (NodeId{1} << 32) + 5;
  const NodeId top = ~NodeId{0};
  DegreeState d;
  d.Add(5, 5);
  d.Add(hi, 5);
  d.Add(top, hi, 2);
  EXPECT_EQ(d.num_pairs(), 3u);
  EXPECT_EQ(d.Multiplicity(5, 5), 1u);
  EXPECT_EQ(d.Multiplicity(hi, 5), 1u);
  EXPECT_EQ(d.Multiplicity(top, hi), 2u);
  EXPECT_EQ(d.Multiplicity(top, 5), 0u);
  EXPECT_EQ(d.max_in(), 2u);  // 5 has sources 5 and hi
  EXPECT_EQ(d.max_out(), 1u);
  EXPECT_EQ(d.SortedPairs().back(),
            (std::pair<DegreeState::Pair, uint64_t>{{top, hi}, 2}));
}

// Fold and retract through the schema-level entry points: edges arrive in
// rounds (FoldNew) and random live edges retract between rounds
// (RetractInstances). The maintained state always equals a fresh build over
// the surviving instance lists.
TEST(AggregatesTest, InterleavedFoldRetractEqualsFreshBuild) {
  std::mt19937_64 rng(9);
  Fixture f;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 40; ++i) {
    nodes.push_back(f.AddNode(i % 2 ? "Person" : "Org",
                              {{"rank", Value::Int(static_cast<int64_t>(
                                            rng() % 50))}}));
  }
  SchemaAggregates agg;
  ASSERT_TRUE(agg.FoldNew(f.graph, f.schema));
  RetractionIndex index;
  index.Rebuild(f.schema);
  std::vector<EdgeId> live;
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 60; ++i) {
      const char* type = rng() % 3 ? "LINKS" : "OWNS";
      std::map<std::string, Value> props;
      if (rng() % 2) {
        props["w"] = Value::Double(static_cast<double>(rng() % 1000) / 8.0);
      }
      f.AddEdge(type, nodes[rng() % 8], nodes[rng() % nodes.size()],
                std::move(props));
      live.push_back(f.graph.num_edges() - 1);
    }
    ASSERT_TRUE(agg.FoldNew(f.graph, f.schema));
    index.Sync(f.schema);
    std::vector<EdgeId> dead;
    for (int i = 0; i < 25; ++i) {
      const size_t k = rng() % live.size();
      dead.push_back(live[k]);
      live[k] = live.back();
      live.pop_back();
    }
    RetractionStats stats;
    ASSERT_TRUE(RetractInstances(f.graph, {}, dead, &f.schema, &agg, &index,
                                 &stats)
                    .ok());
    ASSERT_EQ(agg, BuildAggregates(f.graph, f.schema)) << round;
  }
}

}  // namespace
}  // namespace pghive
