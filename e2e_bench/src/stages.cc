// Shared pieces of the workloads: the IYP input, StageTimings totals and
// the saved schema document.

#include <filesystem>
#include <stdexcept>

#include "checks.h"
#include "core/schema_json.h"
#include "datagen/datasets.h"
#include "datagen/generator.h"
#include "workloads.h"

namespace e2e {

using pghive::SchemaGraph;

pghive::PropertyGraph MakeIyp16(uint64_t seed) {
  const pghive::DatasetSpec spec = pghive::MakeIypSpec();
  pghive::GenerateOptions gen;
  gen.num_nodes = 16 * spec.default_nodes;
  gen.num_edges = 16 * spec.default_edges;
  gen.seed = seed;
  auto g = pghive::GenerateGraph(spec, gen);
  if (!g.ok()) throw std::runtime_error(g.status().ToString());
  return std::move(*g);
}

void StageTotals::AddBatch(const pghive::BatchDiagnostics& d) {
  const pghive::StageTimings& t = d.timings;
  embed_train += t.embed_train;
  encode_nodes += t.encode_nodes;
  encode_edges += t.encode_edges;
  cluster_nodes += t.cluster_nodes;
  cluster_edges += t.cluster_edges;
  extract_nodes += t.extract_nodes;
  extract_edges += t.extract_edges;
  node_clusters += static_cast<double>(d.node_clusters);
  edge_clusters += static_cast<double>(d.edge_clusters);
  node_tables = d.node_params.num_tables;
}

void StageTotals::AddPost(const pghive::StageTimings& t) {
  post_process += t.post_process;
  post_fold += t.post_fold;
  post_constraints += t.post_constraints;
  post_datatypes += t.post_datatypes;
  post_cardinalities += t.post_cardinalities;
}

double StageTotals::BatchStages() const {
  return embed_train + encode_nodes + encode_edges + cluster_nodes +
         cluster_edges + extract_nodes + extract_edges;
}

void StageTotals::Report(size_t final_types, LayerSamples* layers) const {
  layers->Add("text.embed_train_s", embed_train, "s");
  layers->Add("encode.nodes_s", encode_nodes, "s");
  layers->Add("encode.edges_s", encode_edges, "s");
  layers->Add("cluster.nodes_s", cluster_nodes, "s");
  layers->Add("cluster.edges_s", cluster_edges, "s");
  layers->Add("lsh.node_tables", node_tables, "count");
  layers->Add("lsh.node_clusters", node_clusters, "count");
  layers->Add("lsh.edge_clusters", edge_clusters, "count");
  layers->Add("extract.nodes_s", extract_nodes, "s");
  layers->Add("extract.edges_s", extract_edges, "s");
  layers->Add("extract.merge_ratio",
              final_types ? (node_clusters + edge_clusters) / final_types : 0.0,
              "ratio");
  layers->Add("post.fold_s", post_fold, "s");
  layers->Add("post.constraints_s", post_constraints, "s");
  layers->Add("post.datatypes_s", post_datatypes, "s");
  layers->Add("post.cardinalities_s", post_cardinalities, "s");
}

void ReportSignatures(const pghive::PropertyGraph& g, LayerSamples* layers) {
  layers->Add("graph.node_signatures",
              static_cast<double>(g.NodeSignatureGroups().size()), "count");
  layers->Add("graph.edge_signatures",
              static_cast<double>(g.EdgeSignatureGroups().size()), "count");
}

void ReportTracingOverhead(const std::vector<double>& traced_s,
                           const std::vector<double>& plain_s,
                           LayerSamples* layers) {
  layers->Add("trace.time_to_schema_s", Median(traced_s), "s");
  if (!traced_s.empty() && !plain_s.empty()) {
    layers->Add("trace.overhead_s", Median(traced_s) - Median(plain_s), "s");
  }
}

void ReportSavedSchema(const SchemaGraph& schema, const std::string& path,
                       RunResult* result) {
  const pghive::Status saved = pghive::SaveSchemaJson(schema, path);
  if (!saved.ok()) {
    result->AddProblem("saving the schema failed: " + saved.ToString());
    return;
  }
  result->Set("state_bytes",
              static_cast<double>(std::filesystem::file_size(path)), "bytes");
  auto loaded = pghive::LoadSchemaJson(path);
  result->AddProblems(CheckSameBytes(
      "reloaded schema", loaded.ok() ? pghive::SchemaToJson(*loaded) : "",
      pghive::SchemaToJson(schema)));
}

}  // namespace e2e
