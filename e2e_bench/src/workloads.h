// The three workloads of the benchmark (see README.md for their make-up)
// and the per-layer bookkeeping they share.

#ifndef E2E_BENCH_WORKLOADS_H_
#define E2E_BENCH_WORKLOADS_H_

#include <string>

#include "core/pipeline.h"
#include "core/schema.h"
#include "datagen/dataset_spec.h"
#include "graph/property_graph.h"
#include "measure.h"

namespace e2e {

RunResult RunOneshot(const RunConfig& config);
RunResult RunFeed(const RunConfig& config);
RunResult RunDriftStream(const RunConfig& config);

/// IYP at 16x its default size (192,000 nodes, 960,000 edges, clean).
pghive::PropertyGraph MakeIyp16(uint64_t seed);

/// Sums of the StageTimings fields and LSH diagnostics over one pass.
struct StageTotals {
  double embed_train = 0, encode_nodes = 0, encode_edges = 0;
  double cluster_nodes = 0, cluster_edges = 0;
  double extract_nodes = 0, extract_edges = 0;
  double post_process = 0, post_fold = 0, post_constraints = 0;
  double post_datatypes = 0, post_cardinalities = 0;
  double node_clusters = 0, edge_clusters = 0, node_tables = 0;

  /// The batch stages of one ProcessBatch/Feed (read right after it).
  void AddBatch(const pghive::BatchDiagnostics& d);
  /// The post-processing stages (read right after PostProcess/Finish).
  void AddPost(const pghive::StageTimings& t);
  /// Seconds the batch stages account for.
  double BatchStages() const;
  /// Adds text/encode/cluster/lsh/extract/post layer samples.
  void Report(size_t final_types, LayerSamples* layers) const;
};

/// Adds graph.node_signatures / graph.edge_signatures.
void ReportSignatures(const pghive::PropertyGraph& g, LayerSamples* layers);

/// trace.time_to_schema_s from the traced rounds and trace.overhead_s, its
/// difference to the untraced rounds' median (when the run had both).
void ReportTracingOverhead(const std::vector<double>& traced_s,
                           const std::vector<double>& plain_s,
                           LayerSamples* layers);

/// state_bytes of the in-process workloads, whose result persists as the
/// schema document `pghive discover --save-schema` writes (SaveSchemaJson):
/// saves `schema` to `path` and checks that loading it back (LoadSchemaJson,
/// as `pghive validate --schema` does) renders byte-identically.
void ReportSavedSchema(const pghive::SchemaGraph& schema,
                       const std::string& path, RunResult* result);

}  // namespace e2e

#endif  // E2E_BENCH_WORKLOADS_H_
