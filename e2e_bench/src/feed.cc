// feed-iyp: IYP x16 cut by SplitIntoBatches into 128 batches and fed to an
// IncrementalDiscoverer with the MinHash backend; post-processing runs only
// at Finish.

#include "checks.h"
#include "core/incremental.h"
#include "core/schema_json.h"
#include "core/validation.h"
#include "eval/f1.h"
#include "workloads.h"

namespace e2e {

using pghive::GraphBatch;
using pghive::IncrementalDiscoverer;
using pghive::PropertyGraph;
using pghive::SchemaGraph;

namespace {

constexpr size_t kBatches = 128;
// incremental.growth compares the mean of this many last Feed calls with
// the first ones.
constexpr size_t kGrowthWindow = 8;

pghive::IncrementalOptions FeedOptions() {
  pghive::IncrementalOptions options;
  options.pipeline.method = pghive::ClusteringMethod::kMinHash;
  return options;
}

/// An untimed pass that checks the §4.6 monotone chain after every batch
/// and returns the finished schema.
SchemaGraph CheckedPass(const PropertyGraph& g,
                        const std::vector<GraphBatch>& batches,
                        RunResult* result) {
  IncrementalDiscoverer discoverer(FeedOptions());
  SchemaGraph previous;
  for (const GraphBatch& batch : batches) {
    const pghive::Status status = discoverer.Feed(batch);
    if (!status.ok()) {
      result->AddProblem("Feed failed: " + status.ToString());
      return previous;
    }
    result->AddProblems(CheckMonotone(previous, discoverer.schema()));
    previous = discoverer.schema();
  }
  return discoverer.Finish(g);
}

}  // namespace

RunResult RunFeed(const RunConfig& config) {
  RunResult result;
  LayerSamples layers;
  const PropertyGraph g = MakeIyp16(config.seed);
  const std::vector<GraphBatch> batches =
      pghive::SplitIntoBatches(g, kBatches);
  result.Set("setup_s", SecondsSince(ProcessStart()), "s");
  Note("graph generated and split");

  std::vector<double> batch_ms, plain_s, traced_s;
  SchemaGraph schema;
  std::string first_json;
  const Clock::time_point loop_start = Clock::now();
  for (int round = 0; round == 0 || SecondsSince(loop_start) < config.seconds;
       ++round) {
    // In the traced run every other round reads the StageTimings after
    // each call; the rounds between are untraced.
    const bool traced = config.trace && round % 2 == 0;
    IncrementalDiscoverer discoverer(FeedOptions());
    StageTotals stages;
    std::vector<double> round_ms;
    const Clock::time_point start = Clock::now();
    for (const GraphBatch& batch : batches) {
      const Clock::time_point feed_start = Clock::now();
      const pghive::Status status = discoverer.Feed(batch);
      round_ms.push_back(MsSince(feed_start));
      ++result.attempted;
      if (!status.ok()) {
        ++result.failed;
        continue;
      }
      if (traced) stages.AddBatch(discoverer.last_diagnostics());
    }
    const Clock::time_point finish_start = Clock::now();
    schema = discoverer.Finish(g);
    const double finish_s = SecondsSince(finish_start);
    const double total_s = SecondsSince(start);
    batch_ms.insert(batch_ms.end(), round_ms.begin(), round_ms.end());
    (traced ? traced_s : plain_s).push_back(total_s);

    if (traced) {
      stages.AddPost(discoverer.last_diagnostics().timings);
      const double feed_s = Sum(round_ms) * 1e-3;
      layers.Add("incremental.feed_s", feed_s, "s");
      layers.Add("incremental.finish_s", finish_s, "s");
      layers.Add("incremental.unstaged_s", feed_s - stages.BatchStages(), "s");
      const std::vector<double> first(round_ms.begin(),
                                      round_ms.begin() + kGrowthWindow);
      const std::vector<double> last(round_ms.end() - kGrowthWindow,
                                     round_ms.end());
      layers.Add("incremental.growth", Mean(last) / Mean(first), "ratio");
      layers.Add("pipeline.post_process_s", finish_s, "s");
      layers.Add("pipeline.stage_coverage",
                 (stages.BatchStages() + stages.post_process) / total_s,
                 "ratio");
      stages.Report(schema.num_types(), &layers);
    }
    const std::string json = pghive::SchemaToJson(schema);
    if (round == 0) first_json = json;
    result.AddProblems(CheckSameBytes(
        "round " + std::to_string(round) + " schema", json, first_json));
  }
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  const std::vector<double>& rounds = config.trace ? traced_s : plain_s;
  result.Set("time_to_schema_s", Median(rounds), "s");
  result.Set("batch_p50_ms", Quantile(batch_ms, 0.5), "ms");
  result.Set("batch_p90_ms", Quantile(batch_ms, 0.9), "ms");
  if (config.trace) {
    ReportTracingOverhead(traced_s, plain_s, &layers);
  }
  Note("measured " + std::to_string(rounds.size()) + " rounds");
  ReportSavedSchema(schema, config.work_dir + "/schema.json", &result);

  // Output checks: the monotone chain on a separate pass that must end in
  // the same schema, conservation, STRICT validity and F1*.
  const SchemaGraph checked = CheckedPass(g, batches, &result);
  result.AddProblems(CheckSameBytes("checked pass schema",
                                    pghive::SchemaToJson(checked),
                                    first_json));
  Note("monotone chain checked");
  result.AddProblems(CheckConservation(g, schema));
  pghive::ValidationOptions strict;
  strict.mode = pghive::ValidationMode::kStrict;
  strict.max_violations = 1;
  const pghive::ValidationReport report =
      pghive::ValidateGraph(g, schema, strict);
  const double invalid =
      static_cast<double>(report.elements_checked - report.elements_valid);
  if (!report.valid()) {
    result.AddProblem(std::to_string(static_cast<size_t>(invalid)) +
                      " elements fail STRICT validation, e.g. " +
                      report.violations.front().ToString());
  }
  const double f1_nodes = pghive::MajorityF1Nodes(g, schema).f1;
  const double f1_edges = pghive::MajorityF1Edges(g, schema).f1;
  result.AddProblems(
      CheckF1("node", f1_nodes, NodeClusters(schema), NodeTruth(g)));
  result.AddProblems(
      CheckF1("edge", f1_edges, EdgeClusters(schema), EdgeTruth(g)));
  result.Set("f1_nodes", f1_nodes, "score");
  result.Set("f1_edges", f1_edges, "score");
  Note("outputs checked");
  if (config.trace) {
    ReportSignatures(g, &layers);
    layers.Add("validation.strict_invalid", invalid, "count");
  }
  layers.Report(&result);
  return result;
}

}  // namespace e2e
