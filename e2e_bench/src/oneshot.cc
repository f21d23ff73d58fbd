// oneshot-iyp: one-shot discovery of IYP x16 with default options (ELSH,
// adaptive LSH, post-processing on) on one pipeline thread.

#include <cstdio>

#include "checks.h"
#include "core/schema_json.h"
#include "core/validation.h"
#include "datagen/generator.h"
#include "eval/f1.h"
#include "workloads.h"

namespace e2e {

using pghive::PgHivePipeline;
using pghive::PropertyGraph;
using pghive::SchemaGraph;

namespace {

/// STRICT validation of the graph against its own discovered schema, one
/// operation per element. Run on the generator's default seed, which does
/// not depend on --seed, so the failing share repeats exactly: on IYP the
/// ELSH schema puts elements whose label set equals one discovered type
/// into a larger merged type, and ValidateGraph then matches them to the
/// exact-label type, whose MANDATORY keys they lack.
void CountStrictValidations(RunResult* result) {
  const PropertyGraph g = MakeIyp16(pghive::GenerateOptions{}.seed);
  PgHivePipeline pipeline;
  auto schema = pipeline.DiscoverSchema(g);
  if (!schema.ok()) {
    result->AddProblem("discovery of the validation graph failed: " +
                       schema.status().ToString());
    return;
  }
  pghive::ValidationOptions strict;
  strict.mode = pghive::ValidationMode::kStrict;
  strict.max_violations = 1;
  const pghive::ValidationReport report =
      pghive::ValidateGraph(g, *schema, strict);
  result->attempted += report.elements_checked;
  result->failed += report.elements_checked - report.elements_valid;
  if (!report.valid()) {
    std::fprintf(stderr,
                 "oneshot-iyp: %zu of %zu elements fail STRICT validation "
                 "against their own schema (e.g. %s)\n",
                 report.elements_checked - report.elements_valid,
                 report.elements_checked,
                 report.violations.front().ToString().c_str());
  }
}

}  // namespace

RunResult RunOneshot(const RunConfig& config) {
  RunResult result;
  LayerSamples layers;
  SchemaGraph schema;
  {
    const PropertyGraph g = MakeIyp16(config.seed);
    result.Set("setup_s", SecondsSince(ProcessStart()), "s");
    Note("graph generated");

    std::vector<double> plain_s, traced_s, process_ms;
      std::string first_json;
    const Clock::time_point loop_start = Clock::now();
    for (int round = 0;
         round == 0 || SecondsSince(loop_start) < config.seconds; ++round) {
      // DiscoverSchema is ProcessBatch over the whole graph followed by
      // PostProcess; the two are called separately so the batch step has
      // its own time. In the traced run every other round also reads the
      // StageTimings after each; the rounds between are untraced, for the
      // tracing overhead.
      const bool traced = config.trace && round % 2 == 0;
      PgHivePipeline pipeline;
      SchemaGraph discovered;
      StageTotals stages;
      const Clock::time_point start = Clock::now();
      const pghive::Status status =
          pipeline.ProcessBatch(pghive::FullBatch(g), &discovered);
      const double process_s = SecondsSince(start);
      if (!status.ok()) {
        result.AddProblem("ProcessBatch failed: " + status.ToString());
        break;
      }
      if (traced) stages.AddBatch(pipeline.last_diagnostics());
      const Clock::time_point post_start = Clock::now();
      pipeline.PostProcess(g, &discovered);
      const double post_s = SecondsSince(post_start);
      process_ms.push_back(process_s * 1e3);
      (traced ? traced_s : plain_s).push_back(process_s + post_s);
      if (traced) {
        stages.AddPost(pipeline.last_diagnostics().timings);
        layers.Add("pipeline.process_batch_s", process_s, "s");
        layers.Add("pipeline.post_process_s", post_s, "s");
        layers.Add("pipeline.stage_coverage",
                   (stages.BatchStages() + stages.post_process) /
                       (process_s + post_s),
                   "ratio");
        stages.Report(discovered.num_types(), &layers);
      }
      schema = std::move(discovered);
      const std::string json = pghive::SchemaToJson(schema);
      if (round == 0) first_json = json;
      result.AddProblems(CheckSameBytes("round " + std::to_string(round) +
                                            " schema",
                                        json, first_json));
      }
    result.Set("peak_rss_mb", PeakRssMb(), "MB");

    const std::vector<double>& rounds = config.trace ? traced_s : plain_s;
    result.Set("time_to_schema_s", Median(rounds), "s");
    // The one batch of a one-shot run is the whole graph: its ProcessBatch.
    result.Set("batch_p50_ms", Quantile(process_ms, 0.5), "ms");
    result.Set("batch_p90_ms", Quantile(process_ms, 0.9), "ms");
    if (config.trace) {
      ReportTracingOverhead(traced_s, plain_s, &layers);
    }
    Note("measured " + std::to_string(rounds.size()) + " rounds");
    ReportSavedSchema(schema, config.work_dir + "/schema.json", &result);

    // Output checks.
    result.AddProblems(CheckConservation(g, schema));
    result.AddProblems(CheckInstanceConformance(g, schema));
    const pghive::ValidationReport loose = pghive::ValidateGraph(g, schema);
    if (loose.elements_valid != loose.elements_checked ||
        loose.elements_checked != g.num_nodes() + g.num_edges()) {
      result.AddProblem("LOOSE validation covers " +
                        std::to_string(loose.elements_valid) + " of " +
                        std::to_string(g.num_nodes() + g.num_edges()));
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
      pghive::ValidationOptions strict;
      strict.mode = pghive::ValidationMode::kStrict;
      strict.max_violations = 1;
      const pghive::ValidationReport report =
          pghive::ValidateGraph(g, schema, strict);
      layers.Add("validation.strict_invalid",
                 static_cast<double>(report.elements_checked -
                                     report.elements_valid),
                 "count");
    }
  }
  CountStrictValidations(&result);
  Note("STRICT validations counted");
  layers.Report(&result);
  return result;
}

}  // namespace e2e
