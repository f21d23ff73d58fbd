// drift-stream: the steady mutation stream (256 batches of 400 inserts,
// each deleting or updating part of the previous batch) fed through the
// engine's retraction path in memory — the timed rounds — and, once per
// run, sent as wire JSON to a `pghive serve` daemon hosting one fresh
// state dir (default checkpoint policy, journal fsync on, 2 HTTP workers).
// There one writer connection runs a closed loop — POST a batch, long-poll
// /drift until its epoch is visible, send the next — while one reader
// connection loops on GET /schema; then the daemon stops and restarts on
// the same dir, three times, and must serve the same schema each time.
// The drained state dir gives state_bytes. The ingest and restart timings
// are per-layer: the state dir lives inside the checkout, on disk, and
// every checkpoint flushes a whole-graph snapshot there, so the ingest
// follows the shared disk more than the code.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "checks.h"
#include "common/json.h"
#include "core/incremental.h"
#include "core/schema_json.h"
#include "core/validation.h"
#include "daemon.h"
#include "datagen/evolution.h"
#include "drift/replay.h"
#include "eval/f1.h"
#include "serve/wire.h"
#include "store/state_store.h"
#include "workloads.h"

namespace e2e {

using pghive::MutationBatch;
using pghive::PropertyGraph;
using pghive::SchemaGraph;
using pghive::Status;

namespace {

constexpr size_t kBatches = 256;
constexpr size_t kPerBatch = 400;
// Restarts of the drained daemon; serve.recovery_s is their median.
constexpr int kRestarts = 3;
constexpr char kGraph[] = "g";
constexpr char kSchemaPath[] = "/v1/graphs/g/schema";
constexpr char kBatchesPath[] = "/v1/graphs/g/batches";
// The reader's think time between two GETs, so it samples read latency
// alongside ingest without saturating the daemon's workers.
constexpr auto kReaderPause = std::chrono::milliseconds(1);
// incremental.growth compares the mean of this many last Feed calls with
// the first ones.
constexpr size_t kGrowthWindow = 8;
// Span aggregates read from the traced daemon's --metrics-out export.
constexpr const char* kDaemonSpans[] = {"serve.parse", "serve.queue_wait",
                                        "serve.apply", "store.checkpoint",
                                        "serve.snapshot_publish"};

/// Makes the stream's property values depend on the seed (strings gain a
/// suffix, integers an offset) without changing its structure.
void SeedValues(uint64_t seed, std::vector<MutationBatch>* stream) {
  const std::string suffix = "~" + std::to_string(seed);
  const int64_t offset = static_cast<int64_t>(seed % 997);
  auto reseed = [&](std::map<std::string, pghive::Value>* props) {
    for (auto& [key, value] : *props) {
      if (value.type() == pghive::DataType::kString) {
        value = pghive::Value::String(value.AsString() + suffix);
      } else if (value.type() == pghive::DataType::kInt) {
        value = pghive::Value::Int(value.AsInt() + offset);
      }
    }
  };
  for (MutationBatch& mb : *stream) {
    for (auto& n : mb.nodes) reseed(&n.properties);
    for (auto& e : mb.edges) reseed(&e.properties);
    for (auto& u : mb.mutations.update_nodes) reseed(&u.data.properties);
    for (auto& u : mb.mutations.update_edges) reseed(&u.data.properties);
  }
}

/// The stream's intended types: each carries exactly one label set
/// (datagen/evolution.h), so an element's label set is its ground truth.
template <typename Elems>
std::vector<std::string> LabelTruth(const Elems& elems) {
  std::vector<std::string> truth;
  truth.reserve(elems.size());
  for (const auto& e : elems) {
    std::string joined;
    for (const std::string& l : e.labels) joined += l + "&";
    truth.push_back(joined);
  }
  return truth;
}

/// Counts one HTTP exchange; true when it answered `want`.
bool Tally(const pghive::Result<pghive::serve::HttpResponse>& resp, int want,
           RunResult* result) {
  ++result->attempted;
  if (resp.ok() && resp->status == want) return true;
  ++result->failed;
  return false;
}

uint64_t EpochOf(const pghive::serve::HttpResponse& resp) {
  auto it = resp.headers.find("x-pghive-epoch");
  return it == resp.headers.end() ? 0 : std::strtoull(it->second.c_str(),
                                                      nullptr, 10);
}

struct Round {
  double time_to_schema_s = 0;
  std::vector<double> batch_ms, post_ms, visible_ms, read_ms;
  std::string final_schema;
  uint64_t final_epoch = 0;
};

/// The closed-loop writer plus the concurrent reader, on one daemon.
Round Ingest(const Daemon& daemon, const std::vector<std::string>& bodies,
             RunResult* result) {
  Round round;
  std::atomic<bool> writing{true};
  // The reader tallies into its own result, merged after the join.
  RunResult reads;
  std::thread reader([&] {
    auto client = Client::Connect(daemon.port());
    if (!client.ok()) reads.AddProblem("reader cannot connect");
    while (client.ok() && writing.load()) {
      const Clock::time_point start = Clock::now();
      auto resp = (*client)->Call("GET", kSchemaPath);
      const double ms = MsSince(start);
      if (!Tally(resp, 200, &reads)) break;
      round.read_ms.push_back(ms);
      std::this_thread::sleep_for(kReaderPause);
    }
  });

  auto client = Client::Connect(daemon.port());
  const Clock::time_point first_post = Clock::now();
  for (size_t i = 0; client.ok() && i < bodies.size(); ++i) {
    const Clock::time_point start = Clock::now();
    auto posted = (*client)->Call("POST", kBatchesPath, bodies[i]);
    const Clock::time_point accepted = Clock::now();
    uint64_t batch_id = 0;
    if (!Tally(posted, 202, result)) {
      result->AddProblem("POST of batch " + std::to_string(i + 1) +
                         " not accepted");
      break;
    }
    auto doc = pghive::ParseJson(posted->body);
    if (doc.ok()) {
      auto id = doc->GetInt("batch_id");
      if (id.ok()) batch_id = static_cast<uint64_t>(*id);
    }
    const std::string wait_target = "/v1/graphs/g/drift?since=" +
                                    std::to_string(batch_id - 1) + "&wait=1";
    bool visible = false;
    while (!visible) {
      auto resp = (*client)->Call("GET", wait_target);
      if (!Tally(resp, 200, result)) break;
      visible = EpochOf(*resp) >= batch_id;
    }
    if (!visible) {
      result->AddProblem("batch " + std::to_string(i + 1) + " never visible");
      break;
    }
    round.post_ms.push_back(
        std::chrono::duration<double, std::milli>(accepted - start).count());
    round.visible_ms.push_back(MsSince(accepted));
    round.batch_ms.push_back(MsSince(start));
  }
  round.time_to_schema_s = SecondsSince(first_post);
  writing.store(false);
  reader.join();
  result->attempted += reads.attempted;
  result->failed += reads.failed;
  result->AddProblems(reads.problems);
  if (!client.ok()) {
    result->AddProblem("writer cannot connect");
    return round;
  }
  auto final_resp = (*client)->Call("GET", kSchemaPath);
  if (Tally(final_resp, 200, result)) {
    round.final_schema = final_resp->body;
    round.final_epoch = EpochOf(*final_resp);
  }
  return round;
}

/// Polls a restarted daemon until it serves the schema and epoch `before`
/// ended with; false (with a problem recorded) when it serves another.
bool ServesAgain(const Daemon& daemon, const Round& before,
                 RunResult* result) {
  auto client = Client::Connect(daemon.port());
  for (int attempt = 0; client.ok() && attempt < 100; ++attempt) {
    auto resp = (*client)->Call("GET", kSchemaPath);
    if (!Tally(resp, 200, result)) break;
    if (resp->body != before.final_schema) continue;
    if (EpochOf(*resp) != before.final_epoch) {
      result->AddProblem("epoch after restart " +
                         std::to_string(EpochOf(*resp)) + ", before " +
                         std::to_string(before.final_epoch));
    }
    return true;
  }
  result->AddProblem("restarted daemon does not serve the same schema");
  return false;
}

/// Span name -> total seconds, from a --metrics-out JSONL export.
std::map<std::string, double> SpanTotals(const std::string& path) {
  std::map<std::string, double> totals;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"span_stats\"") == std::string::npos) continue;
    auto doc = pghive::ParseJson(line);
    if (!doc.ok()) continue;
    auto name = doc->GetString("name");
    auto total = doc->GetDouble("total_seconds");
    if (name.ok() && total.ok()) totals[*name] = *total;
  }
  return totals;
}

/// Feeds a stream (inserts, deletions and updates) through an in-memory
/// IncrementalDiscoverer: no store, no HTTP. Returns the finished schema.
SchemaGraph FeedInMemory(const std::vector<MutationBatch>& stream,
                         PropertyGraph* g, StageTotals* stages,
                         std::vector<double>* feed_ms, RunResult* result) {
  pghive::IncrementalDiscoverer discoverer;
  for (const MutationBatch& mb : stream) {
    const Clock::time_point start = Clock::now();
    auto applied = pghive::drift::ApplyMutationBatch(g, mb);
    if (!applied.ok()) {
      result->AddProblem("in-memory apply failed: " +
                         applied.status().ToString());
      return {};
    }
    const Status status =
        applied->deleted_nodes.empty() && applied->deleted_edges.empty()
            ? discoverer.Feed(applied->batch)
            : discoverer.FeedMutations(applied->batch, applied->deleted_nodes,
                                       applied->deleted_edges);
    if (feed_ms) feed_ms->push_back(MsSince(start));
    if (!status.ok()) {
      result->AddProblem("in-memory feed failed: " + status.ToString());
      return {};
    }
    if (stages) stages->AddBatch(discoverer.last_diagnostics());
  }
  SchemaGraph schema = discoverer.Finish(*g);
  if (stages) stages->AddPost(discoverer.last_diagnostics().timings);
  return schema;
}

/// The traced run's in-process store and wire layers: a durable replay of
/// the stream with the daemon's store settings, and wire decoding.
void MeasureStoreAndWire(const std::vector<MutationBatch>& stream,
                         const std::vector<std::string>& bodies,
                         const std::string& reference,
                         const std::string& work_dir, RunResult* result,
                         LayerSamples* layers) {
  // Durable replay with the daemon's store settings.
  const std::string dir = work_dir + "/store-replay";
  std::filesystem::remove_all(dir);
  {
    auto store = pghive::store::DurableDiscoverer::OpenOrRecover(
        dir, pghive::store::StoreOptions{});
    if (!store.ok()) {
      result->AddProblem("store open failed: " + store.status().ToString());
      return;
    }
    std::vector<double> plain_ms, checkpoint_ms;
    uint64_t peak_journal_bytes = 0;
    for (const MutationBatch& mb : stream) {
      const Clock::time_point start = Clock::now();
      const Status status = (*store)->Feed(mb);
      const double ms = MsSince(start);
      if (!status.ok()) {
        result->AddProblem("store feed failed: " + status.ToString());
        return;
      }
      const bool checkpointed = (*store)->batches_since_checkpoint() == 0;
      (checkpointed ? checkpoint_ms : plain_ms).push_back(ms);
      // The journal peaks right before a checkpoint truncates it.
      if (!checkpointed) {
        peak_journal_bytes = std::max(
            peak_journal_bytes,
            pghive::store::CollectStateDirMetrics(dir).journal_bytes);
      }
    }
    layers->Add("store.journal_bytes", static_cast<double>(peak_journal_bytes),
                "bytes");
    const Clock::time_point finish_start = Clock::now();
    auto finished = (*store)->Finish();
    layers->Add("store.finish_s", SecondsSince(finish_start), "s");
    if (!finished.ok()) {
      result->AddProblem("store finish failed: " +
                         finished.status().ToString());
      return;
    }
    layers->Add("store.feed_ms", Mean(plain_ms), "ms");
    layers->Add("store.checkpoint_feed_ms", Mean(checkpoint_ms), "ms");
  }
  layers->Add("store.snapshot_bytes",
              static_cast<double>(
                  pghive::store::CollectStateDirMetrics(dir).snapshot_bytes),
              "bytes");
  {
    const Clock::time_point start = Clock::now();
    auto recovered = pghive::store::DurableDiscoverer::OpenOrRecover(
        dir, pghive::store::StoreOptions{});
    layers->Add("store.recover_s", SecondsSince(start), "s");
    if (!recovered.ok()) {
      result->AddProblem("store recovery failed: " +
                         recovered.status().ToString());
    } else {
      result->AddProblems(CheckSameBytes(
          "recovered store schema",
          pghive::SchemaToJson((*recovered)->PostProcessedSchema()),
          reference));
    }
  }
  std::filesystem::remove_all(dir);

  std::vector<double> decode_ms, body_bytes;
  for (const std::string& body : bodies) {
    const Clock::time_point start = Clock::now();
    auto doc = pghive::ParseJson(body);
    const bool ok = doc.ok() && pghive::serve::BatchFromJson(*doc).ok();
    decode_ms.push_back(MsSince(start));
    body_bytes.push_back(static_cast<double>(body.size()));
    if (!ok) result->AddProblem("a wire body does not decode");
  }
  layers->Add("wire.decode_ms", Mean(decode_ms), "ms");
  layers->Add("wire.batch_bytes", Mean(body_bytes), "bytes");
}

/// The daemon pass of one run: the stream over HTTP with a concurrent
/// reader, then a stop and kRestarts restarts on the same dir. Checks the
/// served schema against `reference` and every restart against the served
/// one, and sets state_bytes; with tracing on, the daemon exports its spans
/// and the pass's figures become per-layer metrics.
void RunDaemonPass(const RunConfig& config,
                   const std::vector<std::string>& bodies,
                   const std::string& reference, RunResult* result,
                   LayerSamples* layers) {
  DaemonOptions options;
  options.pghive = config.pghive;
  options.graph = kGraph;
  options.run_dir = config.work_dir;
  options.state_dir = config.work_dir + "/state";
  const std::string metrics_out = config.work_dir + "/metrics.jsonl";
  if (config.trace) options.metrics_out = metrics_out;
  auto daemon = Daemon::Start(options);
  if (!daemon.ok()) throw std::runtime_error(daemon.status().ToString());
  const Round round = Ingest(**daemon, bodies, result);
  const Status stopped = (*daemon)->Stop();
  if (!stopped.ok()) result->AddProblem(stopped.ToString());
  if (round.final_epoch != kBatches) {
    result->AddProblem("final epoch " + std::to_string(round.final_epoch) +
                       ", expected " + std::to_string(kBatches));
  }
  result->AddProblems(
      CheckSameBytes("served schema", round.final_schema, reference));
  result->Set("state_bytes", static_cast<double>(DirBytes(options.state_dir)),
              "bytes");
  const double history_bytes = static_cast<double>(
      pghive::store::CollectStateDirMetrics(options.state_dir)
          .drift_history_bytes);
  Note("stream served");

  options.metrics_out.clear();
  std::vector<double> recovery_s;
  for (int i = 0; i < kRestarts; ++i) {
    const Clock::time_point restart = Clock::now();
    auto again = Daemon::Start(options);
    if (!again.ok()) throw std::runtime_error(again.status().ToString());
    ServesAgain(**again, round, result);
    recovery_s.push_back(SecondsSince(restart));
    const Status stopped_again = (*again)->Stop();
    if (!stopped_again.ok()) result->AddProblem(stopped_again.ToString());
  }
  std::filesystem::remove_all(options.state_dir);
  Note("restarts served the same schema");

  if (!config.trace) return;
  layers->Add("serve.time_to_schema_s", round.time_to_schema_s, "s");
  layers->Add("serve.batch_p50_ms", Quantile(round.batch_ms, 0.5), "ms");
  layers->Add("serve.batch_p90_ms", Quantile(round.batch_ms, 0.9), "ms");
  layers->Add("serve.read_p99_ms", Quantile(round.read_ms, 0.99), "ms");
  layers->Add("serve.recovery_s", Median(recovery_s), "s");
  layers->Add("serve.peak_rss_mb", (*daemon)->peak_rss_mb(), "MB");
  layers->Add("serve.post_ms", Median(round.post_ms), "ms");
  layers->Add("serve.visible_wait_ms", Median(round.visible_ms), "ms");
  layers->Add("serve.get_schema_ms", Median(round.read_ms), "ms");
  layers->Add("drift.history_bytes", history_bytes, "bytes");
  const std::map<std::string, double> spans = SpanTotals(metrics_out);
  for (const char* name : kDaemonSpans) {
    auto it = spans.find(name);
    layers->Add(name, it == spans.end() ? 0.0 : it->second, "s");
  }
}

}  // namespace

RunResult RunDriftStream(const RunConfig& config) {
  RunResult result;
  LayerSamples layers;
  std::vector<MutationBatch> stream =
      pghive::MakeSteadyMutationStream(kBatches, kPerBatch);
  SeedValues(config.seed, &stream);
  auto survivors = pghive::drift::NetSurvivingStream(stream);
  if (!survivors.ok()) {
    throw std::runtime_error(survivors.status().ToString());
  }
  std::vector<std::string> bodies;
  bodies.reserve(stream.size());
  for (const MutationBatch& mb : stream) {
    bodies.push_back(pghive::serve::BatchToJson(mb).Dump());
  }
  result.Set("setup_s", SecondsSince(ProcessStart()), "s");
  Note("stream built");

  std::vector<double> batch_ms, plain_s, traced_s;
  PropertyGraph graph;
  SchemaGraph schema;
  std::string first_json;
  const Clock::time_point loop_start = Clock::now();
  for (int round = 0; round == 0 || SecondsSince(loop_start) < config.seconds;
       ++round) {
    // In the traced run every other round reads the StageTimings after
    // each call; the rounds between are untraced.
    const bool traced = config.trace && round % 2 == 0;
    PropertyGraph g;
    StageTotals stages;
    std::vector<double> round_ms;
    const Clock::time_point start = Clock::now();
    schema = FeedInMemory(stream, &g, traced ? &stages : nullptr, &round_ms,
                          &result);
    const double total_s = SecondsSince(start);
    result.attempted += stream.size();
    batch_ms.insert(batch_ms.end(), round_ms.begin(), round_ms.end());
    (traced ? traced_s : plain_s).push_back(total_s);
    if (traced && round_ms.size() == stream.size()) {
      const double feed_s = Sum(round_ms) * 1e-3;
      layers.Add("retraction.mutation_stream_s", total_s, "s");
      layers.Add("incremental.feed_s", feed_s, "s");
      layers.Add("incremental.finish_s", total_s - feed_s, "s");
      layers.Add("incremental.unstaged_s", feed_s - stages.BatchStages(), "s");
      layers.Add("incremental.growth",
                 Mean(std::vector<double>(round_ms.end() - kGrowthWindow,
                                          round_ms.end())) /
                     Mean(std::vector<double>(
                         round_ms.begin(), round_ms.begin() + kGrowthWindow)),
                 "ratio");
      layers.Add("pipeline.post_process_s", total_s - feed_s, "s");
      layers.Add("pipeline.stage_coverage",
                 (stages.BatchStages() + stages.post_process) / total_s,
                 "ratio");
      stages.Report(schema.num_types(), &layers);
    }
    const std::string json = pghive::SchemaToJson(schema);
    if (round == 0) first_json = json;
    result.AddProblems(CheckSameBytes(
        "round " + std::to_string(round) + " schema", json, first_json));
    graph = std::move(g);
  }
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  const std::vector<double>& rounds = config.trace ? traced_s : plain_s;
  result.Set("time_to_schema_s", Median(rounds), "s");
  result.Set("batch_p50_ms", Quantile(batch_ms, 0.5), "ms");
  result.Set("batch_p90_ms", Quantile(batch_ms, 0.9), "ms");
  if (config.trace) {
    ReportTracingOverhead(traced_s, plain_s, &layers);
    ReportSignatures(graph, &layers);
  }
  Note("measured " + std::to_string(rounds.size()) + " rounds");

  // The reference: the stream's net survivors through an in-memory
  // IncrementalDiscoverer — no retraction, store or HTTP.
  result.AddProblems(CheckSurvivors(stream, *survivors));
  PropertyGraph survivor_graph;
  const Clock::time_point reference_start = Clock::now();
  const SchemaGraph reference = FeedInMemory(*survivors, &survivor_graph,
                                             nullptr, nullptr, &result);
  const double survivor_s = SecondsSince(reference_start);
  const std::string reference_json = pghive::SchemaToJson(reference);
  result.AddProblems(
      CheckSameBytes("mutation stream schema", first_json, reference_json));
  result.AddProblems(CheckConservation(survivor_graph, reference));
  const auto node_truth = LabelTruth(survivor_graph.nodes());
  const auto edge_truth = LabelTruth(survivor_graph.edges());
  const double f1_nodes =
      pghive::MajorityF1(NodeClusters(reference),
                         [&](size_t id) -> const std::string& {
                           return node_truth[id];
                         })
          .f1;
  const double f1_edges =
      pghive::MajorityF1(EdgeClusters(reference),
                         [&](size_t id) -> const std::string& {
                           return edge_truth[id];
                         })
          .f1;
  result.AddProblems(
      CheckF1("node", f1_nodes, NodeClusters(reference), node_truth));
  result.AddProblems(
      CheckF1("edge", f1_edges, EdgeClusters(reference), edge_truth));
  result.Set("f1_nodes", f1_nodes, "score");
  result.Set("f1_edges", f1_edges, "score");
  Note("outputs checked");

  RunDaemonPass(config, bodies, reference_json, &result, &layers);
  if (config.trace) {
    layers.Add("retraction.survivor_stream_s", survivor_s, "s");
    pghive::ValidationOptions strict;
    strict.mode = pghive::ValidationMode::kStrict;
    strict.max_violations = 1;
    const pghive::ValidationReport report =
        pghive::ValidateGraph(survivor_graph, reference, strict);
    layers.Add("validation.strict_invalid",
               static_cast<double>(report.elements_checked -
                                   report.elements_valid),
               "count");
    MeasureStoreAndWire(stream, bodies, reference_json, config.work_dir,
                        &result, &layers);
  }
  layers.Report(&result);
  return result;
}

}  // namespace e2e
