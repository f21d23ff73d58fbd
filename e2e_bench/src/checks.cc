#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

namespace e2e {

namespace {

using pghive::PropertyGraph;
using pghive::SchemaGraph;

template <typename Labels>
bool Contains(const Labels& super, const std::set<std::string>& sub) {
  for (const std::string& s : sub) {
    if (super.count(s) == 0) return false;
  }
  return true;
}

template <typename TypeT>
void CheckAssignment(const char* kind, const std::vector<TypeT>& types,
                     size_t num_elements, Problems* problems) {
  std::vector<int> owner(num_elements, -1);
  size_t total = 0;
  for (size_t t = 0; t < types.size(); ++t) {
    for (const auto id : types[t].instances) {
      ++total;
      if (id >= num_elements) {
        problems->push_back(std::string(kind) + " type " + types[t].name +
                            " lists unknown instance " + std::to_string(id));
        continue;
      }
      if (owner[id] >= 0) {
        problems->push_back(std::string(kind) + " " + std::to_string(id) +
                            " sits in types " + types[owner[id]].name +
                            " and " + types[t].name);
      }
      owner[id] = static_cast<int>(t);
    }
  }
  if (total != num_elements) {
    problems->push_back(std::string(kind) + " instance counts sum to " +
                        std::to_string(total) + ", graph has " +
                        std::to_string(num_elements));
  }
  for (size_t id = 0; id < num_elements; ++id) {
    if (owner[id] < 0) {
      problems->push_back(std::string(kind) + " " + std::to_string(id) +
                          " sits in no type");
      break;
    }
  }
}

template <typename Elem, typename TypeT>
void CheckConforms(const char* kind, const Elem& e, const TypeT& t,
                   Problems* problems) {
  std::string defect;
  if (!Contains(t.labels, e.labels)) defect = "carries an undeclared label";
  for (const auto& [key, c] : t.constraints) {
    if (c.mandatory && e.properties.count(key) == 0) {
      defect = "lacks MANDATORY key " + key;
    }
  }
  for (const auto& kv : e.properties) {
    if (t.property_keys.count(kv.first) == 0) {
      defect = "carries undeclared key " + kv.first;
    }
  }
  if (!defect.empty()) {
    problems->push_back(std::string(kind) + " " + std::to_string(e.id) +
                        " of type " + t.name + " " + defect);
  }
}

/// index[id] = position of the type listing `id`, -1 when none.
template <typename TypeT>
std::vector<int> OwnerIndex(const std::vector<TypeT>& types) {
  size_t max_id = 0;
  for (const auto& t : types) {
    for (const auto id : t.instances) max_id = std::max<size_t>(max_id, id + 1);
  }
  std::vector<int> owner(max_id, -1);
  for (size_t t = 0; t < types.size(); ++t) {
    for (const auto id : types[t].instances) owner[id] = static_cast<int>(t);
  }
  return owner;
}

template <typename TypeT, typename Extra>
void CheckChain(const char* kind, const std::vector<TypeT>& prev,
                const std::vector<TypeT>& next, const Extra& extra_contains,
                Problems* problems) {
  const std::vector<int> owner = OwnerIndex(next);
  for (const auto& t : prev) {
    int target = -2;
    for (const auto id : t.instances) {
      const int o = id < owner.size() ? owner[id] : -1;
      if (target == -2) target = o;
      if (o < 0 || o != target) {
        problems->push_back(std::string(kind) + " type " + t.name +
                            " is split or lost: instance " +
                            std::to_string(id) + " moved");
        target = -1;
        break;
      }
    }
    if (target < 0) continue;
    const TypeT& later = next[target];
    if (!Contains(later.labels, t.labels) ||
        !Contains(later.property_keys, t.property_keys) ||
        !extra_contains(later, t)) {
      problems->push_back(std::string(kind) + " type " + t.name +
                          " loses a label, key or endpoint in " + later.name);
    }
  }
}

}  // namespace

Problems CheckConservation(const PropertyGraph& g, const SchemaGraph& schema) {
  Problems problems;
  CheckAssignment("node", schema.node_types, g.num_nodes(), &problems);
  CheckAssignment("edge", schema.edge_types, g.num_edges(), &problems);
  return problems;
}

Problems CheckInstanceConformance(const PropertyGraph& g,
                                  const SchemaGraph& schema) {
  Problems problems;
  for (const auto& t : schema.node_types) {
    for (const auto id : t.instances) {
      if (id < g.num_nodes()) CheckConforms("node", g.node(id), t, &problems);
    }
  }
  for (const auto& t : schema.edge_types) {
    for (const auto id : t.instances) {
      if (id < g.num_edges()) CheckConforms("edge", g.edge(id), t, &problems);
    }
  }
  return problems;
}

Problems CheckMonotone(const SchemaGraph& prev, const SchemaGraph& next) {
  Problems problems;
  CheckChain("node", prev.node_types, next.node_types,
             [](const auto&, const auto&) { return true; }, &problems);
  CheckChain("edge", prev.edge_types, next.edge_types,
             [](const auto& later, const auto& t) {
               return Contains(later.source_labels, t.source_labels) &&
                      Contains(later.target_labels, t.target_labels);
             },
             &problems);
  return problems;
}

double IndependentMajorityF1(const std::vector<std::vector<size_t>>& clusters,
                             const std::vector<std::string>& truth) {
  // Majority type of each cluster (ties: smallest name).
  std::vector<std::string> majority(clusters.size());
  for (size_t c = 0; c < clusters.size(); ++c) {
    std::map<std::string, size_t> counts;
    for (size_t id : clusters[c]) {
      if (id < truth.size() && !truth[id].empty()) ++counts[truth[id]];
    }
    size_t best = 0;
    for (const auto& [type, n] : counts) {
      if (n > best) {
        best = n;
        majority[c] = type;
      }
    }
  }
  // Per true type: members placed under that majority (predicted), correct
  // placements, and support.
  std::map<std::string, size_t> predicted, correct, support;
  for (size_t c = 0; c < clusters.size(); ++c) {
    for (size_t id : clusters[c]) {
      if (id >= truth.size() || truth[id].empty()) continue;
      ++support[truth[id]];
      ++predicted[majority[c]];
      if (truth[id] == majority[c]) ++correct[truth[id]];
    }
  }
  double weighted = 0.0;
  size_t total = 0;
  for (const auto& [type, n] : support) {
    const double p =
        predicted[type] ? static_cast<double>(correct[type]) / predicted[type]
                        : 0.0;
    const double r = static_cast<double>(correct[type]) / n;
    weighted += (p + r > 0 ? 2 * p * r / (p + r) : 0.0) * n;
    total += n;
  }
  return total ? weighted / total : 0.0;
}

std::vector<std::vector<size_t>> NodeClusters(const SchemaGraph& schema) {
  std::vector<std::vector<size_t>> out;
  for (const auto& t : schema.node_types) {
    out.emplace_back(t.instances.begin(), t.instances.end());
  }
  return out;
}

std::vector<std::vector<size_t>> EdgeClusters(const SchemaGraph& schema) {
  std::vector<std::vector<size_t>> out;
  for (const auto& t : schema.edge_types) {
    out.emplace_back(t.instances.begin(), t.instances.end());
  }
  return out;
}

std::vector<std::string> NodeTruth(const PropertyGraph& g) {
  std::vector<std::string> tags;
  tags.reserve(g.num_nodes());
  for (const auto& n : g.nodes()) tags.push_back(n.truth_type);
  return tags;
}

std::vector<std::string> EdgeTruth(const PropertyGraph& g) {
  std::vector<std::string> tags;
  tags.reserve(g.num_edges());
  for (const auto& e : g.edges()) tags.push_back(e.truth_type);
  return tags;
}

Problems CheckF1(const std::string& what, double program_f1,
                 const std::vector<std::vector<size_t>>& clusters,
                 const std::vector<std::string>& truth) {
  const double own = IndependentMajorityF1(clusters, truth);
  if (std::fabs(own - program_f1) <= 1e-9 && own > 0.0) return {};
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s F1* %.12f disagrees with the independent %.12f",
                what.c_str(), program_f1, own);
  return {buf};
}

Problems CheckSameBytes(const std::string& what, const std::string& got,
                        const std::string& want) {
  if (got == want) return {};
  size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  return {what + " differs from the reference at byte " + std::to_string(i) +
          " (" + std::to_string(got.size()) + " vs " +
          std::to_string(want.size()) + " bytes)"};
}

Problems CheckSurvivors(const std::vector<pghive::MutationBatch>& stream,
                        const std::vector<pghive::MutationBatch>& survivors) {
  using pghive::EdgeData;
  using pghive::NodeData;
  // Number every appended element in canonical order and mark the deleted.
  struct Appended {
    std::vector<const NodeData*> nodes;  // indexed by global node id
    std::vector<const EdgeData*> edges;
    std::vector<size_t> node_batch, edge_batch;
  } all;
  std::vector<bool> node_dead, edge_dead;
  for (size_t b = 0; b < stream.size(); ++b) {
    const pghive::MutationBatch& mb = stream[b];
    for (const auto id : mb.mutations.delete_nodes) {
      if (id < node_dead.size()) node_dead[id] = true;
    }
    for (const auto& u : mb.mutations.update_nodes) {
      if (u.id < node_dead.size()) node_dead[u.id] = true;
    }
    for (const auto id : mb.mutations.delete_edges) {
      if (id < edge_dead.size()) edge_dead[id] = true;
    }
    for (const auto& u : mb.mutations.update_edges) {
      if (u.id < edge_dead.size()) edge_dead[u.id] = true;
    }
    auto add_node = [&](const NodeData& n) {
      all.nodes.push_back(&n);
      all.node_batch.push_back(b);
      node_dead.push_back(false);
    };
    auto add_edge = [&](const EdgeData& e) {
      all.edges.push_back(&e);
      all.edge_batch.push_back(b);
      edge_dead.push_back(false);
    };
    for (const auto& u : mb.mutations.update_nodes) add_node(u.data);
    for (const auto& n : mb.nodes) add_node(n);
    for (const auto& u : mb.mutations.update_edges) add_edge(u.data);
    for (const auto& e : mb.edges) add_edge(e);
  }
  // Compacted ids of the surviving nodes, in append order.
  std::vector<size_t> compact(all.nodes.size(), 0);
  size_t next_id = 0;
  for (size_t id = 0; id < all.nodes.size(); ++id) {
    if (!node_dead[id]) compact[id] = next_id++;
  }

  Problems problems;
  if (survivors.size() != stream.size()) {
    problems.push_back("survivor stream has " +
                       std::to_string(survivors.size()) + " batches, stream " +
                       std::to_string(stream.size()));
    return problems;
  }
  std::vector<size_t> node_pos(stream.size(), 0), edge_pos(stream.size(), 0);
  for (size_t id = 0; id < all.nodes.size(); ++id) {
    if (node_dead[id]) continue;
    const size_t b = all.node_batch[id];
    const auto& got = survivors[b].nodes;
    const size_t i = node_pos[b]++;
    if (i >= got.size() || got[i].labels != all.nodes[id]->labels ||
        got[i].properties != all.nodes[id]->properties) {
      problems.push_back("batch " + std::to_string(b) +
                         ": surviving node " + std::to_string(id) +
                         " missing or altered");
      return problems;
    }
  }
  for (size_t id = 0; id < all.edges.size(); ++id) {
    if (edge_dead[id]) continue;
    const size_t b = all.edge_batch[id];
    const auto& got = survivors[b].edges;
    const size_t i = edge_pos[b]++;
    const EdgeData& want = *all.edges[id];
    const bool endpoints_ok = want.source < compact.size() &&
                              want.target < compact.size() &&
                              got.size() > i &&
                              got[i].source == compact[want.source] &&
                              got[i].target == compact[want.target];
    if (!endpoints_ok || got[i].labels != want.labels ||
        got[i].properties != want.properties) {
      problems.push_back("batch " + std::to_string(b) +
                         ": surviving edge " + std::to_string(id) +
                         " missing or altered");
      return problems;
    }
  }
  for (size_t b = 0; b < stream.size(); ++b) {
    if (node_pos[b] != survivors[b].nodes.size() ||
        edge_pos[b] != survivors[b].edges.size()) {
      problems.push_back("batch " + std::to_string(b) + " holds " +
                         std::to_string(survivors[b].nodes.size()) + "/" +
                         std::to_string(survivors[b].edges.size()) +
                         " nodes/edges, " + std::to_string(node_pos[b]) +
                         "/" + std::to_string(edge_pos[b]) + " survive");
      break;
    }
  }
  return problems;
}

}  // namespace e2e
