// Output checks of the benchmark workloads.
//
// Each check compares the program's output with a computation made here,
// apart from the program, or with a property the method must have, and
// returns one line per problem found (empty = the output passed). They are
// pure functions over in-memory values so tests/checks_test.cc can hand
// each one a deliberately broken input.

#ifndef E2E_BENCH_CHECKS_H_
#define E2E_BENCH_CHECKS_H_

#include <string>
#include <vector>

#include "core/schema.h"
#include "graph/mutations.h"
#include "graph/property_graph.h"

namespace e2e {

using Problems = std::vector<std::string>;

/// Every node and edge of `g` sits in exactly one type: instance ids are in
/// range, none repeats, and the instance counts sum to the graph's node and
/// edge counts.
Problems CheckConservation(const pghive::PropertyGraph& g,
                           const pghive::SchemaGraph& schema);

/// Walks each type's own instance list: every instance carries every
/// MANDATORY key of the type, and no label or key the type does not
/// declare. Independent of ValidateGraph's choice of matching type.
Problems CheckInstanceConformance(const pghive::PropertyGraph& g,
                                  const pghive::SchemaGraph& schema);

/// The §4.6 monotone chain S_prev ⊑ S_next: all instances of each type of
/// `prev` land in one type of `next` whose labels, property keys and
/// endpoint label sets contain the earlier type's.
Problems CheckMonotone(const pghive::SchemaGraph& prev,
                       const pghive::SchemaGraph& next);

/// Majority F1* computed here from instance clusters and per-instance
/// ground truth (an empty truth is ignored), with the same tie-break as the
/// paper's definition: the lexicographically smallest majority type.
double IndependentMajorityF1(const std::vector<std::vector<size_t>>& clusters,
                             const std::vector<std::string>& truth);

std::vector<std::vector<size_t>> NodeClusters(
    const pghive::SchemaGraph& schema);
std::vector<std::vector<size_t>> EdgeClusters(
    const pghive::SchemaGraph& schema);
std::vector<std::string> NodeTruth(const pghive::PropertyGraph& g);
std::vector<std::string> EdgeTruth(const pghive::PropertyGraph& g);

/// The program's F1* agrees with IndependentMajorityF1 over `truth`.
Problems CheckF1(const std::string& what, double program_f1,
                 const std::vector<std::vector<size_t>>& clusters,
                 const std::vector<std::string>& truth);

/// Byte-for-byte equality, naming the first differing offset.
Problems CheckSameBytes(const std::string& what, const std::string& got,
                        const std::string& want);

/// `survivors` holds, batch by batch, exactly the elements of `stream` that
/// are never deleted or updated later — counted here from the stream's ids
/// (nodes and edges are numbered in the canonical append order of
/// graph/mutations.h), not by drift::NetSurvivingStream.
Problems CheckSurvivors(const std::vector<pghive::MutationBatch>& stream,
                        const std::vector<pghive::MutationBatch>& survivors);

}  // namespace e2e

#endif  // E2E_BENCH_CHECKS_H_
