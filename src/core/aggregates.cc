#include "core/aggregates.h"

#include <algorithm>
#include <type_traits>

#include "core/cardinality.h"
#include "obs/metrics.h"
#include "runtime/parallel.h"

namespace pghive {

namespace {

/// Counts interned set ids in a flat id-indexed array, remembering the
/// distinct ids in first-seen order so flushing and resetting cost
/// O(distinct ids), not O(id space).
class IdCounter {
 public:
  void Add(uint32_t id) {
    if (id >= count_.size()) count_.resize(id + 1, 0);
    if (count_[id]++ == 0) touched_.push_back(id);
  }
  const std::vector<uint32_t>& touched() const { return touched_; }
  /// Drops every count without writing it anywhere.
  void Clear() {
    for (uint32_t id : touched_) count_[id] = 0;
    touched_.clear();
  }
  /// Adds every count into `out` (one map update per distinct id) and
  /// resets the counter.
  template <typename Id>
  void FlushInto(std::map<Id, uint64_t>* out) {
    for (uint32_t id : touched_) {
      (*out)[static_cast<Id>(id)] += count_[id];
      count_[id] = 0;
    }
    touched_.clear();
  }

 private:
  std::vector<uint64_t> count_;
  std::vector<uint32_t> touched_;
};

/// Reusable state of the fold kernel, one per thread (the arrays grow to the
/// graph's id spaces once and are reset, not freed, between types).
struct FoldScratch {
  IdCounter key_sets, label_sets, src_sets, tgt_sets;
  /// Key-set id -> 1 + offset of its resolved PropertyAggregate slots in
  /// `slots` (0 = not resolved for the current type).
  std::vector<uint32_t> slot_offset;
  std::vector<PropertyAggregate*> slots;

  /// Forgets the slots resolved for the current type. Must run before the
  /// key-set counter is flushed (its touched ids are the resolved sets).
  void ForgetSlots() {
    for (uint32_t ks : key_sets.touched()) slot_offset[ks] = 0;
    slots.clear();
  }
  /// Drops everything a fold that threw midway left behind.
  void Reset() {
    ForgetSlots();
    key_sets.Clear();
    label_sets.Clear();
    src_sets.Clear();
    tgt_sets.Clear();
  }
};

/// The key set's PropertyAggregate slots in the key set's canonical key
/// order (the order of the element's value row), resolved through the
/// type's key map once per distinct key set. std::map nodes are stable, so
/// the cached pointers survive later insertions.
PropertyAggregate* const* ResolveSlots(const GraphSymbols& sym, KeySetId ks,
                                       TypeAggregate* agg, FoldScratch* s) {
  if (ks >= s->slot_offset.size()) s->slot_offset.resize(ks + 1, 0);
  uint32_t& offset = s->slot_offset[ks];
  if (offset == 0) {
    offset = static_cast<uint32_t>(s->slots.size()) + 1;
    for (SymbolId key : sym.key_sets.ids(ks)) {
      s->slots.push_back(&agg->keys[key]);
    }
  }
  return s->slots.data() + (offset - 1);
}

void FoldValue(const Value& v, PropertyAggregate* pa) {
  ++pa->present;
  const DataType dt = v.type();
  ++pa->type_counts[static_cast<size_t>(dt)];
  if (dt == DataType::kInt || dt == DataType::kDouble) {
    const double x =
        dt == DataType::kInt ? static_cast<double>(v.AsInt()) : v.AsDouble();
    if (pa->numeric_count == 0 || x < pa->numeric_min) pa->numeric_min = x;
    if (pa->numeric_count == 0 || x > pa->numeric_max) pa->numeric_max = x;
    ++pa->numeric_count;
  }
}

/// The fold kernel: folds type `t`'s instances [agg->folded, size) into
/// `agg` in instance-list order — the order the numeric extrema depend on.
/// Edge types also fold their endpoint label sets and degree state.
template <typename SchemaType>
void FoldType(const PropertyGraph& g, const SchemaType& t,
              TypeAggregate* agg) {
  constexpr bool kEdges = std::is_same_v<SchemaType, SchemaEdgeType>;
  thread_local FoldScratch scratch;
  FoldScratch& s = scratch;
  s.Reset();
  const GraphSymbols& sym = g.symbols();
  for (size_t j = agg->folded; j < t.instances.size(); ++j) {
    const auto& el = [&]() -> const auto& {
      if constexpr (kEdges) {
        return g.edge(t.instances[j]);
      } else {
        return g.node(t.instances[j]);
      }
    }();
    s.key_sets.Add(el.key_set);
    s.label_sets.Add(el.label_set);
    PropertyAggregate* const* slots = ResolveSlots(sym, el.key_set, agg, &s);
    const size_t num_values = sym.key_sets.ids(el.key_set).size();
    for (size_t i = 0; i < num_values; ++i) {
      FoldValue(el.properties.value_at(i), slots[i]);
    }
    if constexpr (kEdges) {
      s.src_sets.Add(g.node(el.source).label_set);
      s.tgt_sets.Add(g.node(el.target).label_set);
      agg->degrees.Add(el.source, el.target);
    }
  }
  agg->folded = t.instances.size();
  s.ForgetSlots();
  s.key_sets.FlushInto(&agg->key_set_counts);
  s.label_sets.FlushInto(&agg->label_set_counts);
  if constexpr (kEdges) {
    s.src_sets.FlushInto(&agg->src_set_counts);
    s.tgt_sets.FlushInto(&agg->tgt_set_counts);
  }
}

/// Decrements a counted-histogram entry, erasing it at zero. False when the
/// entry is missing (underflow).
template <typename Map, typename Key>
bool DecrementCount(Map* map, const Key& key) {
  auto it = map->find(key);
  if (it == map->end() || it->second == 0) return false;
  if (--it->second == 0) map->erase(it);
  return true;
}

/// Inverse of the kernel's element fold. Map entries are erased at count
/// zero so the retracted state matches a fresh fold of the survivors.
template <typename Elem>
void RetractElement(const GraphSymbols& sym, const Elem& el,
                    TypeAggregate* agg, RetractOutcome* out) {
  if (agg->folded == 0) {
    out->ok = false;
    return;
  }
  --agg->folded;
  if (!DecrementCount(&agg->key_set_counts, el.key_set)) out->ok = false;
  if (!DecrementCount(&agg->label_set_counts, el.label_set)) out->ok = false;
  const std::vector<SymbolId>& key_ids = sym.key_sets.ids(el.key_set);
  for (size_t i = 0; i < key_ids.size(); ++i) {
    auto kit = agg->keys.find(key_ids[i]);
    if (kit == agg->keys.end()) {
      out->ok = false;
      continue;
    }
    PropertyAggregate& pa = kit->second;
    const Value& v = el.properties.value_at(i);
    const DataType dt = v.type();
    const size_t d = static_cast<size_t>(dt);
    if (pa.present == 0 || pa.type_counts[d] == 0) {
      out->ok = false;
      continue;
    }
    --pa.present;
    --pa.type_counts[d];
    if (dt == DataType::kInt || dt == DataType::kDouble) {
      if (pa.numeric_count == 0) {
        out->ok = false;
      } else {
        --pa.numeric_count;
        const double x = dt == DataType::kInt ? static_cast<double>(v.AsInt())
                                              : v.AsDouble();
        if (pa.numeric_count == 0) {
          // Back to the fresh-accumulator state (matters for operator==
          // against a rebuild).
          pa.numeric_min = 0.0;
          pa.numeric_max = 0.0;
        } else if (x <= pa.numeric_min || x >= pa.numeric_max) {
          out->rescan_keys.push_back(key_ids[i]);
        }
      }
    }
    if (pa.present == 0) agg->keys.erase(kit);
  }
}

/// Inverse of the kernel's endpoint fold.
void RetractEdgeEndpoints(const PropertyGraph& g, const Edge& e,
                          TypeAggregate* agg, RetractOutcome* out) {
  if (!DecrementCount(&agg->src_set_counts, g.node(e.source).label_set)) {
    out->ok = false;
  }
  if (!DecrementCount(&agg->tgt_set_counts, g.node(e.target).label_set)) {
    out->ok = false;
  }
  if (!agg->degrees.Retract(e.source, e.target)) out->ok = false;
}

/// Recomputes min/max over the surviving instances carrying `key` (numeric
/// values only). Shared by the node/edge rescan entry points.
template <typename GetElem>
void RescanNumericExtrema(const GraphSymbols& sym,
                          const std::vector<size_t>& instances, GetElem get,
                          SymbolId key, PropertyAggregate* pa) {
  bool any = false;
  double lo = 0.0, hi = 0.0;
  for (size_t id : instances) {
    const auto& el = get(id);
    const std::vector<SymbolId>& key_ids = sym.key_sets.ids(el.key_set);
    for (size_t i = 0; i < key_ids.size(); ++i) {
      if (key_ids[i] != key) continue;
      const Value& v = el.properties.value_at(i);
      const DataType dt = v.type();
      if (dt == DataType::kInt || dt == DataType::kDouble) {
        const double x = dt == DataType::kInt
                             ? static_cast<double>(v.AsInt())
                             : v.AsDouble();
        if (!any || x < lo) lo = x;
        if (!any || x > hi) hi = x;
        any = true;
      }
      break;
    }
  }
  pa->numeric_min = any ? lo : 0.0;
  pa->numeric_max = any ? hi : 0.0;
}

/// Joins the distinct observed datatypes of a tally in enum order. Equal to
/// the sequential FoldValueTypes left fold because GeneralizeDataType is a
/// semilattice join (order-independent); an empty tally is String, matching
/// FoldValueTypes({}).
DataType JoinTally(const std::array<uint64_t, kNumDataTypes>& counts) {
  bool any = false;
  DataType acc = DataType::kString;
  for (size_t d = 0; d < kNumDataTypes; ++d) {
    if (counts[d] == 0) continue;
    const DataType dt = static_cast<DataType>(d);
    acc = any ? GeneralizeDataType(acc, dt) : dt;
    any = true;
  }
  return acc;
}

uint64_t PresentCount(const GraphSymbols& sym, const TypeAggregate& agg,
                      const std::string& key,
                      const PropertyAggregate** out_pa) {
  *out_pa = nullptr;
  const SymbolId* sid = sym.keys.Find(key);
  if (sid == nullptr) return 0;
  auto it = agg.keys.find(*sid);
  if (it == agg.keys.end()) return 0;
  *out_pa = &it->second;
  return it->second.present;
}

}  // namespace

void PropertyAggregate::Merge(const PropertyAggregate& other) {
  present += other.present;
  for (size_t d = 0; d < kNumDataTypes; ++d) {
    type_counts[d] += other.type_counts[d];
  }
  if (other.numeric_count > 0) {
    if (numeric_count == 0 || other.numeric_min < numeric_min) {
      numeric_min = other.numeric_min;
    }
    if (numeric_count == 0 || other.numeric_max > numeric_max) {
      numeric_max = other.numeric_max;
    }
    numeric_count += other.numeric_count;
  }
}

void DegreeState::Direction::Shift(NodeId endpoint, bool gained) {
  uint64_t to = 0;
  if (gained) {
    to = degree.Add(endpoint);
  } else {
    degree.Decrement(endpoint, &to);
  }
  const uint64_t from = gained ? to - 1 : to + 1;
  if (from > 0) --hist[from];
  if (to > 0) {
    if (to >= hist.size()) hist.resize(to + 1, 0);
    ++hist[to];
  }
  while (!hist.empty() && hist.back() == 0) hist.pop_back();
}

void DegreeState::Add(NodeId source, NodeId target, uint64_t n) {
  if (pairs_.Add({source, target}, n) == n) {
    out_.Shift(source, /*gained=*/true);
    in_.Shift(target, /*gained=*/true);
  }
}

bool DegreeState::Retract(NodeId source, NodeId target) {
  uint64_t remaining = 0;
  if (!pairs_.Decrement({source, target}, &remaining)) return false;
  if (remaining == 0) {
    out_.Shift(source, /*gained=*/false);
    in_.Shift(target, /*gained=*/false);
  }
  return true;
}

void DegreeState::Merge(const DegreeState& other) {
  other.pairs_.ForEach(
      [&](const Pair& p, uint64_t n) { Add(p.first, p.second, n); });
}

size_t DegreeState::HeapBytes() const {
  return pairs_.HeapBytes() + out_.degree.HeapBytes() +
         in_.degree.HeapBytes() +
         (out_.hist.capacity() + in_.hist.capacity()) * sizeof(uint64_t);
}

void TypeAggregate::Merge(const TypeAggregate& other) {
  folded += other.folded;
  for (const auto& [ks, n] : other.key_set_counts) key_set_counts[ks] += n;
  for (const auto& [ls, n] : other.label_set_counts) label_set_counts[ls] += n;
  for (const auto& [sid, pa] : other.keys) keys[sid].Merge(pa);
  for (const auto& [ls, n] : other.src_set_counts) src_set_counts[ls] += n;
  for (const auto& [ls, n] : other.tgt_set_counts) tgt_set_counts[ls] += n;
  degrees.Merge(other.degrees);
}

bool SchemaAggregates::ConsistentWith(const SchemaGraph& schema) const {
  if (node_types.size() != schema.node_types.size() ||
      edge_types.size() != schema.edge_types.size()) {
    return false;
  }
  for (size_t i = 0; i < node_types.size(); ++i) {
    if (node_types[i].folded != schema.node_types[i].instances.size()) {
      return false;
    }
  }
  for (size_t i = 0; i < edge_types.size(); ++i) {
    if (edge_types[i].folded != schema.edge_types[i].instances.size()) {
      return false;
    }
  }
  return true;
}

bool SchemaAggregates::FoldNew(const PropertyGraph& g,
                               const SchemaGraph& schema, ThreadPool* pool) {
  bool ok = node_types.size() <= schema.node_types.size() &&
            edge_types.size() <= schema.edge_types.size();
  node_types.resize(schema.node_types.size());
  edge_types.resize(schema.edge_types.size());
  // A type whose instance list shrank below its watermark (external
  // deletion) is left as it is; the caller must rebuild.
  auto foldable = [](const TypeAggregate& a, const auto& t) {
    return a.folded <= t.instances.size();
  };
  for (size_t i = 0; i < node_types.size(); ++i) {
    ok = ok && foldable(node_types[i], schema.node_types[i]);
  }
  for (size_t i = 0; i < edge_types.size(); ++i) {
    ok = ok && foldable(edge_types[i], schema.edge_types[i]);
  }
  const size_t num_nodes = node_types.size();
  ParallelFor(
      pool, num_nodes + edge_types.size(),
      [&](size_t i) {
        if (i < num_nodes) {
          if (foldable(node_types[i], schema.node_types[i])) {
            FoldType(g, schema.node_types[i], &node_types[i]);
          }
        } else {
          const size_t e = i - num_nodes;
          if (foldable(edge_types[e], schema.edge_types[e])) {
            FoldType(g, schema.edge_types[e], &edge_types[e]);
          }
        }
      },
      /*grain=*/1);
  return ok;
}

void SchemaAggregates::Merge(const SchemaAggregates& other) {
  if (node_types.size() < other.node_types.size()) {
    node_types.resize(other.node_types.size());
  }
  if (edge_types.size() < other.edge_types.size()) {
    edge_types.resize(other.edge_types.size());
  }
  for (size_t i = 0; i < other.node_types.size(); ++i) {
    node_types[i].Merge(other.node_types[i]);
  }
  for (size_t i = 0; i < other.edge_types.size(); ++i) {
    edge_types[i].Merge(other.edge_types[i]);
  }
}

void SchemaAggregates::Clear() {
  node_types.clear();
  edge_types.clear();
}

uint64_t SchemaAggregates::FoldedInstances() const {
  uint64_t total = 0;
  for (const auto& a : node_types) total += a.folded;
  for (const auto& a : edge_types) total += a.folded;
  return total;
}

uint64_t SchemaAggregates::KeyEntries() const {
  uint64_t total = 0;
  for (const auto& a : node_types) total += a.keys.size();
  for (const auto& a : edge_types) total += a.keys.size();
  return total;
}

uint64_t SchemaAggregates::DegreeEntries() const {
  uint64_t total = 0;
  for (const auto& a : edge_types) total += a.degrees.num_pairs();
  return total;
}

uint64_t SchemaAggregates::ApproxBytes() const {
  // The flat degree state is counted exactly (allocated slots); the ordered
  // maps at a per-node estimate.
  constexpr uint64_t kMapNode = 48;
  uint64_t bytes = 0;
  auto type_bytes = [&](const TypeAggregate& a) {
    bytes += sizeof(TypeAggregate) + a.degrees.HeapBytes();
    const uint64_t count_maps = a.key_set_counts.size() +
                                a.label_set_counts.size() +
                                a.src_set_counts.size() +
                                a.tgt_set_counts.size();
    bytes += count_maps * (kMapNode + sizeof(uint64_t) * 2);
    bytes += a.keys.size() * (kMapNode + sizeof(PropertyAggregate));
  };
  for (const auto& a : node_types) type_bytes(a);
  for (const auto& a : edge_types) type_bytes(a);
  return bytes;
}

SchemaAggregates BuildAggregates(const PropertyGraph& g,
                                 const SchemaGraph& schema,
                                 ThreadPool* pool) {
  SchemaAggregates agg;
  agg.FoldNew(g, schema, pool);
  return agg;
}

void RetractNodeElement(const GraphSymbols& sym, const Node& n,
                        TypeAggregate* agg, RetractOutcome* out) {
  RetractElement(sym, n, agg, out);
}

void RetractEdgeElement(const PropertyGraph& g, const Edge& e,
                        TypeAggregate* agg, RetractOutcome* out) {
  RetractElement(g.symbols(), e, agg, out);
  RetractEdgeEndpoints(g, e, agg, out);
}

void RescanNodeNumericExtrema(const PropertyGraph& g, const SchemaNodeType& t,
                              SymbolId key, PropertyAggregate* pa) {
  RescanNumericExtrema(
      g.symbols(), t.instances, [&](size_t id) -> const Node& {
        return g.node(id);
      },
      key, pa);
}

void RescanEdgeNumericExtrema(const PropertyGraph& g, const SchemaEdgeType& t,
                              SymbolId key, PropertyAggregate* pa) {
  RescanNumericExtrema(
      g.symbols(), t.instances, [&](size_t id) -> const Edge& {
        return g.edge(id);
      },
      key, pa);
}

TypeAggregate RebuildNodeAggregate(const PropertyGraph& g,
                                   const SchemaNodeType& t) {
  TypeAggregate agg;
  FoldType(g, t, &agg);
  return agg;
}

TypeAggregate RebuildEdgeAggregate(const PropertyGraph& g,
                                   const SchemaEdgeType& t) {
  TypeAggregate agg;
  FoldType(g, t, &agg);
  return agg;
}

void FinalizeConstraints(const GraphSymbols& sym, const SchemaAggregates& agg,
                         SchemaGraph* schema, ThreadPool* pool) {
  auto run = [&](auto* types, const std::vector<TypeAggregate>& aggs) {
    ParallelFor(
        pool, types->size(),
        [&](size_t i) {
          auto& t = (*types)[i];
          const TypeAggregate& a = aggs[i];
          for (const auto& key : t.property_keys) {
            PropertyConstraint& c = t.constraints[key];  // default-insert
            const PropertyAggregate* pa = nullptr;
            const uint64_t present = PresentCount(sym, a, key, &pa);
            c.mandatory = a.folded > 0 && present == a.folded;
          }
        },
        /*grain=*/1);
  };
  run(&schema->node_types, agg.node_types);
  run(&schema->edge_types, agg.edge_types);
}

void FinalizeDataTypes(const GraphSymbols& sym, const SchemaAggregates& agg,
                       SchemaGraph* schema, ThreadPool* pool) {
  auto run = [&](auto* types, const std::vector<TypeAggregate>& aggs) {
    ParallelFor(
        pool, types->size(),
        [&](size_t i) {
          auto& t = (*types)[i];
          const TypeAggregate& a = aggs[i];
          for (const auto& key : t.property_keys) {
            const PropertyAggregate* pa = nullptr;
            PresentCount(sym, a, key, &pa);
            t.constraints[key].type =
                pa == nullptr ? DataType::kString : JoinTally(pa->type_counts);
          }
        },
        /*grain=*/1);
  };
  run(&schema->node_types, agg.node_types);
  run(&schema->edge_types, agg.edge_types);
}

void FinalizeCardinalities(const SchemaAggregates& agg, SchemaGraph* schema,
                           ThreadPool* pool) {
  ParallelFor(
      pool, schema->edge_types.size(),
      [&](size_t i) {
        SchemaEdgeType& t = schema->edge_types[i];
        const TypeAggregate& a = agg.edge_types[i];
        t.max_out_degree = static_cast<size_t>(a.max_out());
        t.max_in_degree = static_cast<size_t>(a.max_in());
        t.cardinality = ClassifyCardinality(t.max_out_degree, t.max_in_degree);
      },
      /*grain=*/1);
}

void PublishAggregateGauges(const SchemaAggregates& agg) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("pghive.aggregates.node_types")
      ->Set(static_cast<int64_t>(agg.node_types.size()));
  reg.GetGauge("pghive.aggregates.edge_types")
      ->Set(static_cast<int64_t>(agg.edge_types.size()));
  reg.GetGauge("pghive.aggregates.folded_instances")
      ->Set(static_cast<int64_t>(agg.FoldedInstances()));
  reg.GetGauge("pghive.aggregates.key_entries")
      ->Set(static_cast<int64_t>(agg.KeyEntries()));
  reg.GetGauge("pghive.aggregates.degree_entries")
      ->Set(static_cast<int64_t>(agg.DegreeEntries()));
  reg.GetGauge("pghive.aggregates.approx_bytes")
      ->Set(static_cast<int64_t>(agg.ApproxBytes()));
}

}  // namespace pghive
