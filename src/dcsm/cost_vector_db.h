#ifndef HERMES_DCSM_COST_VECTOR_DB_H_
#define HERMES_DCSM_COST_VECTOR_DB_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/clock.h"
#include "common/intrusive_map.h"
#include "common/result.h"
#include "dcsm/cost_record.h"
#include "lang/ast.h"

namespace hermes::dcsm {

/// Identifies one statistics table: all records of calls to a given
/// domain function at a given arity.
struct CallGroupKey {
  std::string domain;
  std::string function;
  size_t arity = 0;

  bool operator<(const CallGroupKey& other) const {
    return std::tie(domain, function, arity) <
           std::tie(other.domain, other.function, other.arity);
  }
  bool operator==(const CallGroupKey& other) const {
    return domain == other.domain && function == other.function &&
           arity == other.arity;
  }
  /// Hash over all three components, for hashed group indexes.
  size_t Hash() const {
    size_t h = std::hash<std::string>{}(domain);
    h ^= std::hash<std::string>{}(function) + 0x9e3779b97f4a7c15ULL +
         (h << 6) + (h >> 2);
    h ^= arity + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
  }
  std::string ToString() const {
    return domain + ":" + function + "/" + std::to_string(arity);
  }
};

/// Result of aggregating statistics records for a call pattern.
struct Aggregate {
  CostVector cost;
  size_t matched = 0;        ///< Records (or summarized originals) matched.
  size_t rows_scanned = 0;   ///< Rows examined to compute the aggregate.
  bool has_t_first = false;
  bool has_t_all = false;
  bool has_cardinality = false;
};

/// Running per-metric weighted sums over a set of cost records — the
/// attributes of the paper's lossless summary rows (Section 6.2). Every
/// aggregation of raw records goes through Add: the recency-weighted scan,
/// the per-mask aggregate index and SummaryTable::Fold. Folding the same
/// records in the same order therefore performs the same floating-point
/// additions and yields bit-identical sums on every path. `Weight` is
/// double, or an unsigned count where every weight is 1: a count converts
/// to exactly the double that summing 1.0s would give.
template <typename Weight>
struct BasicCostSums {
  double sum_t_first = 0, sum_t_all = 0, sum_cardinality = 0;
  Weight weight_t_first = 0, weight_t_all = 0, weight_cardinality = 0;

  /// Folds one record in with `weight`; missing metrics are skipped.
  void Add(const CostRecord& record, Weight weight = 1) {
    if (record.has_t_first) {
      sum_t_first += weight * record.cost.t_first_ms;
      weight_t_first += weight;
    }
    if (record.has_t_all) {
      sum_t_all += weight * record.cost.t_all_ms;
      weight_t_all += weight;
    }
    if (record.has_cardinality) {
      sum_cardinality += weight * record.cost.cardinality;
      weight_cardinality += weight;
    }
  }

  /// Adds another set's sums (aggregating summary rows).
  void Merge(const BasicCostSums& other) {
    sum_t_first += other.sum_t_first;
    weight_t_first += other.weight_t_first;
    sum_t_all += other.sum_t_all;
    weight_t_all += other.weight_t_all;
    sum_cardinality += other.sum_cardinality;
    weight_cardinality += other.weight_cardinality;
  }

  /// Writes the weighted means into `agg`, setting `has_*` for every
  /// metric with positive weight.
  void Finish(Aggregate* agg) const {
    if (weight_t_first > 0) {
      agg->cost.t_first_ms = sum_t_first / static_cast<double>(weight_t_first);
      agg->has_t_first = true;
    }
    if (weight_t_all > 0) {
      agg->cost.t_all_ms = sum_t_all / static_cast<double>(weight_t_all);
      agg->has_t_all = true;
    }
    if (weight_cardinality > 0) {
      agg->cost.cardinality =
          sum_cardinality / static_cast<double>(weight_cardinality);
      agg->has_cardinality = true;
    }
  }
};

using CostSums = BasicCostSums<double>;

/// In mask-based pattern matching, argument position `i` of a pattern is
/// treated as a constant filter iff bit `i` is set AND the pattern holds a
/// constant there; every other position acts as `$b`. This lets the
/// Section 6.3 relaxation lattice walk subsets of the constant positions
/// without materializing a relaxed copy of the call spec per subset.
using ArgMask = uint64_t;
constexpr ArgMask kAllArgs = ~ArgMask{0};

/// Section 6.1's cost vector database: the full, per-execution statistics
/// of every domain call the mediator has issued. Groups are kept in an
/// intrusive hash index keyed by (domain, function, arity), so the
/// estimator's group probe is one hash + one chain walk instead of a
/// red-black-tree descent with string comparisons per level.
///
/// Aggregation answers from per-group *aggregate indexes* instead of
/// rescanning the group. A group keeps one index per effective constant
/// mask that has been asked about (the positions where the mask bit is set
/// and the pattern holds a constant). The index maps the projected argument
/// values to running sums (BasicCostSums). It is built on first ask by
/// folding the group's records in order and extended by every later
/// Record. Records are folded in the order a scan visits them, so an index
/// answer is bit-identical to the scan's. `rows_scanned` still reports the
/// group size: it models the paper's raw scan, which the simulated lookup
/// charge is based on.
///
/// Thread safety: const methods may run concurrently with each other
/// (index creation is guarded per group); Record and Clear need exclusive
/// access.
class CostVectorDatabase {
  struct AggregateIndex;  // defined in cost_vector_db.cc

 public:
  /// One call group: its key, records, aggregate indexes, and hash-chain
  /// membership in one allocation. Only the database mutates it.
  class Group {
   public:
    const std::vector<CostRecord>& records() const { return records_; }

   private:
    friend class CostVectorDatabase;
    explicit Group(CallGroupKey key) : key_(std::move(key)) {}
    ~Group();

    CallGroupKey key_;
    std::vector<CostRecord> records_;
    /// Indexes built so far, newest first. Readers walk the list without
    /// locking; a builder links a fully built index under `build_mu_` with
    /// an atomic store, and later changes to it happen only in Record.
    mutable std::atomic<AggregateIndex*> indexes_{nullptr};
    mutable std::mutex build_mu_;
    IntrusiveMapNode hash_node_;
  };

  CostVectorDatabase() = default;
  ~CostVectorDatabase();

  CostVectorDatabase(const CostVectorDatabase&) = delete;
  CostVectorDatabase& operator=(const CostVectorDatabase&) = delete;

  /// Appends a record, stamping it with the next logical record time, and
  /// folds it into every aggregate index of its group.
  void Record(CostRecord record);

  /// Convenience: records a fully-observed execution of `call`.
  void RecordExecution(const DomainCall& call, const CostVector& cost);

  /// All records for a call group, or nullptr when none exist.
  const std::vector<CostRecord>* GetGroup(const CallGroupKey& key) const;

  /// The group itself, or nullptr when none exists.
  const Group* FindGroup(const CallGroupKey& key) const;

  /// Aggregates (averages) records matching a call pattern whose arguments
  /// are constants or `$b`. Constants must equal the record's argument at
  /// the same position; `$b` matches anything. Optionally weights records
  /// by recency: weight = 0.5^((now - record_time)/halflife).
  Result<Aggregate> Estimate(const lang::DomainCallSpec& pattern,
                             double recency_halflife = 0.0) const;

  /// Mask-based aggregation over an already-located group (see ArgMask);
  /// `group` must be the pattern's own group. Used by the estimator's
  /// relaxation loop: the group is probed once and each lattice point is a
  /// mask, not a copy. Returns nullopt when no record matches (no status
  /// text is built: lattice misses are frequent and expected).
  std::optional<Aggregate> EstimateGroup(const Group& group,
                                         const lang::DomainCallSpec& pattern,
                                         ArgMask const_mask,
                                         double recency_halflife = 0.0) const;

  /// All group keys, sorted.
  std::vector<CallGroupKey> Groups() const;

  size_t TotalRecords() const { return total_records_; }

  /// Approximate storage footprint in bytes (the paper's "heavy burden on
  /// storage" metric for the summarization tradeoff experiments). Counts
  /// the records only, not the aggregate indexes.
  size_t ApproxBytes() const;

  uint64_t now() const { return clock_.last(); }

  void Clear();

 private:
  Group* FindGroup(const CallGroupKey& key, size_t hash) const;
  void FreeGroups();

  /// The group's index for effective mask `mask`, building and linking it
  /// on first ask.
  const AggregateIndex& IndexFor(const Group& group, ArgMask mask) const;

  /// The per-record scan: answers recency-weighted questions, whose weights
  /// depend on the time of asking, and questions an index cannot answer
  /// exactly.
  std::optional<Aggregate> ScanGroup(const Group& group,
                                     const lang::DomainCallSpec& pattern,
                                     ArgMask const_mask,
                                     double recency_halflife) const;

  IntrusiveHashMap<Group, &Group::hash_node_> groups_;
  size_t total_records_ = 0;
  LogicalTime clock_;
};

}  // namespace hermes::dcsm

#endif  // HERMES_DCSM_COST_VECTOR_DB_H_
