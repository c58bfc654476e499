#ifndef HERMES_DCSM_SUMMARY_TABLE_H_
#define HERMES_DCSM_SUMMARY_TABLE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "dcsm/cost_vector_db.h"

namespace hermes::dcsm {

/// One aggregated row of a summary table: per-metric weighted sums so the
/// row can participate in further (still exact) aggregation, plus the
/// paper's `l` attribute — the number of original records folded in.
struct SummaryRow {
  ValueList dims;  ///< Values of the retained dimension positions.
  CostSums sums;
  uint64_t l = 0;

  /// The averaged cost vector of this row.
  CostVector Mean() const {
    Aggregate agg;
    sums.Finish(&agg);
    return agg.cost;
  }
};

/// A (possibly lossy) summarization of one call group's statistics
/// (Section 6.2).
///
/// `dims` lists the retained argument positions (0-based). A table
/// retaining every position is a *lossless* summarization: any question the
/// cost estimator can ask gets the same answer as on the raw records. A
/// table that drops positions is *lossy*: calls differing only in dropped
/// positions share rows.
class SummaryTable {
 public:
  SummaryTable(CallGroupKey key, std::vector<size_t> dims)
      : key_(std::move(key)), dims_(std::move(dims)) {
    for (size_t d : dims_) {
      if (d < 64) dims_mask_ |= ArgMask{1} << d;
    }
  }

  /// Builds the summary of `records` retaining the `dims` positions.
  static Result<SummaryTable> Build(const CallGroupKey& key,
                                    const std::vector<CostRecord>& records,
                                    std::vector<size_t> dims);

  /// Folds one more record into the summary (incremental maintenance —
  /// keeps the table equivalent to a full rebuild over the extended record
  /// set). Records of the wrong group are ignored.
  void Fold(const CostRecord& record);

  const CallGroupKey& key() const { return key_; }
  const std::vector<size_t>& dims() const { return dims_; }
  /// Bitmask with bit `d` set for every retained dimension position `d`
  /// (precomputed; the estimator's relaxation loop compares masks instead
  /// of position vectors).
  ArgMask dims_mask() const { return dims_mask_; }
  bool IsLossless() const { return dims_.size() == key_.arity; }

  /// Exact lookup of the row whose dimension values equal `dim_values`
  /// (ordered as `dims()`); nullptr when absent.
  const SummaryRow* Lookup(const ValueList& dim_values) const;

  /// Aggregates over rows matching a call pattern. The pattern's constant
  /// positions must all be retained dimensions of this table (otherwise
  /// the table cannot answer the question and InvalidArgument is
  /// returned). Aggregation weights rows by their per-metric weights.
  Result<Aggregate> EstimateForPattern(
      const lang::DomainCallSpec& pattern) const;

  /// Mask-based aggregation (see ArgMask in cost_vector_db.h): positions
  /// outside `const_mask` act as `$b` even when the pattern holds a
  /// constant there. The caller guarantees the effective constant set is a
  /// subset of `dims()` (compare masks) and that the pattern's group
  /// matches `key()`. Avoids the per-relaxation-step spec copy. Returns
  /// nullopt when no row matches.
  std::optional<Aggregate> EstimateMasked(const lang::DomainCallSpec& pattern,
                                          ArgMask const_mask) const;

  /// True when the table's dimensions include every constant position of
  /// `pattern`, i.e. the table can answer for it.
  bool CanAnswer(const lang::DomainCallSpec& pattern) const;

  size_t num_rows() const { return rows_.size(); }
  size_t ApproxBytes() const;

  /// Iterates rows in unspecified order.
  const std::unordered_map<Value, SummaryRow, ValueHash>& rows() const {
    return rows_;
  }

 private:
  CallGroupKey key_;
  std::vector<size_t> dims_;  // sorted ascending
  ArgMask dims_mask_ = 0;     // bit d set for every d in dims_
  // Keyed by Value::List(dim values) for hashing.
  std::unordered_map<Value, SummaryRow, ValueHash> rows_;
};

}  // namespace hermes::dcsm

#endif  // HERMES_DCSM_SUMMARY_TABLE_H_
