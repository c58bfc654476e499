#include "dcsm/summary_table.h"

#include <algorithm>

namespace hermes::dcsm {

Result<SummaryTable> SummaryTable::Build(
    const CallGroupKey& key, const std::vector<CostRecord>& records,
    std::vector<size_t> dims) {
  std::sort(dims.begin(), dims.end());
  for (size_t d : dims) {
    if (d >= key.arity) {
      return Status::InvalidArgument(
          "dimension position " + std::to_string(d) +
          " out of range for " + key.ToString());
    }
  }
  SummaryTable table(key, dims);
  for (const CostRecord& record : records) table.Fold(record);
  return table;
}

void SummaryTable::Fold(const CostRecord& record) {
  if (record.call.domain != key_.domain ||
      record.call.function != key_.function ||
      record.call.args.size() != key_.arity) {
    return;
  }
  ValueList dim_values;
  dim_values.reserve(dims_.size());
  for (size_t d : dims_) dim_values.push_back(record.call.args[d]);
  Value row_key = Value::List(dim_values);
  SummaryRow& row = rows_[row_key];
  if (row.l == 0) row.dims = std::move(dim_values);
  ++row.l;
  row.sums.Add(record);
}

const SummaryRow* SummaryTable::Lookup(const ValueList& dim_values) const {
  auto it = rows_.find(Value::List(dim_values));
  return it == rows_.end() ? nullptr : &it->second;
}

bool SummaryTable::CanAnswer(const lang::DomainCallSpec& pattern) const {
  if (pattern.domain != key_.domain || pattern.function != key_.function ||
      pattern.args.size() != key_.arity) {
    return false;
  }
  for (size_t i = 0; i < pattern.args.size(); ++i) {
    if (pattern.args[i].is_constant() &&
        std::find(dims_.begin(), dims_.end(), i) == dims_.end()) {
      return false;  // constant at a dropped position
    }
  }
  return true;
}

Result<Aggregate> SummaryTable::EstimateForPattern(
    const lang::DomainCallSpec& pattern) const {
  if (!CanAnswer(pattern)) {
    return Status::InvalidArgument("summary table " + key_.ToString() +
                                   " cannot answer " + pattern.ToString());
  }
  std::optional<Aggregate> agg = EstimateMasked(pattern, kAllArgs);
  if (!agg.has_value()) {
    return Status::NotFound("no summary rows matching " + pattern.ToString());
  }
  return *agg;
}

std::optional<Aggregate> SummaryTable::EstimateMasked(
    const lang::DomainCallSpec& pattern, ArgMask const_mask) const {
  Aggregate agg;
  CostSums sums;
  for (const auto& [row_key, row] : rows_) {
    ++agg.rows_scanned;
    bool matches = true;
    for (size_t k = 0; k < dims_.size(); ++k) {
      const size_t d = dims_[k];
      if (d < 64 && (const_mask & (ArgMask{1} << d)) == 0) continue;
      const lang::Term& t = pattern.args[d];
      if (t.is_constant() && t.constant != row.dims[k]) {
        matches = false;
        break;
      }
    }
    if (!matches) continue;
    agg.matched += row.l;
    sums.Merge(row.sums);
  }
  if (agg.matched == 0) return std::nullopt;
  sums.Finish(&agg);
  return agg;
}

size_t SummaryTable::ApproxBytes() const {
  size_t total = key_.domain.size() + key_.function.size() + 16 +
                 dims_.size() * 8;
  for (const auto& [row_key, row] : rows_) {
    total += 6 * 8 + 8;  // sums/weights + l
    for (const Value& v : row.dims) total += v.ApproxByteSize();
  }
  return total;
}

}  // namespace hermes::dcsm
