#include "dcsm/cost_vector_db.h"

#include <algorithm>
#include <cmath>

namespace hermes::dcsm {

namespace {

/// True when `==` is transitive over `v` and every value it can equal.
/// Integers beyond 2^53 break this: int-to-double widening makes distinct
/// integers equal to the same double. An index keyed or probed with such a
/// value could merge records a scan tells apart, or miss records a scan
/// matches, so those questions go to the scan.
bool IndexableValue(const Value& v) {
  constexpr int64_t kExact = int64_t{1} << 53;
  if (v.is_int()) return v.as_int() >= -kExact && v.as_int() <= kExact;
  if (v.is_list()) {
    for (const Value& item : v.as_list()) {
      if (!IndexableValue(item)) return false;
    }
  }
  if (v.is_struct()) {
    for (const auto& [name, item] : v.as_struct()) {
      if (!IndexableValue(item)) return false;
    }
  }
  return true;
}

/// Hash of the values at the positions in `mask`; `value_at(i)` yields the
/// value at position `i` (a record argument or a pattern constant).
template <typename ValueAt>
uint32_t KeyHash(ArgMask mask, ValueAt value_at) {
  size_t h = 0;
  for (ArgMask m = mask; m != 0; m &= m - 1) {
    const size_t i = static_cast<size_t>(__builtin_ctzll(m));
    h ^= value_at(i).Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return static_cast<uint32_t>(h ^ (h >> 32));
}

}  // namespace

/// One aggregate index: an open-addressing table from the values at the
/// positions of `mask` to the running sums of the records holding them.
/// A slot costs 12 bytes and names the first record with its key instead
/// of copying the key's values. A key seen once has no sums of its own: its
/// aggregate is that record alone. Sums (40 bytes) are allocated when a key
/// repeats, so never-repeating arguments cost one slot per record.
struct CostVectorDatabase::AggregateIndex {
  static constexpr uint32_t kEmpty = ~uint32_t{0};
  static constexpr uint32_t kSingleton = ~uint32_t{0};

  struct Slot {
    uint32_t hash = 0;
    uint32_t rep = kEmpty;  ///< Index of the key's first record.
    uint32_t running = kSingleton;
  };
  /// Every weight is 1 here, so weights are counts. `matched` sits in the
  /// base's tail padding.
  struct Running : BasicCostSums<uint32_t> {
    uint32_t matched = 0;
    void Fold(const CostRecord& record) {
      Add(record);
      ++matched;
    }
  };
  static_assert(sizeof(Running) == 40);

  explicit AggregateIndex(ArgMask m) : mask(m) {}

  /// Folds `records[r]`, the newest record of the group, into the index.
  void Fold(const std::vector<CostRecord>& records, uint32_t r) {
    if (!exact) return;
    const ValueList& args = records[r].call.args;
    for (ArgMask m = mask; m != 0; m &= m - 1) {
      if (!IndexableValue(args[static_cast<size_t>(__builtin_ctzll(m))])) {
        exact = false;
        used = 0;
        slots = {};
        running = {};
        return;
      }
    }
    if ((used + 1) * 4 > slots.size() * 3) Grow();
    auto key = [&](size_t i) -> const Value& { return args[i]; };
    const uint32_t hash = KeyHash(mask, key);
    Slot& slot = slots[Probe(records, hash, key)];
    if (slot.rep == kEmpty) {
      slot = Slot{hash, r, kSingleton};
      ++used;
      return;
    }
    if (slot.running == kSingleton) {
      slot.running = static_cast<uint32_t>(running.size());
      running.emplace_back().Fold(records[slot.rep]);
    }
    running[slot.running].Fold(records[r]);
  }

  /// The slot whose key equals the pattern's constants at `mask`, or
  /// nullptr.
  const Slot* Find(const std::vector<CostRecord>& records,
                   const lang::DomainCallSpec& pattern) const {
    if (used == 0) return nullptr;
    auto key = [&](size_t i) -> const Value& {
      return pattern.args[i].constant;
    };
    const Slot& slot = slots[Probe(records, KeyHash(mask, key), key)];
    return slot.rep == kEmpty ? nullptr : &slot;
  }

  /// The position of the slot holding the key `key(i)` yields at the
  /// positions of `mask` (compared with `==`, as the scan does), or of the
  /// empty slot where it belongs.
  template <typename ValueAt>
  size_t Probe(const std::vector<CostRecord>& records, uint32_t hash,
               ValueAt key) const {
    const size_t last = slots.size() - 1;
    for (size_t pos = hash & last;; pos = (pos + 1) & last) {
      const Slot& slot = slots[pos];
      if (slot.rep == kEmpty) return pos;
      if (slot.hash != hash) continue;
      const ValueList& args = records[slot.rep].call.args;
      bool same = true;
      for (ArgMask m = mask; m != 0 && same; m &= m - 1) {
        const size_t i = static_cast<size_t>(__builtin_ctzll(m));
        same = key(i) == args[i];
      }
      if (same) return pos;
    }
  }

  /// The aggregate of the records holding `slot`'s key.
  Aggregate Answer(const std::vector<CostRecord>& records,
                   const Slot& slot) const {
    Running single;
    const Running* sums = &single;
    if (slot.running == kSingleton) {
      single.Fold(records[slot.rep]);
    } else {
      sums = &running[slot.running];
    }
    Aggregate agg;
    sums->Finish(&agg);
    agg.matched = sums->matched;
    return agg;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots);
    slots.assign(old.empty() ? 8 : old.size() * 2, Slot{});
    const size_t last = slots.size() - 1;
    for (const Slot& slot : old) {
      if (slot.rep == kEmpty) continue;
      size_t pos = slot.hash & last;
      while (slots[pos].rep != kEmpty) pos = (pos + 1) & last;
      slots[pos] = slot;
    }
  }

  const ArgMask mask;
  /// False once a key outside IndexableValue was folded in; the index is
  /// then emptied and its questions fall back to the scan.
  bool exact = true;
  size_t used = 0;  ///< Occupied slots (distinct keys).
  std::vector<Slot> slots;
  std::vector<Running> running;
  AggregateIndex* next = nullptr;
};

CostVectorDatabase::Group::~Group() {
  for (AggregateIndex* index = indexes_.load(); index != nullptr;) {
    AggregateIndex* next = index->next;
    delete index;
    index = next;
  }
}

CostVectorDatabase::~CostVectorDatabase() { FreeGroups(); }

void CostVectorDatabase::FreeGroups() {
  groups_.ForEach([](Group& group) {
    delete &group;
    return true;
  });
  groups_.Clear();
}

CostVectorDatabase::Group* CostVectorDatabase::FindGroup(
    const CallGroupKey& key, size_t hash) const {
  return groups_.Find(hash,
                      [&](const Group& group) { return group.key_ == key; });
}

const CostVectorDatabase::Group* CostVectorDatabase::FindGroup(
    const CallGroupKey& key) const {
  return FindGroup(key, key.Hash());
}

void CostVectorDatabase::Record(CostRecord record) {
  record.record_time = clock_.Next();
  CallGroupKey key{record.call.domain, record.call.function,
                   record.call.args.size()};
  const size_t hash = key.Hash();
  Group* group = FindGroup(key, hash);
  if (group == nullptr) {
    group = new Group(std::move(key));
    groups_.Insert(group, hash);
  }
  group->records_.push_back(std::move(record));
  ++total_records_;
  const auto r = static_cast<uint32_t>(group->records_.size() - 1);
  for (AggregateIndex* index = group->indexes_.load(); index != nullptr;
       index = index->next) {
    index->Fold(group->records_, r);
  }
}

void CostVectorDatabase::RecordExecution(const DomainCall& call,
                                         const CostVector& cost) {
  CostRecord record;
  record.call = call;
  record.cost = cost;
  Record(std::move(record));
}

const std::vector<CostRecord>* CostVectorDatabase::GetGroup(
    const CallGroupKey& key) const {
  const Group* group = FindGroup(key);
  return group == nullptr ? nullptr : &group->records_;
}

Result<Aggregate> CostVectorDatabase::Estimate(
    const lang::DomainCallSpec& pattern, double recency_halflife) const {
  for (const lang::Term& arg : pattern.args) {
    if (arg.is_variable()) {
      return Status::InvalidArgument(
          "cost patterns may contain only constants and '$b': " +
          pattern.ToString());
    }
  }
  CallGroupKey key{pattern.domain, pattern.function, pattern.args.size()};
  const Group* group = FindGroup(key);
  if (group == nullptr) {
    return Status::NotFound("no statistics for " + key.ToString());
  }
  std::optional<Aggregate> agg =
      EstimateGroup(*group, pattern, kAllArgs, recency_halflife);
  if (!agg.has_value()) {
    return Status::NotFound("no statistics matching " + pattern.ToString());
  }
  return *agg;
}

const CostVectorDatabase::AggregateIndex& CostVectorDatabase::IndexFor(
    const Group& group, ArgMask mask) const {
  auto find = [&]() -> const AggregateIndex* {
    for (const AggregateIndex* index = group.indexes_.load();
         index != nullptr; index = index->next) {
      if (index->mask == mask) return index;
    }
    return nullptr;
  };
  if (const AggregateIndex* index = find()) return *index;
  std::lock_guard<std::mutex> lock(group.build_mu_);
  if (const AggregateIndex* index = find()) return *index;
  auto* index = new AggregateIndex(mask);
  for (size_t r = 0; r < group.records_.size(); ++r) {
    index->Fold(group.records_, static_cast<uint32_t>(r));
  }
  index->next = group.indexes_.load();
  group.indexes_.store(index);
  return *index;
}

std::optional<Aggregate> CostVectorDatabase::EstimateGroup(
    const Group& group, const lang::DomainCallSpec& pattern,
    ArgMask const_mask, double recency_halflife) const {
  if (recency_halflife > 0.0) {
    return ScanGroup(group, pattern, const_mask, recency_halflife);
  }
  ArgMask mask = 0;  // the effective constant positions
  for (size_t i = 0; i < pattern.args.size(); ++i) {
    if (!pattern.args[i].is_constant()) continue;
    // A constant beyond ArgMask's reach always filters (see ArgMask); no
    // index covers it.
    if (i >= 64) return ScanGroup(group, pattern, const_mask, 0.0);
    if ((const_mask & (ArgMask{1} << i)) == 0) continue;
    if (!IndexableValue(pattern.args[i].constant)) {
      return ScanGroup(group, pattern, const_mask, 0.0);
    }
    mask |= ArgMask{1} << i;
  }
  const AggregateIndex& index = IndexFor(group, mask);
  if (!index.exact) return ScanGroup(group, pattern, const_mask, 0.0);
  const AggregateIndex::Slot* slot = index.Find(group.records_, pattern);
  if (slot == nullptr) return std::nullopt;
  Aggregate agg = index.Answer(group.records_, *slot);
  agg.rows_scanned = group.records_.size();
  return agg;
}

std::optional<Aggregate> CostVectorDatabase::ScanGroup(
    const Group& group, const lang::DomainCallSpec& pattern,
    ArgMask const_mask, double recency_halflife) const {
  Aggregate agg;
  CostSums sums;
  const uint64_t current = clock_.last();
  for (const CostRecord& record : group.records_) {
    ++agg.rows_scanned;
    bool matches = true;
    for (size_t i = 0; i < pattern.args.size(); ++i) {
      if (i < 64 && (const_mask & (ArgMask{1} << i)) == 0) continue;
      const lang::Term& t = pattern.args[i];
      if (t.is_constant() && t.constant != record.call.args[i]) {
        matches = false;
        break;
      }
    }
    if (!matches) continue;
    ++agg.matched;
    double weight = 1.0;
    if (recency_halflife > 0.0) {
      double age = static_cast<double>(current - record.record_time);
      weight = std::pow(0.5, age / recency_halflife);
    }
    sums.Add(record, weight);
  }
  if (agg.matched == 0) return std::nullopt;
  sums.Finish(&agg);
  return agg;
}

std::vector<CallGroupKey> CostVectorDatabase::Groups() const {
  std::vector<CallGroupKey> out;
  out.reserve(groups_.size());
  groups_.ForEach([&](const Group& group) {
    out.push_back(group.key_);
    return true;
  });
  std::sort(out.begin(), out.end());
  return out;
}

size_t CostVectorDatabase::ApproxBytes() const {
  size_t total = 0;
  groups_.ForEach([&](const Group& group) {
    total += group.key_.domain.size() + group.key_.function.size() + 16;
    for (const CostRecord& record : group.records_) {
      // Cost vector (3 doubles) + flags + timestamp + argument payload.
      total += 3 * 8 + 4 + 8;
      for (const Value& v : record.call.args) total += v.ApproxByteSize();
    }
    return true;
  });
  return total;
}

void CostVectorDatabase::Clear() {
  FreeGroups();
  total_records_ = 0;
}

}  // namespace hermes::dcsm
