#include "src/eval/relation.h"

#include <algorithm>
#include <bit>

#include "src/base/check.h"

namespace sqod {

namespace {

// Open-addressing tables grow at 3/4 load.
inline bool NeedsGrow(int64_t occupied, size_t capacity) {
  return capacity == 0 ||
         (occupied + 1) * 4 > static_cast<int64_t>(capacity) * 3;
}

constexpr int32_t kEmptySlot = -1;

}  // namespace

Relation::Relation(int arity) : arity_(arity) {
  SQOD_CHECK_MSG(arity >= 0 && arity <= kMaxArity,
                 "relation arity must be in [0, 64]: uint64_t column masks "
                 "cannot address more columns");
}

Relation::Relation(const Relation& other)
    : arity_(other.arity_),
      num_rows_(other.num_rows_),
      num_dead_(other.num_dead_),
      arena_(other.arena_),
      row_hashes_(other.row_hashes_),
      dedup_slots_(other.dedup_slots_),
      indexes_(CopyIndexes(other.indexes_)),
      versioned_(other.versioned_),
      version_(other.version_),
      added_(other.added_),
      deleted_(other.deleted_),
      counts_enabled_(other.counts_enabled_),
      counts_(other.counts_) {}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  SQOD_CHECK_MSG(!frozen_, "cannot assign over a frozen relation");
  arity_ = other.arity_;
  num_rows_ = other.num_rows_;
  num_dead_ = other.num_dead_;
  arena_ = other.arena_;
  row_hashes_ = other.row_hashes_;
  dedup_slots_ = other.dedup_slots_;
  indexes_ = CopyIndexes(other.indexes_);
  versioned_ = other.versioned_;
  version_ = other.version_;
  added_ = other.added_;
  deleted_ = other.deleted_;
  counts_enabled_ = other.counts_enabled_;
  counts_ = other.counts_;
  return *this;
}

Relation::IndexList Relation::CopyIndexes(const IndexList& other) {
  IndexList out;
  out.reserve(other.size());
  for (const auto& [mask, index] : other) {
    out.emplace_back(mask, std::make_unique<Index>(*index));
  }
  return out;
}

bool Relation::RowEquals(int32_t row, const Value* vals) const {
  const Value* r = RowData(row);
  for (int i = 0; i < arity_; ++i) {
    if (r[i] != vals[i]) return false;
  }
  return true;
}

uint64_t Relation::MaskedRowHash(int32_t row, uint64_t mask) const {
  const Value* r = RowData(row);
  uint64_t h = HashSeed(std::popcount(mask));
  for (uint64_t m = mask; m != 0; m &= m - 1) {
    int i = std::countr_zero(m);
    h = Mix64(h ^ static_cast<uint64_t>(r[i].Hash()));
  }
  return h;
}

bool Relation::MaskedColsEqualKey(int32_t row, uint64_t mask,
                                  const Value* key) const {
  const Value* r = RowData(row);
  int k = 0;
  for (uint64_t m = mask; m != 0; m &= m - 1) {
    if (r[std::countr_zero(m)] != key[k++]) return false;
  }
  return true;
}

bool Relation::MaskedColsEqualRows(int32_t a, int32_t b, uint64_t mask) const {
  const Value* ra = RowData(a);
  const Value* rb = RowData(b);
  for (uint64_t m = mask; m != 0; m &= m - 1) {
    int i = std::countr_zero(m);
    if (ra[i] != rb[i]) return false;
  }
  return true;
}

void Relation::GrowDedup() {
  size_t cap = dedup_slots_.empty() ? 16 : dedup_slots_.size() * 2;
  dedup_slots_.assign(cap, kEmptySlot);
  size_t m = cap - 1;
  // All stored rows are distinct, so reinsertion never needs an equality
  // check: first empty slot wins.
  for (int32_t row = 0; row < static_cast<int32_t>(num_rows_); ++row) {
    size_t s = row_hashes_[row] & m;
    while (dedup_slots_[s] != kEmptySlot) s = (s + 1) & m;
    dedup_slots_[s] = row;
  }
}

int32_t Relation::FindRow(const Value* vals, int n) const {
  SQOD_CHECK(n == arity_);
  if (dedup_slots_.empty()) return -1;
  uint64_t h = HashValues(vals, n);
  size_t m = dedup_slots_.size() - 1;
  size_t s = h & m;
  while (true) {
    int32_t r = dedup_slots_[s];
    if (r == kEmptySlot) return -1;
    if (row_hashes_[r] == h && RowEquals(r, vals)) return r;
    s = (s + 1) & m;
  }
}

bool Relation::Insert(const Value* vals, int n) {
  SQOD_CHECK(n == arity_);
  SQOD_CHECK_MSG(!frozen_, "Insert on a frozen relation");
  uint64_t h = HashValues(vals, n);
  if (NeedsGrow(num_rows_, dedup_slots_.size())) GrowDedup();
  size_t m = dedup_slots_.size() - 1;
  size_t s = h & m;
  while (true) {
    int32_t r = dedup_slots_[s];
    if (r == kEmptySlot) break;
    if (row_hashes_[r] == h && RowEquals(r, vals)) {
      if (live(r)) return false;
      // Revive a tombstoned row in place: its physical home is unique.
      ReviveRow(r);
      return true;
    }
    s = (s + 1) & m;
  }
  int32_t row = static_cast<int32_t>(num_rows_);
  dedup_slots_[s] = row;
  arena_.insert(arena_.end(), vals, vals + n);
  row_hashes_.push_back(h);
  ++num_rows_;
  if (versioned_) {
    added_.push_back(version_);
    deleted_.push_back(kNeverDeleted);
  }
  if (counts_enabled_) counts_.push_back(0);
  for (auto& [mask, index] : indexes_) {
    AddRowToIndex(mask, index.get(), row);
  }
  return true;
}

bool Relation::Erase(const Value* vals, int n) {
  SQOD_CHECK_MSG(!frozen_, "Erase on a frozen relation");
  if (!versioned_) EnableVersioning(0);
  int32_t r = FindRow(vals, n);
  if (r < 0 || !live(r)) return false;
  EraseRow(r);
  return true;
}

bool Relation::Contains(const Value* vals, int n) const {
  int32_t r = FindRow(vals, n);
  return r >= 0 && live(r);
}

void Relation::EnableVersioning(int64_t base_version) {
  SQOD_CHECK_MSG(!frozen_, "EnableVersioning on a frozen relation");
  if (versioned_) return;
  versioned_ = true;
  version_ = base_version;
  added_.assign(num_rows_, base_version);
  deleted_.assign(num_rows_, kNeverDeleted);
}

void Relation::EraseRow(int32_t row) {
  SQOD_CHECK(versioned_ && live(row));
  deleted_[row] = version_;
  ++num_dead_;
}

void Relation::ReviveRow(int32_t row) {
  SQOD_CHECK(versioned_ && !live(row));
  added_[row] = version_;
  deleted_[row] = kNeverDeleted;
  --num_dead_;
}

void Relation::UndeleteRow(int32_t row) {
  SQOD_CHECK(versioned_ && !live(row));
  deleted_[row] = kNeverDeleted;
  --num_dead_;
}

void Relation::EnableCounts() {
  if (counts_enabled_) return;
  counts_enabled_ = true;
  counts_.assign(num_rows_, 0);
}

void Relation::ResetCounts() {
  counts_.assign(num_rows_, 0);
}

void Relation::GrowIndex(Index* index) const {
  size_t cap = index->slots.empty() ? 16 : index->slots.size() * 2;
  std::vector<int32_t> old = std::move(index->slots);
  index->slots.assign(cap, kEmptySlot);
  size_t m = cap - 1;
  // Chains move wholesale: rehash each head by its stored key hash; the
  // heads of distinct keys are distinct, so first empty slot wins.
  for (int32_t head : old) {
    if (head == kEmptySlot) continue;
    size_t s = index->key_hash[head] & m;
    while (index->slots[s] != kEmptySlot) s = (s + 1) & m;
    index->slots[s] = head;
  }
}

void Relation::AddRowToIndex(uint64_t mask, Index* index, int32_t row) const {
  if (NeedsGrow(index->distinct_keys, index->slots.size())) GrowIndex(index);
  uint64_t h = MaskedRowHash(row, mask);
  index->key_hash.push_back(h);
  index->next.push_back(kEmptySlot);
  size_t m = index->slots.size() - 1;
  size_t s = h & m;
  while (true) {
    int32_t head = index->slots[s];
    if (head == kEmptySlot) {
      index->slots[s] = row;
      ++index->distinct_keys;
      return;
    }
    if (index->key_hash[head] == h && MaskedColsEqualRows(head, row, mask)) {
      // Same key: prepend to the chain (O(1)). Rows arrive in ascending id,
      // so every chain descends by row id — the order Probe's row windows
      // rely on.
      index->next[row] = head;
      index->slots[s] = row;
      return;
    }
    s = (s + 1) & m;
  }
}

const Relation::Index& Relation::FindOrBuildIndex(uint64_t mask) const {
  for (const auto& [m, index] : indexes_) {
    if (m == mask) return *index;
  }
  Index& index = *indexes_.emplace_back(mask, std::make_unique<Index>()).second;
  index.next.reserve(num_rows_);
  index.key_hash.reserve(num_rows_);
  for (int32_t row = 0; row < static_cast<int32_t>(num_rows_); ++row) {
    AddRowToIndex(mask, &index, row);
  }
  return index;
}

Relation::Matches Relation::Probe(uint64_t mask, const Value* key,
                                  int64_t lo, int64_t hi) const {
  const Index* index;
  if (frozen_) {
    // Shared read-only snapshot: the index list grows on first probe of a mask,
    // so the lookup-or-build must serialize. Once built, an Index never
    // changes (frozen relations take no inserts), so chain walks below are
    // lock-free.
    std::lock_guard<std::mutex> lock(*index_mu_);
    index = &FindOrBuildIndex(mask);
  } else {
    index = &FindOrBuildIndex(mask);
  }
  if (index->slots.empty()) return Matches();
  const int n = std::popcount(mask);
  uint64_t h = HashSeed(n);
  for (int k = 0; k < n; ++k) {
    h = Mix64(h ^ static_cast<uint64_t>(key[k].Hash()));
  }
  size_t m = index->slots.size() - 1;
  size_t s = h & m;
  while (true) {
    int32_t head = index->slots[s];
    if (head == kEmptySlot) return Matches();
    if (index->key_hash[head] == h && MaskedColsEqualKey(head, mask, key)) {
      // Descending chain: skip rows at or above the window's end.
      while (head >= hi) head = index->next[head];
      Matches m{head, &index->next, static_cast<int32_t>(lo)};
      if (head < lo) m.row = -1;
      return m;
    }
    s = (s + 1) & m;
  }
}

void Relation::Freeze() {
  if (frozen_) return;
  frozen_ = true;
  index_mu_ = std::make_unique<std::mutex>();
}

void Relation::Clear() {
  SQOD_CHECK_MSG(!frozen_, "Clear on a frozen relation");
  num_rows_ = 0;
  num_dead_ = 0;
  arena_.clear();
  row_hashes_.clear();
  dedup_slots_.clear();
  indexes_.clear();
  // Versioning/counts flags survive Clear: subsequent inserts stamp with
  // version_ again.
  added_.clear();
  deleted_.clear();
  counts_.clear();
}

namespace {

// Stable LSD radix sort of `ids` by the integer rows they address. Column
// by column from the last, so the first column decides last; within a
// column only the bytes that vary across its [min, max] range get a pass.
void RadixSortRows(const Relation& rel, std::vector<int32_t>* ids) {
  std::vector<int32_t> tmp(ids->size());
  for (int c = rel.arity() - 1; c >= 0; --c) {
    int64_t lo = INT64_MAX;
    int64_t hi = INT64_MIN;
    for (int32_t r : *ids) {
      const int64_t v = rel.row(r)[c].as_int();
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    // Offsets from the minimum in unsigned arithmetic: exact for any
    // int64 range, and order-preserving.
    const uint64_t range =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    for (int shift = 0; shift < 64 && (range >> shift) != 0; shift += 8) {
      size_t counts[257] = {};
      auto digit = [&](int32_t r) {
        const uint64_t key = static_cast<uint64_t>(rel.row(r)[c].as_int()) -
                             static_cast<uint64_t>(lo);
        return static_cast<size_t>((key >> shift) & 0xff);
      };
      for (int32_t r : *ids) ++counts[digit(r) + 1];
      for (int d = 0; d < 256; ++d) counts[d + 1] += counts[d];
      for (int32_t r : *ids) tmp[counts[digit(r)]++] = r;
      ids->swap(tmp);
    }
  }
}

}  // namespace

std::vector<Tuple> SortedLiveTuples(const Relation& rel) {
  const int arity = rel.arity();
  std::vector<int32_t> ids;
  ids.reserve(static_cast<size_t>(rel.live_size()));
  bool all_int = true;
  for (int64_t r = 0; r < rel.size(); ++r) {
    if (!rel.live(r)) continue;
    ids.push_back(static_cast<int32_t>(r));
    for (const Value& v : rel.row(r)) all_int = all_int && v.is_int();
  }
  if (all_int) {
    RadixSortRows(rel, &ids);
  } else {
    std::sort(ids.begin(), ids.end(), [&rel, arity](int32_t a, int32_t b) {
      const TupleRef x = rel.row(a);
      const TupleRef y = rel.row(b);
      for (int i = 0; i < arity; ++i) {
        const int c = x[i].Compare(y[i]);
        if (c != 0) return c < 0;
      }
      return false;
    });
  }
  std::vector<Tuple> out;
  out.reserve(ids.size());
  for (int32_t r : ids) out.push_back(rel.row(r).Materialize());
  return out;
}

}  // namespace sqod
