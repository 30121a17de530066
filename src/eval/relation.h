#ifndef SQOD_EVAL_RELATION_H_
#define SQOD_EVAL_RELATION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/eval/tuple.h"

namespace sqod {

// A set of tuples of one arity, with duplicate elimination and lazily built
// hash indexes on column subsets. Indexes are created on first probe for a
// column mask and maintained incrementally on insert.
//
// Storage is flat: all rows live in one contiguous arena with stride
// `arity`, addressed as TupleRef views. Dedup and the per-mask indexes are
// open-addressing tables that store row ids and hash the arena in place, so
// Insert / Contains / Probe never materialize a key tuple.
//
// Deletion is by tombstone: rows are never moved or reclaimed, so row ids,
// probe chains, and the dedup table stay valid across Erase. A versioned
// relation (EnableVersioning) stamps every row with the snapshot version it
// was added at and the version it was deleted at, giving two simultaneous
// consistent views: the current one (live()) and the previous snapshot
// (LiveAt(row, v)) — exactly the depth the incremental-maintenance executor
// needs to join "old" and "new" states in one pass (see
// src/eval/maintain.h). Unversioned relations pay nothing: live() is a
// single empty-vector test and Insert never touches the stamps.
//
// A relation may also carry per-row derivation counts (EnableCounts), used
// by counting-based view maintenance for non-recursive strata. Counts are
// bookkeeping owned by the maintenance layer; the relation only stores
// them.
class Relation {
 public:
  // Column masks are uint64_t bitsets, so probe keys cap the arity.
  static constexpr int kMaxArity = 64;
  // deleted_version of a live row.
  static constexpr int64_t kNeverDeleted = INT64_MAX;

  explicit Relation(int arity = 0);

  // Copies share no state; a copy is always mutable and unfrozen.
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept = default;
  Relation& operator=(Relation&& other) noexcept = default;

  int arity() const { return arity_; }
  // Physical rows, including tombstones: the exclusive bound for row(i).
  // Scan loops iterate [0, size()) and skip rows where !live(r).
  int64_t size() const { return num_rows_; }
  // Rows that are currently live (the relation's cardinality).
  int64_t live_size() const { return num_rows_ - num_dead_; }
  bool empty() const { return num_rows_ == 0; }
  bool has_tombstones() const { return num_dead_ > 0; }

  // The i-th row, in insertion order. The view is invalidated by Insert.
  TupleRef row(int64_t i) const {
    return TupleRef(arena_.data() + i * arity_, arity_);
  }

  // True when row i has not been tombstoned. Cheap for unversioned
  // relations (one empty-vector test).
  bool live(int64_t i) const {
    return deleted_.empty() || deleted_[i] == kNeverDeleted;
  }
  // True when row i was live in snapshot `v`: added at or before `v` and
  // not deleted at or before it. Rows of unversioned relations are live at
  // every version.
  bool LiveAt(int64_t i, int64_t v) const {
    return !versioned_ || (added_[i] <= v && v < deleted_[i]);
  }

  int64_t added_version(int64_t i) const {
    return versioned_ ? added_[i] : 0;
  }
  int64_t deleted_version(int64_t i) const {
    return versioned_ ? deleted_[i] : kNeverDeleted;
  }

  // Iterable range over all live rows, in insertion order, yielding
  // TupleRef. Tombstoned rows are skipped.
  class RowIterator {
   public:
    RowIterator(const Relation* rel, int64_t i) : rel_(rel), i_(i) { Skip(); }
    TupleRef operator*() const { return rel_->row(i_); }
    RowIterator& operator++() {
      ++i_;
      Skip();
      return *this;
    }
    bool operator!=(const RowIterator& o) const { return i_ != o.i_; }

   private:
    void Skip() {
      while (i_ < rel_->num_rows_ && !rel_->live(i_)) ++i_;
    }
    const Relation* rel_;
    int64_t i_;
  };
  struct RowRange {
    const Relation* rel;
    RowIterator begin() const { return RowIterator(rel, 0); }
    RowIterator end() const { return RowIterator(rel, rel->num_rows_); }
  };
  RowRange rows() const { return RowRange{this}; }

  // Inserts the row `vals[0..n)`; returns true if the live set changed
  // (a brand-new row, or a tombstoned row revived — the revived row is
  // stamped added = version()). Returns false for a live duplicate.
  bool Insert(const Value* vals, int n);
  bool Insert(const Tuple& t) {
    return Insert(t.data(), static_cast<int>(t.size()));
  }
  bool Insert(TupleRef t) { return Insert(t.data(), t.size()); }

  // Tombstones the row equal to `vals` at the current version. Returns
  // false when no live row matches. Enables versioning on first use.
  bool Erase(const Value* vals, int n);
  bool Erase(const Tuple& t) {
    return Erase(t.data(), static_cast<int>(t.size()));
  }

  // Membership over live rows only.
  bool Contains(const Value* vals, int n) const;
  bool Contains(const Tuple& t) const {
    return Contains(t.data(), static_cast<int>(t.size()));
  }

  // The row holding `vals`, live or tombstoned, or -1. The physical home of
  // a tuple is unique: a revived tuple reuses its tombstoned row.
  int32_t FindRow(const Value* vals, int n) const;

  // --- versioning -------------------------------------------------------

  // Stamps all existing rows added = base_version / never deleted and
  // makes subsequent Insert/Erase stamp with version(). Idempotent.
  void EnableVersioning(int64_t base_version);
  bool versioned() const { return versioned_; }
  // The version new stamps are taken from (set by the maintenance layer
  // before applying a batch).
  void set_version(int64_t v) { version_ = v; }
  int64_t version() const { return version_; }

  // Row-level transitions used by the maintenance executor. All CHECK that
  // versioning is enabled and that the row is in the expected state.
  void EraseRow(int32_t row);               // live -> dead at version()
  void ReviveRow(int32_t row);              // dead -> live, added = version()
  void UndeleteRow(int32_t row);            // dead -> live, added preserved

  // --- derivation counts ------------------------------------------------

  void EnableCounts();
  bool counted() const { return !counts_.empty() || counts_enabled_; }
  int64_t count(int32_t row) const { return counts_[row]; }
  void set_count(int32_t row, int64_t c) { counts_[row] = c; }
  void add_count(int32_t row, int64_t d) { counts_[row] += d; }
  void ResetCounts();  // zeroes every row's count

  // --- probing ----------------------------------------------------------

  // The chain of rows in [lo, hi) whose values at the columns of `mask`
  // (bit i => column i) equal `key` (the values at the masked columns, in
  // column order; popcount(mask) of them). Builds the index for `mask` on
  // first use. Chains may include tombstoned rows; consumers filter with
  // live()/LiveAt(). Iterate as:
  //   for (int32_t r = m.row; r >= 0; r = m.next(r)) ... rel.row(r) ...
  //
  // Chains run in strictly descending row id (rows are prepended as they
  // are inserted), so a row window costs nothing beyond skipping the rows
  // at or above `hi` at the chain head: the walk stops at the first row
  // below `lo`. That is what lets semi-naive evaluation keep each
  // iteration's delta as a row range of the IDB relation itself
  // (docs/evaluator.md, "Single-insert semi-naive iteration"). A cursor
  // stays valid across Insert into the same relation — new rows join
  // chains at the head, and `next` re-reads the link table — so a rule may
  // probe the relation it derives into.
  static constexpr int64_t kAllRows = INT32_MAX;
  struct Matches {
    int32_t row = -1;  // first matching row of the window, -1 for none
    const std::vector<int32_t>* links = nullptr;  // per-row chain links
    int32_t lo = 0;    // the window's first row
    // The next matching row after `r`, or -1 past the end of the window.
    int32_t next(int32_t r) const {
      int32_t n = (*links)[r];
      return n >= lo ? n : -1;
    }
  };
  Matches Probe(uint64_t mask, const Value* key, int64_t lo = 0,
                int64_t hi = kAllRows) const;
  Matches Probe(uint64_t mask, const Tuple& key) const {
    return Probe(mask, key.data());
  }

  // Marks the relation immutable and makes Probe safe to call from any
  // number of threads concurrently (first-probe index builds serialize on
  // an internal mutex; everything else is read-only). Insert/Erase on a
  // frozen relation CHECK-fail. Used by the engine's shared base-EDB
  // snapshot, which every request reads without copying.
  void Freeze();
  bool frozen() const { return frozen_; }

  void Clear();

 private:
  // Per-mask index: an open-addressing table of distinct keys, each slot
  // holding the head row of a chain of rows sharing that key. `next` and
  // `key_hash` are parallel to the relation's rows.
  struct Index {
    std::vector<int32_t> slots;      // head row per bucket, -1 = empty
    std::vector<int32_t> next;       // per row: next row with the same key
    std::vector<uint64_t> key_hash;  // per row: hash of the masked columns
    int32_t distinct_keys = 0;
  };

  const Value* RowData(int32_t row) const {
    return arena_.data() + static_cast<int64_t>(row) * arity_;
  }
  bool RowEquals(int32_t row, const Value* vals) const;
  uint64_t MaskedRowHash(int32_t row, uint64_t mask) const;
  bool MaskedColsEqualKey(int32_t row, uint64_t mask, const Value* key) const;
  bool MaskedColsEqualRows(int32_t a, int32_t b, uint64_t mask) const;

  void GrowDedup();
  void GrowIndex(Index* index) const;
  void AddRowToIndex(uint64_t mask, Index* index, int32_t row) const;
  const Index& FindOrBuildIndex(uint64_t mask) const;

  int arity_;
  int64_t num_rows_ = 0;
  int64_t num_dead_ = 0;
  std::vector<Value> arena_;        // num_rows_ * arity_ values
  std::vector<uint64_t> row_hashes_;  // per row: whole-row hash
  std::vector<int32_t> dedup_slots_;  // open addressing, pow-2, -1 = empty
  // Per-mask indexes in creation order. A relation is probed on a handful
  // of masks at most, so lookup is a linear scan (no hashing per probe);
  // each Index is heap-allocated so an open Matches cursor's link table
  // stays put when another mask's index is created.
  using IndexList = std::vector<std::pair<uint64_t, std::unique_ptr<Index>>>;
  static IndexList CopyIndexes(const IndexList& other);
  mutable IndexList indexes_;

  // Versioning (empty/disabled unless EnableVersioning ran).
  bool versioned_ = false;
  int64_t version_ = 0;
  std::vector<int64_t> added_;    // per row: version the row became live
  std::vector<int64_t> deleted_;  // per row: version tombstoned, or never

  // Derivation counts (maintenance bookkeeping).
  bool counts_enabled_ = false;
  std::vector<int64_t> counts_;

  // Frozen-snapshot support: guards first-probe index builds when the
  // relation is shared read-only across threads.
  bool frozen_ = false;
  std::unique_ptr<std::mutex> index_mu_;
};

// The live rows of `rel` as owning tuples, in lexicographic Value::Compare
// order: the order every query answer is served in, by the evaluator and
// by materialized views alike. The row ids are sorted first, then each
// row is copied exactly once, already in place. When every live value is an
// integer the ids are LSD radix-sorted column by column (one 8-bit pass
// per significant byte of the column's value range); otherwise they are
// comparison-sorted with Value::Compare.
std::vector<Tuple> SortedLiveTuples(const Relation& rel);

}  // namespace sqod

#endif  // SQOD_EVAL_RELATION_H_
