#include "src/sqo/triplet_store.h"

#include <algorithm>
#include <iterator>

#include "src/base/check.h"

namespace sqod {

namespace {

inline size_t HashCombine(size_t seed, size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

}  // namespace

size_t TripletStore::IntVecHashFn::operator()(
    const std::vector<int32_t>& v) const {
  size_t h = 0x811c9dc5;
  for (int32_t x : v) h = HashCombine(h, static_cast<size_t>(x));
  return h;
}

size_t TripletStore::IntVecVecHashFn::operator()(
    const std::vector<std::vector<int>>& v) const {
  size_t h = 0xcbf29ce4;
  for (const std::vector<int>& inner : v) {
    h = HashCombine(h, inner.size());
    for (int x : inner) h = HashCombine(h, static_cast<size_t>(x));
  }
  return h;
}

size_t TripletStore::SummaryHashFn::operator()(
    const std::vector<Comparison>& v) const {
  size_t h = 0x01000193;
  for (const Comparison& c : v) {
    h = HashCombine(h, c.lhs.Hash());
    h = HashCombine(h, static_cast<size_t>(c.op));
    h = HashCombine(h, c.rhs.Hash());
  }
  return h;
}

bool TripletStore::SummaryEqFn::operator()(
    const std::vector<Comparison>& a, const std::vector<Comparison>& b) const {
  return a == b;
}

TripletId TripletStore::InternTriplet(const Triplet& t) {
  auto [it, inserted] =
      triplets_.emplace(t, static_cast<TripletId>(triplets_by_id_.size()));
  if (inserted) {
    triplets_by_id_.push_back(&it->first);
    ++intern_misses_;
  } else {
    ++intern_hits_;
  }
  return it->second;
}

RuleTripletId TripletStore::InternRuleTriplet(const RuleTriplet& t) {
  auto it = rule_triplets_.find(t);
  if (it != rule_triplets_.end()) {
    ++intern_hits_;
    return it->second;
  }
  RuleTriplet canonical = t;
  canonical.sources.clear();
  auto [pos, inserted] = rule_triplets_.emplace(
      std::move(canonical),
      static_cast<RuleTripletId>(rule_triplets_by_id_.size()));
  SQOD_CHECK(inserted);
  rule_triplets_by_id_.push_back(&pos->first);
  ++intern_misses_;
  return pos->second;
}

AdornmentId TripletStore::InternAdornment(const Adornment& adornment) {
  std::vector<int32_t> ids;
  ids.reserve(adornment.size());
  for (const Triplet& t : adornment) ids.push_back(InternTriplet(t));
  auto [it, inserted] = adornments_.emplace(std::move(ids), num_adornments_);
  if (inserted) {
    ++num_adornments_;
    ++intern_misses_;
  } else {
    ++intern_hits_;
  }
  return it->second;
}

SummaryId TripletStore::InternSummary(const std::vector<Comparison>& summary) {
  auto [it, inserted] = summaries_.emplace(
      summary, static_cast<SummaryId>(summaries_.size()));
  if (inserted) {
    ++intern_misses_;
  } else {
    ++intern_hits_;
  }
  return it->second;
}

LabelId TripletStore::InternLabel(const std::vector<std::vector<int>>& label) {
  auto [it, inserted] =
      labels_.emplace(label, static_cast<LabelId>(labels_.size()));
  if (inserted) {
    ++intern_misses_;
  } else {
    ++intern_hits_;
  }
  return it->second;
}

int32_t TripletStore::MergeRuleTriplets(RuleTripletId a, RuleTripletId b) {
  const uint64_t key =
      (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
      static_cast<uint32_t>(b);
  auto it = merge_memo_.find(key);
  if (it != merge_memo_.end()) {
    ++memo_hits_;
    return it->second;
  }

  const RuleTriplet& x = rule_triplet(a);
  const RuleTriplet& y = rule_triplet(b);
  SQOD_CHECK(x.ic_index == y.ic_index);
  int32_t result = kIncompatible;
  RuleTriplet merged;
  merged.ic_index = x.ic_index;
  merged.sigma = x.sigma;
  bool ok = true;
  for (const auto& [var, term] : y.sigma) {
    auto [pos, inserted] = merged.sigma.emplace(var, term);
    if (!inserted && !(pos->second == term)) {
      ok = false;
      break;
    }
  }
  if (ok) {
    std::set_intersection(x.unmapped.begin(), x.unmapped.end(),
                          y.unmapped.begin(), y.unmapped.end(),
                          std::back_inserter(merged.unmapped));
    result = InternRuleTriplet(merged);
  }
  merge_memo_.emplace(key, result);
  return result;
}

TripletStore::Stats TripletStore::stats() const {
  Stats s;
  s.intern_hits = intern_hits_ + atoms_.intern_hits();
  s.intern_misses = intern_misses_ + atoms_.intern_misses();
  s.memo_hits = memo_hits_ + atoms_.memo_hits();
  s.size = static_cast<int64_t>(triplets_by_id_.size()) +
           static_cast<int64_t>(rule_triplets_by_id_.size()) +
           static_cast<int64_t>(num_adornments_) +
           static_cast<int64_t>(summaries_.size()) +
           static_cast<int64_t>(labels_.size()) +
           static_cast<int64_t>(atoms_.size());
  return s;
}

}  // namespace sqod
