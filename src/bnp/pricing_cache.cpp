#include "bnp/pricing_cache.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace stripack::bnp {

namespace {

// Lexicographic compare of a stored pattern id against raw counts.
bool counts_less(const std::vector<int>& a, std::span<const int> b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                      b.end());
}

// Memo size bound: one entry is O(W) doubles; 50k entries stay in the
// tens of MB for any realistic width table. Clearing (rather than LRU)
// keeps the behavior deterministic.
constexpr std::size_t kMemoLimit = 50'000;

}  // namespace

int PricingCache::insert(std::span<const int> counts, double total_width) {
  const auto it = std::lower_bound(
      by_counts_.begin(), by_counts_.end(), counts,
      [this](int id, std::span<const int> c) {
        return counts_less(patterns_[static_cast<std::size_t>(id)].counts,
                           c);
      });
  if (it != by_counts_.end()) {
    const Pattern& p = patterns_[static_cast<std::size_t>(*it)];
    if (p.counts.size() == counts.size() &&
        std::equal(p.counts.begin(), p.counts.end(), counts.begin())) {
      return *it;  // already interned
    }
  }
  Pattern p;
  p.counts.assign(counts.begin(), counts.end());
  p.total_width = total_width;
  for (const int c : counts) p.total_items += c;
  if (p.total_items == 0) return -1;  // empty configs are never priced
  const int id = static_cast<int>(patterns_.size());
  by_counts_.insert(it, id);
  patterns_.push_back(std::move(p));
  return id;
}

void PricingCache::register_row(int row, release::BranchPredicate pred) {
  STRIPACK_EXPECTS(rows_.empty() || rows_.back().row < row);
  rows_.push_back({row, std::move(pred)});
}

int PricingCache::row_index(int row) const {
  const auto it = std::lower_bound(
      rows_.begin(), rows_.end(), row,
      [](const Row& r, int target) { return r.row < target; });
  if (it == rows_.end() || it->row != row) return -1;
  return static_cast<int>(it - rows_.begin());
}

void PricingCache::ensure_match_bits(Pattern& p) {
  for (std::size_t k = p.match.size(); k < rows_.size(); ++k) {
    const release::BranchPredicate& pred = rows_[k].pred;
    // Predicate content decides the match; the phase filter was already
    // applied by the caller, so any consistent phase works here.
    const std::size_t phase =
        pred.phase >= 0 ? static_cast<std::size_t>(pred.phase) : 0;
    p.match.push_back(pred.matches(p.counts, phase) ? 1 : 0);
  }
}

PricingCache::Seed PricingCache::probe(
    std::span<const double> value,
    std::span<const std::pair<int, double>> applied) {
  ++probes_;
  // Resolve applied model rows to cache indices once per probe.
  applied_scratch_.clear();
  for (const auto& [row, mult] : applied) {
    STRIPACK_ASSERT(mult != 0.0, "probe against a zero-multiplier row");
    const int k = row_index(row);
    STRIPACK_ASSERT(k >= 0, "probe against an unregistered branch row");
    applied_scratch_.push_back({static_cast<std::size_t>(k), mult});
  }
  Seed best;
  for (std::size_t id = 0; id < patterns_.size(); ++id) {
    Pattern& p = patterns_[id];
    double v = 0.0;
    for (std::size_t i = 0; i < p.counts.size(); ++i) {
      if (p.counts[i] != 0) v += p.counts[i] * value[i];
    }
    if (!applied_scratch_.empty()) {
      ensure_match_bits(p);
      for (const auto& [k, mult] : applied_scratch_) {
        if (p.match[k] != 0) v += mult;
      }
    }
    if (v > best.value) {
      best.value = v;
      best.pattern = static_cast<int>(id);
    }
  }
  if (best.pattern >= 0) ++hits_;
  return best;
}

std::optional<PricingCache::Seed> PricingCache::lookup(
    std::span<const double> value,
    std::span<const std::pair<int, double>> applied) {
  if (memo_.empty()) return std::nullopt;
  const MemoKey key{{value.begin(), value.end()},
                    {applied.begin(), applied.end()}};
  const auto it = memo_.find(key);
  if (it == memo_.end()) return std::nullopt;
  ++memo_hits_;
  return it->second;
}

void PricingCache::memoize(std::span<const double> value,
                           std::span<const std::pair<int, double>> applied,
                           const Seed& result) {
  if (memo_.size() >= kMemoLimit) memo_.clear();
  memo_.emplace(MemoKey{{value.begin(), value.end()},
                        {applied.begin(), applied.end()}},
                result);
}

}  // namespace stripack::bnp
