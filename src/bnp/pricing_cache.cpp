#include "bnp/pricing_cache.hpp"

#include <algorithm>

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

std::optional<PricingCache::Result> PricingCache::lookup(
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
                           const Result& result) {
  if (memo_.size() >= kMemoLimit) memo_.clear();
  memo_.emplace(MemoKey{{value.begin(), value.end()},
                        {applied.begin(), applied.end()}},
                result);
}

}  // namespace stripack::bnp
