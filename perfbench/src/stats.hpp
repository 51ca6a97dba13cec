// Exact order statistics over stored raw samples.
//
// Every latency the benchmark reports is computed here from the full list of
// samples a run recorded; nothing passes through util::LatencyHistogram,
// whose bucket interpolation can be off by up to 25%.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// x such that at least fraction p of the samples are <= x. p in [0, 1];
/// an empty sample yields 0.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  p = std::clamp(p, 0.0, 1.0);
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

/// Samples strictly above the nearest-rank p-th percentile position.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double mean = 0;
  /// Highest of {50, 90, 99, 99.9} with at least 10 samples beyond it
  /// (0 when even the median lacks them). A p99 with fewer than 10 samples
  /// beyond it is reported but flagged by this figure.
  double supported_pct = 0;
};

inline Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = percentile_sorted(samples, 0.50);
  s.p90 = percentile_sorted(samples, 0.90);
  s.p99 = percentile_sorted(samples, 0.99);
  double total = 0;
  for (const double v : samples) total += v;
  s.mean = total / static_cast<double>(s.n);
  for (const double pct : {50.0, 90.0, 99.0, 99.9}) {
    if (samples_beyond(s.n, pct / 100.0) >= 10) s.supported_pct = pct;
  }
  return s;
}

}  // namespace perfbench
