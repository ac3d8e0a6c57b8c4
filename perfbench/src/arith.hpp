// The benchmark's own arithmetic: the percentile a sample can support,
// histogram percentiles, span self time, the rate-ladder search and
// per-query normalisation. Sample quantiles come from the program's own
// recwild::stats. Header-only and free of program dependencies so
// tests/arith_test.cpp can check it in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// The highest of the percentiles 50, 90, 99, 99.9, ... that still has at
/// least `min_beyond` of `n` samples above it; 0 when even the median has
/// fewer. A tail of 1/d holds n/d samples, so the test is n >= min_beyond*d.
inline double top_percentile(std::size_t n, std::size_t min_beyond = 10) {
  static constexpr double kP[] = {50, 90, 99, 99.9, 99.99, 99.999, 99.9999};
  static constexpr std::size_t kD[] = {2,      10,      100,    1'000,
                                       10'000, 100'000, 1'000'000};
  double best = 0.0;
  for (std::size_t i = 0; i < std::size(kP); ++i) {
    if (n < min_beyond * kD[i]) break;
    best = kP[i];
  }
  return best;
}

/// Percentile `p` of a fixed-bin histogram over [lo, hi), interpolating
/// linearly inside the bin that holds the rank (samples are assumed spread
/// evenly across their bin).
inline double histogram_percentile(const std::vector<std::uint64_t>& counts,
                                   double lo, double hi, double p) {
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  if (total == 0 || counts.empty()) {
    throw std::invalid_argument{"percentile of an empty histogram"};
  }
  const double width = (hi - lo) / static_cast<double>(counts.size());
  const double target = p / 100.0 * static_cast<double>(total);
  double below = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const auto c = static_cast<double>(counts[b]);
    if (c > 0 && below + c >= target) {
      return lo + width * (static_cast<double>(b) + (target - below) / c);
    }
    below += c;
  }
  return hi;
}

/// `total` spread over `queries` completed queries. Throws when nothing
/// completed: a per-query figure over zero queries is a broken run, not 0.
inline double per_query(double total, std::uint64_t queries) {
  if (queries == 0) throw std::invalid_argument{"no completed queries"};
  return total / static_cast<double>(queries);
}

/// One traced interval. `parent` indexes the enclosing span in the same
/// list, or -1 for a root. The name must outlive the span (a literal), so
/// recording one never allocates.
struct Span {
  std::string_view name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

/// Self time of every span: its duration minus the part of it that its
/// children cover. Child intervals are clipped to the parent and merged
/// first, so overlapping children are not subtracted twice.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const auto& s : spans) {
    if (s.parent < 0) continue;
    if (static_cast<std::size_t>(s.parent) >= spans.size()) {
      throw std::invalid_argument{"span parent out of range"};
    }
    const auto& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (a < b) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0;
    std::int64_t cur_b = -1;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    out[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return out;
}

/// What one offered-rate step of the ladder observed.
struct StepOutcome {
  bool pass = false;               ///< Latency, loss and backlog limits met.
  bool generator_limited = false;  ///< The generator, not the server, fell
                                   ///< behind; the step proves nothing.
  double achieved = 0.0;           ///< Answered replies per second.
};

struct LadderResult {
  double best_offered = 0.0;   ///< Highest passing offered rate (0 = none).
  double best_achieved = 0.0;  ///< Answered/s measured at that step.
  std::size_t steps = 0;
  std::size_t limited_steps = 0;  ///< Steps flagged generator-limited.
};

/// Highest rate a server sustains: walks `rates` (ascending) until a step
/// fails, then bisects geometrically `refine` times between the last
/// passing and the first failing rate. A step fails only when `attempts`
/// runs of it in a row fail, so one host hiccup does not end the search. A
/// generator-limited run counts as failed, since it cannot show the server
/// met the limit.
template <class StepFn>
LadderResult ladder_search(const std::vector<double>& rates, int refine,
                           int attempts, StepFn&& step) {
  LadderResult r;
  auto run = [&](double rate) {
    for (int a = 0; a < attempts; ++a) {
      const StepOutcome o = step(rate);
      ++r.steps;
      if (o.generator_limited) ++r.limited_steps;
      if (o.pass && !o.generator_limited) {
        if (rate > r.best_offered) {
          r.best_offered = rate;
          r.best_achieved = o.achieved;
        }
        return true;
      }
    }
    return false;
  };
  double fail = 0.0;
  for (const double rate : rates) {
    if (!run(rate)) {
      fail = rate;
      break;
    }
  }
  if (fail == 0.0 || r.best_offered == 0.0) return r;
  double lo = r.best_offered;
  double hi = fail;
  for (int i = 0; i < refine; ++i) {
    const double mid = std::sqrt(lo * hi);
    if (run(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return r;
}

}  // namespace perfbench
