// Tests of the benchmark's own arithmetic (src/arith.hpp). Plain asserts
// that stay on in every build; exits non-zero if any check failed.
//
//   .bench_build/perfbench/perfbench_arith_test
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "arith.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "arith_test.cpp:%d: FAILED %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

template <class F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void top_percentiles() {
  // The tail beyond percentile p holds n*(1-p/100) samples; it needs 10.
  EXPECT(top_percentile(19) == 0.0);
  EXPECT(top_percentile(20) == 50.0);
  EXPECT(top_percentile(99) == 50.0);
  EXPECT(top_percentile(100) == 90.0);
  EXPECT(top_percentile(999) == 90.0);
  EXPECT(top_percentile(1'000) == 99.0);
  EXPECT(top_percentile(60'000) == 99.9);
  EXPECT(top_percentile(100'000) == 99.99);
  EXPECT(top_percentile(100, 20) == 50.0);
}

void histogram_percentiles() {
  // Bins of width 10 over [0, 40): 10 samples in [10,20), 10 in [30,40).
  const std::vector<std::uint64_t> c{0, 10, 0, 10};
  EXPECT(near(histogram_percentile(c, 0, 40, 25), 15.0));
  EXPECT(near(histogram_percentile(c, 0, 40, 50), 20.0));
  EXPECT(near(histogram_percentile(c, 0, 40, 75), 35.0));
  EXPECT(near(histogram_percentile(c, 0, 40, 100), 40.0));
  EXPECT(throws([] { (void)histogram_percentile({0, 0}, 0, 1, 50); }));
}

void span_self_time() {
  // Root [0,100] with overlapping children [10,30] and [20,40] (covering
  // 30 together) and [90,120] (clipped to the root: covers 10).
  const std::vector<Span> spans{
      {"root", 0, 100, -1},  {"a", 10, 30, 0},  {"b", 20, 40, 0},
      {"c", 90, 120, 0},     {"a.x", 12, 18, 1},
  };
  const auto self = self_times(spans);
  EXPECT(self[0] == 60);
  EXPECT(self[1] == 14);
  EXPECT(self[2] == 20);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 6);
  EXPECT(throws([] { (void)self_times({{"x", 0, 1, 5}}); }));
}

std::vector<double> ladder() {
  std::vector<double> r;
  for (double x = 10'000; x < 400'000; x *= 1.25) r.push_back(x);
  return r;
}

void ladder_search_finds_capacity() {
  const double capacity = 50'000;
  const auto r = ladder_search(ladder(), 3, 1, [&](double rate) {
    return StepOutcome{rate <= capacity, false, rate * 0.999};
  });
  // Three geometric bisections of a 1.25x gap leave a 1.25^(1/8) bracket.
  EXPECT(r.best_offered <= capacity);
  EXPECT(r.best_offered >= capacity / std::pow(1.25, 1.0 / 8));
  EXPECT(near(r.best_achieved, r.best_offered * 0.999));
  EXPECT(r.limited_steps == 0);
  EXPECT(r.steps == 8 + 1 + 3);  // 10k..47.7k pass, 59.6k fails, 3 bisections

  // Nothing passes: no rate claimed.
  const auto none = ladder_search(ladder(), 3, 1, [](double) {
    return StepOutcome{false, false, 0.0};
  });
  EXPECT(none.best_offered == 0.0 && none.steps == 1);
}

void ladder_search_retries_and_generator_limits() {
  // A hiccup at one rate: the first attempt fails, the retry passes.
  int calls_at_20k = 0;
  const auto flaky = [&](double rate) {
    if (near(rate, 19'531.25) && calls_at_20k++ == 0) {
      return StepOutcome{false, false, 0.0};
    }
    return StepOutcome{rate <= 50'000, false, rate};
  };
  EXPECT(ladder_search(ladder(), 3, 2, flaky).best_offered > 40'000);
  calls_at_20k = 0;
  EXPECT(ladder_search(ladder(), 3, 1, flaky).best_offered < 20'000);

  // Above 30k the generator falls behind: those steps prove nothing, even
  // though the server would have passed them.
  const auto r = ladder_search(ladder(), 3, 2, [](double rate) {
    return StepOutcome{true, rate > 30'000, rate};
  });
  EXPECT(r.best_offered <= 30'000);
  EXPECT(r.limited_steps >= 2);
}

void per_query_normalisation() {
  EXPECT(near(per_query(10.0, 4), 2.5));
  EXPECT(near(per_query(9.7e6 * 1e-6 * 1e6, 1'000'000), 9.7));
  EXPECT(throws([] { (void)per_query(1.0, 0); }));
}

}  // namespace

int main() {
  top_percentiles();
  histogram_percentiles();
  span_self_time();
  ladder_search_finds_capacity();
  ladder_search_retries_and_generator_limits();
  per_query_normalisation();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d arithmetic check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("arith_test: all checks passed\n");
  return 0;
}
