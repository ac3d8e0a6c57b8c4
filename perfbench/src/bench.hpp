// Shared scaffolding of the benchmark: options, the span tracer and the
// per-workload result.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "arith.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// Spans around the benchmark's calls into the program. Kept in memory
/// (capacity reserved up front, so recording never allocates inside a
/// timed call) and written out when the run ends. Disabled tracers record
/// nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Opens a span nested in the innermost open one; returns its index.
  int begin(std::string_view name);
  void end(int id);

  /// Closes the span when it leaves scope.
  class Scope {
   public:
    Scope(Tracer& t, std::string_view name) : t_(t), id_(t.begin(name)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Total duration of every span with this name, seconds.
  [[nodiscard]] double seconds(std::string_view name) const;

  /// Writes the spans and their self times as JSON.
  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// What one workload run produced: the output checks and every metric.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< Failed output checks.
  std::map<std::string, double> metrics;
  std::vector<Span> spans;  ///< The traced run's spans (traced mode only).

  /// Records an output check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const noexcept { return problems.empty(); }
};

Result run_campaign(const Options& opt);
Result run_scan(const Options& opt);

}  // namespace perfbench
