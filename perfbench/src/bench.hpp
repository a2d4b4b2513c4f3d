#pragma once
// Shared plumbing of the repository benchmark: run options, the result a
// workload hands back to main(), timing/quantile helpers and the outcome
// digest. See perfbench/README.md for the workloads and metric definitions.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ckpt/digest.hpp"
#include "core/crowdlearn_system.hpp"
#include "trace.hpp"

namespace perfbench {

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Worker threads of the program's pool in every workload. Pinned so the
/// CROWDLEARN_THREADS environment variable cannot change a run.
inline constexpr std::size_t kPoolThreads = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch root for this run (created and removed by main)
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload reports. main() prints `end_to_end` for untraced runs and
/// `per_layer` for traced runs, plus the operation counts and check verdict.
struct Result {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Operations per kind ("cycles", "cycle_requests", "classify_requests").
  std::map<std::string, std::uint64_t> attempted;
  std::map<std::string, std::uint64_t> failed;
  std::vector<std::string> violations;  ///< output-check failures (first few kept)
  std::size_t violation_count = 0;

  void violation(const std::string& what) {
    if (violations.size() < 8) violations.push_back(what);
    ++violation_count;
  }
  void e2e(const std::string& name, double v, const char* unit) { end_to_end[name] = {v, unit}; }
  void layer(const std::string& name, double v, const char* unit) { per_layer[name] = {v, unit}; }
};

/// Linear-interpolated quantile (q in [0,1]) of a sample; 0 for an empty one.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Highest percentile reported for a latency sample: p90, which has ten
/// samples beyond it from 100 samples up.
inline constexpr double kTailQuantile = 0.90;

/// Peak resident set size of this process, MiB.
double peak_rss_mib();
/// CPU time of the whole process (all threads), seconds.
double process_cpu_seconds();

/// Fold the deterministic fields of a cycle outcome into `h`, so two runs of
/// the same code and seed compare byte for byte. Wall-clock fields
/// (algorithm_delay_seconds) are left out.
void digest_outcome(crowdlearn::ckpt::Hasher128& h, const crowdlearn::core::CycleOutcome& o);

/// Outcome checks shared by both workloads: every image labelled with a class
/// in range, no fallback or failed query (faults are off), probabilities
/// aligned with the images. Returns the number of correctly labelled images.
std::size_t check_outcome(const crowdlearn::core::CycleOutcome& o,
                          const crowdlearn::dataset::Dataset& data, Result& r);

/// Per-stage wall times of one run_cycle, rebuilt from stage-hook
/// timestamps. Installed as the system's stage hook; `begin()` before each
/// cycle, `finish()` right after it returns.
class StageClock {
 public:
  void begin() { marks_.clear(); }
  void mark(crowdlearn::core::CycleStage s) { marks_.push_back({s, Clock::now()}); }
  /// Close the cycle at `end`: fills stage_ms (indexed by CycleStage).
  void finish(Clock::time_point end);
  /// Emit one span per stage as children of the innermost open span (no-op
  /// when tracing is off).
  void emit_spans(Tracer& tracer, std::uint64_t request, Clock::time_point end) const;

  const std::vector<double>& stage_ms() const { return stage_ms_; }
  /// First stage boundary of the cycle (its kIngest entry).
  Clock::time_point first_mark() const { return marks_.empty() ? Clock::time_point{} : marks_.front().t; }

 private:
  struct Mark {
    crowdlearn::core::CycleStage stage;
    Clock::time_point t;
  };
  std::vector<Mark> marks_;
  std::vector<double> stage_ms_;
};

/// Per-stage samples across cycles; reports core.stage.<name>_ms (p50).
class StageSamples {
 public:
  void add(const std::vector<double>& stage_ms);
  void report(Result& r) const;
  /// Sum over stages of the per-stage p50, ms.
  double p50_sum() const;

 private:
  std::vector<std::vector<double>> by_stage_ =
      std::vector<std::vector<double>>(crowdlearn::core::kNumCycleStages);
};

/// Counters a workload reports as crowd.* (from CycleOutcome).
struct CrowdCounts {
  std::uint64_t queries = 0, retries = 0, failed = 0;
  void add(const crowdlearn::core::CycleOutcome& o) {
    queries += o.queried_ids.size();
    retries += o.query_retries;
    failed += o.failed_queries;
  }
  void report(Result& r) const {
    r.layer("crowd.queries", static_cast<double>(queries), "count");
    r.layer("crowd.retries", static_cast<double>(retries), "count");
    r.layer("crowd.failed_queries", static_cast<double>(failed), "count");
  }
};

Result run_paper_stream(const Options& opt, Tracer& tracer);
Result run_tenant_churn(const Options& opt, Tracer& tracer);

}  // namespace perfbench
