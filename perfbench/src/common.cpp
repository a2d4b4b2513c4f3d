#include <sys/resource.h>

#include <ctime>

#include "bench.hpp"

namespace perfbench {

namespace cl = crowdlearn;

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void digest_outcome(cl::ckpt::Hasher128& h, const cl::core::CycleOutcome& o) {
  h.u64(o.cycle_index);
  h.u64(static_cast<std::uint64_t>(o.context));
  h.vec_sizes(o.image_ids);
  h.u64(o.probabilities.size());
  for (const auto& p : o.probabilities) h.vec_f64(p);
  h.vec_sizes(o.predictions);
  h.vec_sizes(o.queried_ids);
  h.vec_f64(o.incentives_cents);
  h.f64(o.crowd_delay_seconds);
  h.f64(o.spent_cents);
  h.vec_f64(o.expert_losses);
  h.vec_f64(o.expert_weights);
  h.vec_sizes(o.fallback_ids);
  h.u64(o.query_retries);
  h.u64(o.partial_queries);
  h.u64(o.failed_queries);
}

std::size_t check_outcome(const cl::core::CycleOutcome& o, const cl::dataset::Dataset& data,
                          Result& r) {
  const std::string where = "cycle " + std::to_string(o.cycle_index) + ": ";
  if (o.predictions.size() != o.image_ids.size() ||
      o.probabilities.size() != o.image_ids.size()) {
    r.violation(where + "labels not aligned with the cycle's images");
    return 0;
  }
  if (!o.fallback_ids.empty() || o.failed_queries != 0)
    r.violation(where + "fallback or failed queries with faults off");
  if (o.spent_cents < 0.0) r.violation(where + "negative spend");
  std::size_t correct = 0;
  for (std::size_t i = 0; i < o.image_ids.size(); ++i) {
    if (o.image_ids[i] >= data.images.size() ||
        o.predictions[i] >= cl::dataset::kNumSeverityClasses ||
        o.probabilities[i].size() != cl::dataset::kNumSeverityClasses) {
      r.violation(where + "label out of range");
      continue;
    }
    if (o.predictions[i] == cl::dataset::label_index(data.image(o.image_ids[i]).true_label))
      ++correct;
  }
  return correct;
}

void StageClock::finish(Clock::time_point end) {
  stage_ms_.assign(cl::core::kNumCycleStages, 0.0);
  for (std::size_t i = 0; i < marks_.size(); ++i) {
    const Clock::time_point next = i + 1 < marks_.size() ? marks_[i + 1].t : end;
    stage_ms_[static_cast<std::size_t>(marks_[i].stage)] += ms_between(marks_[i].t, next);
  }
}

void StageClock::emit_spans(Tracer& tracer, std::uint64_t request, Clock::time_point end) const {
  for (std::size_t i = 0; i < marks_.size(); ++i) {
    const Clock::time_point next = i + 1 < marks_.size() ? marks_[i + 1].t : end;
    tracer.add(std::string("core.stage.") + cl::core::cycle_stage_name(marks_[i].stage),
               marks_[i].t, next, request);
  }
}

void StageSamples::add(const std::vector<double>& stage_ms) {
  for (std::size_t s = 0; s < stage_ms.size() && s < by_stage_.size(); ++s)
    by_stage_[s].push_back(stage_ms[s]);
}

void StageSamples::report(Result& r) const {
  for (std::size_t s = 0; s < by_stage_.size(); ++s)
    r.layer(std::string("core.stage.") +
                cl::core::cycle_stage_name(static_cast<cl::core::CycleStage>(s)) + "_ms",
            median(by_stage_[s]), "ms");
}

double StageSamples::p50_sum() const {
  double sum = 0.0;
  for (const auto& v : by_stage_) sum += median(v);
  return sum;
}

}  // namespace perfbench
