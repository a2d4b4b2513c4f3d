#include "core/crowdlearn_system.hpp"

#include <stdexcept>

#include "ckpt/state.hpp"
#include "stats/distribution.hpp"

namespace crowdlearn::core {

const char* cycle_stage_name(CycleStage stage) {
  switch (stage) {
    case CycleStage::kIngest: return "ingest";
    case CycleStage::kCommittee: return "committee";
    case CycleStage::kQss: return "qss";
    case CycleStage::kCrowd: return "crowd";
    case CycleStage::kCqc: return "cqc";
    case CycleStage::kMic: return "mic";
    case CycleStage::kRecord: return "record";
  }
  return "unknown";
}

CrowdLearnSystem::CrowdLearnSystem(experts::ExpertCommittee committee,
                                   const CrowdLearnConfig& cfg)
    : cfg_(cfg),
      pool_(cfg.shared_pool != nullptr
                ? cfg.shared_pool
                : std::make_shared<util::ThreadPool>(util::resolve_thread_count(cfg.num_threads))),
      owns_pool_(cfg.shared_pool == nullptr),
      committee_(std::move(committee)),
      qss_(cfg.qss),
      ipd_(cfg.ipd),
      cqc_(cfg.cqc),
      mic_(cfg.mic),
      broker_(cfg.broker),
      rng_(cfg.seed) {
  committee_.set_thread_pool(pool_.get());
  cqc_.set_thread_pool(pool_.get());
  cqc_.set_artifact_cache(cfg_.artifact_cache.get());
  if (cfg_.observability.enabled) enable_observability();
}

void CrowdLearnSystem::enable_observability() {
  if (!obs::kCompiledIn || obs_ != nullptr) return;
  cfg_.observability.enabled = true;
  obs_ = std::make_shared<obs::Observability>(cfg_.observability);
  obs::Observability* o = obs_.get();
  // A borrowed pool is shared across tenants; attaching one tenant's
  // registry to it would cross-wire another tenant's scheduling series.
  if (owns_pool_) pool_->set_observability(o);
  committee_.set_observability(o);
  qss_.set_observability(o);
  ipd_.set_observability(o);
  cqc_.set_observability(o);
  broker_.set_observability(o);
  obs::MetricsRegistry& m = o->metrics();
  obs_cycles_ = &m.counter("crowdlearn_cycles_total");
  obs_queries_ = &m.counter("crowdlearn_queries_total");
  obs_fallbacks_ = &m.counter("crowdlearn_query_fallbacks_total");
  obs_partials_ = &m.counter("crowdlearn_query_partials_total");
  obs_failures_ = &m.counter("crowdlearn_query_failures_total");
  obs_algo_seconds_ = &m.histogram("crowdlearn_cycle_algorithm_seconds",
                                   obs::Histogram::exponential_bounds(0.01, 2.0, 12));
  obs_crowd_delay_ = &m.histogram("crowdlearn_cycle_crowd_delay_seconds",
                                  obs::Histogram::exponential_bounds(30.0, 2.0, 9));
}

void CrowdLearnSystem::initialize(const dataset::Dataset& data,
                                  const crowd::PilotResult& pilot) {
  // A committee cloned from a previous run arrives pre-trained; reuse it.
  if (!committee_.all_trained())
    committee_.train_all(data, data.train_indices, rng_, cfg_.artifact_cache.get());
  cqc_.fit_from_pilot(pilot, data);
  ipd_.warm_start_from_pilot(pilot);
  initialized_ = true;
}

CycleOutcome CrowdLearnSystem::run_cycle(const dataset::Dataset& data,
                                         crowd::CrowdPlatform& platform,
                                         const dataset::SensingCycle& cycle) {
  return run_cycle(data, platform, cycle, CycleRunOptions{});
}

CycleOutcome CrowdLearnSystem::run_cycle(const dataset::Dataset& data,
                                         crowd::CrowdPlatform& platform,
                                         const dataset::SensingCycle& cycle,
                                         const CycleRunOptions& opts) {
  if (!initialized_) throw std::logic_error("CrowdLearnSystem: run_cycle before initialize");
  if (cycle.image_ids.empty())
    throw std::invalid_argument("CrowdLearnSystem: empty sensing cycle");
  stage(CycleStage::kIngest);

  obs::SpanScope cycle_span(obs::tracer_of(obs_.get()), "cycle", "core");
  cycle_span.arg("cycle_index", static_cast<double>(cycle.index));

  CycleOutcome out;
  out.cycle_index = cycle.index;
  out.context = cycle.context;
  out.image_ids = cycle.image_ids;
  out.probabilities.resize(cycle.image_ids.size());
  out.predictions.resize(cycle.image_ids.size());

  Stopwatch ai_clock;
  const double spent_before = platform.total_spent_cents();

  // (1) QSS: uncertainty-ranked, epsilon-greedy query-set selection. All
  // per-image committee votes are precomputed through the thread pool first;
  // ranking then runs on this thread over the finished batch. Degenerate
  // expert output (NaN / zero-mass votes) is quarantined before anything
  // downstream consumes the batch — the scan runs on this thread, in index
  // order, so parallel inference cannot perturb it.
  stage(CycleStage::kCommittee);
  const std::size_t query_count = std::min(cfg_.queries_per_cycle, cycle.image_ids.size());
  auto votes_batch = committee_.expert_votes_batch(data, cycle.image_ids);
  committee_.quarantine_degenerate_votes(votes_batch);

  if (opts.degraded) {
    // Degraded mode: the committee answers everything; the crowd-facing
    // stages (QSS/IPD/broker/CQC/MIC) are skipped entirely — no crowd
    // randomness or spend is consumed and the trained state is untouched.
    for (std::size_t pos = 0; pos < cycle.image_ids.size(); ++pos) {
      out.probabilities[pos] = committee_.committee_vote(votes_batch[pos]);
      out.predictions[pos] = stats::argmax(out.probabilities[pos]);
    }
    out.expert_weights = committee_.weights();
    stage(CycleStage::kRecord);
    out.algorithm_delay_seconds = ai_clock.elapsed_seconds();
    if (obs::active(obs_.get())) {
      obs_cycles_->inc();
      obs_algo_seconds_->observe(out.algorithm_delay_seconds);
    }
    ++cycles_run_;
    return out;
  }

  stage(CycleStage::kQss);
  QssSelection sel = qss_.select(committee_, cycle.image_ids, std::move(votes_batch),
                                 query_count);
  out.queried_ids = sel.queried_ids;

  // (2) IPD + broker: one incentive decision per query; the broker runs the
  // full resilient lifecycle (deadline, dedup, retries, escalation bounded
  // by IPD's remaining budget). The platform's simulated crowd delay is not
  // part of the AI-side wall clock.
  stage(CycleStage::kCrowd);
  std::vector<crowd::QueryResult> results;
  results.reserve(sel.queried_ids.size());
  double delay_sum = 0.0;
  {
    obs::SpanScope crowd_span(obs::tracer_of(obs_.get()), "crowd.queries", "crowd");
    crowd_span.arg("queries", static_cast<double>(sel.queried_ids.size()));
    for (std::size_t q = 0; q < sel.queried_ids.size(); ++q) {
      const double incentive = ipd_.assign_incentive(cycle.context);
      out.incentives_cents.push_back(incentive);
      crowd::QueryResult r = broker_.execute(platform, sel.queried_ids[q], incentive,
                                             cycle.context, ipd_.remaining_budget_cents());
      // Queries that never reached workers (outage, budget refusal) carry no
      // incentive->delay signal; feeding them to the bandit would corrupt it.
      if (r.delay_feedback_valid)
        ipd_.feedback(cycle.context, incentive, r.response.completion_delay_seconds);
      ipd_.record_spend(cycle.context, r.total_charged_cents);
      delay_sum += r.response.completion_delay_seconds;
      // Cycle telemetry counts every repost, whatever its cause; the broker
      // keeps the two retry budgets distinct (see broker.hpp).
      out.query_retries += r.retries + r.outage_retries;
      results.push_back(std::move(r));
    }
  }
  if (!results.empty())
    out.crowd_delay_seconds = delay_sum / static_cast<double>(results.size());

  // Partition brokered outcomes: usable responses feed CQC/MIC; failed
  // queries degrade gracefully to the committee's own prediction below.
  stage(CycleStage::kCqc);
  std::vector<crowd::QueryResponse> responses;  // ok subset, queried order
  std::vector<std::size_t> ok_query_index(results.size(), results.size());
  std::vector<std::size_t> ok_ids;
  for (std::size_t q = 0; q < results.size(); ++q) {
    if (results[q].ok()) {
      ok_query_index[q] = responses.size();
      responses.push_back(results[q].response);
      ok_ids.push_back(sel.queried_ids[q]);
      if (results[q].outcome == crowd::QueryOutcome::kPartial) ++out.partial_queries;
    } else {
      ++out.failed_queries;
      out.fallback_ids.push_back(sel.queried_ids[q]);
    }
  }

  std::vector<std::vector<double>> truth_dists;
  std::vector<std::size_t> truth_labels;
  if (!responses.empty()) {
    // (3) CQC: refine raw answers into truthful distributions. Masked
    // features absorb partial answer sets; failed queries never get here.
    truth_dists = cqc_.refine(responses);
    truth_labels.reserve(truth_dists.size());
    for (const auto& d : truth_dists) truth_labels.push_back(stats::argmax(d));

    // (4a) MIC weight update from the queried images' expert votes. Only
    // queries with real crowd truth contribute; fallback images must not
    // move the Hedge weights (there is nothing to score the experts against).
    std::vector<std::vector<std::vector<double>>> queried_votes;
    queried_votes.reserve(responses.size());
    for (std::size_t q = 0; q < sel.queried_positions.size(); ++q)
      if (results[q].ok()) queried_votes.push_back(sel.votes[sel.queried_positions[q]]);
    obs::SpanScope mic_span(obs::tracer_of(obs_.get()), "mic.weight_update", "core");
    out.expert_losses = mic_.update_committee_weights(committee_, queried_votes, truth_dists);
  }
  out.expert_weights = committee_.weights();

  stage(CycleStage::kMic);
  // Final labels: crowd offloading for successfully queried images,
  // reweighted committee vote (cached expert votes, new weights) for the
  // rest — including failed queries, which fall back to the committee.
  for (std::size_t q = 0; q < sel.queried_positions.size(); ++q) {
    const std::size_t pos = sel.queried_positions[q];
    const bool crowd_ok = results[q].ok() && !truth_dists.empty();
    if (mic_.offloading_enabled() && crowd_ok) {
      out.probabilities[pos] = truth_dists[ok_query_index[q]];
      out.predictions[pos] = truth_labels[ok_query_index[q]];
    } else {
      out.probabilities[pos] = committee_.committee_vote(sel.votes[pos]);
      out.predictions[pos] = stats::argmax(out.probabilities[pos]);
    }
  }
  for (std::size_t pos : sel.remaining_positions) {
    out.probabilities[pos] = committee_.committee_vote(sel.votes[pos]);
    out.predictions[pos] = stats::argmax(out.probabilities[pos]);
  }

  // (4b) MIC retraining with CQC labels, effective from the next cycle.
  // Fallback images contribute nothing (their "label" would just echo the
  // committee back at itself). A successful retrain also reinstates any
  // quarantined experts.
  if (!truth_labels.empty()) {
    obs::SpanScope retrain_span(obs::tracer_of(obs_.get()), "mic.retrain", "core");
    retrain_span.arg("labels", static_cast<double>(truth_labels.size()));
    mic_.retrain(committee_, data, ok_ids, truth_labels, rng_, cfg_.artifact_cache.get());
  }

  stage(CycleStage::kRecord);
  out.algorithm_delay_seconds = ai_clock.elapsed_seconds();
  out.spent_cents = platform.total_spent_cents() - spent_before;

  if (obs::active(obs_.get())) {
    obs_cycles_->inc();
    obs_queries_->inc(sel.queried_ids.size());
    obs_fallbacks_->inc(out.fallback_ids.size());
    obs_partials_->inc(out.partial_queries);
    obs_failures_->inc(out.failed_queries);
    obs_algo_seconds_->observe(out.algorithm_delay_seconds);
    if (!results.empty()) obs_crowd_delay_->observe(out.crowd_delay_seconds);
  }
  ++cycles_run_;
  return out;
}

namespace {
constexpr char kSystemTag[4] = {'S', 'Y', 'S', '1'};
}

void CrowdLearnSystem::serialize_state(ckpt::Writer& w,
                                       const crowd::CrowdPlatform* platform) const {
  w.begin_section(kSystemTag);
  // Config fingerprint: everything the restored modules' shapes and RNG
  // streams were derived from. A checkpoint only makes sense on a system
  // built with the same knobs.
  w.u64(cfg_.seed);
  w.u64(cfg_.queries_per_cycle);
  w.u64(committee_.size());
  w.u64(cfg_.qss.seed);
  w.u64(cfg_.ipd.seed);
  w.f64(cfg_.ipd.total_budget_cents);
  w.u64(cfg_.ipd.horizon_queries);

  w.u64(cycles_run_);
  ckpt::save_rng(w, rng_);
  committee_.save_state(w);
  qss_.save_state(w);
  ipd_.save_state(w);
  cqc_.save_state(w);
  broker_.save_state(w);

  w.u8(obs_ != nullptr ? 1 : 0);
  if (obs_ != nullptr) ckpt::save_metrics(w, obs_->metrics());

  w.u8(platform != nullptr ? 1 : 0);
  if (platform != nullptr) platform->save_state(w);
}

void CrowdLearnSystem::apply_state(ckpt::Reader& r, crowd::CrowdPlatform* platform) {
  r.expect_section(kSystemTag);
  const std::uint64_t seed = r.u64();
  const std::uint64_t queries_per_cycle = r.u64();
  const std::uint64_t num_experts = r.u64();
  const std::uint64_t qss_seed = r.u64();
  const std::uint64_t ipd_seed = r.u64();
  const double ipd_budget = r.f64();
  const std::uint64_t ipd_horizon = r.u64();
  if (seed != cfg_.seed || queries_per_cycle != cfg_.queries_per_cycle ||
      num_experts != committee_.size() || qss_seed != cfg_.qss.seed ||
      ipd_seed != cfg_.ipd.seed || ipd_budget != cfg_.ipd.total_budget_cents ||
      ipd_horizon != cfg_.ipd.horizon_queries) {
    throw ckpt::CkptError(ckpt::CkptErrc::kConfigMismatch,
                          "checkpoint was produced under a different system config");
  }

  cycles_run_ = static_cast<std::size_t>(r.u64());
  ckpt::load_rng(r, rng_);
  committee_.load_state(r);
  qss_.load_state(r);
  ipd_.load_state(r);
  cqc_.load_state(r);
  broker_.load_state(r);

  if (r.u8() != 0) {
    if (obs_ != nullptr) {
      ckpt::load_metrics(r, obs_->metrics());
    } else {
      // Consume (and validate) the section so the stream stays in sync; the
      // values land in a scratch registry that dies here.
      obs::MetricsRegistry scratch;
      ckpt::load_metrics(r, scratch);
    }
  }

  const bool has_platform = r.u8() != 0;
  if (has_platform != (platform != nullptr)) {
    throw ckpt::CkptError(
        ckpt::CkptErrc::kConfigMismatch,
        has_platform ? "checkpoint carries platform state; pass the platform to resume_from"
                     : "checkpoint has no platform state but a platform was supplied");
  }
  if (platform != nullptr) platform->load_state(r);
  r.expect_end();
}

std::string CrowdLearnSystem::state_image(const crowd::CrowdPlatform* platform) const {
  if (!initialized_)
    throw std::logic_error("CrowdLearnSystem: state_image before initialize");
  ckpt::Writer w;
  serialize_state(w, platform);
  return ckpt::file_image(w);
}

void CrowdLearnSystem::save_checkpoint(const std::string& path,
                                       const crowd::CrowdPlatform* platform) const {
  // Atomic temp+rename write: a crash mid-save leaves the previous
  // checkpoint at `path` intact, never a torn file shadowing it.
  ckpt::atomic_write_file(state_image(platform), path);
}

void CrowdLearnSystem::apply_payload(std::string payload, crowd::CrowdPlatform* platform) {
  // Snapshot the current state so a payload that fails mid-apply (malformed
  // content behind a valid CRC, config mismatch discovered late) rolls back
  // instead of leaving the system half-mutated.
  ckpt::Writer rollback;
  serialize_state(rollback, platform);

  ckpt::Reader r(std::move(payload));
  try {
    apply_state(r, platform);
  } catch (...) {
    ckpt::Reader undo(rollback.payload());
    apply_state(undo, platform);
    throw;
  }
  initialized_ = true;
}

void CrowdLearnSystem::load_state_image(const std::string& image,
                                        crowd::CrowdPlatform* platform) {
  apply_payload(ckpt::validate_image(image), platform);
}

void CrowdLearnSystem::resume_from(const std::string& path,
                                   crowd::CrowdPlatform* platform) {
  // Validate the whole container (magic, version, size, CRC) before touching
  // any state.
  apply_payload(ckpt::read_file(path), platform);
}

std::vector<CycleOutcome> CrowdLearnSystem::run_stream(
    const dataset::Dataset& data, crowd::CrowdPlatform& platform,
    const dataset::SensingCycleStream& stream) {
  std::vector<CycleOutcome> outcomes;
  outcomes.reserve(stream.num_cycles());
  for (const dataset::SensingCycle& cycle : stream.cycles())
    outcomes.push_back(run_cycle(data, platform, cycle));
  return outcomes;
}

}  // namespace crowdlearn::core
