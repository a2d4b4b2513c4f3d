// tenant_churn: the multi-tenant service under residency pressure. One
// TenantManager with 6 tenants — 3 corpora x 2 clone deployments with
// identical specs — residency cap 2, one shared ArtifactCache and per-tenant
// generation rings under a fresh directory, on a pool of kPoolThreads
// threads. Each tenant runs the paper architectures on a small golden split
// with few epochs, so a cold tenant trains quickly while its state image
// stays full size.
//
// Set-up builds the manager, adds every tenant and activates each once
// (kSetupReps times, fresh directory each; setup_s is the median). The timed
// phase runs rounds over the tenants in a seeded order. One client visits a
// tenant with
//   1. a cycle request: activate (page the LRU tenant out, rehydrate this
//      one) and run_next_cycle, whose retrains hit the cache on the second
//      clone of a corpus;
//   2. a burst of kBurst single-image classify requests to the same, now
//      resident tenant through a BatchCoalescer (linger 0, flushed).
// A single client keeps eviction and cache counts exact.

#include <cmath>
#include <filesystem>
#include <future>
#include <iostream>
#include <map>
#include <memory>

#include "bench.hpp"
#include "cache/artifact_cache.hpp"
#include "experts/bovw.hpp"
#include "experts/ddm.hpp"
#include "experts/vgg16_like.hpp"
#include "probes.hpp"
#include "service/coalescer.hpp"

namespace perfbench {

namespace cl = crowdlearn;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kCorpora = 3;
constexpr std::size_t kClones = 2;
constexpr std::size_t kResident = 2;
constexpr std::size_t kTrainImages = 120;
constexpr std::size_t kImagesPerCycle = 10;
constexpr std::size_t kQueriesPerCycle = 5;
constexpr double kCentsPerQuery = 8.0;
/// Cycles per tenant stream; the timed phase ends early if it runs out.
constexpr std::size_t kStreamCycles = 64;
constexpr std::size_t kCorpusImages = kTrainImages + kStreamCycles * kImagesPerCycle;
constexpr std::size_t kBurst = 32;
constexpr int kSetupReps = 5;
/// The timed phase always runs at least this many rounds (120 cycle
/// requests, so request_ms p90 has more than ten samples beyond it).
/// accuracy, crowd_delay_s, the window digest and the service/cache/crowd
/// counts cover exactly these rounds, so they depend on the seed only, never
/// on how fast the host ran.
constexpr std::size_t kWindowRounds = 20;

cl::experts::ExpertCommittee tenant_committee() {
  cl::experts::Vgg16Config vgg;
  vgg.train.epochs = 3;
  cl::experts::BovwConfig bovw;
  cl::experts::DdmConfig ddm;
  ddm.train.epochs = 4;
  std::vector<std::unique_ptr<cl::experts::DdaAlgorithm>> roster;
  roster.push_back(std::make_unique<cl::experts::Vgg16Like>(vgg));
  roster.push_back(std::make_unique<cl::experts::BovwClassifier>(bovw));
  roster.push_back(std::make_unique<cl::experts::DdmClassifier>(ddm));
  return cl::experts::ExpertCommittee(std::move(roster));
}

cl::core::ExperimentConfig corpus_config(std::uint64_t seed, std::size_t corpus) {
  cl::core::ExperimentConfig cfg;
  cfg.seed = cl::mix_seed(seed * kCorpora + corpus);
  cfg.dataset.total_images = kCorpusImages;
  cfg.dataset.train_images = kTrainImages;
  cfg.dataset.seed = cfg.seed;
  cfg.stream.num_cycles = kStreamCycles;
  cfg.stream.images_per_cycle = kImagesPerCycle;
  cfg.stream.grouped_contexts = false;
  cfg.pilot.queries_per_cell = 6;
  return cfg;
}

double budget_cents() {
  return kCentsPerQuery * static_cast<double>(kQueriesPerCycle * kStreamCycles);
}

std::string tenant_name(std::size_t corpus, std::size_t clone) {
  return "corpus" + std::to_string(corpus) + "-clone" + std::to_string(clone);
}

std::unique_ptr<cl::service::TenantManager> build_manager(std::uint64_t seed,
                                                          const fs::path& dir) {
  cl::service::TenantManagerConfig mcfg;
  mcfg.root_dir = (dir / "tenants").string();
  mcfg.max_resident = kResident;
  mcfg.max_generations = 2;
  mcfg.num_threads = kPoolThreads;
  mcfg.cache_dir = (dir / "artifacts").string();
  auto mgr = std::make_unique<cl::service::TenantManager>(mcfg);
  for (std::size_t c = 0; c < kCorpora; ++c)
    for (std::size_t k = 0; k < kClones; ++k) {
      cl::service::TenantSpec spec;
      spec.name = tenant_name(c, k);
      spec.experiment = corpus_config(seed, c);
      spec.queries_per_cycle = kQueriesPerCycle;
      spec.total_budget_cents = budget_cents();
      spec.committee_factory = tenant_committee;
      mgr->add_tenant(std::move(spec));
    }
  return mgr;
}

/// Residency and cache counters, summed over tenants.
struct ServiceCounts {
  std::size_t evictions = 0, rehydrations = 0, cold_starts = 0;
  cl::cache::CacheStats cache;
};
ServiceCounts service_counts(cl::service::TenantManager& mgr) {
  ServiceCounts s;
  for (const std::string& name : mgr.tenant_names()) {
    const cl::service::TenantStats t = mgr.stats(name);
    s.evictions += t.evictions;
    s.rehydrations += t.rehydrations;
    s.cold_starts += t.cold_starts;
  }
  s.cache = mgr.artifact_cache()->stats();
  return s;
}

}  // namespace

Result run_tenant_churn(const Options& opt, Tracer& tracer) {
  Result r;
  const fs::path root(opt.work_dir);
  // Outlives the manager: every tenant system's stage hook points at it.
  StageClock clock;

  // ---- set-up -------------------------------------------------------------
  std::vector<double> setup_s;
  std::unique_ptr<cl::service::TenantManager> mgr;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    mgr.reset();
    const fs::path dir = root / ("setup" + std::to_string(rep));
    if (rep > 0) fs::remove_all(root / ("setup" + std::to_string(rep - 1)));
    SpanScope span(tracer, "setup", static_cast<std::uint64_t>(rep));
    const auto t0 = Clock::now();
    mgr = build_manager(opt.seed, dir);
    for (const std::string& name : mgr->tenant_names()) {
      SpanScope s(tracer, "service.activate");
      mgr->with_resident(name, [](auto&, auto&, const auto&) {});
    }
    setup_s.push_back(s_between(t0, Clock::now()));
  }

  // ---- timed phase --------------------------------------------------------
  cl::service::BatchCoalescerConfig ccfg;
  ccfg.max_batch_images = 2 * kBurst;
  ccfg.max_linger = std::chrono::milliseconds(0);
  cl::service::BatchCoalescer coalescer(*mgr, ccfg);

  const std::vector<std::string> names = mgr->tenant_names();
  cl::Rng order_rng(cl::mix_seed(opt.seed ^ 0x7e11a47ULL));
  StageSamples stages;
  CrowdCounts crowd;
  ServiceCounts window_counts;
  cl::service::CoalescerStats window_coalescer;
  cl::ckpt::Hasher128 digest, window_digest;
  std::map<std::string, double> spent;  // per tenant, summed over its cycles
  std::vector<double> request_ms, cycle_ms, classify_ms, traced_ms, untraced_ms;
  std::size_t images = 0, correct = 0, queries = 0, rounds = 0;
  double delay_sum = 0.0, check_s = 0.0;
  std::uint64_t& cycle_attempted = r.attempted["cycle_requests"];
  std::uint64_t& cycle_failed = r.failed["cycle_requests"];
  std::uint64_t& classify_attempted = r.attempted["classify_requests"];
  std::uint64_t& classify_failed = r.failed["classify_requests"];
  std::uint64_t request_id = 0;
  bool stop = false;

  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(opt.seconds);
  while (!stop && (rounds < kWindowRounds || Clock::now() < deadline)) {
    if (mgr->stats(names.front()).cycles_run >= kStreamCycles) break;  // streams exhausted
    std::vector<std::string> order = names;
    order_rng.shuffle(order);
    for (const std::string& name : order) {
      ++request_id;
      const bool traced = tracer.enabled() && request_id % 2 == 0;
      tracer.set_paused(!traced);
      const bool in_window = rounds < kWindowRounds;
      const std::uint64_t misses_before = mgr->artifact_cache()->stats().misses;

      // 1. Cycle request: activation (page-out + rehydrate), then the cycle.
      ++cycle_attempted;
      cl::core::CycleOutcome out;
      const int req_span = tracer.begin("tenant.request", request_id);
      const auto t0 = Clock::now();
      int cycle_span = -1;
      try {
        {
          SpanScope s(tracer, "service.activate", request_id);
          mgr->with_resident(name, [&clock](cl::core::CrowdLearnSystem& sys, auto&, const auto&) {
            sys.set_stage_hook([&clock](cl::core::CycleStage st) { clock.mark(st); });
          });
        }
        clock.begin();
        cycle_span = tracer.begin("service.run_next_cycle", request_id);
        out = mgr->run_next_cycle(name);
      } catch (const std::exception& e) {
        tracer.end(cycle_span);
        tracer.end(req_span);
        ++cycle_failed;
        r.violation("cycle request to " + name + " threw: " + e.what());
        stop = true;
        break;
      }
      const auto t1 = Clock::now();
      clock.finish(t1);
      clock.emit_spans(tracer, request_id, t1);
      tracer.end(cycle_span);
      tracer.end(req_span);
      const double ms = ms_between(t0, t1);
      request_ms.push_back(ms);
      (traced ? traced_ms : untraced_ms).push_back(ms);
      // Half the cycles restore their retrains from the cache (second clone)
      // and run far faster; a p50 over both modes would sit in the gap
      // between them. cycle_ms covers the cycles that computed.
      if (mgr->artifact_cache()->stats().misses != misses_before)
        cycle_ms.push_back(ms_between(clock.first_mark(), t1));
      stages.add(clock.stage_ms());

      // 2. Classify burst through the coalescer, straight after the cycle.
      std::vector<std::size_t> ids(kBurst);
      for (std::size_t& id : ids) id = order_rng.index(kCorpusImages);
      classify_attempted += kBurst;
      std::vector<std::future<std::vector<std::size_t>>> futures;
      std::vector<Clock::time_point> submitted;
      futures.reserve(kBurst);
      submitted.reserve(kBurst);
      const int burst_span = tracer.begin("tenant.classify_burst", request_id);
      for (std::size_t id : ids) {
        submitted.push_back(Clock::now());
        futures.push_back(coalescer.submit_classify(name, {id}));
      }
      coalescer.flush();
      const auto ready = Clock::now();
      tracer.end(burst_span);
      for (const auto& t : submitted) classify_ms.push_back(ms_between(t, ready));

      // Checks, outside the timed wall: the cycle against the tenant's own
      // dataset and ledger, the burst against a direct classify.
      const auto c0 = Clock::now();
      const std::size_t before = r.violation_count;
      std::size_t right = 0;
      spent[name] += out.spent_cents;
      mgr->with_resident(name, [&](auto&, cl::crowd::CrowdPlatform& platform,
                                   const cl::core::ExperimentSetup& setup) {
        right = check_outcome(out, setup.data, r);
        if (platform.total_spent_cents() > budget_cents() + 1e-9)
          r.violation(name + ": crowd spend exceeds the budget");
        if (std::abs(platform.total_spent_cents() - spent[name]) > 1e-6)
          r.violation(name + ": platform ledger disagrees with the cycles' spend");
      });
      if (r.violation_count != before) ++cycle_failed;
      digest.str(name);
      digest_outcome(digest, out);
      if (in_window) {
        correct += right;
        images += out.image_ids.size();
        queries += out.queried_ids.size();
        delay_sum += out.crowd_delay_seconds * static_cast<double>(out.queried_ids.size());
        window_digest.str(name);
        digest_outcome(window_digest, out);
        crowd.add(out);
      }
      std::vector<std::size_t> coalesced(kBurst, cl::dataset::kNumSeverityClasses);
      for (std::size_t i = 0; i < kBurst; ++i) {
        try {
          const std::vector<std::size_t> one = futures[i].get();
          if (one.size() == 1) coalesced[i] = one[0];
          else {
            ++classify_failed;
            r.violation(name + ": classify returned " + std::to_string(one.size()) + " labels");
          }
        } catch (const std::exception& e) {
          ++classify_failed;
          r.violation(name + ": classify threw: " + e.what());
        }
      }
      const std::vector<std::size_t> direct = mgr->classify(name, ids);
      for (std::size_t i = 0; i < kBurst; ++i)
        if (direct.size() != kBurst || coalesced[i] != direct[i]) {
          ++classify_failed;
          r.violation(name + ": coalesced classify differs from a direct classify");
        }
      check_s += s_between(c0, Clock::now());
    }
    if (stop) break;
    if (++rounds == kWindowRounds) {
      window_counts = service_counts(*mgr);
      window_coalescer = coalescer.stats();
    }
  }
  const double wall_s = s_between(start, Clock::now()) - check_s;
  tracer.set_paused(false);
  if (rounds < kWindowRounds) r.violation("tenant streams ended before the minimum round count");

  const double cycle_requests = static_cast<double>(request_ms.size());
  r.e2e("setup_s", median(setup_s), "s");
  r.e2e("request_ms_p50", median(request_ms), "ms");
  r.e2e("request_ms_p90", quantile(request_ms, kTailQuantile), "ms");
  r.e2e("classify_ms_p50", median(classify_ms), "ms");
  r.e2e("classify_ms_p90", quantile(classify_ms, kTailQuantile), "ms");
  r.e2e("requests_per_s", (cycle_requests + static_cast<double>(classify_ms.size())) / wall_s,
        "1/s");
  // The cycle inside a computing request: first stage boundary to return.
  r.e2e("cycle_ms_p50", median(cycle_ms), "ms");
  r.e2e("cycle_ms_p90", quantile(cycle_ms, kTailQuantile), "ms");
  r.e2e("cycles_per_s", cycle_requests / wall_s, "1/s");
  r.e2e("accuracy", images ? static_cast<double>(correct) / static_cast<double>(images) : 0.0,
        "fraction");
  r.e2e("crowd_delay_s", queries ? delay_sum / static_cast<double>(queries) : 0.0, "s");

  const ServiceCounts& w = window_counts;
  std::cout << "tenant_churn: " << rounds << " rounds, " << request_ms.size()
            << " cycle requests, " << classify_ms.size() << " classify requests in " << wall_s
            << " s (checks excluded)\n";
  std::cout << "digest: first " << kWindowRounds << " rounds " << window_digest.digest().hex()
            << ", all " << request_ms.size() << " requests " << digest.digest().hex() << "\n";
  std::cout << "window counts: evictions " << w.evictions << ", rehydrations " << w.rehydrations
            << ", cold starts " << w.cold_starts << ", cache hits " << w.cache.hits
            << " / misses " << w.cache.misses << " / stores " << w.cache.stores << "\n";

  if (tracer.enabled()) {
    std::cout << "tracing overhead: request_ms_p50 traced " << median(traced_ms)
              << " - untraced " << median(untraced_ms) << " = "
              << median(traced_ms) - median(untraced_ms) << " ms\n";
    stages.report(r);
    crowd.report(r);
    // Counts from manager construction through the window (set-up's cold
    // starts included); the coalescer's from the start of the timed phase.
    r.layer("service.evictions", static_cast<double>(w.evictions), "count");
    r.layer("service.rehydrations", static_cast<double>(w.rehydrations), "count");
    r.layer("service.cold_starts", static_cast<double>(w.cold_starts), "count");
    r.layer("coalescer.batches", static_cast<double>(window_coalescer.batches), "count");
    r.layer("coalescer.mean_batch_images",
            window_coalescer.batches ? static_cast<double>(window_coalescer.images) /
                                           static_cast<double>(window_coalescer.batches)
                                     : 0.0,
            "images");
    const double fetches = static_cast<double>(w.cache.hits + w.cache.misses);
    r.layer("cache.hits", static_cast<double>(w.cache.hits), "count");
    r.layer("cache.misses", static_cast<double>(w.cache.misses), "count");
    r.layer("cache.stores", static_cast<double>(w.cache.stores), "count");
    r.layer("cache.hit_ratio", fetches > 0 ? static_cast<double>(w.cache.hits) / fetches : 0.0,
            "fraction");

    // Module probes on a standalone corpus-0 deployment (same shapes as a
    // tenant's), on the manager's pool.
    const cl::core::ExperimentConfig cfg0 = corpus_config(opt.seed, 0);
    std::unique_ptr<cl::core::ExperimentSetup> setup;
    r.layer("core.make_setup_ms", median(time_reps(tracer, "core.make_setup", 5, [&] {
              setup = std::make_unique<cl::core::ExperimentSetup>(cl::core::make_setup(cfg0));
            })),
            "ms");
    cl::core::CrowdLearnConfig cl_cfg =
        cl::core::default_crowdlearn_config(*setup, kQueriesPerCycle, budget_cents());
    // Non-owning: the manager owns its pool and outlives `system`.
    cl_cfg.shared_pool = std::shared_ptr<cl::util::ThreadPool>(&mgr->pool(), [](auto*) {});
    std::unique_ptr<cl::core::CrowdLearnSystem> system;
    std::vector<double> initialize_s;
    for (int rep = 0; rep < 3; ++rep) {
      system = std::make_unique<cl::core::CrowdLearnSystem>(tenant_committee(), cl_cfg);
      SpanScope s(tracer, "core.initialize");
      const auto t0 = Clock::now();
      system->initialize(setup->data, setup->pilot);
      initialize_s.push_back(s_between(t0, Clock::now()));
    }
    r.layer("core.initialize_s", median(initialize_s), "s");
    probe_layers(system->committee(), setup->data, tracer, r);
    probe_experts(tenant_committee, *setup, opt.seed, mgr->pool(), tracer, r);
    probe_cqc(cl_cfg, *setup, mgr->pool(), tracer, r);
    mgr->with_resident(names.front(), [&](cl::core::CrowdLearnSystem& sys,
                                          cl::crowd::CrowdPlatform& platform, const auto&) {
      probe_state(sys, platform, (root / "ring").string(), tracer, r);
    });
  }
  r.e2e("peak_rss_mb", peak_rss_mib(), "MiB");
  return r;
}

}  // namespace perfbench
