// paper_stream: the paper's closed loop. One CrowdLearnSystem with the paper
// committee {VGG16-like, BoVW, DDM} on the quickstart dataset settings (220
// golden training images, 10 images and 5 queries per cycle at 8 c/query,
// rotating contexts), no faults, no artifact cache, observability off, on a
// pool of kPoolThreads threads. One client thread runs cycles back to back.
//
// A run makes kDeployments deployments, one after another, each on its own
// dataset derived from the run's seed. Each pays the cold start (make_setup +
// construction + initialize; setup_s is the median) and then runs cycles
// over its stream for an equal share of --seconds. Cycle timings pool all
// deployments. Spreading the timed phase over several freshly built systems
// and datasets averages out how one system's buffers happen to land in
// memory (up to ~10% of a single system's cycle time on the reference host)
// and how fast one dataset's cycles happen to be.

#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>

#include "bench.hpp"
#include "core/experiment.hpp"
#include "probes.hpp"

namespace perfbench {

namespace cl = crowdlearn;

namespace {

constexpr std::size_t kTrainImages = 220;
constexpr std::size_t kImagesPerCycle = 10;
constexpr std::size_t kQueriesPerCycle = 5;
constexpr double kCentsPerQuery = 8.0;
constexpr std::size_t kDeployments = 3;
/// Stream length of one deployment: enough that its share of the timed phase
/// ends on the clock, not on the stream, at today's speed and well beyond.
constexpr std::size_t kStreamCycles = 400;
/// Each deployment runs at least this many cycles (all deployments together
/// give p90 far more than ten samples beyond it). accuracy, crowd_delay_s,
/// crowd.* and the window digest cover exactly these cycles, so they depend
/// on the seed only, never on how fast the host ran.
constexpr std::size_t kWindowCycles = 100;

cl::core::ExperimentConfig paper_config(std::uint64_t seed, std::size_t deployment) {
  cl::core::ExperimentConfig cfg;
  cfg.seed = cl::mix_seed(seed * kDeployments + deployment);
  cfg.dataset.total_images = kTrainImages + kStreamCycles * kImagesPerCycle;
  cfg.dataset.train_images = kTrainImages;
  cfg.dataset.seed = cfg.seed;
  cfg.stream.num_cycles = kStreamCycles;
  cfg.stream.images_per_cycle = kImagesPerCycle;
  cfg.stream.grouped_contexts = false;  // rotate contexts so all four appear
  cfg.pilot.queries_per_cell = 6;
  return cfg;
}

}  // namespace

Result run_paper_stream(const Options& opt, Tracer& tracer) {
  Result r;
  const double budget_cents =
      kCentsPerQuery * static_cast<double>(kQueriesPerCycle * kStreamCycles);
  const auto share_time = std::chrono::duration<double>(opt.seconds / kDeployments);

  std::vector<double> setup_s, make_setup_ms, initialize_s;
  std::unique_ptr<cl::core::ExperimentSetup> setup;
  std::unique_ptr<cl::core::CrowdLearnSystem> system;
  std::unique_ptr<cl::crowd::CrowdPlatform> platform;
  cl::core::CrowdLearnConfig cl_cfg;
  StageClock clock;
  StageSamples stages;
  CrowdCounts crowd;
  cl::ckpt::Hasher128 digest, window_digest;
  std::vector<double> cycle_ms, traced_ms, untraced_ms;
  std::size_t images = 0, correct = 0, queries = 0;
  double delay_sum = 0.0, wall_s = 0.0;
  std::uint64_t& attempted = r.attempted["cycles"];
  std::uint64_t& failed = r.failed["cycles"];

  for (std::size_t dep = 0; dep < kDeployments && r.violation_count == 0; ++dep) {
    // ---- set-up: the cold start ------------------------------------------
    platform.reset();
    system.reset();  // release the previous deployment first so peak RSS counts one
    setup.reset();
    {
      SpanScope span(tracer, "setup", dep);
      const auto t0 = Clock::now();
      {
        SpanScope s(tracer, "core.make_setup");
        setup = std::make_unique<cl::core::ExperimentSetup>(
            cl::core::make_setup(paper_config(opt.seed, dep)));
      }
      const auto t1 = Clock::now();
      cl_cfg = cl::core::default_crowdlearn_config(*setup, kQueriesPerCycle, budget_cents);
      cl_cfg.num_threads = kPoolThreads;
      {
        SpanScope s(tracer, "core.construct");
        system = std::make_unique<cl::core::CrowdLearnSystem>(
            cl::experts::make_default_committee(), cl_cfg);
      }
      const auto t2 = Clock::now();
      {
        SpanScope s(tracer, "core.initialize");
        system->initialize(setup->data, setup->pilot);
      }
      const auto t3 = Clock::now();
      setup_s.push_back(s_between(t0, t3));
      make_setup_ms.push_back(ms_between(t0, t1));
      initialize_s.push_back(s_between(t2, t3));
    }
    const cl::dataset::Dataset& data = setup->data;
    platform = std::make_unique<cl::crowd::CrowdPlatform>(
        cl::core::make_platform(*setup, /*run_index=*/0));
    const cl::dataset::SensingCycleStream stream(data, setup->stream_cfg);

    // ---- timed share -------------------------------------------------------
    system->set_stage_hook([&clock](cl::core::CycleStage s) { clock.mark(s); });
    double spent_sum = 0.0;
    const auto start = Clock::now();
    const auto deadline = start + share_time;
    for (const cl::dataset::SensingCycle& cycle : stream.cycles()) {
      const std::size_t n = cycle.index;
      if (n >= kWindowCycles && Clock::now() >= deadline) break;
      // A traced run records spans on every other cycle and leaves the rest
      // untraced, so it can report its own overhead from one process.
      const bool traced = tracer.enabled() && n % 2 == 0;
      tracer.set_paused(!traced);
      ++attempted;
      clock.begin();
      const std::uint64_t request = dep * kStreamCycles + n + 1;
      const int span = tracer.begin("cycle", request);
      const auto t0 = Clock::now();
      cl::core::CycleOutcome out;
      try {
        out = system->run_cycle(data, *platform, cycle);
      } catch (const std::exception& e) {
        tracer.end(span);
        ++failed;
        r.violation(std::string("run_cycle threw: ") + e.what());
        break;
      }
      const auto t1 = Clock::now();
      clock.finish(t1);
      clock.emit_spans(tracer, request, t1);
      tracer.end(span);

      const double ms = ms_between(t0, t1);
      cycle_ms.push_back(ms);
      (traced ? traced_ms : untraced_ms).push_back(ms);
      stages.add(clock.stage_ms());

      const std::size_t before = r.violation_count;
      const std::size_t right = check_outcome(out, data, r);
      if (r.violation_count != before) ++failed;
      spent_sum += out.spent_cents;
      digest_outcome(digest, out);
      if (n < kWindowCycles) {
        correct += right;
        images += out.image_ids.size();
        queries += out.queried_ids.size();
        delay_sum += out.crowd_delay_seconds * static_cast<double>(out.queried_ids.size());
        digest_outcome(window_digest, out);
        crowd.add(out);
      }
    }
    wall_s += s_between(start, Clock::now());
    tracer.set_paused(false);
    system->set_stage_hook(nullptr);

    if (platform->total_spent_cents() > budget_cents + 1e-9)
      r.violation("crowd spend exceeds the budget");
    if (std::abs(platform->total_spent_cents() - spent_sum) > 1e-6)
      r.violation("platform ledger disagrees with the cycles' spend");
  }
  if (cycle_ms.size() < kDeployments * kWindowCycles)
    r.violation("a deployment's stream ended before its minimum cycle count");

  const double cycles = static_cast<double>(cycle_ms.size());
  r.e2e("setup_s", median(setup_s), "s");
  r.e2e("cycle_ms_p50", median(cycle_ms), "ms");
  r.e2e("cycle_ms_p90", quantile(cycle_ms, kTailQuantile), "ms");
  r.e2e("cycles_per_s", cycles / wall_s, "1/s");
  // In the paper's loop a request is one run_cycle call: it classifies the
  // cycle's images and returns their final labels; nothing pages in or out.
  // Committee inference alone is core.stage.committee_ms in the traced run.
  r.e2e("request_ms_p50", median(cycle_ms), "ms");
  r.e2e("request_ms_p90", quantile(cycle_ms, kTailQuantile), "ms");
  r.e2e("requests_per_s", cycles / wall_s, "1/s");
  r.e2e("classify_ms_p50", median(cycle_ms), "ms");
  r.e2e("classify_ms_p90", quantile(cycle_ms, kTailQuantile), "ms");
  r.e2e("accuracy", images ? static_cast<double>(correct) / static_cast<double>(images) : 0.0,
        "fraction");
  r.e2e("crowd_delay_s", queries ? delay_sum / static_cast<double>(queries) : 0.0, "s");

  std::cout << "paper_stream: " << kDeployments << " deployments, " << cycle_ms.size()
            << " cycles in " << wall_s << " s, " << queries << " queries in the window\n";
  std::cout << "digest: window (first " << kWindowCycles << " cycles of each deployment) "
            << window_digest.digest().hex() << ", all " << cycle_ms.size() << " cycles "
            << digest.digest().hex()
            << "\n";

  if (tracer.enabled() && system != nullptr) {
    const double untraced_p50 = median(untraced_ms);
    std::cout << "tracing overhead: cycle_ms_p50 traced " << median(traced_ms) << " - untraced "
              << untraced_p50 << " = " << median(traced_ms) - untraced_p50 << " ms\n";
    std::cout << "stage p50 sum " << stages.p50_sum() << " ms vs untraced cycle_ms_p50 "
              << untraced_p50 << " ms\n";
    const auto cycle_spans = tracer.self_times().find("cycle");
    if (cycle_spans != tracer.self_times().end() && cycle_spans->second.total_ms > 0.0)
      std::cout << "stage spans cover "
                << 100.0 * (1.0 - cycle_spans->second.self_ms / cycle_spans->second.total_ms)
                << "% of traced cycle time\n";
    stages.report(r);
    crowd.report(r);
    r.layer("core.make_setup_ms", median(make_setup_ms), "ms");
    r.layer("core.initialize_s", median(initialize_s), "s");
    probe_layers(system->committee(), setup->data, tracer, r);
    probe_experts([] { return cl::experts::make_default_committee(); }, *setup, opt.seed,
                  system->thread_pool(), tracer, r);
    probe_cqc(cl_cfg, *setup, system->thread_pool(), tracer, r);
    probe_state(*system, *platform, (std::filesystem::path(opt.work_dir) / "ring").string(),
                tracer, r);
    // The multi-tenant layers do no work in this workload.
    for (const char* name : {"service.evictions", "service.rehydrations", "service.cold_starts",
                             "coalescer.batches", "cache.hits", "cache.misses", "cache.stores"})
      r.layer(name, 0.0, "count");
    r.layer("coalescer.mean_batch_images", 0.0, "images");
    r.layer("cache.hit_ratio", 0.0, "fraction");
  }
  r.e2e("peak_rss_mb", peak_rss_mib(), "MiB");
  return r;
}

}  // namespace perfbench
