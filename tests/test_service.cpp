// Multi-tenant service battery (docs/TENANCY.md). The load-bearing test is
// eviction equivalence: a tenant driven through the TenantManager with
// max_resident=1 churn — paged out to its generation ring and rehydrated
// between every cycle — must produce byte-identical cycle-log CSV,
// deterministic metrics JSON and expert weights to the same tenant run
// standalone, at 1/2/8 shared-pool threads, with fault injection on and off.
// Around it: lifecycle phases, LRU victim selection, per-tenant rejection
// surfacing (RehydrateError), queue ordering, and classify purity.

#include <unistd.h>
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/recorder.hpp"
#include "experts/bovw.hpp"
#include "service/coalescer.hpp"
#include "service/queue.hpp"
#include "service/tenant.hpp"

namespace crowdlearn::service {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kCycles = 5;
constexpr std::uint64_t kSeedBase = 20260808;

struct TempDir {
  std::string path;
  // pid-suffixed: gtest_discover_tests runs each TEST as its own process, so
  // under `ctest -j` two tests sharing a fixture name would otherwise race on
  // the same directory (one destructor deleting the other's live ring).
  explicit TempDir(const std::string& name)
      : path(::testing::TempDir() + "/" + name + "." + std::to_string(::getpid())) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { std::error_code ec; fs::remove_all(path, ec); }
};

core::ExperimentConfig experiment_config(std::uint64_t seed) {
  core::ExperimentConfig cfg;
  cfg.dataset.total_images = 120;
  cfg.dataset.train_images = 70;
  cfg.stream.num_cycles = kCycles;
  cfg.stream.images_per_cycle = 4;
  cfg.stream.grouped_contexts = false;
  cfg.pilot.queries_per_cell = 6;
  cfg.seed = seed;
  return cfg;
}

experts::ExpertCommittee fast_committee() {
  experts::BovwConfig fast;
  fast.train.epochs = 10;
  fast.train.learning_rate = 0.05;
  std::vector<std::unique_ptr<experts::DdaAlgorithm>> roster;
  roster.push_back(std::make_unique<experts::BovwClassifier>(fast));
  roster.push_back(std::make_unique<experts::BovwClassifier>(fast));
  return experts::ExpertCommittee(std::move(roster));
}

crowd::FaultInjectionConfig fault_profile() {
  crowd::FaultInjectionConfig faults;
  faults.abandonment_prob = 0.12;
  faults.straggler_prob = 0.10;
  faults.malformed_label_prob = 0.08;
  faults.duplicate_prob = 0.05;
  return faults;
}

TenantSpec tenant_spec(const std::string& name, std::uint64_t seed, bool faults) {
  TenantSpec spec;
  spec.name = name;
  spec.experiment = experiment_config(seed);
  spec.queries_per_cycle = 2;
  spec.total_budget_cents = 400.0;
  spec.observability = true;
  spec.committee_factory = fast_committee;
  if (faults) spec.faults = fault_profile();
  return spec;
}

/// The three byte-compared artifacts of a finished tenant run.
struct RunArtifacts {
  std::string csv;
  std::string metrics_json;
  std::vector<double> weights;
};

RunArtifacts artifacts_of(core::CrowdLearnSystem& system, const dataset::Dataset& data,
                          const std::vector<core::CycleOutcome>& outcomes) {
  RunArtifacts a;
  core::CycleLogOptions opts;
  opts.include_wall_clock = false;
  std::ostringstream csv;
  core::write_cycle_log(data, outcomes, csv, opts);
  a.csv = csv.str();
  std::ostringstream metrics;
  core::write_metrics_json_deterministic(system.observability(), metrics);
  a.metrics_json = metrics.str();
  a.weights = system.committee().weights();
  return a;
}

/// The tenant run standalone: a plain loop over its stream, no service, no
/// eviction — exactly the construction TenantManager::build_resident does.
RunArtifacts standalone_run(const TenantSpec& spec, std::size_t num_threads) {
  const core::ExperimentSetup setup = core::make_setup(spec.experiment);
  core::CrowdLearnConfig cfg = core::default_crowdlearn_config(
      setup, spec.queries_per_cycle, spec.total_budget_cents);
  cfg.num_threads = num_threads;
  cfg.observability.enabled = spec.observability;
  core::CrowdLearnSystem system(spec.committee_factory(), cfg);
  system.initialize(setup.data, setup.pilot);
  crowd::CrowdPlatform platform = core::make_platform(setup, /*run_index=*/0, spec.faults);
  const dataset::SensingCycleStream stream(setup.data, setup.stream_cfg);
  std::vector<core::CycleOutcome> outcomes;
  for (const dataset::SensingCycle& cycle : stream.cycles())
    outcomes.push_back(system.run_cycle(setup.data, platform, cycle));
  return artifacts_of(system, setup.data, outcomes);
}

RunArtifacts service_artifacts(TenantManager& mgr, const std::string& name,
                               const std::vector<core::CycleOutcome>& outcomes) {
  RunArtifacts a;
  mgr.with_resident(name, [&](core::CrowdLearnSystem& system, crowd::CrowdPlatform&,
                              const core::ExperimentSetup& setup) {
    a = artifacts_of(system, setup.data, outcomes);
  });
  return a;
}

void expect_equal(const RunArtifacts& got, const RunArtifacts& want, const std::string& ctx) {
  EXPECT_EQ(got.csv, want.csv) << ctx;
  EXPECT_EQ(got.metrics_json, want.metrics_json) << ctx;
  EXPECT_EQ(got.weights, want.weights) << ctx;
}

// --- Eviction equivalence ---------------------------------------------------

/// Three tenants through one manager with max_resident=1: every request
/// forces a page-out + rehydrate. Cycles go through the ServiceQueue in
/// round-robin order, each visit waited for before the next is submitted, so
/// the residency schedule (and with it every eviction count) is fixed. Every
/// tenant's trace must match its standalone run byte for byte.
void run_equivalence(std::size_t num_threads, bool faults) {
  const std::string ctx =
      "threads=" + std::to_string(num_threads) + " faults=" + std::to_string(faults);
  TempDir root("service_equiv_" + std::to_string(num_threads) + "_" + std::to_string(faults));
  TenantManagerConfig mcfg;
  mcfg.root_dir = root.path;
  mcfg.max_resident = 1;
  mcfg.num_threads = num_threads;
  TenantManager mgr(mcfg);
  const std::vector<std::string> names = {"quito", "ambato", "manta"};
  for (std::size_t i = 0; i < names.size(); ++i)
    mgr.add_tenant(tenant_spec(names[i], kSeedBase + i, faults));

  std::map<std::string, std::vector<std::future<core::CycleOutcome>>> futures;
  {
    ServiceQueue queue(mgr);
    for (std::size_t c = 0; c < kCycles; ++c) {
      for (const std::string& name : names) {
        futures[name].push_back(queue.submit_cycle(name));
        futures[name].back().wait();
      }
    }
    queue.drain();
  }

  // The schedule implies the counts: each tenant cold-starts on its first
  // visit and is rehydrated on each later one; every visit but the very last
  // is displaced by the next visit, so each tenant is evicted once per visit
  // except the last-visited tenant, whose final visit leaves it resident.
  // Read before service_artifacts, whose with_resident calls page tenants
  // again.
  for (std::size_t i = 0; i < names.size(); ++i) {
    const TenantStats st = mgr.stats(names[i]);
    const bool visited_last = i + 1 == names.size();
    EXPECT_EQ(st.cold_starts, 1u) << ctx << " tenant=" << names[i];
    EXPECT_EQ(st.rehydrations, kCycles - 1) << ctx << " tenant=" << names[i];
    EXPECT_EQ(st.evictions, visited_last ? kCycles - 1 : kCycles) << ctx << " tenant=" << names[i];
  }

  for (std::size_t i = 0; i < names.size(); ++i) {
    std::vector<core::CycleOutcome> outcomes;
    for (auto& f : futures[names[i]]) outcomes.push_back(f.get());
    const RunArtifacts via_service = service_artifacts(mgr, names[i], outcomes);
    const RunArtifacts standalone = standalone_run(tenant_spec(names[i], kSeedBase + i, faults),
                                                   /*num_threads=*/2);
    expect_equal(via_service, standalone, ctx + " tenant=" + names[i]);
  }
  EXPECT_EQ(mgr.resident_count(), 1u);
}

TEST(ServiceEquivalence, EvictionChurnMatchesStandalone1Thread) {
  run_equivalence(1, /*faults=*/false);
}

TEST(ServiceEquivalence, EvictionChurnMatchesStandalone2Threads) {
  run_equivalence(2, /*faults=*/false);
}

TEST(ServiceEquivalence, EvictionChurnMatchesStandalone8Threads) {
  run_equivalence(8, /*faults=*/false);
}

TEST(ServiceEquivalence, EvictionChurnMatchesStandaloneWithFaults2Threads) {
  run_equivalence(2, /*faults=*/true);
}

TEST(ServiceEquivalence, EvictionChurnMatchesStandaloneWithFaults8Threads) {
  run_equivalence(8, /*faults=*/true);
}

// --- Lifecycle --------------------------------------------------------------

TEST(TenantLifecycle, PhasesColdResidentEvictedResident) {
  TempDir root("service_lifecycle");
  TenantManagerConfig mcfg;
  mcfg.root_dir = root.path;
  mcfg.max_resident = 1;
  TenantManager mgr(mcfg);
  mgr.add_tenant(tenant_spec("a", kSeedBase, false));
  mgr.add_tenant(tenant_spec("b", kSeedBase + 1, false));

  EXPECT_EQ(mgr.stats("a").phase, TenantPhase::kCold);
  mgr.run_next_cycle("a");
  EXPECT_EQ(mgr.stats("a").phase, TenantPhase::kResident);
  EXPECT_EQ(mgr.stats("a").cold_starts, 1u);
  EXPECT_EQ(mgr.resident_count(), 1u);

  // Activating b displaces a (the only other resident).
  mgr.run_next_cycle("b");
  EXPECT_EQ(mgr.stats("a").phase, TenantPhase::kEvicted);
  EXPECT_EQ(mgr.stats("b").phase, TenantPhase::kResident);
  EXPECT_EQ(mgr.stats("a").evictions, 1u);
  EXPECT_EQ(mgr.resident_count(), 1u);

  // a's ring now holds its paged-out state.
  ckpt::GenerationRing ring({root.path + "/a", 2});
  EXPECT_FALSE(ring.generations().empty());

  mgr.run_next_cycle("a");
  EXPECT_EQ(mgr.stats("a").phase, TenantPhase::kResident);
  EXPECT_EQ(mgr.stats("a").rehydrations, 1u);
  EXPECT_EQ(mgr.stats("a").cycles_run, 2u);
}

TEST(TenantLifecycle, LruPicksLeastRecentlyUsedVictim) {
  TempDir root("service_lru");
  TenantManagerConfig mcfg;
  mcfg.root_dir = root.path;
  mcfg.max_resident = 2;
  TenantManager mgr(mcfg);
  for (const char* name : {"a", "b", "c"})
    mgr.add_tenant(tenant_spec(name, kSeedBase + name[0], false));

  mgr.run_next_cycle("a");
  mgr.run_next_cycle("b");
  mgr.run_next_cycle("a");  // a is now the most recently used
  mgr.run_next_cycle("c");  // needs a slot: b is the LRU victim
  EXPECT_EQ(mgr.stats("b").phase, TenantPhase::kEvicted);
  EXPECT_EQ(mgr.stats("a").phase, TenantPhase::kResident);
  EXPECT_EQ(mgr.stats("c").phase, TenantPhase::kResident);
}

TEST(TenantLifecycle, ExplicitEvictAndUnboundedResidency) {
  TempDir root("service_unbounded");
  TenantManagerConfig mcfg;
  mcfg.root_dir = root.path;  // max_resident = 0: nothing auto-evicts
  TenantManager mgr(mcfg);
  mgr.add_tenant(tenant_spec("a", kSeedBase, false));
  mgr.add_tenant(tenant_spec("b", kSeedBase + 1, false));
  mgr.run_next_cycle("a");
  mgr.run_next_cycle("b");
  EXPECT_EQ(mgr.resident_count(), 2u);
  mgr.evict("a");
  EXPECT_EQ(mgr.stats("a").phase, TenantPhase::kEvicted);
  EXPECT_EQ(mgr.resident_count(), 1u);
  mgr.evict("a");  // no-op when already evicted
  EXPECT_EQ(mgr.stats("a").evictions, 1u);
}

TEST(TenantLifecycle, StreamExhaustionAndUnknownTenantThrow) {
  TempDir root("service_exhaust");
  TenantManagerConfig mcfg;
  mcfg.root_dir = root.path;
  TenantManager mgr(mcfg);
  TenantSpec spec = tenant_spec("a", kSeedBase, false);
  spec.experiment.stream.num_cycles = 1;
  mgr.add_tenant(spec);
  mgr.run_next_cycle("a");
  EXPECT_THROW(mgr.run_next_cycle("a"), std::out_of_range);
  EXPECT_THROW(mgr.run_next_cycle("nope"), std::out_of_range);
  EXPECT_THROW(mgr.add_tenant(tenant_spec("a", kSeedBase, false)), std::invalid_argument);
  EXPECT_THROW(mgr.add_tenant(tenant_spec("x/y", kSeedBase, false)), std::invalid_argument);
}

// --- Rejection surfacing (satellite: uniform CkptErrc reporting) ------------

TEST(TenantRehydrate, CorruptRingSurfacesTypedRejections) {
  TempDir root("service_corrupt");
  TenantManagerConfig mcfg;
  mcfg.root_dir = root.path;
  mcfg.max_resident = 1;
  TenantManager mgr(mcfg);
  mgr.add_tenant(tenant_spec("a", kSeedBase, false));
  mgr.add_tenant(tenant_spec("b", kSeedBase + 1, false));
  mgr.run_next_cycle("a");
  mgr.run_next_cycle("b");  // a pages out
  ASSERT_EQ(mgr.stats("a").phase, TenantPhase::kEvicted);

  // Flip a payload byte in every one of a's generations.
  ckpt::GenerationRing ring({root.path + "/a", 2});
  for (std::uint64_t gen : ring.generations()) {
    const std::string path = ring.path_for(gen);
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(30);
    char byte = 0;
    f.seekg(30);
    f.get(byte);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(30);
    f.put(byte);
  }

  try {
    mgr.run_next_cycle("a");
    FAIL() << "expected RehydrateError";
  } catch (const RehydrateError& e) {
    EXPECT_FALSE(e.rejected().empty());
    const std::string msg = e.what();
    EXPECT_NE(msg.find("tenant a"), std::string::npos) << msg;
    EXPECT_NE(msg.find("crc mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find("gen-"), std::string::npos) << msg;
  }
  // The failure is not sticky for the manager: other tenants still run.
  mgr.run_next_cycle("b");
  EXPECT_EQ(mgr.stats("a").phase, TenantPhase::kEvicted);
}

// --- Queue semantics --------------------------------------------------------

TEST(ServiceQueue, PerTenantFifoOrderAndCrossTenantProgress) {
  TempDir root("service_queue");
  TenantManagerConfig mcfg;
  mcfg.root_dir = root.path;
  mcfg.max_resident = 1;
  mcfg.num_threads = 4;
  TenantManager mgr(mcfg);
  mgr.add_tenant(tenant_spec("a", kSeedBase, false));
  mgr.add_tenant(tenant_spec("b", kSeedBase + 1, false));

  ServiceQueue queue(mgr);
  std::vector<std::future<core::CycleOutcome>> a_futs, b_futs;
  for (std::size_t c = 0; c < 3; ++c) {
    a_futs.push_back(queue.submit_cycle("a"));
    b_futs.push_back(queue.submit_cycle("b"));
  }
  queue.drain();
  EXPECT_EQ(queue.pending(), 0u);
  // FIFO per tenant: cycle indices come back in submission order.
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(a_futs[c].get().cycle_index, c);
    EXPECT_EQ(b_futs[c].get().cycle_index, c);
  }
  EXPECT_EQ(mgr.stats("a").cycles_run, 3u);
  EXPECT_EQ(mgr.stats("b").cycles_run, 3u);
}

TEST(ServiceQueue, ErrorsSurfaceThroughFutures) {
  TempDir root("service_queue_err");
  TenantManagerConfig mcfg;
  mcfg.root_dir = root.path;
  TenantManager mgr(mcfg);
  ServiceQueue queue(mgr);
  std::future<core::CycleOutcome> fut = queue.submit_cycle("missing");
  queue.drain();
  EXPECT_THROW(fut.get(), std::out_of_range);
}

// --- Classify purity --------------------------------------------------------

/// Interleaving committee-only inference requests between cycles must not
/// move the cycle trace by a single byte: classify draws no RNG, spends no
/// budget, and touches no mutable state.
TEST(ServiceClassify, InterleavedInferenceLeavesTraceUntouched) {
  const TenantSpec spec = tenant_spec("a", kSeedBase, false);
  const RunArtifacts standalone = standalone_run(spec, /*num_threads=*/2);

  TempDir root("service_classify");
  TenantManagerConfig mcfg;
  mcfg.root_dir = root.path;
  mcfg.num_threads = 2;
  TenantManager mgr(mcfg);
  mgr.add_tenant(spec);

  std::vector<core::CycleOutcome> outcomes;
  std::vector<std::size_t> predictions;
  for (std::size_t c = 0; c < kCycles; ++c) {
    predictions = mgr.classify("a", {0, 1, 2, 3, 4, 5});
    outcomes.push_back(mgr.run_next_cycle("a"));
  }
  EXPECT_EQ(predictions.size(), 6u);
  expect_equal(service_artifacts(mgr, "a", outcomes), standalone, "classify-interleaved");
}

/// Classify racing eviction (docs/SERVING.md): requests queued in a
/// coalescer lane while the tenant is paged out must rehydrate it on
/// dispatch and answer correctly — and the rehydrate round trip plus the
/// batched reads must leave the tenant's cycle trace byte-identical to the
/// standalone run.
TEST(ServiceClassify, CoalescedClassifySurvivesEvictionRace) {
  const TenantSpec spec = tenant_spec("a", kSeedBase, false);
  const RunArtifacts standalone = standalone_run(spec, /*num_threads=*/2);

  TempDir root("service_classify_evict");
  TenantManagerConfig mcfg;
  mcfg.root_dir = root.path;
  mcfg.max_resident = 1;
  mcfg.num_threads = 2;
  TenantManager mgr(mcfg);
  mgr.add_tenant(spec);
  mgr.add_tenant(tenant_spec("b", kSeedBase + 1, false));

  std::vector<core::CycleOutcome> outcomes;
  outcomes.push_back(mgr.run_next_cycle("a"));
  const std::vector<std::size_t> ids = {0, 1, 2, 3, 4, 5};
  const std::vector<std::size_t> want = mgr.classify("a", ids);

  // Queue requests below the dispatch threshold (linger disabled), then
  // evict the tenant out from under them before anything can run.
  BatchCoalescerConfig ccfg;
  ccfg.max_batch_images = 1024;
  ccfg.max_linger = std::chrono::milliseconds{0};
  BatchCoalescer coalescer(mgr, ccfg);
  std::future<std::vector<std::size_t>> f1 = coalescer.submit_classify("a", ids);
  std::future<std::vector<std::size_t>> f2 = coalescer.submit_classify("a", ids);
  mgr.run_next_cycle("b");  // displaces a (max_resident = 1)
  ASSERT_EQ(mgr.stats("a").phase, TenantPhase::kEvicted);

  coalescer.flush();  // dispatch rehydrates a from its generation ring
  EXPECT_EQ(f1.get(), want);
  EXPECT_EQ(f2.get(), want);
  EXPECT_GE(mgr.stats("a").rehydrations, 1u);
  EXPECT_EQ(coalescer.stats().batches, 1u);  // one rehydrate, one batch

  // The race left no mark: the remaining cycles replay to the standalone
  // trace byte for byte.
  for (std::size_t c = 1; c < kCycles; ++c) outcomes.push_back(mgr.run_next_cycle("a"));
  expect_equal(service_artifacts(mgr, "a", outcomes), standalone, "classify-evict-race");
}

}  // namespace
}  // namespace crowdlearn::service
