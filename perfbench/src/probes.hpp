#pragma once
// Per-layer probes of the traced run. Each one times calls into a module's
// public functions from outside the program and reports the per_layer
// metrics named in perfbench/README.md. Probes run after a workload's timed
// phase, so they never perturb its outputs.

#include <functional>
#include <string>

#include "bench.hpp"
#include "core/experiment.hpp"
#include "experts/committee.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using CommitteeFactory = std::function<crowdlearn::experts::ExpertCommittee()>;

/// nn.<expert>.<i>.<Layer>.fwd_ms / .bwd_ms for every layer of every neural
/// expert of a trained committee (batch 32, training mode, serial — the
/// layer kernels run serially inside pool tasks during training and
/// inference), plus nn.<expert>.<i>.Conv2D.mflop computed from the shapes.
void probe_layers(crowdlearn::experts::ExpertCommittee& trained,
                  const crowdlearn::dataset::Dataset& data, Tracer& tracer, Result& r);

/// experts.train_s.<name> (each expert's train alone, serial),
/// experts.train_all_s and experts.train_all_cpu_util (fresh committee on a
/// kPoolThreads pool), experts.votes_batch_ms (32 test images through the
/// committee train_all just trained).
void probe_experts(const CommitteeFactory& factory, const crowdlearn::core::ExperimentSetup& setup,
                   std::uint64_t seed,
                   crowdlearn::util::ThreadPool& pool, Tracer& tracer, Result& r);

/// cqc.fit_ms: CqcModule::fit_from_pilot on a fresh module.
void probe_cqc(const crowdlearn::core::CrowdLearnConfig& cfg,
               const crowdlearn::core::ExperimentSetup& setup, crowdlearn::util::ThreadPool& pool,
               Tracer& tracer, Result& r);

/// ckpt.state_image_ms/_kb, ckpt.load_state_image_ms (same state back, so
/// the system is left as it was) and ckpt.ring_save_ms/ring_load_ms through
/// a generation ring under `dir`.
void probe_state(crowdlearn::core::CrowdLearnSystem& system,
                 crowdlearn::crowd::CrowdPlatform& platform, const std::string& dir,
                 Tracer& tracer, Result& r);

/// Runs `fn` `reps` times inside a span named `span`; returns the per-call
/// wall times, ms.
std::vector<double> time_reps(Tracer& tracer, const std::string& span, int reps,
                              const std::function<void()>& fn);

}  // namespace perfbench
