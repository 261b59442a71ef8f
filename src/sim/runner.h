// anole — ScenarioRunner: the one experiment driver benches and examples
// share (see sim/scenario.h for the scenario description).
//
// Responsibilities:
//   * materialize topologies (family_spec instances are generated once
//     and cached; caller-owned graphs are borrowed);
//   * profile every distinct topology once (graph/spectral.h profile();
//     the expensive step — spectral estimation plus mixing simulation —
//     is itself parallelized across distinct graphs in run_batch);
//   * auto-fill zero-valued model inputs (n, tmix, Φ, D, i(G)) from the
//     profile, exactly as the paper's algorithms are parameterized;
//   * fan repetitions and scenarios out over a thread pool (`--jobs N`
//     in the benches; default = hardware concurrency). Results are
//     bit-identical for every jobs value: each repetition derives its
//     randomness from scenario.seed + r only.
//
// Exceptions inside a run (engine round-limit overruns, CONGEST
// violations) are captured per repetition into run_record::error rather
// than aborting the sweep.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/profile_cache.h"
#include "sim/scenario.h"
#include "sim/thread_pool.h"

namespace anole {

class scenario_runner {
public:
    // jobs = 0 selects hardware concurrency. node_jobs shards the rounds of
    // every scenario's engines (`--node-jobs` in the benches) over this
    // runner's pool — safe to nest inside repetition jobs, see
    // thread_pool::parallel_for; 1 means serial rounds. Results are
    // bitwise-identical for any value: a wall-clock knob for large
    // instances, on top of the repetition-level `--jobs`.
    explicit scenario_runner(std::size_t jobs = 0, std::size_t node_jobs = 1)
        : pool_(jobs), node_jobs_(node_jobs == 0 ? 1 : node_jobs) {}

    [[nodiscard]] std::size_t jobs() const noexcept { return pool_.size(); }

    // Runs one scenario, repetitions in parallel.
    scenario_result run(const scenario& s);

    // Runs a whole sweep: profiles distinct topologies in parallel, then
    // fans every (scenario, repetition) pair out over the pool. Results
    // are returned in input order.
    std::vector<scenario_result> run_batch(const std::vector<scenario>& batch);

    // Topology materialization + profile cache (shared across scenarios;
    // thread-safe). The returned references live as long as the runner.
    const graph& materialize(const topology_spec& spec);
    const graph_profile& profile_for(const graph& g);

    // Cache sizes — lets callers (campaign tests, perf assertions) verify
    // that sweeps sharing a topology really shared its graph and profile.
    [[nodiscard]] std::size_t cached_graphs() const;
    [[nodiscard]] std::size_t cached_profiles() const;

    // Layers a persistent JSONL cache (sim/profile_cache.h) *under* the
    // in-memory profile map: profile_for resolves memory → disk →
    // compute-and-store. Only generated topologies participate (borrowed
    // graphs have no (family, n, seed) identity to key on).
    void set_profile_cache(const std::string& path);
    // Profiles actually computed (neither cache hit) since construction —
    // a warm disk cache makes a repeat campaign report 0 here.
    [[nodiscard]] std::size_t fresh_profiles() const;

    // One repetition, no pooling — the primitive run()/run_batch() fan
    // out. Exposed for tests and custom harnesses. `dynamics` attaches
    // the per-round adversary (sim/dynamics.h); default = static network.
    [[nodiscard]] static run_record run_once(const graph& g, const graph_profile& prof,
                                             const algo_config& cfg, std::uint64_t seed,
                                             const dynamics_spec& dynamics = {});

    // The parameter auto-fill run_once applies, exposed for reuse:
    // zero-valued model inputs are replaced from the profile.
    [[nodiscard]] static irrevocable_params fill(irrevocable_params p,
                                                 const graph_profile& prof);
    [[nodiscard]] static gilbert_params fill(gilbert_params p, const graph_profile& prof);
    [[nodiscard]] static revocable_params fill(const revocable_cfg& c,
                                               const graph_profile& prof);
    // Resolves cap_x into config.cap and a zero round count to tmix·log2 n.
    [[nodiscard]] static cautious_cfg fill(cautious_cfg c, const graph_profile& prof);

private:
    scenario_result prepare(const scenario& s);

    thread_pool pool_;
    std::size_t node_jobs_ = 1;
    mutable std::mutex mu_;
    // Generated graphs keyed by (family, n, seed); profiles keyed by
    // graph identity (works for both generated and borrowed graphs).
    std::map<std::tuple<graph_family, std::size_t, std::uint64_t>,
             std::unique_ptr<graph>> graphs_;
    std::map<const graph*, std::unique_ptr<graph_profile>> profiles_;
    // Disk-cache keys for generated graphs + the cache itself (optional).
    std::map<const graph*, std::string> profile_keys_;
    std::unique_ptr<profile_cache> disk_cache_;
    std::size_t fresh_profiles_ = 0;
};

}  // namespace anole
