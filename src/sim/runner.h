// anole — ScenarioRunner: the one experiment driver benches and examples
// share (see sim/scenario.h for the scenario description).
//
// Responsibilities:
//   * materialize topologies (family_spec instances are generated once
//     and cached; caller-owned graphs are borrowed);
//   * profile every distinct topology once (graph/spectral.h profile();
//     the expensive step — spectral estimation plus mixing simulation —
//     is itself parallelized across the distinct graphs of a batch);
//   * auto-fill zero-valued model inputs (n, tmix, Φ, i(G)) and the
//     diameter from the profile, exactly as the paper's algorithms are
//     parameterized;
//   * fan repetitions and scenarios out over a thread pool (`--jobs N`
//     in the benches; default = hardware concurrency). Results are
//     bit-identical for every jobs value: each repetition derives its
//     randomness from scenario.seed + r only;
//   * stream batches (run_stream): up to jobs() batches overlap on the
//     pool while the caller receives them strictly in order — the
//     campaign layer's topology groups, and (as the one-batch case)
//     run()/run_batch().
//
// Exceptions inside a run (engine round-limit overruns, CONGEST
// violations) are captured per repetition into run_record::error rather
// than aborting the sweep.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
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
        : node_jobs_(node_jobs == 0 ? 1 : node_jobs), pool_(jobs) {}

    [[nodiscard]] std::size_t jobs() const noexcept { return pool_.size(); }

    // Runs one scenario, repetitions in parallel.
    scenario_result run(const scenario& s);

    // Runs a whole sweep: profiles distinct topologies in parallel, then
    // fans every (scenario, repetition) pair out over the pool. Results
    // are returned in input order. The one-batch case of run_stream.
    std::vector<scenario_result> run_batch(const std::vector<scenario>& batch);

    // Runs batches 0 … count−1 with up to jobs() of them in flight.
    // Batch b is prepared by one pool job: prepare(b) returns its
    // scenarios, then the job materializes their topologies, profiles the
    // distinct ones in parallel and submits one pool job per (scenario,
    // repetition); a per-batch countdown marks it done. The calling
    // thread only waits — it never runs pool jobs — and hands finished
    // batches to consume(b, results) strictly in index order; batch
    // b + jobs() is admitted only after consume(b) returned. Results are
    // bit-identical for every jobs value.
    //
    // If preparing batch b throws (the hook, materialize or profile_for),
    // or consume throws, the batches before b have been consumed; the
    // stream waits until every job in flight returned, consumes nothing
    // more, and rethrows. Must not be called from inside this runner's
    // pool.
    using batch_prepare = std::function<std::vector<scenario>(std::size_t)>;
    using batch_consume =
        std::function<void(std::size_t, std::vector<scenario_result>)>;
    void run_stream(std::size_t count, const batch_prepare& prepare,
                    const batch_consume& consume);

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
    // Resolves cap_x into config.cap.
    [[nodiscard]] static cb_config fill(const cautious_cfg& c, const graph_profile& prof);

private:
    struct stream_batch;

    scenario_result make_result(const scenario& s);
    void prepare_batch(stream_batch& b, const batch_prepare& prepare, std::size_t index);
    void finish_job(stream_batch& b);

    std::size_t node_jobs_ = 1;
    // Batch countdowns of run_stream.
    std::mutex stream_mu_;
    std::condition_variable stream_cv_;
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
    // Last, so its threads are joined before anything its jobs use (the
    // caches above, the stream countdowns) is destroyed.
    thread_pool pool_;
};

}  // namespace anole
