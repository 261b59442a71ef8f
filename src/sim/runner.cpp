#include "sim/runner.h"

#include <cmath>
#include <deque>
#include <exception>
#include <set>
#include <utility>

#include "sim/engine.h"

namespace anole {

// --- parameter auto-fill -----------------------------------------------------

irrevocable_params scenario_runner::fill(irrevocable_params p,
                                         const graph_profile& prof) {
    if (p.n == 0) p.n = prof.n;
    if (p.tmix == 0) p.tmix = std::max<std::uint64_t>(prof.mixing_time, 1);
    if (p.phi == 0) p.phi = prof.conductance;
    return p;
}

gilbert_params scenario_runner::fill(gilbert_params p, const graph_profile& prof) {
    if (p.n == 0) p.n = prof.n;
    if (p.tmix == 0) p.tmix = std::max<std::uint64_t>(prof.mixing_time, 1);
    return p;
}

revocable_params scenario_runner::fill(const revocable_cfg& c,
                                       const graph_profile& prof) {
    revocable_params p = c.params;
    if (c.auto_isoperimetric && !p.isoperimetric) p.isoperimetric = prof.isoperimetric;
    return p;
}

cb_config scenario_runner::fill(const cautious_cfg& c, const graph_profile& prof) {
    cb_config cfg = c.config;
    if (c.cap_x > 0) {
        const double cap = c.cap_x * static_cast<double>(prof.mixing_time) *
                           prof.conductance;
        cfg.cap = std::max<std::uint64_t>(2, static_cast<std::uint64_t>(std::ceil(cap)));
    }
    return cfg;
}

// --- one repetition ----------------------------------------------------------

run_record scenario_runner::run_once(const graph& g, const graph_profile& prof,
                                     const algo_config& cfg, std::uint64_t seed,
                                     const dynamics_spec& dynamics) {
    run_record rec;
    rec.seed = seed;
    try {
        if (std::holds_alternative<flood_cfg>(cfg)) {
            rec.detail =
                run_flood_max(g, prof.diameter, seed, flood_max_budget, dynamics);
        } else if (const auto* gb = std::get_if<gilbert_cfg>(&cfg)) {
            rec.detail =
                run_gilbert(g, fill(gb->params, prof), seed, gilbert_budget, dynamics);
        } else if (const auto* ir = std::get_if<irrevocable_cfg>(&cfg)) {
            rec.detail = run_irrevocable(g, fill(ir->params, prof), seed,
                                         irrevocable_budget, dynamics);
        } else if (const auto* rv = std::get_if<revocable_cfg>(&cfg)) {
            rec.detail = run_revocable(g, fill(*rv, prof), seed, rv->max_rounds,
                                       revocable_budget, dynamics);
        } else {
            // tmix·log2 n logical rounds.
            const auto rounds = std::max<std::uint64_t>(
                1, static_cast<std::uint64_t>(
                       static_cast<double>(prof.mixing_time) *
                       std::log2(static_cast<double>(std::max<std::size_t>(prof.n, 2)))));
            rec.detail = run_cautious(g, fill(std::get<cautious_cfg>(cfg), prof), rounds,
                                      seed, cautious_budget, dynamics);
        }
        rec.ok = true;
    } catch (const std::exception& e) {
        rec.ok = false;
        rec.error = e.what();
    }
    return rec;
}

// --- topology + profile caches ----------------------------------------------

const graph& scenario_runner::materialize(const topology_spec& spec) {
    if (const auto* borrowed = std::get_if<const graph*>(&spec)) {
        require(*borrowed != nullptr, "scenario: null topology");
        return **borrowed;
    }
    const auto& fs = std::get<family_spec>(spec);
    const auto key = std::make_tuple(fs.family, fs.n, fs.seed);
    {
        std::unique_lock<std::mutex> lk(mu_);
        auto it = graphs_.find(key);
        if (it != graphs_.end()) return *it->second;
    }
    // Generate outside the lock (deterministic, so a racing duplicate is
    // identical and the loser is simply discarded).
    auto fresh = std::make_unique<graph>(make_family(fs.family, fs.n, fs.seed));
    std::unique_lock<std::mutex> lk(mu_);
    auto [it, inserted] = graphs_.emplace(key, std::move(fresh));
    if (inserted) {
        profile_keys_.emplace(it->second.get(),
                              std::string(to_string(fs.family)) + "/" +
                                  std::to_string(fs.n) + "/s" +
                                  std::to_string(fs.seed) + "/v" +
                                  std::to_string(profile_cache_version));
    }
    return *it->second;
}

const graph_profile& scenario_runner::profile_for(const graph& g) {
    std::string key;
    profile_cache* disk = nullptr;
    {
        std::unique_lock<std::mutex> lk(mu_);
        auto it = profiles_.find(&g);
        if (it != profiles_.end()) return *it->second;
        auto kit = profile_keys_.find(&g);
        if (kit != profile_keys_.end()) key = kit->second;
        disk = disk_cache_.get();
    }
    if (disk != nullptr && !key.empty()) {
        if (auto hit = disk->lookup(key)) {
            std::unique_lock<std::mutex> lk(mu_);
            auto it =
                profiles_.emplace(&g, std::make_unique<graph_profile>(*hit)).first;
            return *it->second;
        }
    }
    profile_options po;
    po.pool = &pool_;
    auto fresh = std::make_unique<graph_profile>(profile(g, po));
    bool inserted = false;
    const graph_profile* out = nullptr;
    {
        std::unique_lock<std::mutex> lk(mu_);
        auto [it, ins] = profiles_.emplace(&g, std::move(fresh));
        inserted = ins;
        if (ins) ++fresh_profiles_;
        out = it->second.get();
    }
    // Persist outside mu_ (the cache has its own lock; keep file IO out of
    // the hot map lock). Racing losers were discarded above — not stored.
    if (inserted && disk != nullptr && !key.empty()) {
        disk->store(key, *out);
    }
    return *out;
}

void scenario_runner::set_profile_cache(const std::string& path) {
    std::unique_lock<std::mutex> lk(mu_);
    disk_cache_ = std::make_unique<profile_cache>(path);
}

std::size_t scenario_runner::fresh_profiles() const {
    std::unique_lock<std::mutex> lk(mu_);
    return fresh_profiles_;
}

std::size_t scenario_runner::cached_graphs() const {
    std::unique_lock<std::mutex> lk(mu_);
    return graphs_.size();
}

std::size_t scenario_runner::cached_profiles() const {
    std::unique_lock<std::mutex> lk(mu_);
    return profiles_.size();
}

// --- scenario execution ------------------------------------------------------

scenario_result scenario_runner::make_result(const scenario& s) {
    scenario_result out;
    out.kind = kind_of(s.algo);
    out.topology = &materialize(s.topology);
    out.profile = profile_for(*out.topology);
    out.label = s.label.empty()
                    ? out.topology->name() + "/" + to_string(out.kind)
                    : s.label;
    out.runs.resize(std::max<std::size_t>(s.repetitions, 1));
    return out;
}

scenario_result scenario_runner::run(const scenario& s) {
    return std::move(run_batch({s}).front());
}

std::vector<scenario_result> scenario_runner::run_batch(
    const std::vector<scenario>& batch) {
    std::vector<scenario_result> results;
    run_stream(
        1, [&](std::size_t) { return batch; },
        [&](std::size_t, std::vector<scenario_result> done) { results = std::move(done); });
    return results;
}

// --- streaming batches -------------------------------------------------------

// One admitted batch. `remaining` counts its preparation job plus one job
// per (scenario, repetition); the job that takes it to zero marks the batch
// done. remaining and done are guarded by stream_mu_.
struct scenario_runner::stream_batch {
    std::vector<scenario> scenarios;
    std::vector<scenario_result> results;
    std::exception_ptr error;
    std::size_t remaining = 1;
    bool done = false;
};

void scenario_runner::finish_job(stream_batch& b) {
    // Notifying under the lock: once the waiter sees `done`, no job
    // touches b again.
    std::unique_lock<std::mutex> lk(stream_mu_);
    if (--b.remaining == 0) {
        b.done = true;
        stream_cv_.notify_all();
    }
}

void scenario_runner::prepare_batch(stream_batch& b, const batch_prepare& prepare,
                                    std::size_t index) {
    // (scenario, repetition) pairs to submit. Kept here, not read back
    // from b, because b may be consumed as soon as the last one finishes.
    std::vector<std::pair<std::size_t, std::size_t>> runs;
    try {
        b.scenarios = prepare(index);
        // Materialize every topology (dedups via the cache), then profile
        // the distinct ones in parallel — spectral + mixing estimation
        // dominates a cold batch. parallel_for helps, so it is safe here.
        std::vector<const graph*> order;
        std::set<const graph*> distinct;
        for (const auto& s : b.scenarios) {
            const graph* g = &materialize(s.topology);
            if (distinct.insert(g).second) order.push_back(g);
        }
        std::vector<std::exception_ptr> failed(order.size());
        pool_.parallel_for(order.size(), [&](std::size_t i) {
            try {
                (void)profile_for(*order[i]);
            } catch (...) {
                failed[i] = std::current_exception();
            }
        });
        for (const std::exception_ptr& e : failed) {
            if (e) std::rethrow_exception(e);
        }
        b.results.reserve(b.scenarios.size());
        for (std::size_t i = 0; i < b.scenarios.size(); ++i) {
            b.results.push_back(make_result(b.scenarios[i]));
            for (std::size_t r = 0; r < b.results[i].runs.size(); ++r) runs.emplace_back(i, r);
        }
    } catch (...) {
        b.error = std::current_exception();
        runs.clear();
    }
    {
        std::unique_lock<std::mutex> lk(stream_mu_);
        b.remaining += runs.size();
    }
    for (const auto& [i, r] : runs) {
        pool_.submit([this, &b, i, r] {
            // Engines built inside the drivers inherit the ambient
            // parallelism; rounds shard over this same pool (helping
            // waits make the nesting deadlock-free).
            scoped_engine_parallelism par(engine_parallelism{&pool_, node_jobs_});
            const scenario& s = b.scenarios[i];
            scenario_result& res = b.results[i];
            res.runs[r] = run_once(*res.topology, res.profile, s.algo, s.seed + r,
                                   s.dynamics);
            finish_job(b);
        });
    }
    finish_job(b);
}

void scenario_runner::run_stream(std::size_t count, const batch_prepare& prepare,
                                 const batch_consume& consume) {
    // Admitted, not yet consumed, in index order. A deque keeps the
    // elements the jobs hold references to in place as it grows.
    std::deque<stream_batch> flight;
    std::size_t admitted = 0;
    const auto wait_done = [&](const stream_batch& b) {
        std::unique_lock<std::mutex> lk(stream_mu_);
        stream_cv_.wait(lk, [&] { return b.done; });
    };

    std::exception_ptr failure;
    for (std::size_t next = 0; next < count; ++next) {
        for (; admitted < count && admitted < next + jobs(); ++admitted) {
            stream_batch& b = flight.emplace_back();
            pool_.submit([this, &b, &prepare, index = admitted] {
                prepare_batch(b, prepare, index);
            });
        }
        stream_batch& b = flight.front();
        wait_done(b);
        failure = b.error;
        if (!failure) {
            try {
                consume(next, std::move(b.results));
            } catch (...) {
                failure = std::current_exception();
            }
        }
        if (failure) break;
        flight.pop_front();
    }
    if (failure) {
        for (const stream_batch& b : flight) wait_done(b);
        std::rethrow_exception(failure);
    }
}

}  // namespace anole
