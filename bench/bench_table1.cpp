// E1 — Table 1, regenerated empirically.
//
// The paper's Table 1 is a complexity landscape: messages and time of
// randomized implicit LE under different knowledge assumptions. This
// harness measures every implementable row on a spread of topologies and
// prints measured counts next to the claimed asymptotic forms, plus the
// measured/predicted ratio (the "constant"); the *shape* claims to check:
//
//   row A (knows n, D)      flood-max:            Θ(m)-class msgs, O(D) time
//   row B (knows n, Φ, tmix) ours [this paper]:   Õ(√(n·tmix/Φ)) msgs,
//                                                 O(tmix·log² n) time
//   row C (knows n)         Gilbert et al. style: O(tmix·√n·log^{7/2}n) msgs
//   row D (knows nothing)   revocable [this paper]: poly(n)·m msgs (scaled)
//   row E (knows i(G))      revocable w/ i(G):    smaller poly (scaled)
#include "bench/common.h"

#include <cmath>

using namespace anole;
using namespace anole::bench;

int main(int argc, char** argv) {
    const options opt = options::parse(argc, argv);
    const std::size_t seeds = opt.seeds_or(3);
    scenario_runner runner = opt.make_runner();

    std::vector<graph> graphs;
    if (opt.quick) {
        graphs.push_back(make_random_regular(128, 4, 1));
        graphs.push_back(make_torus(8, 8));
    } else {
        graphs.push_back(make_random_regular(512, 4, 1));
        graphs.push_back(make_hypercube(9));
        graphs.push_back(make_torus(16, 16));
        graphs.push_back(make_torus(8, 8));
        graphs.push_back(make_complete(128));
        graphs.push_back(make_ring_of_cliques(16, 8));
        graphs.push_back(make_cycle(64));
    }

    // Row metadata carried alongside each scenario, in batch order.
    struct row_info {
        const char* row;
        const char* knows;
        const char* claimed;
        // Predicted message count for the measured/predicted column; the
        // profile is only known after the batch ran, so this is a
        // function of it. 0 = no prediction.
        double (*predicted)(const graph_profile&);
    };
    std::vector<scenario> batch;
    std::vector<row_info> info;

    const auto add = [&](const graph& g, algo_config cfg, row_info ri) {
        scenario s;
        s.topology = &g;
        s.algo = std::move(cfg);
        s.repetitions = seeds;
        batch.push_back(std::move(s));
        info.push_back(ri);
    };

    for (const graph& g : graphs) {
        // Row A: flood-max. Row B: this paper, irrevocable. Row C:
        // Gilbert-style walks. Model inputs (n, D, tmix, Φ) are filled in
        // by the runner from the measured profile.
        add(g, flood_cfg{}, {"A", "n,D", "O(m)", [](const graph_profile& p) {
                                return static_cast<double>(p.m);
                            }});
        add(g, irrevocable_cfg{},
            {"B", "n,phi,tmix", "O~(sqrt(n tmix/phi))", [](const graph_profile& p) {
                 return std::sqrt(static_cast<double>(p.n) *
                                  static_cast<double>(
                                      std::max<std::uint64_t>(p.mixing_time, 1)) /
                                  p.conductance);
             }});
        add(g, gilbert_cfg{},
            {"C", "n", "O(tmix sqrt(n) log^3.5 n)", [](const graph_profile& p) {
                 return static_cast<double>(std::max<std::uint64_t>(p.mixing_time, 1)) *
                        std::sqrt(static_cast<double>(p.n)) *
                        std::pow(std::log2(static_cast<double>(p.n)), 3.5);
             }});
    }
    // Seed bases match the historical per-row values (A: 100+s, ...).
    for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i].seed = 100 * (1 + i % 3);
    }

    // The A-C batch profiles every distinct graph in parallel (the
    // expensive spectral + mixing step) before fanning the runs out.
    auto results = runner.run_batch(batch);

    // Rows D/E: revocable (scaled policy; see docs/ALGORITHMS.md deviations)
    // only on small well-connected graphs — poly(n)·m message volume is
    // intrinsic (Theorem 3's content), and blind-mode diffusion
    // additionally grows with 1/i_eff² (Corollary 1). The dedicated sweep
    // is bench_revocable. Eligibility reads the profiles the first batch
    // already computed (3 rows per graph, so graph i sits at results[3i]).
    std::vector<scenario> de_batch;
    std::vector<row_info> de_info;
    if (!opt.quick) {
        for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
            const auto& prof = results[3 * gi].profile;
            if (prof.n > 64 || prof.conductance <= 0.05) continue;
            for (int informed = 0; informed < 2; ++informed) {
                revocable_cfg rc;
                rc.params = revocable_params::scaled(std::nullopt, 0.02, 0.12);
                rc.params.k_cap = 32;
                rc.auto_isoperimetric = informed != 0;
                scenario s;
                s.topology = &graphs[gi];
                s.algo = rc;
                s.seed = 400;
                s.repetitions = seeds;
                de_batch.push_back(std::move(s));
                de_info.push_back({informed ? "E" : "D", informed ? "i(G)" : "-",
                                   informed ? "O~(n^4(1+e)/i^2 m) scaled"
                                            : "O~(n^4(2+e) m) scaled",
                                   nullptr});
            }
        }
    }
    auto de_results = runner.run_batch(de_batch);
    results.insert(results.end(), std::make_move_iterator(de_results.begin()),
                   std::make_move_iterator(de_results.end()));
    info.insert(info.end(), de_info.begin(), de_info.end());

    text_table t({"graph", "n", "m", "tmix", "phi", "row", "knows", "claimed",
                  "messages", "rounds", "ok", "msg/claim"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& res = results[i];
        const auto& ri = info[i];
        const double predicted = ri.predicted ? ri.predicted(res.profile) : 0.0;
        const auto msgs = res.messages();
        t.add_row({res.topology->name(), std::to_string(res.profile.n),
                   std::to_string(res.profile.m),
                   std::to_string(res.profile.mixing_time),
                   fmt_fixed(res.profile.conductance, 4), ri.row, ri.knows,
                   ri.claimed, fmt_mean_sd(msgs),
                   fmt_count(static_cast<std::uint64_t>(res.rounds().mean())),
                   res.success_ratio(),
                   predicted > 0 ? fmt_fixed(msgs.mean() / predicted, 2) : "-"});
    }

    emit(t, opt, "Table 1 (measured): randomized implicit LE, CONGEST");
    std::printf(
        "\nShape checks: (B) beats (C) in messages on every well-connected row;"
        "\n(A) is cheapest on sparse graphs and loses to (B) on dense ones"
        "\n(see bench_conductance_sweep for the crossover); (E) <= (D).\n");
    return 0;
}
