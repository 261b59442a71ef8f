// E6 — Theorem 3 / Corollary 1: Revocable LE complexity, both rows.
//
// Part 1 (faithful): paper parameters verbatim on tiny graphs — blind vs
// known-i(G); congest_rounds shows the bit-by-bit charging of Theorem 3's
// time analysis.
// Part 2 (scaled): same control flow, scaled phase lengths (documented
// substitution) across families and sizes: time-to-stable-leader,
// messages, revocations, and the blind/informed ratio whose shape is
// (n·i(G)/2)² per the two bounds.
#include "bench/common.h"

using namespace anole;
using namespace anole::bench;

namespace {

// Revocable-specific aggregates pulled from the detailed results.
struct rev_aggregates {
    sample_stats revocations, nodes_chose;
    std::uint64_t final_k = 0;
};

rev_aggregates aggregate(const scenario_result& res) {
    rev_aggregates a;
    for (const auto& run : res.runs) {
        if (!run.ok) continue;
        const auto& r = std::get<revocable_result>(run.detail);
        a.revocations.add(static_cast<double>(r.total_revocations));
        a.nodes_chose.add(static_cast<double>(r.nodes_chose));
        a.final_k = std::max(a.final_k, r.final_estimate);
    }
    return a;
}

}  // namespace

int main(int argc, char** argv) {
    const options opt = options::parse(argc, argv);
    const std::size_t seeds = opt.seeds_or(3);
    scenario_runner runner = opt.make_runner();

    {
        struct cfg {
            graph g;
            bool informed;
        };
        std::vector<cfg> cases;
        cases.push_back({make_cycle(4), false});
        cases.push_back({make_cycle(4), true});
        if (!opt.quick) {
            cases.push_back({make_complete(6), true});
            cases.push_back({make_path(4), true});
        }

        std::vector<scenario> batch;
        for (const auto& [g, informed] : cases) {
            revocable_cfg rc;
            rc.params = revocable_params::paper_faithful();
            rc.auto_isoperimetric = informed;  // profile i(G) is exact here
            rc.max_rounds = 120'000'000;
            batch.push_back(scenario{"", &g, rc, 1100, seeds});
        }
        const auto results = runner.run_batch(batch);

        text_table t({"graph", "mode", "ok", "rounds", "congest rounds",
                      "messages", "final k", "revocations"});
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const auto& res = results[i];
            const auto agg = aggregate(res);
            t.add_row({cases[i].g.name(), cases[i].informed ? "i(G) known" : "blind",
                       res.success_ratio(), fmt_mean_sd(res.rounds()),
                       fmt_mean_sd(res.congest_rounds()), fmt_mean_sd(res.messages()),
                       std::to_string(agg.final_k),
                       fmt_fixed(agg.revocations.mean(), 1)});
        }
        emit(t, opt, "E6a: faithful paper parameters (tiny n)");
    }

    {
        struct row {
            graph_family family;
            std::size_t n;
        };
        std::vector<row> plan;
        if (opt.quick) {
            plan = {{graph_family::cycle, 8}, {graph_family::torus, 16}};
        } else {
            plan = {{graph_family::cycle, 8},      {graph_family::cycle, 16},
                    {graph_family::cycle, 32},     {graph_family::torus, 16},
                    {graph_family::torus, 36},     {graph_family::complete, 16},
                    {graph_family::random_regular, 32},
                    {graph_family::star, 16},      {graph_family::erdos_renyi, 32}};
        }

        std::vector<scenario> batch;
        for (const auto& [fam, n] : plan) {
            for (int informed = 0; informed < 2; ++informed) {
                revocable_cfg rc;
                rc.params = revocable_params::scaled(std::nullopt, 0.02, 0.12);
                // A scaled run that never certifies would climb the k
                // ladder forever (each estimate ~100x dearer): cap it so
                // failures are reported, not waited for.
                rc.params.k_cap = 64;
                rc.auto_isoperimetric = informed != 0;
                batch.push_back(
                    scenario{"", family_spec{fam, n, 3}, rc, 1200, seeds});
            }
        }
        const auto results = runner.run_batch(batch);

        text_table t({"family", "n", "mode", "ok", "rounds", "messages",
                      "revocations", "nodes chose"});
        std::size_t idx = 0;
        for (const auto& [fam, n] : plan) {
            (void)n;
            for (int informed = 0; informed < 2; ++informed) {
                const auto& res = results[idx++];
                const auto agg = aggregate(res);
                t.add_row({to_string(fam), std::to_string(res.profile.n),
                           informed ? "i(G)" : "blind", res.success_ratio(),
                           fmt_mean_sd(res.rounds()), fmt_mean_sd(res.messages()),
                           fmt_fixed(agg.revocations.mean(), 1),
                           fmt_fixed(agg.nodes_chose.mean(), 1)});
            }
        }
        emit(t, opt, "E6b: scaled policy across families (substituted lengths)");
    }

    std::printf("\nShape checks: informed <= blind in rounds and messages;"
                "\nmessages/round ~ 2m (every node broadcasts every round);"
                "\nrevocations > 0 then quiescence (success requires it).\n");
    return 0;
}
