// Lemma 1: cautious broadcast costs Õ(x·tmix) messages, informs
// Ω̃(x·tmix·Φ) nodes, in O(tmix·log n) time. Two tables:
//
// E7 — single-source runs with the cap swept over x (the walk-count
// parameter that sets cap = x·tmix·Φ). Reported per x: territory size vs
// the cap (the Ω̃(x·tmix·Φ) claim), messages vs territory (the Õ(...)
// claim: messages/territory should stay polylog-flat), against a naive
// flood.
//
// E11 — ablation of the design choices the paper's §4 highlights:
//   prose     — threshold-triggered reports (our default; Lemma 1 shape)
//   literal   — Algorithm 4 line 24 as printed: report every round
//   no-cap    — prose machinery, unbounded territory
//   naive     — uncautious flood (extend on all ports, no throttle)
#include "bench/common.h"

using namespace anole;
using namespace anole::bench;

namespace {

sample_stats territories(const scenario_result& res) {
    sample_stats s;
    for (const auto& run : res.runs) {
        if (run.ok) {
            s.add(static_cast<double>(std::get<cb_result>(run.detail).territory));
        }
    }
    return s;
}

// Uncautious flood: reaches everyone, costs Θ(m) at least.
cautious_cfg naive_flood() {
    cautious_cfg naive;
    naive.config.naive = true;
    return naive;
}

// E7: territory and messages against the cap, swept over x.
int cap_sweep(const options& opt, scenario_runner& runner) {
    const std::size_t seeds = opt.seeds_or(3);
    graph g = opt.quick ? make_torus(12, 12) : make_torus(24, 24);

    std::vector<cautious_cfg> cfgs;
    for (double x : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
        cautious_cfg cfg;
        cfg.cap_x = x;
        cfgs.push_back(cfg);
    }
    std::vector<scenario> batch;
    for (const cautious_cfg& cfg : cfgs) {
        batch.push_back(scenario{"", &g, cfg, 1300, seeds});
    }
    const auto results = runner.run_batch(batch);
    const graph_profile& prof = results[0].profile;

    text_table t({"x", "cap=x*tmix*phi", "territory", "terr/cap", "messages",
                  "msgs/territory"});
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        // The cap the runs used: max(2, ⌈x·tmix·Φ⌉).
        const std::uint64_t cap = scenario_runner::fill(cfgs[i], prof).cap;
        const sample_stats terr = territories(results[i]);
        const sample_stats msgs = results[i].messages();
        t.add_row({fmt_fixed(cfgs[i].cap_x, 0), std::to_string(cap),
                   fmt_fixed(terr.mean(), 1),
                   fmt_fixed(terr.mean() / static_cast<double>(cap), 2),
                   fmt_mean_sd(msgs),
                   fmt_fixed(msgs.mean() / std::max(terr.mean(), 1.0), 1)});
    }
    emit(t, opt, "E7: cautious broadcast on " + g.name() +
                     " (tmix=" + std::to_string(prof.mixing_time) +
                     ", phi=" + fmt_fixed(prof.conductance, 4) + ")");

    const auto nf = runner.run(scenario{"", &g, naive_flood(), 1400, 1});
    if (!nf.runs[0].ok) {
        std::fprintf(stderr, "naive flood run failed: %s\n",
                     nf.runs[0].error.c_str());
        return 1;
    }
    const auto& nfr = std::get<cb_result>(nf.runs[0].detail);
    std::printf("\nnaive flood: territory=%zu (all %zu), messages=%llu"
                " (>= m = %zu)\n",
                nfr.territory, g.num_nodes(),
                static_cast<unsigned long long>(nfr.totals.messages),
                g.num_edges());
    std::printf("Shape checks: territory tracks cap (terr/cap ~ 1); "
                "msgs/territory stays polylog-flat as x grows (Lemma 1).\n");
    return 0;
}

// E11: the four design arms at cap = 8·tmix·Φ.
void ablation(const options& opt, scenario_runner& runner) {
    const std::size_t seeds = opt.seeds_or(3);
    std::vector<graph> graphs;
    graphs.push_back(opt.quick ? make_torus(10, 10) : make_torus(20, 20));
    if (!opt.quick) graphs.push_back(make_random_regular(400, 4, 1));

    cautious_cfg prose;
    prose.cap_x = 8.0;
    cautious_cfg literal = prose;
    literal.config.report_every_round = true;
    const std::vector<std::pair<const char*, cautious_cfg>> arms = {
        {"prose (default)", prose},
        {"literal pseudocode", literal},
        {"no cap", cautious_cfg{}},  // cap stays UINT64_MAX
        {"naive flood", naive_flood()}};

    std::vector<scenario> batch;
    for (const graph& g : graphs) {
        for (const auto& arm : arms) {
            batch.push_back(scenario{"", &g, arm.second, 1800, seeds});
        }
    }
    const auto results = runner.run_batch(batch);

    text_table t({"graph", "arm", "territory", "messages", "bits",
                  "msgs/territory"});
    std::size_t idx = 0;
    for (const graph& g : graphs) {
        for (const auto& arm : arms) {
            const auto& res = results[idx++];
            const sample_stats terr = territories(res);
            const sample_stats msgs = res.messages();
            t.add_row({g.name(), arm.first, fmt_fixed(terr.mean(), 0),
                       fmt_mean_sd(msgs),
                       fmt_count(static_cast<std::uint64_t>(res.bits().mean())),
                       fmt_fixed(msgs.mean() / std::max(terr.mean(), 1.0), 1)});
        }
    }

    emit(t, opt, "E11: cautious-broadcast ablation (cap = 8*tmix*phi)");
    std::printf("\nShape checks: 'literal' pays a large msgs/territory factor"
                "\n(every-round size reports — docs/ALGORITHMS.md deviation 1);"
                "\n'no cap' grows the territory unboundedly; 'naive' reaches"
                "\neveryone but costs >= m messages. 'prose' keeps messages"
                "\nnear-linear in territory (Lemma 1).\n");
}

}  // namespace

int main(int argc, char** argv) {
    const options opt = options::parse(argc, argv);
    scenario_runner runner = opt.make_runner();
    if (cap_sweep(opt, runner) != 0) return 1;
    ablation(opt, runner);
    return 0;
}
