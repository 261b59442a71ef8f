// Lemma 2: x = Θ̃(√(n·log n/(Φ·tmix))) walks suffice for the maximum-ID
// candidate to hit every territory whp. Two tables:
//
// E8 — sweeps the walk multiplier x_mult around 1.0 and reports the
// election success rate and the rate of "max candidate not heard by some
// candidate" failures. Claimed shape: a sharp transition — under-
// provisioned walks miss territories, the paper's x saturates success.
//
// E12 — a (x_mult, walk_len_mult) grid on a torus: election outcome rate
// and message cost. The paper's corner (1.0, 1.0) must sit in the
// reliable region; shrinking either knob must eventually break
// correctness — hitting needs both enough walks and mixed walks.
#include "bench/common.h"

using namespace anole;
using namespace anole::bench;

namespace {

// One provisioning row: an irrevocable config on a graph.
struct row {
    const graph* g;
    irrevocable_cfg cfg;
};

irrevocable_cfg provisioned(double x_mult, double len_mult) {
    irrevocable_cfg cfg;
    cfg.params.x_mult = x_mult;
    cfg.params.walk_len_mult = len_mult;
    return cfg;
}

// A row's outcomes, and the walk count and length its runs used (the
// auto-filled params).
struct row_result {
    scenario_result res;
    irrevocable_params params;
};

std::vector<row_result> run_rows(scenario_runner& runner, const std::vector<row>& rows,
                                 std::uint64_t seed, std::size_t seeds) {
    std::vector<scenario> batch;
    for (const row& r : rows) batch.push_back(scenario{"", r.g, r.cfg, seed, seeds});
    std::vector<scenario_result> results = runner.run_batch(batch);
    warn_errors(results);
    std::vector<row_result> out;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const irrevocable_params p =
            scenario_runner::fill(rows[i].cfg.params, results[i].profile);
        out.push_back({std::move(results[i]), p});
    }
    return out;
}

std::string of(std::size_t count, std::size_t seeds) {
    return std::to_string(count) + "/" + std::to_string(seeds);
}

// E8: walk provisioning vs election outcome, in two regimes.
void provisioning(const options& opt, scenario_runner& runner) {
    const std::size_t seeds = opt.seeds_or(8);
    std::vector<graph> graphs;
    graphs.push_back(opt.quick ? make_torus(10, 10) : make_torus(16, 16));
    if (!opt.full && !opt.quick) graphs.push_back(make_random_regular(256, 4, 1));
    if (opt.full) {
        graphs.push_back(make_random_regular(512, 4, 1));
        graphs.push_back(make_hypercube(8));
    }

    // Two regimes: the paper's own candidate density (overlapping
    // territories cover for missing walks at these scales — the bench's
    // first finding is the provisioning's safety margin), and a stressed
    // regime (sparse candidates, stunted walks) where territories are
    // disjoint and Lemma 2's transition becomes visible.
    struct regime {
        const char* name;
        double cand_c;
        double len_mult;
    };
    const std::vector<regime> regimes = {{"paper", 1.0, 1.0},
                                         {"stressed", 0.5, 0.05}};
    const std::vector<double> mults = {0.05, 0.25, 1.0, 2.0};

    std::vector<row> rows;
    std::vector<const char*> names;
    for (const graph& g : graphs) {
        for (const regime& r : regimes) {
            for (double mult : mults) {
                irrevocable_cfg cfg = provisioned(mult, r.len_mult);
                cfg.params.cand_c = r.cand_c;
                rows.push_back({&g, cfg});
                names.push_back(r.name);
            }
        }
    }
    const auto results = run_rows(runner, rows, 1500, seeds);

    text_table t({"graph", "regime", "x_mult", "x(walks)", "unique leader",
                  "multi leader", "no leader"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto oc = count_outcomes(results[i].res);
        const irrevocable_params& p = results[i].params;
        t.add_row({rows[i].g->name(), names[i], fmt_fixed(p.x_mult, 2),
                   std::to_string(p.x()), of(oc.unique, seeds), of(oc.multi, seeds),
                   of(oc.none, seeds)});
    }

    emit(t, opt, "E8: walk provisioning vs election outcome (Lemma 2)");
    std::printf("\nShape checks: in the paper regime even tiny x succeeds —"
                "\noverlapping territories plus the convergecast give a large"
                "\nsafety margin at these scales. In the stressed regime"
                "\n(sparse candidates, stunted walks, disjoint territories)"
                "\nmulti-leader failures appear at small x_mult and recede as"
                "\nx grows — Lemma 2's transition.\n");
}

// E12: the (x_mult, walk_len_mult) sensitivity grid.
void sensitivity(const options& opt, scenario_runner& runner) {
    const std::size_t seeds = opt.seeds_or(opt.quick ? 4 : 6);
    graph g = opt.quick ? make_torus(10, 10) : make_torus(14, 14);

    std::vector<row> rows;
    for (double xm : {0.1, 0.5, 1.0}) {
        for (double lm : {0.05, 0.5, 1.0}) rows.push_back({&g, provisioned(xm, lm)});
    }
    const auto results = run_rows(runner, rows, 1900, seeds);

    text_table t({"x_mult", "len_mult", "x", "walk len", "unique", "multi",
                  "none", "messages"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto oc = count_outcomes(results[i].res);
        const irrevocable_params& p = results[i].params;
        t.add_row({fmt_fixed(p.x_mult, 2), fmt_fixed(p.walk_len_mult, 2),
                   std::to_string(p.x()), std::to_string(p.walk_len()),
                   of(oc.unique, seeds), of(oc.multi, seeds), of(oc.none, seeds),
                   fmt_mean_sd(results[i].res.messages())});
    }

    emit(t, opt, "E12: (x, walk length) sensitivity grid on " + g.name());
    std::printf("\nShape checks: the (1.0, 1.0) paper corner is reliably"
                "\nunique; multi-leader rates rise toward the (0.1, 0.05)"
                "\ncorner; messages scale ~ x_mult * len_mult in the walk"
                "\nphase.\n");
}

}  // namespace

int main(int argc, char** argv) {
    const options opt = options::parse(argc, argv);
    scenario_runner runner = opt.make_runner();
    provisioning(opt, runner);
    sensitivity(opt, runner);
    return 0;
}
