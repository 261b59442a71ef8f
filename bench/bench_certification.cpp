// E10 — Lemmas 6-8: the certification-phase detection machinery.
//
// Runs the full Revocable LE protocol (faithful parameters, tiny n) over
// many seeds and inspects the per-estimate traces:
//   Lemma 6: once k^{1+ε} >= 2n+1, a strict majority of iterations have
//            no white node;
//   Lemma 7: no estimate with k^{1+ε}·log(4k) < n mints an ID (some node
//            holds out while k is low — here we check the aggregate);
//   Lemma 8: for 2n+1 <= k^{1+ε} <= 4n some iteration detects a white.
#include "bench/common.h"

#include <cmath>
#include <map>

using namespace anole;
using namespace anole::bench;

int main(int argc, char** argv) {
    const options opt = options::parse(argc, argv);
    const std::size_t seeds = opt.seeds_or(opt.quick ? 3 : 6);
    scenario_runner runner = opt.make_runner();

    std::vector<std::size_t> ns = opt.quick ? std::vector<std::size_t>{4}
                                            : std::vector<std::size_t>{3, 4, 5};

    std::vector<graph> graphs;
    std::vector<scenario> batch;
    for (std::size_t n : ns) {
        graphs.push_back(n == 3 ? make_path(3) : make_cycle(n));
    }
    for (const graph& g : graphs) {
        revocable_cfg rc;
        rc.params = revocable_params::paper_faithful();
        rc.max_rounds = 120'000'000;
        batch.push_back(scenario{"", &g, rc, 1700, seeds});
    }
    const auto results = runner.run_batch(batch);

    text_table t({"n", "k", "K=k^2", "regime", "empty/iters", "probing/iters",
                  "chose here", "expected"});

    for (std::size_t i = 0; i < graphs.size(); ++i) {
        const graph& g = graphs[i];

        // Aggregate the per-estimate traces over all repetitions.
        std::map<std::uint64_t, revocable_node::estimate_trace> agg;
        for (const auto& run : results[i].runs) {
            if (!run.ok) continue;
            const auto& r = std::get<revocable_result>(run.detail);
            for (const auto& [k, tr] : r.traces) {
                auto& a = agg[k];
                a.empty_iterations += tr.empty_iterations;
                a.probing_iterations += tr.probing_iterations;
                a.iterations += tr.iterations;
                a.chose_here = a.chose_here || tr.chose_here;
            }
        }
        const double nn = static_cast<double>(g.num_nodes());
        for (const auto& [k, tr] : agg) {
            const double kk = static_cast<double>(k) * static_cast<double>(k);
            const char* regime = kk < 2 * nn + 1
                                     ? "low (k^2 < 2n+1)"
                                     : (kk <= 4 * nn ? "critical (Lemma 8)"
                                                     : "high (Lemma 6)");
            const bool low_k = kk * std::log2(4.0 * static_cast<double>(k)) < nn;
            const char* expected =
                low_k ? "no IDs (Lemma 7)"
                      : (kk >= 2 * nn + 1 ? "majority empty + whites seen"
                                          : "transition");
            t.add_row({std::to_string(g.num_nodes()), std::to_string(k),
                       fmt_fixed(kk, 0), regime,
                       std::to_string(tr.empty_iterations) + "/" +
                           std::to_string(tr.iterations),
                       std::to_string(tr.probing_iterations) + "/" +
                           std::to_string(tr.iterations),
                       tr.chose_here ? "yes" : "no", expected});
        }
    }

    emit(t, opt, "E10: certification-phase detection (Lemmas 6-8, faithful params)");
    std::printf("\nShape checks: 'high' rows have empty > iters/2 (Lemma 6);"
                "\nrows with k^2 log(4k) < n never mint IDs (Lemma 7);"
                "\n'critical' rows keep probing > 0, i.e. whites were seen and"
                "\npotentials passed tau (Lemmas 5+8), enabling the choice.\n");
    return 0;
}
