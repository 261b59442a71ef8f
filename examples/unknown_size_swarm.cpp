// unknown_size_swarm — Revocable Leader Election when nobody knows how
// many robots are in the swarm.
//
//   $ ./unknown_size_swarm [n] [seed]
//
// The deployment scenario from the paper's §5: a swarm whose size is
// unknown (nodes cannot even draw safe unique IDs). Irrevocable election
// is *impossible* here (Theorem 2 — see the bench_impossibility demo), so
// the swarm runs Blind Leader Election with Certificates via Diffusion
// with Thresholds: leadership may be revoked while the size estimate k
// grows, and stabilizes once the estimate certifies against the real n.
// The example narrates the estimate ladder and the revocation history.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "graph/generators.h"
#include "sim/runner.h"
#include "util/table.h"

int main(int argc, char** argv) {
    const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 24;
    const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 3;

    // A sparse ad-hoc mesh; nobody is told n.
    const anole::graph mesh = anole::make_erdos_renyi(
        n, 4.0 * std::log(static_cast<double>(n)) / static_cast<double>(n), seed);
    std::printf("swarm: %zu robots (size UNKNOWN to them), %zu radio links\n",
                mesh.num_nodes(), mesh.num_edges());

    // Scaled parameter policy (the faithful Theorem 3 lengths are
    // poly(n^8) rounds — see docs/ALGORITHMS.md §5.2 and "Documented
    // deviations"); same control flow and functional
    // forms, shorter phases.
    anole::revocable_cfg cfg;
    cfg.params = anole::revocable_params::scaled(std::nullopt, 0.02, 0.12);
    cfg.max_rounds = 120'000'000;

    anole::scenario_runner runner;
    const auto res =
        runner.run(anole::scenario{"swarm", &mesh, cfg, seed, 1});
    if (!res.runs[0].ok) {
        std::printf("run failed: %s\n", res.runs[0].error.c_str());
        return 1;
    }
    const auto& r = std::get<anole::revocable_result>(res.runs[0].detail);

    anole::text_table t({"estimate k", "certification iters", "no-white iters",
                         "probing iters", "IDs minted here"});
    for (const auto& [k, tr] : r.traces) {
        t.add_row({std::to_string(k),
                   std::to_string(tr.iterations),
                   std::to_string(tr.empty_iterations),
                   std::to_string(tr.probing_iterations),
                   tr.chose_here ? "yes" : "no"});
    }
    std::printf("\nestimate ladder (k doubles until certificates hold):\n");
    t.print(std::cout);

    std::printf("\noutcome: %s\n", r.success ? "unique stable leader" : "FAILED");
    std::printf("  leader ID %llu certified at estimate k=%llu (true n = %zu)\n",
                static_cast<unsigned long long>(r.leader_id),
                static_cast<unsigned long long>(r.leader_certificate), n);
    std::printf("  %zu/%zu robots minted IDs; %llu leadership revocations"
                " before quiescence\n",
                r.nodes_chose, mesh.num_nodes(),
                static_cast<unsigned long long>(r.total_revocations));
    std::printf("  views stable from round %llu of %llu"
                " (%llu CONGEST-charged rounds, %llu messages)\n",
                static_cast<unsigned long long>(r.stable_round),
                static_cast<unsigned long long>(r.rounds),
                static_cast<unsigned long long>(r.totals.congest_rounds),
                static_cast<unsigned long long>(r.totals.messages));
    std::printf("\nWhy revocable? No algorithm can elect-and-stop without"
                " knowing n (Theorem 2): run ./impossibility_walkthrough to"
                " watch a stopping algorithm elect two leaders.\n");
    return r.success ? 0 : 1;
}
