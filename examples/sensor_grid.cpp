// sensor_grid — the paper's motivating scenario: a massive ad-hoc sensor
// deployment (IoT) needs one coordinator, but the cheap sensors shipped
// without serial numbers. The field is a torus-shaped radio grid.
//
//   $ ./sensor_grid [side] [seed]
//
// After the election, the example *uses* the leader the way applications
// do: the elected node announces its ID (run_announce, the explicit
// upgrade of the implicit election), every sensor learns its hop
// distance to the coordinator from the BFS tree the announcement builds,
// and we print the resulting coverage rings. Exits 1 if the election
// fails or some sensor is left out of the tree.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/irrevocable.h"
#include "core/post_election.h"
#include "graph/generators.h"
#include "sim/runner.h"
#include "util/table.h"

int main(int argc, char** argv) {
    const std::size_t side = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20;
    const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

    const anole::graph field = anole::make_torus(side, side);
    anole::scenario_runner runner;
    const auto& prof = runner.profile_for(field);
    std::printf("sensor field: %zu sensors on a %zux%zu torus (anonymous)\n",
                field.num_nodes(), side, side);

    // --- phase 1: elect the coordinator ---
    // The runner fills the model inputs (n, tmix, Φ) from the profile.
    const auto result = runner.run(
        anole::scenario{"election", &field, anole::irrevocable_cfg{}, seed, 1});
    if (!result.runs[0].ok) {
        std::printf("election run failed: %s\n", result.runs[0].error.c_str());
        return 1;
    }
    const auto& election =
        std::get<anole::irrevocable_result>(result.runs[0].detail);
    if (!election.success) {
        std::printf("election failed for this seed (whp event) — retry\n");
        return 1;
    }
    std::printf("election: %zu candidates competed, unique coordinator chosen"
                " in %llu rounds / %llu messages\n",
                election.num_candidates,
                static_cast<unsigned long long>(election.rounds),
                static_cast<unsigned long long>(election.totals.messages));

    // --- phase 2: the coordinator structures the field ---
    // The driver reports the leader's vertex, which roots the announcement
    // wave (core/post_election.h; the wave itself is again fully
    // anonymous). It doubles as a BFS tree: each sensor's depth is its
    // hop distance to the coordinator.
    const anole::announce_result beacon =
        anole::run_announce(field, election.leader_node, election.leader_id,
                            prof.diameter, seed + 1);

    std::vector<std::size_t> ring_count(beacon.tree_depth + 1, 0);
    for (const std::uint32_t d : beacon.depths) ++ring_count[d];

    anole::text_table t({"hops from coordinator", "sensors"});
    for (std::uint32_t d = 0; d <= beacon.tree_depth; ++d) {
        t.add_row({std::to_string(d), std::to_string(ring_count[d])});
    }
    std::printf("\ncoverage rings after the coordinator's beacon "
                "(%llu extra messages):\n",
                static_cast<unsigned long long>(beacon.totals.messages));
    t.print(std::cout);
    const bool reached = beacon.all_know_leader && beacon.bfs_tree_valid;
    std::printf("every sensor reached: %s\n", reached ? "yes" : "no");
    return reached ? 0 : 1;
}
