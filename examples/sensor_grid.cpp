// sensor_grid — the paper's motivating scenario: a massive ad-hoc sensor
// deployment (IoT) needs one coordinator, but the cheap sensors shipped
// without serial numbers. The field is a torus-shaped radio grid.
//
//   $ ./sensor_grid [side] [seed]
//
// After the election, the example *uses* the leader the way applications
// do: the elected node floods a beacon, every sensor learns its hop
// distance to the coordinator, and we print the resulting clustering
// statistics — demonstrating explicit coordination built on top of the
// implicit election.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/irrevocable.h"
#include "graph/generators.h"
#include "sim/engine.h"
#include "sim/runner.h"
#include "util/bit_codec.h"
#include "util/table.h"

namespace {

// Post-election beacon: the leader floods "hops so far"; each node keeps
// the minimum it hears. A classic BFS wave in CONGEST.
struct beacon_msg {
    std::uint32_t hops = 0;
    [[nodiscard]] std::size_t bit_size() const noexcept {
        return anole::gamma0_bits(hops);
    }
};

class beacon_node {
public:
    using message_type = beacon_msg;
    beacon_node(std::size_t degree, bool is_leader)
        : degree_(degree), distance_(is_leader ? 0 : UINT32_MAX) {}

    void on_round(anole::node_ctx<beacon_msg>& ctx,
                  anole::inbox_view<beacon_msg> inbox) {
        for (const auto& [port, msg] : inbox) {
            (void)port;
            distance_ = std::min(distance_, msg.hops);
        }
        if (distance_ != UINT32_MAX && !announced_) {
            announced_ = true;
            for (anole::port_id p = 0; p < degree_; ++p) {
                ctx.send(p, beacon_msg{distance_ + 1});
            }
        }
    }

    [[nodiscard]] std::uint32_t distance() const noexcept { return distance_; }

private:
    std::size_t degree_;
    std::uint32_t distance_;
    bool announced_ = false;
};

}  // namespace

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
    // The driver reports the leader's vertex, which seeds the beacon (the
    // beacon itself is again fully anonymous).
    const std::size_t leader_index = election.leader_node;

    anole::engine<beacon_node> beacon(field, seed + 1);
    beacon.spawn([&](std::size_t u) {
        return beacon_node(field.degree(static_cast<anole::node_id>(u)),
                           u == leader_index);
    });
    beacon.run_rounds(prof.diameter + 2);

    std::vector<std::size_t> ring_count(prof.diameter + 2, 0);
    std::uint32_t max_d = 0;
    for (std::size_t u = 0; u < beacon.num_nodes(); ++u) {
        const std::uint32_t d = beacon.node(u).distance();
        ++ring_count[d];
        max_d = std::max(max_d, d);
    }

    anole::text_table t({"hops from coordinator", "sensors"});
    for (std::uint32_t d = 0; d <= max_d; ++d) {
        t.add_row({std::to_string(d), std::to_string(ring_count[d])});
    }
    std::printf("\ncoverage rings after the coordinator's beacon "
                "(%llu extra messages):\n",
                static_cast<unsigned long long>(beacon.metrics().total().messages));
    t.print(std::cout);
    std::printf("every sensor reached: %s\n",
                ring_count[0] == 1 && max_d <= prof.diameter ? "yes" : "no");
    return 0;
}
