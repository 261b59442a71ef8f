// Pins the outcome of every election driver, field by field: the shared
// fields (success, leaders, leader ID, rounds, cost totals, oracle
// verdict) and each protocol's extras, for all five algorithm kinds on
// two small topologies, on a static network and under loss + crashes;
// then the two walk protocols at n = 128. Any refactor of the drivers
// must leave every string below unchanged.
#include "sim/runner.h"

#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "core/post_election.h"
#include "graph/generators.h"

namespace anole {
namespace {

std::string counters(const phase_counters& c) {
    return std::to_string(c.rounds) + "/" + std::to_string(c.congest_rounds) + "/" +
           std::to_string(c.messages) + "/" + std::to_string(c.bits);
}

// The leader ID is shared by the four electing kinds; cautious broadcast
// elects nobody.
std::string extras(const flood_result& r) { return " id=" + std::to_string(r.leader_id); }

std::string extras(const gilbert_result& r) {
    return " id=" + std::to_string(r.leader_id) +
           " cands=" + std::to_string(r.num_candidates) +
           " maxwon=" + std::to_string(r.max_candidate_won);
}

std::string extras(const irrevocable_result& r) {
    std::string s = " id=" + std::to_string(r.leader_id) +
                    " cands=" + std::to_string(r.num_candidates) +
                    " maxwon=" + std::to_string(r.max_candidate_won) +
                    " overflows=" + std::to_string(r.slot_overflows) +
                    " bc=" + counters(r.phase_broadcast) +
                    " walk=" + counters(r.phase_walk) +
                    " cc=" + counters(r.phase_convergecast) + " terr=";
    for (std::uint64_t t : r.territory_sizes) s += std::to_string(t) + ",";
    return s;
}

std::string extras(const revocable_result& r) {
    std::string s = " id=" + std::to_string(r.leader_id) +
                    " cert=" + std::to_string(r.leader_certificate) +
                    " k=" + std::to_string(r.final_estimate) +
                    " stable=" + std::to_string(r.stable_round) +
                    " revocations=" + std::to_string(r.total_revocations) +
                    " chose=" + std::to_string(r.nodes_chose) + " traces=";
    for (const auto& [k, tr] : r.traces) {
        s += std::to_string(k) + ":" + std::to_string(tr.empty_iterations) + "/" +
             std::to_string(tr.probing_iterations) + "/" +
             std::to_string(tr.iterations) + "/" + std::to_string(tr.chose_here) + ",";
    }
    return s;
}

std::string extras(const cb_result& r) {
    return " territory=" + std::to_string(r.territory);
}

// One line per repetition: every shared field, then the kind's extras.
std::string describe(const run_record& rec) {
    if (!rec.ok) return "error: " + rec.error;
    const std::string s = "success=" + std::to_string(rec.success()) +
                    " leaders=" + std::to_string(rec.num_leaders()) +
                    " rounds=" + std::to_string(rec.rounds()) +
                    " totals=" + counters(rec.totals()) +
                    " oracle=" + rec.oracle().summary();
    return s + std::visit([](const auto& r) { return extras(r); }, rec.detail);
}

// Loss plus permanent crashes: the destructive half of storm_spec() in
// dynamics_determinism_test.cpp, rates low enough that runs still finish.
dynamics_spec loss_crash_spec() {
    dynamics_spec d;
    d.loss_prob = 0.05;
    d.crash_prob = 0.002;
    return d;
}

std::vector<algo_config> all_kinds() {
    revocable_cfg rc;
    rc.params = revocable_params::scaled(std::nullopt, 0.02, 0.12);
    rc.params.k_cap = 32;
    return {flood_cfg{}, gilbert_cfg{}, irrevocable_cfg{}, rc, cautious_cfg{}};
}

std::vector<std::string> actual_outcomes() {
    scenario_runner runner(1);
    const std::vector<graph> topologies = {make_hypercube(3), make_wheel(8)};
    std::vector<std::string> out;
    for (const graph& g : topologies) {
        const graph_profile& prof = runner.profile_for(g);
        for (const dynamics_spec& dyn : {dynamics_spec{}, loss_crash_spec()}) {
            for (const algo_config& cfg : all_kinds()) {
                out.push_back(g.name() + " " + to_string(kind_of(cfg)) +
                              (dyn.enabled() ? " dyn: " : ": ") +
                              describe(scenario_runner::run_once(g, prof, cfg, 5, dyn)));
            }
        }
    }
    return out;
}

TEST(Driver, OutcomesPinnedAcrossUnification) {
    const std::vector<std::string> expected = {
        "hypercube(3) flood_max: success=1 leaders=1 rounds=5 totals=5/5/54/1152 "
            "oracle=ok (live=0, leaders=1) id=3500",
        "hypercube(3) gilbert: success=1 leaders=1 rounds=31 totals=31/53/280/12322 "
            "oracle=ok (live=0, leaders=1) id=3585 cands=5 maxwon=1",
        "hypercube(3) irrevocable: success=1 leaders=1 rounds=151 "
            "totals=151/151/178/4710 oracle=ok (live=0, leaders=1) id=1889 cands=3 "
            "maxwon=1 overflows=0 bc=120/120/84/2115 walk=15/15/81/2270 cc=15/15/13/325 "
            "terr=8,7,7,",
        "hypercube(3) revocable: success=1 leaders=1 rounds=30445 "
            "totals=30445/9470225/730680/10892313846 oracle=ok (live=8, leaders=1) "
            "id=776406 cert=4 k=8 stable=19630 revocations=15 chose=8 "
            "traces=2:24/16/120/0,4:112/56/168/1,",
        "hypercube(3) cautious_broadcast: success=1 leaders=0 rounds=16 "
            "totals=16/16/35/445 oracle=ok (live=0, leaders=0) territory=8",
        "hypercube(3) flood_max dyn: success=1 leaders=1 rounds=5 totals=5/5/54/1152 "
            "oracle=ok (live=0, leaders=1) id=3500",
        "hypercube(3) gilbert dyn: success=1 leaders=1 rounds=31 "
            "totals=31/47/264/10990 oracle=ok (live=0, leaders=1) id=3585 cands=5 maxwon=1",
        "hypercube(3) irrevocable dyn: success=1 leaders=1 rounds=151 "
            "totals=151/151/110/2878 oracle=ok (live=0, leaders=1) id=1889 cands=2 "
            "maxwon=1 overflows=0 bc=120/120/76/1945 walk=15/15/27/758 cc=15/15/7/175 "
            "terr=8,6,8,",
        "hypercube(3) revocable dyn: success=0 leaders=0 rounds=1169 "
            "totals=1169/44156/7509/7474593 oracle=ok (live=0, leaders=0) id=0 cert=0 k=4 "
            "stable=1169 revocations=0 chose=0 traces=2:12/3/45/0,",
        "hypercube(3) cautious_broadcast dyn: success=1 leaders=0 rounds=16 "
            "totals=16/16/36/473 oracle=ok (live=0, leaders=0) territory=8",
        "wheel(8) flood_max: success=1 leaders=1 rounds=4 totals=4/4/62/1328 oracle=ok "
            "(live=0, leaders=1) id=3500",
        "wheel(8) gilbert: success=1 leaders=1 rounds=31 totals=31/50/301/12496 "
            "oracle=ok (live=0, leaders=1) id=3585 cands=5 maxwon=1",
        "wheel(8) irrevocable: success=1 leaders=1 rounds=151 totals=151/151/206/5429 "
            "oracle=ok (live=0, leaders=1) id=1889 cands=3 maxwon=1 overflows=0 "
            "bc=120/120/110/2783 walk=15/15/82/2296 cc=15/15/14/350 terr=8,8,8,",
        "wheel(8) revocable: success=1 leaders=1 rounds=30443 "
            "totals=30443/9467067/852404/12703455976 oracle=ok (live=8, leaders=1) "
            "id=776406 cert=4 k=8 stable=19629 revocations=16 chose=8 "
            "traces=2:24/0/120/0,4:112/56/168/1,",
        "wheel(8) cautious_broadcast: success=1 leaders=0 rounds=16 "
            "totals=16/16/31/492 oracle=ok (live=0, leaders=0) territory=8",
        "wheel(8) flood_max dyn: success=1 leaders=1 rounds=4 totals=4/4/62/1328 "
            "oracle=ok (live=0, leaders=1) id=3500",
        "wheel(8) gilbert dyn: success=1 leaders=1 rounds=31 totals=31/48/286/10668 "
            "oracle=ok (live=0, leaders=1) id=3585 cands=5 maxwon=1",
        "wheel(8) irrevocable dyn: success=1 leaders=1 rounds=151 "
            "totals=151/151/115/2919 oracle=ok (live=0, leaders=1) id=1889 cands=2 "
            "maxwon=1 overflows=0 bc=120/120/98/2473 walk=15/15/9/250 cc=15/15/8/196 "
            "terr=7,8,8,",
        "wheel(8) revocable dyn: success=0 leaders=0 rounds=1169 "
            "totals=1169/44156/8077/7482433 oracle=ok (live=0, leaders=0) id=0 cert=0 k=4 "
            "stable=1169 revocations=0 chose=0 traces=2:13/2/45/0,",
        "wheel(8) cautious_broadcast dyn: success=1 leaders=0 rounds=16 "
            "totals=16/16/31/492 oracle=ok (live=0, leaders=0) territory=8",
    };
    const std::vector<std::string> actual = actual_outcomes();
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) EXPECT_EQ(actual[i], expected[i]);

    // The explicit upgrade announces from the election's winner.
    const graph g = make_wheel(8);
    scenario_runner runner(1);
    const irrevocable_params p =
        scenario_runner::fill(irrevocable_params{}, runner.profile_for(g));
    const explicit_result ex = run_explicit_irrevocable(g, p, 2, 5);
    ASSERT_TRUE(ex.success);
    EXPECT_EQ(ex.announcement.leader_id, ex.election.leader_id);
    EXPECT_EQ(ex.announcement.rounds, 5u);
    EXPECT_EQ(counters(ex.announcement.totals), "5/5/28/694");
    EXPECT_EQ(ex.announcement.depths,
              (std::vector<std::uint32_t>{1, 1, 0, 1, 2, 2, 2, 2}));
}

// The walk protocols at elect-known-n scale (bench_e2e's hypercube and
// torus at n = 128, seeds 1 and 2), where lazy steps move thousands of
// tokens per round rather than the dozens of the n = 8 pins above.
TEST(Driver, WalkOutcomesPinnedAtElectKnownNScale) {
    const std::vector<std::string> expected = {
        "hypercube(7) gilbert seed 1: success=1 leaders=1 rounds=253 "
            "totals=253/439/49099/3553194 oracle=ok (live=0, leaders=1) id=178676688 "
            "cands=5 maxwon=1",
        "hypercube(7) gilbert seed 2: success=1 leaders=1 rounds=253 "
            "totals=253/496/62344/4946996 oracle=ok (live=0, leaders=1) id=257538585 "
            "cands=7 maxwon=1",
        "hypercube(7) irrevocable seed 1: success=1 leaders=1 rounds=3781 "
            "totals=3781/3781/8827/537082 oracle=ok (live=0, leaders=1) id=225941882 "
            "cands=5 maxwon=1 overflows=0 bc=3528/3528/3030/178831 "
            "walk=126/126/5450/337778 cc=126/126/347/20473 terr=93,88,93,91,100,",
        "hypercube(7) irrevocable seed 2: success=1 leaders=1 rounds=3781 "
            "totals=3781/3781/5274/319648 oracle=ok (live=0, leaders=1) id=212685306 "
            "cands=3 maxwon=1 overflows=0 bc=3528/3528/1670/97256 "
            "walk=126/126/3368/208468 cc=126/126/236/13924 terr=89,83,93,",
        "torus(11x11) gilbert seed 1: success=1 leaders=1 rounds=749 "
            "totals=749/1369/115286/9496146 oracle=ok (live=0, leaders=1) id=142682101 "
            "cands=5 maxwon=1",
        "torus(11x11) gilbert seed 2: success=1 leaders=1 rounds=749 "
            "totals=749/1505/144965/15057292 oracle=ok (live=0, leaders=1) id=205657195 "
            "cands=8 maxwon=1",
        "torus(11x11) irrevocable seed 1: success=1 leaders=1 rounds=11221 "
            "totals=11221/11221/16203/981011 oracle=ok (live=0, leaders=1) id=180425678 "
            "cands=5 maxwon=1 overflows=0 bc=10472/10472/5131/296416 "
            "walk=374/374/10747/665420 cc=374/374/325/19175 terr=105,106,101,111,101,",
        "torus(11x11) irrevocable seed 2: success=1 leaders=1 rounds=11221 "
            "totals=11221/11221/9862/597745 oracle=ok (live=0, leaders=1) id=169839651 "
            "cands=3 maxwon=1 overflows=0 bc=10472/10472/3088/178731 "
            "walk=374/374/6568/406860 cc=374/374/206/12154 terr=101,109,103,",
    };
    scenario_runner runner(1);
    std::vector<std::string> actual;
    for (const graph_family f : {graph_family::hypercube, graph_family::torus}) {
        const graph& g = runner.materialize(family_spec{f, 128, 1});
        const graph_profile& prof = runner.profile_for(g);
        for (const algo_config& cfg :
             {algo_config{gilbert_cfg{}}, algo_config{irrevocable_cfg{}}}) {
            for (std::uint64_t seed = 1; seed <= 2; ++seed) {
                actual.push_back(g.name() + " " + to_string(kind_of(cfg)) + " seed " +
                                 std::to_string(seed) + ": " +
                                 describe(scenario_runner::run_once(g, prof, cfg, seed)));
            }
        }
    }
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) EXPECT_EQ(actual[i], expected[i]);
}

}  // namespace
}  // namespace anole
