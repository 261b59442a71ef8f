// Twin test for baseline/gilbert_le.h: the heap-free node (flat
// per-candidate records, inline walk and kill batches, moved sends) must
// reproduce the frozen replica of the map-and-vector node
// (bench/gilbert_replica.h) bit for bit — per-phase metrics, rounds, the
// election result and oracle verdict, and every node's status() and
// marks() — across the zoo, budgets, node-jobs and dynamics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "baseline/gilbert_le.h"
#include "bench/gilbert_replica.h"
#include "graph/generators.h"
#include "graph/spectral.h"
#include "sim/driver.h"
#include "sim/dynamics.h"
#include "util/error.h"

namespace anole {

// Prints the family's name in ctest and failure output.
void PrintTo(graph_family f, std::ostream* os) { *os << to_string(f); }

namespace {

// Forwards to gilbert_node and records the largest batches it receives,
// so a case can show that it exercised the inline_vec spill path.
class batch_probe {
public:
    using message_type = gl_msg;

    batch_probe(std::size_t degree, const gilbert_params& p) : inner_(degree, p) {}

    void on_round(node_ctx<gl_msg>& ctx, inbox_view<gl_msg> inbox) {
        for (const auto& [port, msg] : inbox) {
            (void)port;
            max_walks_ = std::max(max_walks_, msg.walks.size());
            max_kills_ = std::max(max_kills_, msg.kills.size());
        }
        inner_.on_round(ctx, inbox);
    }

    [[nodiscard]] bool is_candidate() const noexcept { return inner_.is_candidate(); }
    [[nodiscard]] std::uint64_t id() const noexcept { return inner_.id(); }
    [[nodiscard]] std::size_t marks() const noexcept { return inner_.marks(); }
    [[nodiscard]] node_status status() const noexcept { return inner_.status(); }
    [[nodiscard]] std::size_t max_walks() const noexcept { return max_walks_; }
    [[nodiscard]] std::size_t max_kills() const noexcept { return max_kills_; }

private:
    gilbert_node inner_;
    std::size_t max_walks_ = 0;
    std::size_t max_kills_ = 0;
};

struct twin_run {
    gilbert_result result;
    std::map<std::string, phase_counters> phases;
    std::vector<std::uint64_t> nodes;  // per node: decided, leader, own_id, marks
    std::size_t max_walks = 0;         // batch_probe runs only
    std::size_t max_kills = 0;
};

// run_gilbert's schedule and result fields, over any node type, keeping
// the engine-side state the comparison needs.
template <class Node>
twin_run run_twin(const graph& g, const gilbert_params& params, std::uint64_t seed,
                  congest_budget budget, const dynamics_spec& dynamics) {
    params.validate();
    twin_run out;
    out.result = run_protocol<Node, gilbert_result>(
        g, seed, budget, dynamics,
        [&](std::size_t u) { return Node(g.degree(static_cast<node_id>(u)), params); },
        [&](engine<Node>& eng) {
            eng.set_phase("gilbert");
            eng.run_rounds(params.total_rounds() + 1);
            return oracle_options{.round_cap = params.total_rounds() + 1};
        },
        [&](const engine<Node>& eng, gilbert_result& res) {
            std::uint64_t max_cand = 0;
            for (std::size_t u = 0; u < eng.num_nodes(); ++u) {
                const Node& nd = eng.node(u);
                const node_status st = nd.status();
                out.nodes.insert(out.nodes.end(), {st.decided ? 1u : 0u, st.leader ? 1u : 0u,
                                                   st.own_id, nd.marks()});
                if constexpr (std::is_same_v<Node, batch_probe>) {
                    out.max_walks = std::max(out.max_walks, nd.max_walks());
                    out.max_kills = std::max(out.max_kills, nd.max_kills());
                }
                if (!eng.node_present(u) || eng.node_crashed(u)) continue;
                if (!nd.is_candidate()) continue;
                ++res.num_candidates;
                max_cand = std::max(max_cand, nd.id());
            }
            res.max_candidate_won = res.success && res.leader_id == max_cand;
            out.phases = eng.metrics().phases();
        });
    return out;
}

void expect_same_result(const gilbert_result& a, const gilbert_result& b,
                        const std::string& what) {
    EXPECT_EQ(a.success, b.success) << what;
    EXPECT_EQ(a.num_leaders, b.num_leaders) << what;
    EXPECT_EQ(a.leader_id, b.leader_id) << what;
    EXPECT_EQ(a.leader_node, b.leader_node) << what;
    EXPECT_EQ(a.rounds, b.rounds) << what;
    EXPECT_EQ(a.totals, b.totals) << what;
    EXPECT_EQ(a.oracle.summary(), b.oracle.summary()) << what;
    EXPECT_EQ(a.oracle.live_nodes, b.oracle.live_nodes) << what;
    EXPECT_EQ(a.oracle.crashed_nodes, b.oracle.crashed_nodes) << what;
    EXPECT_EQ(a.num_candidates, b.num_candidates) << what;
    EXPECT_EQ(a.max_candidate_won, b.max_candidate_won) << what;
}

void expect_same(const twin_run& ref, const twin_run& cur, const std::string& what) {
    expect_same_result(ref.result, cur.result, what);
    EXPECT_EQ(ref.phases, cur.phases) << what;
    EXPECT_EQ(ref.nodes, cur.nodes) << what;
}

gilbert_params params_for(const graph& g) {
    gilbert_params p;
    p.n = g.num_nodes();
    p.tmix = std::max<std::uint64_t>(profile(g).mixing_time, 1);
    return p;
}

// Runs the replica and the current node (through run_twin and through the
// public run_gilbert) on one configuration and compares all three.
void expect_twins(const graph& g, const gilbert_params& p, std::uint64_t seed,
                  congest_budget budget, const dynamics_spec& dyn,
                  const std::string& what) {
    const twin_run ref = run_twin<replica::gilbert_node>(g, p, seed, budget, dyn);
    const twin_run cur = run_twin<gilbert_node>(g, p, seed, budget, dyn);
    expect_same(ref, cur, what);
    expect_same_result(ref.result, run_gilbert(g, p, seed, budget, dyn), what + " driver");
    EXPECT_GT(ref.result.totals.messages, 0u) << what;
}

class GilbertTwin : public ::testing::TestWithParam<graph_family> {};

// The profiled tmix is capped at 400 so that the path, cycle, lollipop and
// dumbbell cases (tmix 2,276 to 9,608 at n = 64) stay near a second each;
// every other family runs its profiled walk length.
TEST_P(GilbertTwin, MatchesReplicaOnZooFamily) {
    for (const std::size_t n : {16, 64}) {
        const graph g = make_family(GetParam(), n, 1);
        gilbert_params p = params_for(g);
        p.tmix = std::min<std::uint64_t>(p.tmix, 400);
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            expect_twins(g, p, seed, congest_budget::fragmenting(16), {},
                         std::string(to_string(GetParam())) + "(" + std::to_string(n) +
                             ") seed " + std::to_string(seed));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Zoo, GilbertTwin, ::testing::ValuesIn(all_families()),
                         [](const auto& info) { return std::string(to_string(info.param)); });

TEST(GilbertTwin, BudgetsAgree) {
    for (const graph_family f : {graph_family::hypercube, graph_family::torus,
                                 graph_family::barabasi_albert}) {
        const graph g = make_family(f, 64, 2);
        const gilbert_params p = params_for(g);
        for (std::uint64_t seed = 1; seed <= 2; ++seed) {
            const std::string what = std::string(to_string(f)) + " seed " + std::to_string(seed);
            expect_twins(g, p, seed, congest_budget::unlimited(), {}, what + " count-only");
            expect_twins(g, p, seed, congest_budget::fragmenting(16), {},
                         what + " fragmenting(16)");
            // A batch of even one walk entry overflows 4·log n bits.
            const auto error_of = [&](auto run) -> std::optional<std::string> {
                try {
                    (void)run();
                } catch (const error& e) {
                    return std::string(e.what());
                }
                return std::nullopt;
            };
            const auto ref_error = error_of([&] {
                return run_twin<replica::gilbert_node>(g, p, seed,
                                                       congest_budget::strict_log(), {});
            });
            const auto cur_error = error_of([&] {
                return run_gilbert(g, p, seed, congest_budget::strict_log());
            });
            ASSERT_TRUE(ref_error.has_value()) << what;
            EXPECT_EQ(ref_error, cur_error) << what;
        }
    }
}

TEST(GilbertTwin, NodeJobsAgree) {
    for (const graph_family f : {graph_family::hypercube, graph_family::torus,
                                 graph_family::random_regular}) {
        const graph g = make_family(f, 64, 3);
        const gilbert_params p = params_for(g);
        const twin_run ref =
            run_twin<replica::gilbert_node>(g, p, 2, congest_budget::fragmenting(16), {});
        for (const std::size_t jobs : {1, 4}) {
            scoped_engine_parallelism par(engine_parallelism{nullptr, jobs});
            expect_same(ref,
                        run_twin<gilbert_node>(g, p, 2, congest_budget::fragmenting(16), {}),
                        std::string(to_string(f)) + " node_jobs " + std::to_string(jobs));
        }
    }
}

TEST(GilbertTwin, DynamicsAgree) {
    for (const graph_family f : {graph_family::random_regular, graph_family::torus}) {
        const graph g = make_family(f, 64, 1);
        const gilbert_params p = params_for(g);
        for (const char* name : {"static", "loss", "crash", "churn", "rewire"}) {
            const dynamics_spec dyn = dynamics_preset(name).value();
            for (std::uint64_t seed = 1; seed <= 2; ++seed) {
                expect_twins(g, p, seed, congest_budget::fragmenting(16), dyn,
                             std::string(to_string(f)) + " " + name + " seed " +
                                 std::to_string(seed));
            }
        }
    }
}

TEST(GilbertTwin, SpilledBatchesAgree) {
    // Every node is a candidate, so far more candidates than the inline
    // capacity share a link in one round and the batches spill to the heap.
    const graph g = make_family(graph_family::hypercube, 64, 1);
    gilbert_params p = params_for(g);
    p.cand_c = 64;
    const twin_run ref =
        run_twin<replica::gilbert_node>(g, p, 1, congest_budget::fragmenting(16), {});
    const twin_run cur = run_twin<batch_probe>(g, p, 1, congest_budget::fragmenting(16), {});
    expect_same(ref, cur, "hypercube(64) all candidates");
    EXPECT_EQ(cur.result.num_candidates, 64u);
    EXPECT_GT(cur.max_walks, gl_msg::inline_walks);
    EXPECT_GT(cur.max_kills, gl_msg::inline_kills);
}

}  // namespace
}  // namespace anole
