// Tests for core/cautious_broadcast.h: tree well-formedness, cap
// enforcement, throttling, and Lemma 1's message-shape claims.
#include "core/cautious_broadcast.h"

#include <gtest/gtest.h>

#include <queue>
#include <string>
#include <vector>

#include "graph/generators.h"

namespace anole {
namespace {

struct cb_run {
    engine<cautious_broadcast_node>* eng;
};

// Runs a single-source cautious broadcast; source = node 0.
std::unique_ptr<engine<cautious_broadcast_node>> run_cb(const graph& g, cb_config cfg,
                                                        std::uint64_t rounds,
                                                        std::uint64_t seed) {
    auto eng = std::make_unique<engine<cautious_broadcast_node>>(
        g, seed, congest_budget::strict_log(16));
    eng->spawn([&](std::size_t u) {
        return cautious_broadcast_node(g.degree(static_cast<node_id>(u)), u == 0,
                                       /*source_id=*/12345, cfg, rounds);
    });
    eng->run_until_halted(rounds + 2);
    return eng;
}

std::size_t territory_size(const engine<cautious_broadcast_node>& eng) {
    std::size_t count = 0;
    for (std::size_t u = 0; u < eng.num_nodes(); ++u) {
        if (eng.node(u).exec().in_tree()) ++count;
    }
    return count;
}

TEST(CautiousBroadcast, TreeIsWellFormed) {
    graph g = make_torus(6, 6);
    cb_config cfg;
    cfg.cap = 1000;  // effectively uncapped at this size
    auto eng = run_cb(g, cfg, 400, 3);

    // Every in-tree non-root has a parent that is itself in the tree, and
    // following parents reaches the root without cycles.
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        const cb_exec& e = eng->node(u).exec();
        if (!e.in_tree() || e.is_root()) continue;
        ASSERT_TRUE(e.parent().has_value());
        // Walk up at most n steps.
        node_id cur = static_cast<node_id>(u);
        std::size_t steps = 0;
        while (!eng->node(cur).exec().is_root()) {
            const auto par = eng->node(cur).exec().parent();
            ASSERT_TRUE(par.has_value());
            cur = g.neighbor(cur, *par);
            ASSERT_TRUE(eng->node(cur).exec().in_tree());
            ASSERT_LT(++steps, g.num_nodes()) << "cycle in tree";
        }
    }
}

TEST(CautiousBroadcast, ParentChildConsistent) {
    graph g = make_random_regular(40, 4, 5);
    cb_config cfg;
    cfg.cap = 1000;
    auto eng = run_cb(g, cfg, 300, 7);
    // If u says "v is my child through port p", then v's parent port leads
    // back to u.
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        const cb_exec& e = eng->node(u).exec();
        for (port_id cp : e.children()) {
            const node_id v = g.neighbor(static_cast<node_id>(u), cp);
            const cb_exec& ce = eng->node(v).exec();
            ASSERT_TRUE(ce.in_tree());
            ASSERT_TRUE(ce.parent().has_value());
            EXPECT_EQ(g.neighbor(v, *ce.parent()), u);
        }
    }
}

TEST(CautiousBroadcast, CoversSmallGraphWhenUncapped) {
    for (auto fam : {graph_family::path, graph_family::cycle, graph_family::star,
                     graph_family::complete}) {
        graph g = make_family(fam, 16, 2);
        cb_config cfg;
        cfg.cap = UINT64_MAX;
        auto eng = run_cb(g, cfg, 600, 11);
        EXPECT_EQ(territory_size(*eng), g.num_nodes()) << to_string(fam);
    }
}

TEST(CautiousBroadcast, CapBoundsTerritory) {
    graph g = make_torus(8, 8);
    cb_config cfg;
    cfg.cap = 10;
    auto eng = run_cb(g, cfg, 500, 13);
    const std::size_t t = territory_size(*eng);
    // Lemma 1's accounting: confirmed counts lag actual size, but the stop
    // cascade freezes growth within a doubling-and-report latency window.
    EXPECT_LT(t, 6 * cfg.cap);
    EXPECT_GE(t, 2u);
    // The root must have stopped.
    EXPECT_EQ(eng->node(0).exec().status(), cb_status::stopped);
}

TEST(CautiousBroadcast, StopPropagatesThroughTree) {
    graph g = make_path(24);
    cb_config cfg;
    cfg.cap = 6;
    auto eng = run_cb(g, cfg, 800, 17);
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        const cb_exec& e = eng->node(u).exec();
        if (e.in_tree()) {
            EXPECT_EQ(e.status(), cb_status::stopped) << "node " << u;
        }
    }
}

TEST(CautiousBroadcast, MessagesScaleWithCapNotGraph) {
    // Lemma 1: messages = Õ(territory), independent of m, when capped.
    graph small = make_torus(8, 8);
    graph big = make_torus(16, 16);
    cb_config cfg;
    cfg.cap = 12;
    auto e1 = run_cb(small, cfg, 600, 19);
    auto e2 = run_cb(big, cfg, 600, 19);
    const double m1 = static_cast<double>(e1->metrics().total().messages);
    const double m2 = static_cast<double>(e2->metrics().total().messages);
    // 4x the graph must NOT mean 4x the messages; allow generous slack.
    EXPECT_LT(m2, m1 * 2.5);
}

TEST(CautiousBroadcast, ThrottleCutsMessagesVsLiteralPseudocode) {
    // E11's core claim: the printed every-round size reports cost far more
    // messages than the prose threshold reports, for the same territory.
    graph g = make_torus(10, 10);
    cb_config prose;
    prose.cap = 40;
    cb_config literal = prose;
    literal.report_every_round = true;
    auto ep = run_cb(g, prose, 500, 23);
    auto el = run_cb(g, literal, 500, 23);
    EXPECT_GT(el->metrics().total().messages, 2 * ep->metrics().total().messages);
}

TEST(CautiousBroadcast, NaiveFloodReachesEveryoneButCostsMore) {
    graph g = make_torus(8, 8);
    cb_config naive;
    naive.cap = UINT64_MAX;
    naive.naive = true;
    auto en = run_cb(g, naive, 200, 29);
    EXPECT_EQ(territory_size(*en), g.num_nodes());
    // Flood touches every edge at least once.
    EXPECT_GE(en->metrics().total().messages, g.num_edges());
}

TEST(CautiousBroadcast, GrowthIsGradualUnderThrottle) {
    // The cautious tree grows at most ~1 adoption per active node per
    // round; after very few rounds the territory must still be tiny.
    graph g = make_complete(64);
    cb_config cfg;
    cfg.cap = 1000;
    auto eng = std::make_unique<engine<cautious_broadcast_node>>(
        g, 31, congest_budget::strict_log(16));
    eng->spawn([&](std::size_t u) {
        return cautious_broadcast_node(g.degree(static_cast<node_id>(u)), u == 0, 99,
                                       cfg, 1000);
    });
    eng->run_rounds(6);
    std::size_t t = 0;
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        if (eng->node(u).exec().in_tree()) ++t;
    }
    EXPECT_LE(t, 40u);  // far below what a flood would reach (all 64 in 2)
}

TEST(CautiousBroadcast, DeterministicGivenSeed) {
    graph g = make_random_regular(30, 4, 3);
    cb_config cfg;
    cfg.cap = 20;
    auto a = run_cb(g, cfg, 300, 41);
    auto b = run_cb(g, cfg, 300, 41);
    EXPECT_EQ(a->metrics().total().messages, b->metrics().total().messages);
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        EXPECT_EQ(a->node(u).exec().in_tree(), b->node(u).exec().in_tree());
    }
}

TEST(CautiousBroadcast, RootConfirmedTracksTerritory) {
    graph g = make_cycle(32);
    cb_config cfg;
    cfg.cap = UINT64_MAX;
    auto eng = run_cb(g, cfg, 800, 43);
    const std::size_t t = territory_size(*eng);
    const std::uint64_t confirmed = eng->node(0).exec().confirmed();
    EXPECT_LE(confirmed, t);
    EXPECT_GE(2 * confirmed + 2, t);  // doubling reports lag at most 2x
}

// What the engine's fast-forward trusts: whenever cb_exec::idle holds, a
// step with no new receptions sends nothing, draws no RNG and leaves every
// observer as it was. Checked for every node after every stepped round.
TEST(CautiousBroadcast, IdleExecStepsAsANoOp) {
    const auto observe = [](const cb_exec& e) {
        std::vector<std::uint64_t> out = {e.in_tree(), e.is_root(),
                                          static_cast<std::uint64_t>(e.status()),
                                          e.source_id(), e.parent().value_or(99),
                                          e.confirmed(), e.report_threshold()};
        out.insert(out.end(), e.children().begin(), e.children().end());
        return out;
    };
    cb_config capped;
    capped.cap = 6;
    cb_config literal;
    literal.report_every_round = true;
    cb_config flood;
    flood.naive = true;
    for (const cb_config& cfg : {cb_config{}, capped, literal, flood}) {
        for (const graph_family f : {graph_family::torus, graph_family::barabasi_albert,
                                     graph_family::path}) {
            SCOPED_TRACE(std::string(to_string(f)) + ", cap " + std::to_string(cfg.cap));
            const graph g = make_family(f, 24, 2);
            engine<cautious_broadcast_node> eng(g, 3, congest_budget::strict_log(16));
            eng.spawn([&](std::size_t u) {
                return cautious_broadcast_node(g.degree(static_cast<node_id>(u)), u == 0,
                                               77, cfg, 80);
            });
            std::size_t idle_seen = 0;
            for (int r = 0; r < 80; ++r) {
                eng.step();
                for (std::size_t u = 0; u < g.num_nodes(); ++u) {
                    const cb_exec& e = eng.node(u).exec();
                    if (!e.idle(cfg)) continue;
                    ++idle_seen;
                    cb_exec copy = e;
                    xoshiro256ss rng(u + 1), untouched(u + 1);
                    bool sent = false;
                    copy.step(cfg, rng,
                              [&sent](port_id, cb_kind, std::uint64_t) { sent = true; });
                    EXPECT_FALSE(sent) << "node " << u << " round " << r;
                    EXPECT_EQ(rng(), untouched()) << "node " << u << " round " << r;
                    EXPECT_EQ(observe(copy), observe(e)) << "node " << u << " round " << r;
                }
            }
            if (cfg.report_every_round) {
                EXPECT_EQ(idle_seen, 0u);
            } else {
                EXPECT_GT(idle_seen, 0u);
            }
        }
    }
}

}  // namespace
}  // namespace anole
