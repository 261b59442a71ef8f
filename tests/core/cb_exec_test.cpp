// Unit-level tests for the cb_exec state machine (no engine): drive one
// node's executions by hand and check the protocol invariants locally.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/cautious_broadcast.h"

namespace anole {
namespace {

struct sent {
    port_id port;
    cb_kind kind;
    std::uint64_t value;
};

std::vector<sent> step(cb_exec& e, const cb_config& cfg, std::uint64_t seed = 1) {
    xoshiro256ss rng(seed);
    std::vector<sent> out;
    e.step(cfg, rng, [&out](port_id p, cb_kind k, std::uint64_t v) {
        out.push_back({p, k, v});
    });
    return out;
}

std::map<port_id, std::size_t> per_port(const std::vector<sent>& msgs) {
    std::map<port_id, std::size_t> count;
    for (const auto& m : msgs) ++count[m.port];
    return count;
}

TEST(CbExec, IdleNodeDoesNothing) {
    cb_exec e(4);
    cb_config cfg;
    EXPECT_TRUE(step(e, cfg).empty());
    EXPECT_FALSE(e.in_tree());
    EXPECT_EQ(e.status(), cb_status::passive);
}

TEST(CbExec, RootExtendsImmediately) {
    cb_exec e = cb_exec::make_root(4, 42);
    cb_config cfg;
    const auto msgs = step(e, cfg);
    ASSERT_EQ(msgs.size(), 1u);
    EXPECT_EQ(msgs[0].kind, cb_kind::source);
    EXPECT_EQ(msgs[0].value, 42u);
    EXPECT_TRUE(e.is_root());
    EXPECT_EQ(e.source_id(), 42u);
}

TEST(CbExec, RootNeverReinvitesSamePort) {
    cb_exec e = cb_exec::make_root(3, 9);
    cb_config cfg;
    std::vector<port_id> invited;
    for (int r = 0; r < 10; ++r) {
        for (const auto& m : step(e, cfg, 7 + r)) {
            if (m.kind == cb_kind::source) invited.push_back(m.port);
        }
    }
    // Degree 3: at most 3 distinct invitations, never a repeat.
    std::sort(invited.begin(), invited.end());
    EXPECT_EQ(std::adjacent_find(invited.begin(), invited.end()), invited.end());
    EXPECT_LE(invited.size(), 3u);
}

TEST(CbExec, AdoptionAcksAndAwaitsPermit) {
    cb_exec e(3);
    cb_config cfg;
    e.receive(1, cb_kind::source, 77);
    const auto msgs = step(e, cfg);
    ASSERT_TRUE(e.in_tree());
    EXPECT_EQ(e.source_id(), 77u);
    ASSERT_TRUE(e.parent().has_value());
    EXPECT_EQ(*e.parent(), 1u);
    // Exactly the confirm — no extension yet (no permit).
    ASSERT_EQ(msgs.size(), 1u);
    EXPECT_EQ(msgs[0].kind, cb_kind::confirm);
    EXPECT_EQ(msgs[0].port, 1u);
    EXPECT_EQ(e.status(), cb_status::passive);
    // Still no extension on the next step.
    EXPECT_TRUE(step(e, cfg).empty());
}

TEST(CbExec, PermitEnablesExtension) {
    cb_exec e(3);
    cb_config cfg;
    e.receive(1, cb_kind::source, 77);
    (void)step(e, cfg);
    e.receive(1, cb_kind::activate, 0);
    const auto msgs = step(e, cfg);
    EXPECT_EQ(e.status(), cb_status::active);
    ASSERT_EQ(msgs.size(), 1u);
    EXPECT_EQ(msgs[0].kind, cb_kind::source);
    EXPECT_NE(msgs[0].port, 1u);  // never back toward the parent
}

TEST(CbExec, FirstSourceWinsParenthood) {
    cb_exec e(4);
    cb_config cfg;
    e.receive(2, cb_kind::source, 10);
    e.receive(3, cb_kind::source, 11);
    (void)step(e, cfg);
    EXPECT_EQ(*e.parent(), 2u);
    EXPECT_EQ(e.source_id(), 10u);
}

TEST(CbExec, ConfirmRegistersChildAndCountsIt) {
    cb_exec e = cb_exec::make_root(3, 5);
    cb_config cfg;
    (void)step(e, cfg);  // extend
    e.receive(0, cb_kind::confirm, 1);
    (void)step(e, cfg);
    EXPECT_EQ(e.children().size(), 1u);
    EXPECT_EQ(e.confirmed(), 2u);
}

TEST(CbExec, RootVouchesReporters) {
    cb_exec e = cb_exec::make_root(4, 5);
    cb_config cfg;
    (void)step(e, cfg);
    e.receive(0, cb_kind::confirm, 1);  // new child on port 0
    const auto msgs = step(e, cfg);
    // The crossing (2 > 1) makes the root self-confirm: the reporter gets
    // its permit (activate) in the same step.
    bool activated = false;
    for (const auto& m : msgs) {
        if (m.kind == cb_kind::activate && m.port == 0) activated = true;
    }
    EXPECT_TRUE(activated);
    EXPECT_EQ(e.report_threshold(), 2u);
}

TEST(CbExec, CrossingReportsAndPassivates) {
    // Non-root with a parent on port 0: a child report that crosses the
    // threshold must go up as `size`, and the node pauses.
    cb_exec e(4);
    cb_config cfg;
    e.receive(0, cb_kind::source, 50);
    (void)step(e, cfg);                 // adopt, confirm
    e.receive(0, cb_kind::activate, 0); // permit
    (void)step(e, cfg);                 // extends somewhere
    e.receive(1, cb_kind::confirm, 1);  // suppose port 1 became a child
    const auto msgs = step(e, cfg);
    bool reported = false;
    for (const auto& m : msgs) {
        if (m.kind == cb_kind::size && m.port == 0 && m.value == 2) reported = true;
    }
    EXPECT_TRUE(reported);
    EXPECT_EQ(e.status(), cb_status::passive);
}

TEST(CbExec, RefreshFlowsWithoutCrossing) {
    // Root absorbs a refresh without any vouch traffic; counts update.
    cb_exec e = cb_exec::make_root(4, 5);
    cb_config cfg;
    (void)step(e, cfg);
    e.receive(0, cb_kind::confirm, 1);
    (void)step(e, cfg);  // confirmed=2, crossed to threshold 2
    e.receive(0, cb_kind::refresh, 2);
    (void)step(e, cfg);
    EXPECT_EQ(e.confirmed(), 3u);
}

TEST(CbExec, StopFreezesAndPropagatesOnce) {
    cb_exec e(4);
    cb_config cfg;
    e.receive(0, cb_kind::source, 50);
    (void)step(e, cfg);
    e.receive(1, cb_kind::confirm, 1);
    (void)step(e, cfg);
    e.receive(0, cb_kind::stop, 0);  // stop arrives from the parent
    const auto msgs = step(e, cfg);
    EXPECT_EQ(e.status(), cb_status::stopped);
    // Forwarded to the child (port 1) but NOT echoed to the parent.
    std::size_t stops_to_child = 0, stops_to_parent = 0;
    for (const auto& m : msgs) {
        if (m.kind != cb_kind::stop) continue;
        if (m.port == 1) ++stops_to_child;
        if (m.port == 0) ++stops_to_parent;
    }
    EXPECT_EQ(stops_to_child, 1u);
    EXPECT_EQ(stops_to_parent, 0u);
    // Nothing further on subsequent steps.
    EXPECT_TRUE(step(e, cfg).empty());
}

TEST(CbExec, CapTriggersStopEverywhere) {
    cb_exec e = cb_exec::make_root(4, 5);
    cb_config cfg;
    cfg.cap = 3;
    (void)step(e, cfg);
    e.receive(0, cb_kind::confirm, 1);
    (void)step(e, cfg);
    e.receive(1, cb_kind::confirm, 1);
    const auto msgs = step(e, cfg);  // confirmed = 3 >= cap
    EXPECT_EQ(e.status(), cb_status::stopped);
    std::size_t stops = 0;
    for (const auto& m : msgs) stops += m.kind == cb_kind::stop ? 1 : 0;
    EXPECT_EQ(stops, 2u);  // both children
}

TEST(CbExec, NeverTwoMessagesPerPortPerStep) {
    // Adversarial message soup: whatever arrives, a step never emits two
    // messages into one port (CONGEST).
    xoshiro256ss rng(99);
    for (int trial = 0; trial < 200; ++trial) {
        cb_exec e = trial % 2 == 0 ? cb_exec::make_root(5, 7) : cb_exec(5);
        cb_config cfg;
        cfg.cap = 4 + rng.below(8);
        for (int r = 0; r < 12; ++r) {
            const int injections = static_cast<int>(rng.below(4));
            for (int i = 0; i < injections; ++i) {
                const auto port = static_cast<port_id>(rng.below(5));
                const auto kind = static_cast<cb_kind>(rng.below(7));
                const std::uint64_t value = 1 + rng.below(8);
                e.receive(port, kind, value);
            }
            const auto msgs = step(e, cfg, rng());
            for (const auto& [port, count] : per_port(msgs)) {
                ASSERT_LE(count, 1u) << "trial " << trial << " round " << r
                                     << " port " << port;
            }
        }
    }
}

TEST(CbExec, ExtendAllFloodsAllUnusedPorts) {
    cb_exec e = cb_exec::make_root(4, 5);
    cb_config cfg;
    cfg.naive = true;
    const auto msgs = step(e, cfg);
    EXPECT_EQ(msgs.size(), 4u);
    for (const auto& m : msgs) EXPECT_EQ(m.kind, cb_kind::source);
    // Everything used: nothing more to invite.
    EXPECT_TRUE(step(e, cfg).empty());
}

}  // namespace
}  // namespace anole
