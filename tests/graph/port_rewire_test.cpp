// Tests for the per-round port-rewiring adversary (sim/dynamics.h's
// peer_slots / slot_owners + apply_port_rewire) and the
// graph::with_permuted_ports primitive it generalizes: rewiring any
// subset of nodes preserves the multigraph (degree sequence, physical
// edge multiset, peer-table involution) and payloads relocated along
// `moves` stay on their physical directed edge; a full rewire reduces
// exactly to with_permuted_ports of the same seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"
#include "sim/dynamics.h"

namespace anole {
namespace {

// Applies `moves` to a payload array the way the engine relocates its
// in-flight message/stamp buffers: gather at old slots, scatter to new.
std::vector<std::uint32_t> relocate(
    std::vector<std::uint32_t> payload,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& moves) {
    std::vector<std::uint32_t> tmp;
    tmp.reserve(moves.size());
    for (const auto& [src, dst] : moves) tmp.push_back(payload[src]);
    for (std::size_t i = 0; i < moves.size(); ++i) payload[moves[i].second] = tmp[i];
    return payload;
}

// Full structural audit after a rewire: `before` is the pre-rewire peer
// table, `tag` the relocated per-slot payload initialized to tag[s] = s.
void expect_rewire_invariants(const std::vector<node_id>& owner,
                              const std::vector<std::uint32_t>& before,
                              const std::vector<std::uint32_t>& after,
                              const std::vector<std::uint32_t>& tag) {
    for (std::uint32_t s = 0; s < after.size(); ++s) {
        // Still an involution with no fixed points (no self-loops).
        ASSERT_LT(after[s], after.size());
        EXPECT_EQ(after[after[s]], s);
        EXPECT_NE(after[s], s);
        // The payload that landed in s came from a slot of the same node
        // (a rewire permutes each node's own slot range only)...
        const std::uint32_t origin = tag[s];
        EXPECT_EQ(owner[s], owner[origin]);
        // ...and its physical counterpart moved with it: the slot paired
        // with s now holds exactly the payload that was paired with
        // `origin` before. Together these say every physical directed
        // edge — endpoints AND in-flight payload — survived intact, so
        // the edge multiset and degree sequence are unchanged.
        EXPECT_EQ(tag[after[s]], before[origin]);
    }
}

std::vector<std::uint32_t> iota_tags(std::size_t slots) {
    std::vector<std::uint32_t> tag(slots);
    std::iota(tag.begin(), tag.end(), 0);
    return tag;
}

TEST(SlotLayout, MirrorsGraphPeerTable) {
    const graph g = make_family(graph_family::dumbbell, 20, 3);
    const std::vector<std::uint32_t> peer = peer_slots(g);
    const std::vector<node_id> owner = slot_owners(g);
    ASSERT_EQ(peer.size(), 2 * g.num_edges());
    ASSERT_EQ(owner.size(), peer.size());
    ASSERT_EQ(g.offset(0), 0u);
    for (node_id u = 0; u < g.num_nodes(); ++u) {
        for (port_id p = 0; p < g.degree(u); ++p) {
            const auto s = static_cast<std::uint32_t>(g.offset(u) + p);
            EXPECT_EQ(owner[s], u);
            EXPECT_EQ(owner[peer[s]], g.neighbor(u, p));
            EXPECT_EQ(peer[peer[s]], s);
        }
    }
}

TEST(PortRewire, EmptyNodeListIsANoOp) {
    const graph g = make_cycle(12);
    std::vector<std::uint32_t> peer = peer_slots(g);
    const std::vector<std::uint32_t> before = peer;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> moves;
    apply_port_rewire(g, slot_owners(g), peer, {}, 99, moves);
    EXPECT_EQ(peer, before);
    EXPECT_TRUE(moves.empty());
}

TEST(PortRewire, SubsetRewirePreservesMultigraph) {
    for (const graph_family f :
         {graph_family::cycle, graph_family::dumbbell, graph_family::torus,
          graph_family::barbell, graph_family::barabasi_albert}) {
        const graph g = make_family(f, 24, 5);
        const std::vector<node_id> owner = slot_owners(g);
        std::vector<std::uint32_t> peer = peer_slots(g);
        const std::vector<std::uint32_t> before = peer;
        // An arbitrary sorted subset: every third node.
        std::vector<node_id> nodes;
        for (node_id u = 0; u < g.num_nodes(); u += 3) nodes.push_back(u);
        std::vector<std::pair<std::uint32_t, std::uint32_t>> moves;
        apply_port_rewire(g, owner, peer, nodes, 7, moves);
        const auto tag = relocate(iota_tags(before.size()), moves);
        expect_rewire_invariants(owner, before, peer, tag);
    }
}

TEST(PortRewire, RepeatedRewiresStayConsistent) {
    const graph g = make_family(graph_family::connected_caveman, 30, 2);
    const std::vector<node_id> owner = slot_owners(g);
    std::vector<std::uint32_t> peer = peer_slots(g);
    auto tag = iota_tags(peer.size());
    for (std::uint64_t round = 0; round < 8; ++round) {
        const std::vector<std::uint32_t> before = peer;
        // Alternate between all nodes, singletons and small ranges.
        std::vector<node_id> nodes;
        if (round % 3 == 0) {
            for (node_id u = 0; u < g.num_nodes(); ++u) nodes.push_back(u);
        } else if (round % 3 == 1) {
            nodes = {static_cast<node_id>(round % g.num_nodes())};
        } else {
            nodes = {1, 2, 5, 13};
        }
        std::vector<std::pair<std::uint32_t, std::uint32_t>> moves;
        apply_port_rewire(g, owner, peer, nodes, 1000 + round, moves);
        // Fresh tags per step so the invariant audit sees one rewire.
        const auto step_tag = relocate(iota_tags(before.size()), moves);
        expect_rewire_invariants(owner, before, peer, step_tag);
        tag = relocate(std::move(tag), moves);
    }
    // Across all eight rewires, every slot's payload never left its node.
    for (std::uint32_t s = 0; s < tag.size(); ++s) {
        EXPECT_EQ(owner[s], owner[tag[s]]);
    }
}

TEST(PortRewire, DeterministicInSeed) {
    const graph g = make_family(graph_family::torus, 16, 1);
    std::vector<node_id> all(g.num_nodes());
    std::iota(all.begin(), all.end(), 0);
    const std::vector<node_id> owner = slot_owners(g);
    std::vector<std::uint32_t> a = peer_slots(g), b = a, c = a;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ma, mb, mc;
    apply_port_rewire(g, owner, a, all, 4242, ma);
    apply_port_rewire(g, owner, b, all, 4242, mb);
    EXPECT_EQ(a, b);
    EXPECT_EQ(ma, mb);
    apply_port_rewire(g, owner, c, all, 4243, mc);
    EXPECT_NE(c, a);
}

// The reduction the dynamics layer is built on: rewiring EVERY node with
// seed S transforms the peer table into exactly the peer table of
// g.with_permuted_ports(S) — both sides draw per-node permutations from
// fill_port_permutation.
TEST(PortRewire, FullRewireEqualsWithPermutedPorts) {
    for (const std::uint64_t seed : {1ull, 77ull, 123456789ull}) {
        const graph g = make_family(graph_family::watts_strogatz, 40, 9);
        std::vector<std::uint32_t> peer = peer_slots(g);
        std::vector<node_id> all(g.num_nodes());
        std::iota(all.begin(), all.end(), 0);
        std::vector<std::pair<std::uint32_t, std::uint32_t>> moves;
        apply_port_rewire(g, slot_owners(g), peer, all, seed, moves);
        EXPECT_EQ(peer, peer_slots(g.with_permuted_ports(seed))) << "seed " << seed;
    }
}

// --- with_permuted_ports regression audit ------------------------------------

// Regression: with_permuted_ports used to build its result around the
// (now removed) private default constructor, assigning members one by
// one — any member added later shipped half-initialized in the permuted
// copy. It now copies the whole graph first and permutes the adjacency
// in place; this pins every non-adjacency member.
TEST(WithPermutedPorts, CopiesEveryMemberOfTheSource) {
    graph g = make_family(graph_family::lollipop, 24, 4);
    graph_facts facts;
    facts.diameter = 13;
    facts.conductance = 0.125;
    facts.isoperimetric = 0.5;
    facts.mixing_time = 77;
    g.set_facts(facts);

    const graph p = g.with_permuted_ports(3);
    EXPECT_EQ(p.name(), g.name() + "+permports");
    EXPECT_EQ(p.num_nodes(), g.num_nodes());
    EXPECT_EQ(p.num_edges(), g.num_edges());
    EXPECT_EQ(p.max_degree(), g.max_degree());
    ASSERT_TRUE(p.facts().diameter.has_value());
    EXPECT_EQ(*p.facts().diameter, 13u);
    ASSERT_TRUE(p.facts().conductance.has_value());
    EXPECT_EQ(*p.facts().conductance, 0.125);
    ASSERT_TRUE(p.facts().isoperimetric.has_value());
    EXPECT_EQ(*p.facts().isoperimetric, 0.5);
    ASSERT_TRUE(p.facts().mixing_time.has_value());
    EXPECT_EQ(*p.facts().mixing_time, 77u);
}

TEST(WithPermutedPorts, PermutesLabelsNotTopology) {
    const graph g = make_family(graph_family::random_geometric, 32, 6);
    const graph p = g.with_permuted_ports(11);
    for (node_id u = 0; u < g.num_nodes(); ++u) {
        ASSERT_EQ(p.degree(u), g.degree(u));
        // Same neighbor multiset under both labelings...
        std::multiset<node_id> orig, perm;
        for (port_id q = 0; q < g.degree(u); ++q) {
            orig.insert(g.neighbor(u, q));
            perm.insert(p.neighbor(u, q));
        }
        EXPECT_EQ(perm, orig);
        // ...and reverse ports stay mutually consistent.
        for (port_id q = 0; q < p.degree(u); ++q) {
            const node_id v = p.neighbor(u, q);
            EXPECT_EQ(p.neighbor(v, p.reverse_port(u, q)), u);
            EXPECT_EQ(p.reverse_port(v, p.reverse_port(u, q)), q);
        }
    }
    // Same canonical u < v edge multiset (edge_list enumerates in port
    // order, which the permutation shuffles — sort before comparing).
    auto ge = g.edge_list(), pe = p.edge_list();
    std::sort(ge.begin(), ge.end());
    std::sort(pe.begin(), pe.end());
    EXPECT_EQ(ge, pe);
}

TEST(FillPortPermutation, UniformPermutationDeterministicPerNode) {
    std::vector<port_id> a(7), b(7);
    fill_port_permutation(5, 3, a);
    fill_port_permutation(5, 3, b);
    EXPECT_EQ(a, b);
    std::vector<port_id> sorted = a;
    std::sort(sorted.begin(), sorted.end());
    for (port_id p = 0; p < 7; ++p) EXPECT_EQ(sorted[p], p);
    fill_port_permutation(5, 4, b);  // same seed, different node
    EXPECT_NE(a, b);
}

}  // namespace
}  // namespace anole
