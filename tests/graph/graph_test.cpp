// Tests for graph/graph.h: CSR structure, port numbering, validation,
// and the anonymity adversary (port permutation).
#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/generators.h"

namespace anole {
namespace {

TEST(Graph, TriangleBasics) {
    graph g(3, {{0, 1}, {1, 2}, {0, 2}});
    EXPECT_EQ(g.num_nodes(), 3u);
    EXPECT_EQ(g.num_edges(), 3u);
    for (node_id u = 0; u < 3; ++u) EXPECT_EQ(g.degree(u), 2u);
    EXPECT_EQ(g.max_degree(), 2u);
}

TEST(Graph, ReversePortRoundTrip) {
    // Property: following a port and its reverse returns to the origin,
    // for every (node, port) pair, across several families.
    for (auto fam : {graph_family::torus, graph_family::random_regular,
                     graph_family::binary_tree, graph_family::complete}) {
        const graph g = make_family(fam, 36, 5);
        for (node_id u = 0; u < g.num_nodes(); ++u) {
            for (port_id p = 0; p < g.degree(u); ++p) {
                const node_id v = g.neighbor(u, p);
                const port_id q = g.reverse_port(u, p);
                ASSERT_LT(q, g.degree(v));
                EXPECT_EQ(g.neighbor(v, q), u) << g.name();
                EXPECT_EQ(g.reverse_port(v, q), p) << g.name();
            }
        }
    }
}

TEST(Graph, RejectsSelfLoop) {
    EXPECT_THROW(graph(2, {{0, 0}, {0, 1}}), error);
}

TEST(Graph, RejectsParallelEdges) {
    EXPECT_THROW(graph(2, {{0, 1}, {1, 0}}), error);
}

TEST(Graph, RejectsOutOfRange) {
    EXPECT_THROW(graph(2, {{0, 5}}), error);
}

TEST(Graph, FirstOffendingEdgeNamesTheError) {
    // Edges are checked in input order: the first edge that is out of
    // range, a self-loop or a repeat of an earlier edge names the error.
    const auto message = [](std::size_t n,
                            std::vector<std::pair<node_id, node_id>> edges) {
        try {
            (void)graph(n, edges);
        } catch (const error& e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    const std::string range = "graph: edge endpoint out of range";
    const std::string loop = "graph: self-loops not allowed";
    const std::string parallel = "graph: parallel edges not allowed";
    EXPECT_EQ(message(3, {{0, 1}, {1, 0}, {0, 5}}), parallel);
    EXPECT_EQ(message(3, {{0, 5}, {0, 1}, {1, 0}}), range);
    EXPECT_EQ(message(3, {{0, 1}, {1, 1}, {1, 0}}), loop);
    EXPECT_EQ(message(3, {{0, 1}, {2, 2}, {9, 0}}), loop);
    EXPECT_EQ(message(3, {{0, 7}, {0, 0}}), range);
    EXPECT_EQ(message(3, {{0, 1}, {0, 2}, {2, 0}, {1, 1}}), parallel);
    EXPECT_EQ(message(4, {{3, 1}, {0, 2}, {2, 3}, {1, 3}}), parallel);
    EXPECT_EQ(message(3, {{0, 1}, {1, 2}}), "no error");
}

TEST(Graph, RejectsDisconnected) {
    EXPECT_THROW(graph(4, {{0, 1}, {2, 3}}), error);
}

TEST(Graph, SingletonAllowed) {
    graph g(1, {});
    EXPECT_EQ(g.num_nodes(), 1u);
    EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, PortTo) {
    graph g(3, {{0, 1}, {1, 2}, {0, 2}});
    EXPECT_EQ(g.neighbor(0, g.port_to(0, 2)), 2u);
    EXPECT_EQ(g.neighbor(1, g.port_to(1, 0)), 0u);
    EXPECT_THROW((void)g.port_to(0, 0), error);  // not an edge (self)
}

TEST(Graph, EdgeListNormalized) {
    graph g = make_cycle(5);
    const auto es = g.edge_list();
    EXPECT_EQ(es.size(), 5u);
    for (auto [u, v] : es) EXPECT_LT(u, v);
}

TEST(Graph, PermutedPortsPreserveTopology) {
    const graph g = make_torus(5, 5);
    const graph h = g.with_permuted_ports(99);
    ASSERT_EQ(h.num_nodes(), g.num_nodes());
    ASSERT_EQ(h.num_edges(), g.num_edges());
    for (node_id u = 0; u < g.num_nodes(); ++u) {
        ASSERT_EQ(h.degree(u), g.degree(u));
        // Same neighbor multiset, possibly different port order.
        std::multiset<node_id> a, b;
        for (port_id p = 0; p < g.degree(u); ++p) {
            a.insert(g.neighbor(u, p));
            b.insert(h.neighbor(u, p));
        }
        EXPECT_EQ(a, b);
        // Reverse ports still consistent.
        for (port_id p = 0; p < h.degree(u); ++p) {
            const node_id v = h.neighbor(u, p);
            EXPECT_EQ(h.neighbor(v, h.reverse_port(u, p)), u);
        }
    }
}

TEST(Graph, PermutedPortsActuallyPermute) {
    const graph g = make_complete(16);
    const graph h = g.with_permuted_ports(7);
    // With 15 ports per node, at least one node must see a changed order.
    bool changed = false;
    for (node_id u = 0; u < g.num_nodes() && !changed; ++u) {
        for (port_id p = 0; p < g.degree(u); ++p) {
            if (g.neighbor(u, p) != h.neighbor(u, p)) {
                changed = true;
                break;
            }
        }
    }
    EXPECT_TRUE(changed);
}

TEST(Graph, PermutationDeterministicInSeed) {
    const graph g = make_torus(4, 4);
    const graph h1 = g.with_permuted_ports(5);
    const graph h2 = g.with_permuted_ports(5);
    for (node_id u = 0; u < g.num_nodes(); ++u) {
        for (port_id p = 0; p < g.degree(u); ++p) {
            EXPECT_EQ(h1.neighbor(u, p), h2.neighbor(u, p));
        }
    }
}

TEST(Graph, FactsPropagateThroughPermutation) {
    graph g = make_cycle(8);
    ASSERT_TRUE(g.facts().diameter.has_value());
    const graph h = g.with_permuted_ports(3);
    EXPECT_EQ(h.facts().diameter, g.facts().diameter);
    EXPECT_NE(h.name(), g.name());
}

}  // namespace
}  // namespace anole
