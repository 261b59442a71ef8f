// Cross-module integration tests: the full experiment pipeline the bench
// harness is built on (profile a graph, run every protocol, compare).
#include <gtest/gtest.h>

#include "baseline/flood_max.h"
#include "baseline/gilbert_le.h"
#include "core/irrevocable.h"
#include "core/revocable.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "graph/spectral.h"
#include "util/stats.h"

namespace anole {
namespace {

TEST(Pipeline, AllProtocolsElectOnTheSameGraph) {
    graph g = make_random_regular(64, 4, 3);
    const auto prof = profile(g);

    const auto fr = run_flood_max(g, prof.diameter, 5);
    EXPECT_TRUE(fr.success);

    gilbert_params gp;
    gp.n = g.num_nodes();
    gp.tmix = prof.mixing_time;
    const auto gr = run_gilbert(g, gp, 5);
    EXPECT_TRUE(gr.success);

    irrevocable_params ip;
    ip.n = g.num_nodes();
    ip.tmix = prof.mixing_time;
    ip.phi = prof.conductance;
    const auto ir = run_irrevocable(g, ip, 5);
    EXPECT_TRUE(ir.success);

    auto rp = revocable_params::scaled(std::nullopt, 0.02, 0.12);
    const auto rr = run_revocable(g, rp, 5, 50'000'000);
    EXPECT_TRUE(rr.success);
}

TEST(Pipeline, MessageOrderingMatchesTable1OnExpander) {
    // The paper's Theorem 1 claim, as a shape: on a well-connected graph
    // our protocol needs fewer messages than the Gilbert-style baseline.
    graph g = make_random_regular(256, 4, 7);
    const auto prof = profile(g);

    gilbert_params gp;
    gp.n = g.num_nodes();
    gp.tmix = prof.mixing_time;

    irrevocable_params ip;
    ip.n = g.num_nodes();
    ip.tmix = prof.mixing_time;
    ip.phi = prof.conductance;

    sample_stats ours, theirs;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        ours.add(static_cast<double>(run_irrevocable(g, ip, seed).totals.messages));
        theirs.add(static_cast<double>(run_gilbert(g, gp, seed).totals.messages));
    }
    EXPECT_LT(ours.mean() * 2.0, theirs.mean());
}

TEST(Pipeline, CongestBitsPerMessageIsLogarithmic) {
    graph g = make_torus(8, 8);
    const auto prof = profile(g);
    irrevocable_params ip;
    ip.n = g.num_nodes();
    ip.tmix = prof.mixing_time;
    ip.phi = prof.conductance;
    const auto r = run_irrevocable(g, ip, 3);
    const double bits_per_msg = static_cast<double>(r.totals.bits) /
                                static_cast<double>(r.totals.messages);
    // O(log n) with our constants: comfortably under 16·log2(n).
    EXPECT_LE(bits_per_msg, 16.0 * std::log2(64.0));
    EXPECT_GE(bits_per_msg, 3.0);
}

TEST(Pipeline, PermutedPortsGiveSameSuccessProfile) {
    // Anonymity end-to-end: relabeling ports must not change whether the
    // protocol family succeeds (it may change which node wins).
    graph g = make_torus(6, 6);
    const auto prof = profile(g);
    irrevocable_params ip;
    ip.n = g.num_nodes();
    ip.tmix = prof.mixing_time;
    ip.phi = prof.conductance;
    graph h = g.with_permuted_ports(321);
    int base = 0, perm = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        base += run_irrevocable(g, ip, seed).success ? 1 : 0;
        perm += run_irrevocable(h, ip, seed).success ? 1 : 0;
    }
    EXPECT_GE(base, 4);
    EXPECT_GE(perm, 4);
}

TEST(Pipeline, ProfileFeedsConsistentInputs) {
    // The protocol inputs derived from profile() must satisfy the known
    // analytic relations 1/Φ <= tmix (up to constants) used in §4.
    for (auto fam : {graph_family::cycle, graph_family::torus,
                     graph_family::random_regular}) {
        graph g = make_family(fam, 64, 3);
        const auto prof = profile(g);
        EXPECT_GT(prof.conductance, 0.0) << to_string(fam);
        EXPECT_GE(static_cast<double>(prof.mixing_time) * prof.conductance, 0.4)
            << to_string(fam);
    }
}

}  // namespace
}  // namespace anole
