// Tests for graph/lanczos.h: the sparse Lanczos eigensolver behind
// lambda2_lazy / fiedler_vector.
//
//   * n=64, all 19 zoo families: the Ritz value must match a dense Jacobi
//     eigensolver (written here, no shared code) to 1e-7.
//   * n=256, all 19 families: eigenpair property checked independently
//     (one matvec in the test), plus deflation (the returned vector is
//     orthogonal to the known top eigenvector) and closed forms for
//     cycle/complete; power-iteration cross-check on sparse families.
//   * The sharded path must be bitwise identical for every pool size.
//   * Profiles and Fiedler vectors of all 19 families at n=64 and 1024
//     are pinned bit for bit by digest.
#include "graph/lanczos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/spectral.h"
#include "sim/thread_pool.h"

namespace anole {
namespace {

// Dense symmetrized lazy matrix N = I/2 + D^{-1/2} A D^{-1/2} / 2.
std::vector<std::vector<double>> dense_lazy(const graph& g) {
    const std::size_t n = g.num_nodes();
    std::vector<std::vector<double>> a(n, std::vector<double>(n, 0.0));
    for (node_id u = 0; u < n; ++u) {
        a[u][u] = 0.5;
        const double su = 1.0 / std::sqrt(static_cast<double>(g.degree(u)));
        for (node_id v : g.neighbors(u)) {
            a[u][v] += 0.5 * su / std::sqrt(static_cast<double>(g.degree(v)));
        }
    }
    return a;
}

// Cyclic Jacobi eigenvalue iteration; returns all eigenvalues sorted
// descending. O(n³) per sweep — test sizes only.
std::vector<double> jacobi_eigenvalues(std::vector<std::vector<double>> a) {
    const std::size_t n = a.size();
    for (int sweep = 0; sweep < 60; ++sweep) {
        double off = 0.0;
        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) off += a[p][q] * a[p][q];
        }
        if (off < 1e-24) break;
        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) {
                if (std::abs(a[p][q]) < 1e-15) continue;
                const double theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                const double t = (theta >= 0 ? 1.0 : -1.0) /
                                 (std::abs(theta) + std::sqrt(theta * theta + 1.0));
                const double c = 1.0 / std::sqrt(t * t + 1.0);
                const double s = t * c;
                for (std::size_t k = 0; k < n; ++k) {
                    const double akp = a[k][p], akq = a[k][q];
                    a[k][p] = c * akp - s * akq;
                    a[k][q] = s * akp + c * akq;
                }
                for (std::size_t k = 0; k < n; ++k) {
                    const double apk = a[p][k], aqk = a[q][k];
                    a[p][k] = c * apk - s * aqk;
                    a[q][k] = s * apk + c * aqk;
                }
            }
        }
    }
    std::vector<double> eig(n);
    for (std::size_t i = 0; i < n; ++i) eig[i] = a[i][i];
    std::sort(eig.begin(), eig.end(), std::greater<>());
    return eig;
}

TEST(Lanczos, MatchesDenseJacobiOnAllFamilies64) {
    for (graph_family f : all_families()) {
        const graph g = make_family(f, 64, 1);
        const double expect = jacobi_eigenvalues(dense_lazy(g))[1];
        const lanczos_result r = lanczos_lambda2(g);
        EXPECT_NEAR(r.lambda2, expect, 1e-7)
            << to_string(f) << " n=" << g.num_nodes();
        EXPECT_LE(r.residual, 1e-6) << to_string(f);
    }
}

TEST(Lanczos, EigenpairPropertyOnAllFamilies256) {
    for (graph_family f : all_families()) {
        const graph g = make_family(f, 256, 1);
        const std::size_t n = g.num_nodes();
        const lanczos_result r = lanczos_lambda2(g);
        ASSERT_EQ(r.fiedler.size(), n) << to_string(f);
        EXPECT_GE(r.lambda2, 0.0) << to_string(f);
        EXPECT_LE(r.lambda2, 1.0) << to_string(f);
        EXPECT_LE(r.residual, 1e-6) << to_string(f);

        // Undo the D^{-1/2} output scaling to recover the raw unit
        // eigenvector of N, then check N v = θ v and v ⊥ √d directly.
        std::vector<double> v(n), sqrt_d(n);
        double nv = 0.0, nd = 0.0;
        for (node_id u = 0; u < n; ++u) {
            sqrt_d[u] = std::sqrt(static_cast<double>(g.degree(u)));
            v[u] = r.fiedler[u] * sqrt_d[u];
            nv += v[u] * v[u];
            nd += g.degree(u);
        }
        nv = std::sqrt(nv);
        ASSERT_GT(nv, 0.0) << to_string(f);
        double dot_top = 0.0, res2 = 0.0;
        for (node_id u = 0; u < n; ++u) {
            double s = 0.0;
            for (node_id w : g.neighbors(u)) {
                s += v[w] / nv / sqrt_d[w];
            }
            const double nvu = 0.5 * v[u] / nv + 0.5 / sqrt_d[u] * s;
            const double d = nvu - r.lambda2 * v[u] / nv;
            res2 += d * d;
            dot_top += (v[u] / nv) * (sqrt_d[u] / std::sqrt(nd));
        }
        EXPECT_LE(std::sqrt(res2), 1e-6) << to_string(f);
        EXPECT_LE(std::abs(dot_top), 1e-7) << to_string(f);
    }
}

TEST(Lanczos, ClosedFormsAt256) {
    const double l_complete = lanczos_lambda2(make_complete(256)).lambda2;
    EXPECT_NEAR(l_complete, 0.5 - 0.5 / 255.0, 1e-8);
    const double l_cycle = lanczos_lambda2(make_cycle(256)).lambda2;
    EXPECT_NEAR(l_cycle, 0.5 + 0.5 * std::cos(2.0 * M_PI / 256.0), 1e-8);
}

TEST(Lanczos, AgreesWithPowerIterationOnSparseFamilies256) {
    for (graph_family f : {graph_family::cycle, graph_family::watts_strogatz,
                           graph_family::barabasi_albert, graph_family::binary_tree}) {
        const graph g = make_family(f, 256, 1);
        const double lan = lanczos_lambda2(g).lambda2;
        const double pow = lambda2_power(g);
        EXPECT_NEAR(lan, pow, 1e-6) << to_string(f);
    }
}

// hypercube 65536 has two 32768-element blocks, so the pools there shard
// every matvec, dot and fused update and reduce two partials per dot.
TEST(Lanczos, BitwiseIdenticalForEveryPoolSize) {
    thread_pool p2(2), p8(8);
    const std::pair<graph_family, std::size_t> cases[] = {
        {graph_family::dumbbell, 256},          {graph_family::connected_caveman, 256},
        {graph_family::barabasi_albert, 256},   {graph_family::torus, 256},
        {graph_family::hypercube, 65536},
    };
    for (const auto& [f, n] : cases) {
        const graph g = make_family(f, n, 1);
        const lanczos_result serial = lanczos_lambda2(g);
        for (thread_pool* pool : {&p2, &p8}) {
            lanczos_options opt;
            opt.pool = pool;
            const lanczos_result r = lanczos_lambda2(g, opt);
            EXPECT_EQ(r.lambda2, serial.lambda2) << to_string(f) << " n=" << n;  // bitwise
            EXPECT_EQ(r.iterations, serial.iterations) << to_string(f) << " n=" << n;
            EXPECT_EQ(r.residual, serial.residual) << to_string(f) << " n=" << n;
            ASSERT_EQ(r.fiedler.size(), serial.fiedler.size()) << to_string(f) << " n=" << n;
            for (std::size_t i = 0; i < r.fiedler.size(); ++i) {
                ASSERT_EQ(r.fiedler[i], serial.fiedler[i])
                    << to_string(f) << " n=" << n << " component " << i;
            }
        }
    }
}

TEST(Lanczos, ExplicitBudgetIsHonored) {
    const graph g = make_cycle(64);
    lanczos_options opt;
    opt.max_iters = 5;
    const lanczos_result r = lanczos_lambda2(g, opt);
    EXPECT_LE(r.iterations, 5u);
    // 5 Krylov steps cannot resolve the cycle's clustered spectrum.
    EXPECT_FALSE(r.converged);
}

TEST(Lanczos, ProfileBitsPinned) {
    // FNV-1a digests of profile(g).to_json() and of fiedler_vector(g)'s
    // bytes, pinned before tridiag_largest stopped its bisection early.
    // They guard every later change to the profile path: a change that
    // moves one bit of a profile field or of the Fiedler vector fails here.
    // n = 256 is where the tmix cost model first sends six families
    // (path, ring_of_cliques, barbell, lollipop, dumbbell, caveman) from
    // the dense simulation to the spectral bound.
    const auto fnv = [](const void* data, std::size_t len) {
        std::uint64_t h = 1469598103934665603ULL;
        const auto* bytes = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < len; ++i) {
            h ^= bytes[i];
            h *= 1099511628211ULL;
        }
        return h;
    };
    struct pin {
        graph_family family;
        std::size_t n;
        std::uint64_t profile_json, fiedler_bits;
    };
    const pin pins[] = {
        {graph_family::path, 64, 0xe23534e2d0e26fe5ULL, 0x7ad68b3ad49d3728ULL},
        {graph_family::cycle, 64, 0xaaad5046008547aaULL, 0x00c8528dd7ceba8eULL},
        {graph_family::complete, 64, 0xd55db2b5195499faULL, 0x119379893da8818eULL},
        {graph_family::star, 64, 0xab4282258cc7a1baULL, 0xe2a57866a4b04a75ULL},
        {graph_family::grid2d, 64, 0x8daf044e5766fdcfULL, 0x42cc457b8c278af8ULL},
        {graph_family::torus, 64, 0x1ed41d53de4277d5ULL, 0xa32c563b6ea9726eULL},
        {graph_family::hypercube, 64, 0x7168ef8559a0528fULL, 0x67bd626d5c62048aULL},
        {graph_family::binary_tree, 64, 0x8b2ef825a2c8fdccULL, 0x265f50e4e05c003dULL},
        {graph_family::random_regular, 64, 0xcbc451712cab5d5eULL, 0x52b2b50e25083055ULL},
        {graph_family::erdos_renyi, 64, 0xeab2f31506d3a784ULL, 0x53514681813c92f5ULL},
        {graph_family::ring_of_cliques, 64, 0x0cccf05251574a8cULL, 0xf0d925edf949384fULL},
        {graph_family::barbell, 64, 0xec9cf2587c504c5eULL, 0x75e23ed87ec6301cULL},
        {graph_family::lollipop, 64, 0x25a8d79bb488598aULL, 0xcbeb10b1fb4c4a2dULL},
        {graph_family::dumbbell, 64, 0x69177f5e1589eb3eULL, 0xf445b59f4aa899c1ULL},
        {graph_family::wheel, 64, 0x7f850fb6d8d518ddULL, 0x50ef4bdcead02f96ULL},
        {graph_family::watts_strogatz, 64, 0x2dc6f90f2daedc57ULL, 0x74855a82bbad2e62ULL},
        {graph_family::barabasi_albert, 64, 0x0c046d432be7f5edULL, 0xfa891ea89658ee51ULL},
        {graph_family::random_geometric, 64, 0xe1de547c8e679059ULL, 0xb2a155d5ed4ecfe2ULL},
        {graph_family::connected_caveman, 64, 0x4a58422d4cc5bd01ULL, 0xbae56ddff4465dceULL},
        {graph_family::path, 256, 0x25c6135081405465ULL, 0xa5c55da93516762cULL},
        {graph_family::cycle, 256, 0xc412d35b4e687aacULL, 0x56d19c92562ee9c1ULL},
        {graph_family::complete, 256, 0x2872bbd7b1c74d16ULL, 0xbd7f62211e5e415aULL},
        {graph_family::star, 256, 0xef06f9ed68cbbd65ULL, 0x19ca95351214b94bULL},
        {graph_family::grid2d, 256, 0x4f6f933042a48c68ULL, 0xed5ac8de3e60c6fbULL},
        {graph_family::torus, 256, 0x420f86d5fb67d754ULL, 0x4944a95c974a3840ULL},
        {graph_family::hypercube, 256, 0x08d4eb7b4cfd065eULL, 0x18e5ba72687942a9ULL},
        {graph_family::binary_tree, 256, 0x4438f7bac28aaab5ULL, 0xb108d0439c84b163ULL},
        {graph_family::random_regular, 256, 0xf29be19c695ed156ULL, 0x42e4a985ee46e950ULL},
        {graph_family::erdos_renyi, 256, 0xa6ff4e862cc42c6dULL, 0xb6148b78fc0e7361ULL},
        {graph_family::ring_of_cliques, 256, 0x0db88a69952b5406ULL, 0xd146fbea7308a96fULL},
        {graph_family::barbell, 256, 0x07cde0b18ab2bd19ULL, 0xd71acd8ea84f10dbULL},
        {graph_family::lollipop, 256, 0xff9839a22bb01ef2ULL, 0x6456f48c0ed820e9ULL},
        {graph_family::dumbbell, 256, 0x19787842e62a80e2ULL, 0x22a7f16eb609afc1ULL},
        {graph_family::wheel, 256, 0x9b545fa0e95283d9ULL, 0x0c759fe4699955feULL},
        {graph_family::watts_strogatz, 256, 0x796454d94d0acaf8ULL, 0xbd27e55e84f387b8ULL},
        {graph_family::barabasi_albert, 256, 0x1ca9a571d798560aULL, 0x1cf7d30e6589e764ULL},
        {graph_family::random_geometric, 256, 0xac0121a544ee86e0ULL, 0xc81e6c09133f0868ULL},
        {graph_family::connected_caveman, 256, 0x029e3ca8e03a2ef8ULL, 0x2cbd75f4b079322cULL},
        {graph_family::path, 1024, 0x18e8025862f53781ULL, 0x710de6dd7eab8e82ULL},
        {graph_family::cycle, 1024, 0x046dcc25eb0f923aULL, 0x1d396dd5a98b20abULL},
        {graph_family::complete, 1024, 0x32b86421c248f96eULL, 0x7c795e2dbfc90df3ULL},
        {graph_family::star, 1024, 0x7ad92d69a2982b48ULL, 0xdc3f610be0f84950ULL},
        {graph_family::grid2d, 1024, 0x2e12405d775bf6fcULL, 0x3ff45372fcc06516ULL},
        {graph_family::torus, 1024, 0x8a017964ff65ca47ULL, 0xfaa94b97f3ab8668ULL},
        {graph_family::hypercube, 1024, 0x558638b95c89dbadULL, 0x55c40ae64e77ce41ULL},
        {graph_family::binary_tree, 1024, 0xdd933b17975f7952ULL, 0x7761603e35792425ULL},
        {graph_family::random_regular, 1024, 0x7836d0a12f886f71ULL, 0x26820b9c8eb71240ULL},
        {graph_family::erdos_renyi, 1024, 0x8d60cb3d42e1be1eULL, 0x193d1c32311facf8ULL},
        {graph_family::ring_of_cliques, 1024, 0x83565a002c79ae28ULL, 0xd99355768f64dcb3ULL},
        {graph_family::barbell, 1024, 0x4dcc3ba38f86a272ULL, 0x50ddf74ae3b9a367ULL},
        {graph_family::lollipop, 1024, 0xc7dc34fbdc5d6ff0ULL, 0x72f58de127edf5e3ULL},
        {graph_family::dumbbell, 1024, 0x2c7cfdda3cb3c436ULL, 0x5ad1c222860bf7acULL},
        {graph_family::wheel, 1024, 0x3778b76845db0006ULL, 0x8c8f9267e4c4c53dULL},
        {graph_family::watts_strogatz, 1024, 0xe16e9e1cd9583521ULL, 0xd751378635465d26ULL},
        {graph_family::barabasi_albert, 1024, 0x5b051af7613f8721ULL, 0xeb8d419bf197d44aULL},
        {graph_family::random_geometric, 1024, 0xb26cc67c2278c7e5ULL, 0x412735a67296a651ULL},
        {graph_family::connected_caveman, 1024, 0xc0d29fa38d436033ULL, 0x6f14c64542293be9ULL},
    };
    for (const pin& p : pins) {
        const graph g = make_family(p.family, p.n, 1);
        const std::string json = profile(g).to_json();
        const std::vector<double> fied = fiedler_vector(g);
        EXPECT_EQ(fnv(json.data(), json.size()), p.profile_json)
            << to_string(p.family) << " n=" << p.n << ": " << json;
        EXPECT_EQ(fnv(fied.data(), fied.size() * sizeof(double)), p.fiedler_bits)
            << to_string(p.family) << " n=" << p.n;
    }
}

TEST(Lanczos, RejectsSingletons) {
    EXPECT_THROW((void)lanczos_lambda2(make_complete(1)), error);
}

}  // namespace
}  // namespace anole
