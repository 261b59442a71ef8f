// Tests for graph/layout.h: quadtree mass/centroid bookkeeping, the
// Barnes–Hut approximation against the exact pairwise sum, closed-form
// force sanity, bitwise determinism across thread-pool sizes (also when
// the layout runs inside a job of its own pool), the multilevel pass's
// quality and its single-level fallback, and the SVG renderer's caps.
#include "graph/layout.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "graph/generators.h"
#include "sim/thread_pool.h"
#include "util/rng.h"

namespace anole {
namespace {

TEST(BhQuadtree, MassAndCentroidMatchTheBodySet) {
    const std::vector<layout_point> pts = {
        {0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}, {0.25, 0.75}};
    bh_quadtree tree;
    tree.build(pts);
    EXPECT_DOUBLE_EQ(tree.total_mass(), 5.0);
    double sx = 0, sy = 0;
    for (const layout_point& p : pts) {
        sx += p.x;
        sy += p.y;
    }
    const layout_point c = tree.centroid();
    EXPECT_DOUBLE_EQ(c.x, sx / 5);
    EXPECT_DOUBLE_EQ(c.y, sy / 5);
    EXPECT_GE(tree.cell_count(), 1u);

    bh_quadtree empty;
    empty.build({});
    EXPECT_DOUBLE_EQ(empty.total_mass(), 0.0);
}

TEST(BhQuadtree, CoincidentPointsFoldIntoAggregateLeaves) {
    // 64 bodies at one coordinate would recurse forever without the
    // depth cap; with it they fold into an aggregate leaf.
    std::vector<layout_point> pts(64, layout_point{0.5, 0.5});
    pts.push_back({0.9, 0.9});
    bh_quadtree tree;
    tree.build(pts);
    EXPECT_DOUBLE_EQ(tree.total_mass(), 65.0);

    // The probe body inside the pile is excluded from its own force: the
    // 63 coincident companions contribute zero net direction (they sit
    // exactly at the probe), so the only pull is from the far body.
    const layout_point f = tree.repulsion(pts[0], 0, 1.0, 0.0);
    EXPECT_LT(f.x, 0.0);  // pushed away from (0.9, 0.9)
    EXPECT_LT(f.y, 0.0);
}

TEST(BhQuadtree, ThetaZeroMatchesBruteForcePairwiseSum) {
    // theta = 0 opens every cell: the traversal must reproduce the exact
    // O(V²) sum. Then theta = 0.85 must stay within a few percent.
    // Seeded uniform points are irregular at every scale, as a layout is
    // before it settles.
    std::vector<layout_point> pts(200);
    xoshiro256ss rng(7);
    for (layout_point& p : pts) p = {rng.uniform01(), rng.uniform01()};

    bh_quadtree tree;
    tree.build(pts);
    const double k = std::sqrt(1.0 / static_cast<double>(pts.size()));
    for (const std::size_t probe : {std::size_t{0}, std::size_t{57}, std::size_t{199}}) {
        layout_point exact{0, 0};
        for (std::size_t j = 0; j < pts.size(); ++j) {
            if (j == probe) continue;
            const double dx = pts[probe].x - pts[j].x;
            const double dy = pts[probe].y - pts[j].y;
            const double d2 = std::max(dx * dx + dy * dy, 1e-12);
            exact.x += dx * k * k / d2;
            exact.y += dy * k * k / d2;
        }
        const layout_point bh0 = tree.repulsion(pts[probe], probe, k, 0.0);
        EXPECT_NEAR(bh0.x, exact.x, 1e-9) << probe;
        EXPECT_NEAR(bh0.y, exact.y, 1e-9) << probe;

        const layout_point bh = tree.repulsion(pts[probe], probe, k, 0.85);
        const double mag = std::hypot(exact.x, exact.y);
        EXPECT_NEAR(bh.x, exact.x, 0.08 * mag + 1e-12) << probe;
        EXPECT_NEAR(bh.y, exact.y, 0.08 * mag + 1e-12) << probe;
    }
}

TEST(BhQuadtree, SymmetricSquareHasZeroNetForceAtCenter) {
    const std::vector<layout_point> pts = {
        {0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}, {0.5, 0.5}};
    bh_quadtree tree;
    tree.build(pts);
    const layout_point f = tree.repulsion(pts[4], 4, 1.0, 0.0);
    EXPECT_NEAR(f.x, 0.0, 1e-12);
    EXPECT_NEAR(f.y, 0.0, 1e-12);
}

TEST(BhQuadtree, FarClusterActsAsItsPointMass) {
    // A tight far-away cluster under a coarse theta must contribute like
    // m bodies at its center of mass: F = k²·m/d along the axis.
    std::vector<layout_point> pts;
    constexpr std::size_t m = 16;
    for (std::size_t i = 0; i < m; ++i) {
        pts.push_back({10.0 + 1e-6 * static_cast<double>(i), 10.0});
    }
    bh_quadtree tree;
    tree.build(pts);
    const layout_point probe{0.0, 10.0};
    const double k = 0.3;
    const layout_point f = tree.repulsion(probe, bh_quadtree::npos, k, 0.85);
    const double d = 10.0 + 1e-6 * (m - 1) / 2.0;  // distance to the COM
    EXPECT_NEAR(f.x, -k * k * m / d, 1e-6);
    EXPECT_NEAR(f.y, 0.0, 1e-9);
}

void expect_bitwise_equal(const std::vector<layout_point>& got,
                          const std::vector<layout_point>& want, const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t u = 0; u < got.size(); ++u) {
        EXPECT_EQ(got[u].x, want[u].x) << what << " u=" << u;
        EXPECT_EQ(got[u].y, want[u].y) << what << " u=" << u;
    }
}

TEST(ForceLayout, SeedStableAndBitwiseIdenticalAcrossPoolSizes) {
    const graph g = make_family(graph_family::connected_caveman, 3000, 3);

    layout_options serial;
    serial.seed = 11;
    const std::vector<layout_point> base = force_layout(g, serial);
    ASSERT_EQ(base.size(), g.num_nodes());
    for (const layout_point& p : base) {
        EXPECT_GE(p.x, 0.0);
        EXPECT_LE(p.x, 1.0);
        EXPECT_GE(p.y, 0.0);
        EXPECT_LE(p.y, 1.0);
    }

    // 3000 nodes span twelve 256-node blocks, so pools shard the pass.
    for (const std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
        thread_pool pool(workers);
        layout_options sharded;
        sharded.seed = 11;
        sharded.pool = &pool;
        expect_bitwise_equal(force_layout(g, sharded), base,
                             "workers=" + std::to_string(workers));
    }

    // n = 1024, the report's thumbnail size, is four blocks: it shards
    // too, and stays equal to its serial layout.
    const graph thumb = make_family(graph_family::erdos_renyi, 1024, 5);
    layout_options thumb_serial;
    thumb_serial.seed = 5;
    const std::vector<layout_point> thumb_base = force_layout(thumb, thumb_serial);
    for (const std::size_t workers : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
        thread_pool pool(workers);
        layout_options sharded = thumb_serial;
        sharded.pool = &pool;
        expect_bitwise_equal(force_layout(thumb, sharded), thumb_base,
                             "n=1024 workers=" + std::to_string(workers));
    }

    // A different seed is a different embedding.
    layout_options other;
    other.seed = 12;
    const std::vector<layout_point> alt = force_layout(g, other);
    std::size_t moved = 0;
    for (std::size_t u = 0; u < alt.size(); ++u) {
        if (alt[u].x != base[u].x || alt[u].y != base[u].y) ++moved;
    }
    EXPECT_GT(moved, alt.size() / 2);
}

TEST(ForceLayout, NestedInAPoolJobEqualsSerial) {
    // The report gallery lays out several graphs as jobs of one pool and
    // shards each layout over that same pool: the nested, helping
    // parallel_for must give each graph its serial coordinates.
    const std::vector<graph> graphs = {
        make_family(graph_family::watts_strogatz, 1024, 2),
        make_family(graph_family::connected_caveman, 700, 3),
        make_family(graph_family::torus, 1024, 4),
    };
    std::vector<std::vector<layout_point>> serial(graphs.size());
    for (std::size_t i = 0; i < graphs.size(); ++i) {
        layout_options lo;
        lo.seed = 20 + i;
        serial[i] = force_layout(graphs[i], lo);
    }

    thread_pool pool(4);
    std::vector<std::vector<layout_point>> nested(graphs.size());
    pool.parallel_for(graphs.size(), [&](std::size_t i) {
        layout_options lo;
        lo.seed = 20 + i;
        lo.pool = &pool;
        nested[i] = force_layout(graphs[i], lo);
    });
    for (std::size_t i = 0; i < graphs.size(); ++i) {
        expect_bitwise_equal(nested[i], serial[i], "graph " + std::to_string(i));
    }
}

TEST(ForceLayout, TinyGraphsAreWellDefined) {
    const graph one(1, {});
    const auto p1 = force_layout(one);
    ASSERT_EQ(p1.size(), 1u);
    EXPECT_DOUBLE_EQ(p1[0].x, 0.5);
    EXPECT_DOUBLE_EQ(p1[0].y, 0.5);

    const graph pair(2, {{0, 1}});
    const auto p2 = force_layout(pair);
    ASSERT_EQ(p2.size(), 2u);
    EXPECT_NE(std::pair(p2[0].x, p2[0].y), std::pair(p2[1].x, p2[1].y));
}

TEST(ForceLayout, LatticesUntangle) {
    // A random-start single-level pass leaves lattices folded (stress
    // 0.73-0.76 on path and cycle, 0.21-0.22 on grid and torus at this
    // size); coarsening first lays them out flat.
    const std::pair<graph_family, double> cases[] = {
        {graph_family::path, 0.40},
        {graph_family::cycle, 0.40},
        {graph_family::grid2d, 0.15},
        {graph_family::torus, 0.15},
    };
    for (const auto& [family, bound] : cases) {
        const graph g = make_family(family, 1024, 1);
        const double stress = layout_stress(g, force_layout(g), 1);
        EXPECT_LE(stress, bound) << to_string(family);
        EXPECT_GE(stress, 0.0) << to_string(family);
    }
}

TEST(ForceLayout, CoarseningStallsGracefully) {
    // Hubs defeat plain matching: one edge per hub leaves the other
    // leaves unmatched. Pairing leaves through their shared hub must
    // still shrink the graph, and no two nodes may end up coincident.
    for (const graph_family family : {graph_family::star, graph_family::wheel,
                                      graph_family::barabasi_albert}) {
        const graph g = make_family(family, 4096, 1);
        const std::vector<layout_point> pts = force_layout(g);
        ASSERT_EQ(pts.size(), g.num_nodes());
        std::vector<std::pair<double, double>> sorted;
        for (const layout_point& p : pts) {
            ASSERT_TRUE(std::isfinite(p.x) && std::isfinite(p.y)) << to_string(family);
            EXPECT_GE(p.x, 0.0);
            EXPECT_LE(p.x, 1.0);
            EXPECT_GE(p.y, 0.0);
            EXPECT_LE(p.y, 1.0);
            sorted.emplace_back(p.x, p.y);
        }
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
            << to_string(family);
    }
}

TEST(ForceLayout, SmallGraphsKeepTheirCoordinates) {
    // Graphs of at most 64 nodes never coarsen, so they keep the
    // single-level pass's coordinates bit for bit. FNV-1a over the
    // coordinates' bytes, pinned from that pass.
    const auto digest = [](const std::vector<layout_point>& pts) {
        std::uint64_t h = 1469598103934665603ULL;
        for (const layout_point& p : pts) {
            unsigned char bytes[2 * sizeof(double)];
            std::memcpy(bytes, &p.x, sizeof(double));
            std::memcpy(bytes + sizeof(double), &p.y, sizeof(double));
            for (const unsigned char b : bytes) {
                h ^= b;
                h *= 1099511628211ULL;
            }
        }
        return h;
    };
    EXPECT_EQ(digest(force_layout(make_family(graph_family::wheel, 64, 1))),
              0xc6ae4afee6fc93cfULL);
    EXPECT_EQ(digest(force_layout(make_family(graph_family::cycle, 16, 1))),
              0x54e9f523825faf0fULL);
    EXPECT_EQ(digest(force_layout(make_family(graph_family::complete, 8, 1))),
              0x48f301d198f8e7fbULL);
}

TEST(LayoutStress, ZeroForAnExactDrawingAndScaleFree) {
    // A path drawn on a line at unit spacing reproduces every hop
    // distance; scaling the drawing changes nothing.
    const graph g = make_family(graph_family::path, 100, 1);
    std::vector<layout_point> line(g.num_nodes()), wide(g.num_nodes());
    for (std::size_t u = 0; u < line.size(); ++u) {
        line[u] = {static_cast<double>(u), 0.0};
        wide[u] = {7.5 * static_cast<double>(u), 0.0};
    }
    EXPECT_NEAR(layout_stress(g, line, 3), 0.0, 1e-12);
    EXPECT_NEAR(layout_stress(g, wide, 3), 0.0, 1e-12);
    // A folded drawing is worse, and the value is seed-stable.
    std::vector<layout_point> folded = line;
    for (std::size_t u = 50; u < folded.size(); ++u) {
        folded[u] = {static_cast<double>(99 - u), 1.0};
    }
    const double s = layout_stress(g, folded, 3);
    EXPECT_GT(s, 0.1);
    EXPECT_LE(s, 1.0);
    EXPECT_EQ(s, layout_stress(g, folded, 3));
    EXPECT_THROW((void)layout_stress(g, std::vector<layout_point>(3), 3), error);
}

std::size_t count(const std::string& s, const char* tag) {
    std::size_t k = 0;
    for (std::size_t at = s.find(tag); at != std::string::npos; at = s.find(tag, at + 1)) {
        ++k;
    }
    return k;
}

TEST(LayoutSvg, EmitsSelfContainedMarkupAndHonorsCaps) {
    const graph g = make_family(graph_family::wheel, 64, 1);
    const std::vector<layout_point> pts = force_layout(g);
    const std::string svg = layout_svg(g, pts);

    EXPECT_EQ(svg.rfind("<svg", 0), 0u);
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
    EXPECT_NE(svg.find("class=\"ge\""), std::string::npos);
    EXPECT_NE(svg.find("class=\"gn\""), std::string::npos);
    // The only URL-ish string is the xmlns namespace identifier.
    std::size_t at = svg.find("http://");
    while (at != std::string::npos) {
        EXPECT_EQ(svg.compare(at, 26, "http://www.w3.org/2000/svg"), 0);
        at = svg.find("http://", at + 1);
    }
    EXPECT_EQ(svg.find("<script"), std::string::npos);
    // Under both caps every edge and node is drawn.
    EXPECT_EQ(count(svg, "<line"), g.num_edges());
    EXPECT_EQ(count(svg, "<circle"), g.num_nodes());

    // Caps: past 4000 edges or 20000 nodes a stride of ⌈count/cap⌉
    // samples rather than dropping the drawing or blowing it up. A
    // 20,002-node path has 20,001 edges: strides 6 and 2 draw 3334 lines
    // and 10,001 circles, where floor strides of 5 and 1 would draw 4001
    // and 20,002, past both caps. Positions do not change the counts.
    const graph long_path = make_path(20002);
    const std::string sampled =
        layout_svg(long_path, std::vector<layout_point>(long_path.num_nodes()));
    EXPECT_EQ(count(sampled, "<line"), 3334u);
    EXPECT_EQ(count(sampled, "<circle"), 10001u);
    // At exactly the 4000-edge cap nothing is sampled away.
    const graph at_cap = make_path(4001);
    const std::string full = layout_svg(at_cap, std::vector<layout_point>(4001));
    EXPECT_EQ(count(full, "<line"), 4000u);
    EXPECT_EQ(count(full, "<circle"), 4001u);

    // A dense thumbnail as the report draws it: er(1024) has ~10⁴ edges,
    // and at most 4000 of them may be drawn.
    const graph dense = make_family(graph_family::erdos_renyi, 1024, 1);
    ASSERT_GT(dense.num_edges(), 8000u);
    const std::string big = layout_svg(dense, std::vector<layout_point>(1024));
    EXPECT_LE(count(big, "<line"), 4000u);
    EXPECT_GE(count(big, "<line"), 2000u);

    // Mismatched spans are a programming error.
    EXPECT_THROW((void)layout_svg(g, std::vector<layout_point>(3)), error);
}

// layout_svg as it was written with snprintf("%.1f") for every number, at
// the fixed 320×240 frame, margin 10, caps 4000/20000 and radius 1.6.
constexpr double kW = 320, kH = 240, kMargin = 10;

double scale_x(double x) { return kMargin + x * (kW - 2 * kMargin); }
double scale_y(double y) { return kMargin + y * (kH - 2 * kMargin); }

std::string snprintf_svg(const graph& g, const std::vector<layout_point>& pts) {
    const auto stride = [](std::size_t count, std::size_t cap) {
        return std::max<std::size_t>(1, (count + cap - 1) / cap);
    };
    std::string out;
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"0 0 %.0f %.0f\" "
                  "width=\"%.0f\" height=\"%.0f\" role=\"img\">",
                  kW, kH, kW, kH);
    out += buf;
    const auto edges = g.edge_list();
    out += "<g class=\"ge\" stroke=\"#c3c2b7\" stroke-width=\"0.7\" "
           "stroke-opacity=\"0.55\">";
    for (std::size_t i = 0; i < edges.size(); i += stride(edges.size(), 4000)) {
        const auto [u, v] = edges[i];
        std::snprintf(buf, sizeof buf,
                      "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\"/>",
                      scale_x(pts[u].x), scale_y(pts[u].y), scale_x(pts[v].x),
                      scale_y(pts[v].y));
        out += buf;
    }
    out += "</g>";
    out += "<g class=\"gn\" fill=\"#2a78d6\">";
    for (std::size_t u = 0; u < pts.size(); u += stride(pts.size(), 20000)) {
        std::snprintf(buf, sizeof buf, "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"%.1f\"/>",
                      scale_x(pts[u].x), scale_y(pts[u].y), 1.6);
        out += buf;
    }
    out += "</g></svg>";
    return out;
}

TEST(LayoutSvg, NumbersMatchSnprintfByteForByte) {
    for (const auto& [family, n] :
         {std::pair{graph_family::wheel, 16}, {graph_family::torus, 100},
          {graph_family::watts_strogatz, 256}, {graph_family::erdos_renyi, 1024},
          {graph_family::connected_caveman, 300}}) {
        const graph g = make_family(family, static_cast<std::size_t>(n), 1);
        const std::vector<layout_point> pts = force_layout(g);
        EXPECT_EQ(layout_svg(g, pts), snprintf_svg(g, pts)) << to_string(family);
    }
    // Points whose scaled coordinates hit .x5 ties: x = j/1200 and
    // y = j/880 scale to 10 + j/4, so odd j land on .25 and .75, which
    // are exact in binary and round half to even.
    const graph ties = make_path(1201);
    std::vector<layout_point> grid(ties.num_nodes());
    std::size_t exact_ties = 0;
    for (std::size_t u = 0; u < grid.size(); ++u) {
        grid[u] = {static_cast<double>(u) / 1200.0, static_cast<double>(u % 881) / 880.0};
        for (const double v : {scale_x(grid[u].x), scale_y(grid[u].y)}) {
            const double quarters = 4 * v;
            if (quarters == std::floor(quarters) && std::fmod(quarters, 2.0) == 1.0) {
                ++exact_ties;
            }
        }
    }
    EXPECT_GT(exact_ties, 1000u);  // the input does exercise the ties
    EXPECT_EQ(layout_svg(ties, grid), snprintf_svg(ties, grid));
    // Points off the unit square (negative, huge) print the same way too.
    const graph path = make_path(4);
    const std::vector<layout_point> wild = {
        {-0.004, 0.0}, {-1e6, 3.25e-9}, {123456.789, -0.0}, {0.04999, 2.5e5}};
    EXPECT_EQ(layout_svg(path, wild), snprintf_svg(path, wild));
}

}  // namespace
}  // namespace anole
