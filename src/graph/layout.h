// anole — pool-based multilevel Barnes–Hut force-directed layout.
//
// The campaign HTML report (sim/report.h) and the topology gallery need
// graph thumbnails at zoo scale. External Graphviz rendering is O(V²) in
// practice; this module is an in-tree Fruchterman–Reingold spring
// embedder whose repulsion pass runs through a Barnes–Hut quadtree, so
// one iteration costs O(V log V + E), and which runs multilevel
// (Walshaw, "A multilevel algorithm for force-directed graph drawing";
// Hu, "Efficient, high-quality force-directed graph drawing"):
//   1. coarsen: heavy-edge matching in index order, then pairing of the
//      leftover nodes that share a neighbour, until a level has <= 64
//      nodes or keeps more than 85% of its parent's;
//   2. lay out the coarsest level from a seeded random start;
//   3. interpolate each finer level from its parents and refine it with a
//      few cool iterations.
// A graph that never coarsens (every n <= 64) runs the single-level pass
// on itself alone. A 10⁵-node instance lays out in seconds, and lattices
// come out flat instead of folded.
//
// Determinism contract (the same one the engine and Lanczos keep), at
// every level:
//   * the hierarchy is built serially in index order from the graph alone;
//   * the coarsest level's start positions derive from (seed, node index)
//     alone, and an interpolated node's jitter from (seed, level, node
//     index) alone;
//   * the quadtree is built by inserting bodies in index order;
//   * per-node force accumulation reads shared immutable state (positions
//     + tree) and writes only its own displacement slot, so sharding the
//     force pass over a thread_pool is bitwise-identical for every pool
//     size — seed-stable coordinates across `--jobs`, test-enforced.
//
// The quadtree lives in one flat std::vector pool (no per-cell
// allocation); cells hold aggregate mass and a center-of-mass sum, and a
// depth cap turns coincident points into aggregate leaves instead of
// recursing forever. theta = 0 degenerates to the exact O(V²) pairwise
// sum, which is what the closed-form sanity tests compare against.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace anole {

class thread_pool;  // sim/thread_pool.h; borrowed, never owned

struct layout_point {
    double x = 0;
    double y = 0;
};

// --- Barnes–Hut quadtree ----------------------------------------------------

class bh_quadtree {
public:
    // Builds over `pts` (borrowed; must outlive force queries). Bodies
    // are inserted in index order — deterministic pool layout.
    void build(std::span<const layout_point> pts);

    [[nodiscard]] double total_mass() const noexcept;
    [[nodiscard]] layout_point centroid() const;
    [[nodiscard]] std::size_t cell_count() const noexcept { return cells_.size(); }

    // Approximate repulsive force k²·Σ_j m_j·(p − com_j)/|p − com_j|² on a
    // probe at p, opening cells while width/dist > theta. `self` (an index
    // into the build span, or npos) is excluded from the sum. theta = 0
    // yields the exact pairwise sum. `scratch` is the traversal stack —
    // callers in a hot loop reuse one to avoid per-query allocation.
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    [[nodiscard]] layout_point repulsion(layout_point p, std::size_t self, double k,
                                         double theta,
                                         std::vector<std::int32_t>& scratch) const;
    [[nodiscard]] layout_point repulsion(layout_point p, std::size_t self, double k,
                                         double theta) const;

private:
    struct cell {
        double cx = 0, cy = 0, half = 0;  // square center + half-width
        double mass = 0;                  // bodies in this subtree
        double mx = 0, my = 0;            // Σ position (divide by mass for COM)
        std::int32_t child[4] = {-1, -1, -1, -1};
        // >= 0: single-body leaf; kAggregate: coincident bodies folded at
        // the depth cap; -1: internal or empty.
        std::int32_t body = -1;
    };
    static constexpr std::int32_t kAggregate = -2;
    static constexpr int kMaxDepth = 48;

    void insert_into(std::int32_t c, std::int32_t i, int depth);
    void descend(std::int32_t c, std::int32_t i, int depth);

    std::vector<cell> cells_;
    std::span<const layout_point> pts_;
};

// --- force-directed layout --------------------------------------------------

struct layout_options {
    std::uint64_t seed = 1;
    // Shards the per-node force pass; nullptr = serial. Bitwise-identical
    // results for every pool size.
    thread_pool* pool = nullptr;
};

// Deterministic multilevel Fruchterman–Reingold embedding of g into
// [0, 1]²: BH repulsion + CSR-edge attraction + linear cooling on every
// level, 100/50/30 passes on the coarsest level (n <= 2048 / 32768 /
// above) and 15/8/5 on each finer one. The levels shrink geometrically,
// so the time is a constant number of O(V log V + E) passes; memory is
// O(V + E) for the hierarchy beyond the tree pool.
[[nodiscard]] std::vector<layout_point> force_layout(const graph& g,
                                                     const layout_options& opt = {});

// --- layout quality ---------------------------------------------------------

// Normalised stress of `pts` against hop distances, from 48 seeded BFS
// sources (every node when n <= 48): with r = |p_i − p_j| / d_ij over the
// sampled reachable pairs, weights 1/d² and the closed-form optimal scale
// s* = Σr / Σr², it is 1 − (Σr)² / (P·Σr²) ∈ [0, 1]; 0 means the drawing
// reproduces every sampled graph distance up to one common scale.
[[nodiscard]] double layout_stress(const graph& g, std::span<const layout_point> pts,
                                   std::uint64_t seed);

// --- SVG rendering ----------------------------------------------------------

// One self-contained <svg> element (no external references): a 320×240
// frame with a 10-unit margin, every coordinate printed as "%.1f" prints
// it, and nodes of radius 1.6. Past 4000 edges or 20000 nodes a
// deterministic stride sample is drawn instead (every ⌈m/4000⌉-th edge in
// edge-list order, every ⌈n/20000⌉-th node). The campaign report's
// gallery and examples/topology_gallery draw exactly this.
[[nodiscard]] std::string layout_svg(const graph& g, std::span<const layout_point> pts);

}  // namespace anole
