// anole — combinatorial graph analyzers.
//
// The protocols take (linear upper bounds on) tmix, Φ and i(G) as inputs
// (paper §4 and Theorem 3); this module provides exact values for small
// graphs and certified bounds for larger ones:
//
//   * BFS machinery: distances, eccentricity, exact diameter (bit-parallel
//     all-sources BFS), and double-sweep lower + eccentricity upper bounds
//     for graphs too large for the exact one.
//   * conductance Φ(G) (volume form, paper §2) and isoperimetric number
//     i(G) (Mohar [23]): exact by Gray-code subset enumeration for n <= 24,
//     sweep-cut upper bounds via the Fiedler vector otherwise
//     (graph/spectral.h computes the vector).
//
// Sweep-cut values are *upper bounds* on the true minimum — exactly the
// "linear upper bound" inputs the algorithms are specified to accept.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace anole {

class thread_pool;  // sim/thread_pool.h; borrowed, never owned

// BFS distances from src; unreachable = max (cannot happen: connected).
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const graph& g, node_id src);

[[nodiscard]] std::uint32_t eccentricity(const graph& g, node_id src);

// Exact diameter by bit-parallel all-sources BFS: ⌈n/256⌉ independent
// batches of 256 sources, each (D+1) pull passes of O(n + 2m) 4-word ORs
// over its own three lane arrays of 32n bytes. With a pool, graphs of
// more than one batch run their batches through its helping
// parallel_for; a one-batch graph runs inline. Returns the same value as
// the max of eccentricity() over every node, for every pool (or none).
[[nodiscard]] std::uint32_t diameter_exact(const graph& g, thread_pool* pool = nullptr);

// [lower, upper] via double sweep + center eccentricity. O(m) per sweep.
struct diameter_bounds {
    std::uint32_t lower;
    std::uint32_t upper;
};
[[nodiscard]] diameter_bounds diameter_estimate(const graph& g);

struct degree_stats {
    std::size_t min;
    std::size_t max;
    double mean;
};
[[nodiscard]] degree_stats degrees(const graph& g);

// --- cut quality measures (paper §2 definitions) ---

// Conductance of a single cut S (indicator vector, true = in S):
// |∂S| / min(Vol(S), Vol(S̄)). Throws if S is empty or everything.
[[nodiscard]] double cut_conductance(const graph& g, const std::vector<bool>& in_s);

// Edge-isoperimetric ratio of S: |∂S| / |S| with |S| <= n/2 enforced by
// flipping to the complement if needed.
[[nodiscard]] double cut_isoperimetric(const graph& g, const std::vector<bool>& in_s);

// Exact Φ(G) by enumerating all 2^(n-1)-1 cuts in Gray-code order, one
// node flip and O(deg) work per cut. Requires n <= 24.
[[nodiscard]] double conductance_exact(const graph& g);

// Exact i(G) by enumeration. Requires n <= 24.
[[nodiscard]] double isoperimetric_exact(const graph& g);

// Sweep-cut upper bounds from an embedding (typically the Fiedler vector):
// sorts nodes by score, evaluates every prefix cut, returns the best.
[[nodiscard]] double conductance_sweep(const graph& g, const std::vector<double>& score);
[[nodiscard]] double isoperimetric_sweep(const graph& g, const std::vector<double>& score);

}  // namespace anole
