#include "graph/properties.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <queue>

#include "sim/thread_pool.h"

namespace anole {

std::vector<std::uint32_t> bfs_distances(const graph& g, node_id src) {
    require(src < g.num_nodes(), "bfs_distances: src out of range");
    std::vector<std::uint32_t> dist(g.num_nodes(),
                                    std::numeric_limits<std::uint32_t>::max());
    std::queue<node_id> q;
    dist[src] = 0;
    q.push(src);
    while (!q.empty()) {
        const node_id u = q.front();
        q.pop();
        for (node_id v : g.neighbors(u)) {
            if (dist[v] == std::numeric_limits<std::uint32_t>::max()) {
                dist[v] = dist[u] + 1;
                q.push(v);
            }
        }
    }
    return dist;
}

std::uint32_t eccentricity(const graph& g, node_id src) {
    const auto dist = bfs_distances(g, src);
    return *std::max_element(dist.begin(), dist.end());
}

namespace {

// Bit-parallel all-sources BFS (Then et al., "The More the Merrier",
// VLDB 2014): a batch of kBatch sources gives each node one bit per
// source in kWords 64-bit lanes, and a BFS level is one pull pass
// next[v] = OR over u in N(v) of frontier[u], minus seen[v]. A level
// that sets no bit means every source in the batch is exhausted, so
// the number of levels that did set one is the batch's largest
// eccentricity. Each call owns its lane arrays, so batches can run
// concurrently.
constexpr std::size_t kWords = 4;
constexpr std::size_t kBatch = 64 * kWords;

std::uint32_t batch_eccentricity(const graph& g, std::size_t first) {
    const std::size_t n = g.num_nodes();
    std::vector<std::uint64_t> seen(n * kWords), frontier(n * kWords), next(n * kWords);
    for (std::size_t j = 0; j < std::min(kBatch, n - first); ++j) {
        const std::size_t w = (first + j) * kWords + j / 64;
        seen[w] = frontier[w] = std::uint64_t{1} << (j % 64);
    }
    std::uint32_t levels = 0;
    for (;;) {
        std::uint64_t grew = 0;
        for (std::size_t v = 0; v < n; ++v) {
            std::uint64_t acc[kWords] = {};
            for (node_id u : g.neighbors(static_cast<node_id>(v))) {
                const std::uint64_t* f = &frontier[std::size_t{u} * kWords];
                for (std::size_t k = 0; k < kWords; ++k) acc[k] |= f[k];
            }
            std::uint64_t* s = &seen[v * kWords];
            std::uint64_t* nx = &next[v * kWords];
            for (std::size_t k = 0; k < kWords; ++k) {
                nx[k] = acc[k] & ~s[k];
                s[k] |= nx[k];
                grew |= nx[k];
            }
        }
        if (grew == 0) return levels;
        ++levels;
        frontier.swap(next);
    }
}

}  // namespace

std::uint32_t diameter_exact(const graph& g, thread_pool* pool) {
    const std::size_t batches = (g.num_nodes() + kBatch - 1) / kBatch;
    std::vector<std::uint32_t> levels(batches);
    const auto run = [&](std::size_t b) { levels[b] = batch_eccentricity(g, b * kBatch); };
    if (pool == nullptr || batches <= 1) {
        for (std::size_t b = 0; b < batches; ++b) run(b);
    } else {
        pool->parallel_for(batches, run);
    }
    std::uint32_t diam = 0;
    for (std::uint32_t l : levels) diam = std::max(diam, l);
    return diam;
}

diameter_bounds diameter_estimate(const graph& g) {
    // Double sweep: ecc from 0 finds far node a; ecc(a) is a lower bound
    // achieved by some b; 2*radius-ish gives an upper bound via ecc(mid).
    const auto d0 = bfs_distances(g, 0);
    const node_id a = static_cast<node_id>(
        std::max_element(d0.begin(), d0.end()) - d0.begin());
    const auto da = bfs_distances(g, a);
    const node_id b = static_cast<node_id>(
        std::max_element(da.begin(), da.end()) - da.begin());
    const std::uint32_t lower = da[b];
    // Upper bound: 2 * eccentricity of any node bounds the diameter.
    const std::uint32_t upper = std::min(2 * eccentricity(g, b), 2 * da[b]);
    return {lower, std::max(lower, upper)};
}

degree_stats degrees(const graph& g) {
    std::size_t mn = g.num_nodes(), mx = 0, total = 0;
    for (node_id u = 0; u < g.num_nodes(); ++u) {
        const std::size_t d = g.degree(u);
        mn = std::min(mn, d);
        mx = std::max(mx, d);
        total += d;
    }
    return {mn, mx, static_cast<double>(total) / static_cast<double>(g.num_nodes())};
}

namespace {

struct cut_tally {
    std::uint64_t boundary = 0;  // |∂S|
    std::uint64_t size_s = 0;    // |S|
    std::uint64_t vol_s = 0;     // Vol(S)
};

cut_tally tally_cut(const graph& g, const std::vector<bool>& in_s) {
    cut_tally t;
    for (node_id u = 0; u < g.num_nodes(); ++u) {
        if (!in_s[u]) continue;
        ++t.size_s;
        t.vol_s += g.degree(u);
        for (node_id v : g.neighbors(u)) {
            if (!in_s[v]) ++t.boundary;
        }
    }
    return t;
}

}  // namespace

double cut_conductance(const graph& g, const std::vector<bool>& in_s) {
    require(in_s.size() == g.num_nodes(), "cut_conductance: size mismatch");
    const cut_tally t = tally_cut(g, in_s);
    require(t.size_s > 0 && t.size_s < g.num_nodes(),
            "cut_conductance: cut must be proper");
    const std::uint64_t vol_total = 2 * g.num_edges();
    const std::uint64_t vol_min = std::min(t.vol_s, vol_total - t.vol_s);
    return static_cast<double>(t.boundary) / static_cast<double>(vol_min);
}

double cut_isoperimetric(const graph& g, const std::vector<bool>& in_s) {
    require(in_s.size() == g.num_nodes(), "cut_isoperimetric: size mismatch");
    const cut_tally t = tally_cut(g, in_s);
    require(t.size_s > 0 && t.size_s < g.num_nodes(),
            "cut_isoperimetric: cut must be proper");
    const std::uint64_t s = std::min<std::uint64_t>(t.size_s, g.num_nodes() - t.size_s);
    return static_cast<double>(t.boundary) / static_cast<double>(s);
}

namespace {

// Enumerates all proper cuts with node 0 fixed out of S (each unordered
// partition once); calls fn(tally) per cut. The order is a Gray code:
// step i flips node countr_zero(i) + 1, so consecutive cuts differ in one
// node u and the tally moves in O(deg u). With `inside` = |N(u) ∩ S|,
// adding u to S changes |∂S| by deg(u) − 2·inside, removing it by
// 2·inside − deg(u). The cuts visited, and so the tallies, are exactly
// the masks 1 .. 2^(n-1) − 1; only the order differs.
template <class Fn>
void enumerate_cuts(const graph& g, Fn&& fn) {
    const std::size_t n = g.num_nodes();
    require(n >= 2, "enumerate_cuts: n >= 2");
    require(n <= 24, "enumerate_cuts: exact enumeration limited to n <= 24");
    const std::size_t limit = std::size_t{1} << (n - 1);
    std::vector<unsigned char> in_s(n, 0);
    cut_tally t;
    for (std::size_t i = 1; i < limit; ++i) {
        const node_id u = static_cast<node_id>(std::countr_zero(i)) + 1;
        std::uint64_t inside = 0;
        for (node_id v : g.neighbors(u)) inside += in_s[v];
        const std::uint64_t deg = g.degree(u);
        if (in_s[u] != 0) {
            t.boundary = t.boundary + 2 * inside - deg;
            --t.size_s;
            t.vol_s -= deg;
        } else {
            t.boundary = t.boundary + deg - 2 * inside;
            ++t.size_s;
            t.vol_s += deg;
        }
        in_s[u] ^= 1;
        fn(t);
    }
}

}  // namespace

double conductance_exact(const graph& g) {
    double best = std::numeric_limits<double>::infinity();
    const std::uint64_t vol_total = 2 * g.num_edges();
    enumerate_cuts(g, [&](const cut_tally& t) {
        const std::uint64_t vol_min = std::min(t.vol_s, vol_total - t.vol_s);
        if (vol_min == 0) return;
        best = std::min(best,
                        static_cast<double>(t.boundary) / static_cast<double>(vol_min));
    });
    return best;
}

double isoperimetric_exact(const graph& g) {
    double best = std::numeric_limits<double>::infinity();
    const std::size_t n = g.num_nodes();
    enumerate_cuts(g, [&](const cut_tally& t) {
        const std::uint64_t s = std::min<std::uint64_t>(t.size_s, n - t.size_s);
        if (s == 0) return;
        best = std::min(best, static_cast<double>(t.boundary) / static_cast<double>(s));
    });
    return best;
}

namespace {

template <class RatioFn>
double sweep_best(const graph& g, const std::vector<double>& score, RatioFn&& ratio) {
    require(score.size() == g.num_nodes(), "sweep: score size mismatch");
    const std::size_t n = g.num_nodes();
    std::vector<node_id> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](node_id a, node_id b) { return score[a] < score[b]; });

    std::vector<bool> in_s(n, false);
    std::uint64_t boundary = 0, vol_s = 0, size_s = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i + 1 < n; ++i) {
        const node_id u = order[i];
        in_s[u] = true;
        ++size_s;
        vol_s += g.degree(u);
        // Adding u flips each incident edge's cut status.
        for (node_id v : g.neighbors(u)) {
            if (in_s[v]) {
                --boundary;
            } else {
                ++boundary;
            }
        }
        best = std::min(best, ratio(boundary, size_s, vol_s));
    }
    return best;
}

}  // namespace

double conductance_sweep(const graph& g, const std::vector<double>& score) {
    const std::uint64_t vol_total = 2 * g.num_edges();
    return sweep_best(g, score,
                      [vol_total](std::uint64_t boundary, std::uint64_t /*size_s*/,
                                  std::uint64_t vol_s) {
                          const std::uint64_t vol_min =
                              std::min(vol_s, vol_total - vol_s);
                          return vol_min == 0
                                     ? std::numeric_limits<double>::infinity()
                                     : static_cast<double>(boundary) /
                                           static_cast<double>(vol_min);
                      });
}

double isoperimetric_sweep(const graph& g, const std::vector<double>& score) {
    const std::size_t n = g.num_nodes();
    return sweep_best(
        g, score,
        [n](std::uint64_t boundary, std::uint64_t size_s, std::uint64_t /*vol_s*/) {
            const std::uint64_t s = std::min<std::uint64_t>(size_s, n - size_s);
            return s == 0 ? std::numeric_limits<double>::infinity()
                          : static_cast<double>(boundary) / static_cast<double>(s);
        });
}

}  // namespace anole
