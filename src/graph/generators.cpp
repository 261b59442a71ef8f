#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "util/rng.h"

namespace anole {

namespace {
using edge_list = std::vector<std::pair<node_id, node_id>>;

node_id nid(std::size_t v) { return static_cast<node_id>(v); }
}  // namespace

graph make_path(std::size_t n) {
    require(n >= 1, "make_path: n >= 1");
    edge_list es;
    es.reserve(n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i) es.emplace_back(nid(i), nid(i + 1));
    graph g(n, es, "path(" + std::to_string(n) + ")");
    graph_facts f;
    f.diameter = n - 1;
    g.set_facts(f);
    return g;
}

graph make_cycle(std::size_t n) {
    require(n >= 3, "make_cycle: n >= 3");
    edge_list es;
    es.reserve(n);
    for (std::size_t i = 0; i < n; ++i) es.emplace_back(nid(i), nid((i + 1) % n));
    graph g(n, es, "cycle(" + std::to_string(n) + ")");
    graph_facts f;
    f.diameter = n / 2;
    // Worst cut = contiguous half: |∂S| = 2, Vol(S) = 2⌊n/2⌋.
    f.conductance = 2.0 / (2.0 * static_cast<double>(n / 2));
    f.isoperimetric = 2.0 / static_cast<double>(n / 2);
    // Lazy walk on C_n mixes in Θ(n²); n² is a safe linear-input upper bound.
    f.mixing_time = static_cast<std::uint64_t>(n) * n;
    g.set_facts(f);
    return g;
}

graph make_complete(std::size_t n) {
    require(n >= 2, "make_complete: n >= 2");
    edge_list es;
    es.reserve(n * (n - 1) / 2);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) es.emplace_back(nid(i), nid(j));
    }
    graph g(n, es, "complete(" + std::to_string(n) + ")");
    graph_facts f;
    f.diameter = 1;
    // S of size s: |∂S| = s(n−s), Vol(S) = s(n−1) ⇒ ratio = (n−s)/(n−1),
    // minimized at s = ⌊n/2⌋.
    f.conductance =
        static_cast<double>(n - n / 2) / static_cast<double>(n - 1);
    f.isoperimetric = static_cast<double>(n - n / 2);
    // Lazy walk on K_n is within 1/(2n) of uniform in O(log n) steps.
    f.mixing_time = 2 * static_cast<std::uint64_t>(std::ceil(std::log2(2.0 * n * n))) + 2;
    g.set_facts(f);
    return g;
}

graph make_star(std::size_t n) {
    require(n >= 2, "make_star: n >= 2");
    edge_list es;
    es.reserve(n - 1);
    for (std::size_t i = 1; i < n; ++i) es.emplace_back(nid(0), nid(i));
    graph g(n, es, "star(" + std::to_string(n) + ")");
    graph_facts f;
    f.diameter = n == 2 ? 1 : 2;
    f.conductance = 1.0;   // every cut edge count equals the smaller volume
    f.isoperimetric = 1.0; // S = set of leaves: |∂S|/|S| = 1
    g.set_facts(f);
    return g;
}

graph make_grid2d(std::size_t rows, std::size_t cols) {
    require(rows >= 1 && cols >= 1, "make_grid2d: rows, cols >= 1");
    auto at = [cols](std::size_t r, std::size_t c) { return nid(r * cols + c); };
    edge_list es;
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            if (c + 1 < cols) es.emplace_back(at(r, c), at(r, c + 1));
            if (r + 1 < rows) es.emplace_back(at(r, c), at(r + 1, c));
        }
    }
    graph g(rows * cols, es,
            "grid2d(" + std::to_string(rows) + "x" + std::to_string(cols) + ")");
    graph_facts f;
    f.diameter = (rows - 1) + (cols - 1);
    g.set_facts(f);
    return g;
}

graph make_torus(std::size_t rows, std::size_t cols) {
    require(rows >= 3 && cols >= 3, "make_torus: rows, cols >= 3");
    auto at = [cols](std::size_t r, std::size_t c) { return nid(r * cols + c); };
    edge_list es;
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            es.emplace_back(at(r, c), at(r, (c + 1) % cols));
            es.emplace_back(at(r, c), at((r + 1) % rows, c));
        }
    }
    graph g(rows * cols, es,
            "torus(" + std::to_string(rows) + "x" + std::to_string(cols) + ")");
    graph_facts f;
    f.diameter = rows / 2 + cols / 2;
    g.set_facts(f);
    return g;
}

graph make_hypercube(std::size_t dim) {
    require(dim >= 1 && dim <= 24, "make_hypercube: 1 <= dim <= 24");
    const std::size_t n = std::size_t{1} << dim;
    edge_list es;
    es.reserve(n * dim / 2);
    for (std::size_t v = 0; v < n; ++v) {
        for (std::size_t b = 0; b < dim; ++b) {
            const std::size_t w = v ^ (std::size_t{1} << b);
            if (v < w) es.emplace_back(nid(v), nid(w));
        }
    }
    graph g(n, es, "hypercube(" + std::to_string(dim) + ")");
    graph_facts f;
    f.diameter = dim;
    g.set_facts(f);
    return g;
}

graph make_binary_tree(std::size_t n) {
    require(n >= 1, "make_binary_tree: n >= 1");
    edge_list es;
    es.reserve(n - 1);
    for (std::size_t i = 1; i < n; ++i) es.emplace_back(nid((i - 1) / 2), nid(i));
    return graph(n, es, "binary_tree(" + std::to_string(n) + ")");
}

graph make_random_regular(std::size_t n, std::size_t d, std::uint64_t seed,
                          std::size_t max_attempts) {
    require(n >= 2 && d >= 1 && d < n, "make_random_regular: need 1 <= d < n >= 2");
    require(n * d % 2 == 0, "make_random_regular: n*d must be even");
    xoshiro256ss rng(derive_seed(seed, n, d));
    for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
        // Pairing (configuration) model: shuffle n*d stubs, pair them up.
        std::vector<node_id> stubs(n * d);
        for (std::size_t i = 0; i < stubs.size(); ++i) stubs[i] = nid(i / d);
        for (std::size_t i = stubs.size(); i > 1; --i) {
            std::swap(stubs[i - 1], stubs[rng.below(i)]);
        }
        edge_list es;
        es.reserve(n * d / 2);
        // Partners paired so far, d slots per node: a repeat is a scan of
        // at most d entries.
        std::vector<node_id> partners(n * d);
        std::vector<std::size_t> paired(n, 0);
        const auto partnered = [&](node_id u, node_id v) {
            const node_id* first = partners.data() + u * d;
            return std::find(first, first + paired[u], v) != first + paired[u];
        };
        bool simple = true;
        for (std::size_t i = 0; i < stubs.size(); i += 2) {
            node_id u = stubs[i], v = stubs[i + 1];
            if (u == v || partnered(u, v)) {
                simple = false;
                break;
            }
            partners[u * d + paired[u]++] = v;
            partners[v * d + paired[v]++] = u;
            es.emplace_back(u, v);
        }
        if (!simple) continue;
        try {
            return graph(n, es,
                         "random_regular(n=" + std::to_string(n) +
                             ",d=" + std::to_string(d) + ")");
        } catch (const error&) {
            continue;  // disconnected; resample
        }
    }
    throw error("make_random_regular: exceeded max_attempts");
}

graph make_erdos_renyi(std::size_t n, double p, std::uint64_t seed,
                       std::size_t max_attempts) {
    require(n >= 2, "make_erdos_renyi: n >= 2");
    require(p > 0.0 && p <= 1.0, "make_erdos_renyi: p in (0,1]");
    xoshiro256ss rng(derive_seed(seed, n, 0xE12));
    for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
        edge_list es;
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                if (rng.bernoulli(p)) es.emplace_back(nid(i), nid(j));
            }
        }
        try {
            return graph(n, es, "erdos_renyi(n=" + std::to_string(n) + ")");
        } catch (const error&) {
            continue;  // disconnected; resample
        }
    }
    throw error("make_erdos_renyi: exceeded max_attempts (p too small?)");
}

graph make_ring_of_cliques(std::size_t num_cliques, std::size_t clique_size) {
    require(num_cliques >= 3, "make_ring_of_cliques: num_cliques >= 3");
    require(clique_size >= 1, "make_ring_of_cliques: clique_size >= 1");
    const std::size_t n = num_cliques * clique_size;
    auto at = [clique_size](std::size_t c, std::size_t i) {
        return nid(c * clique_size + i);
    };
    edge_list es;
    for (std::size_t c = 0; c < num_cliques; ++c) {
        for (std::size_t i = 0; i < clique_size; ++i) {
            for (std::size_t j = i + 1; j < clique_size; ++j) {
                es.emplace_back(at(c, i), at(c, j));
            }
        }
        // Gateway: node 0 of clique c connects to node min(1, size-1) of
        // clique c+1, so for size >= 2 the two gateway roles differ.
        const std::size_t next = (c + 1) % num_cliques;
        const std::size_t in_port = clique_size >= 2 ? 1 : 0;
        es.emplace_back(at(c, 0), at(next, in_port));
    }
    return graph(n, es,
                 "ring_of_cliques(" + std::to_string(num_cliques) + "x" +
                     std::to_string(clique_size) + ")");
}

graph make_barbell(std::size_t k) {
    require(k >= 2, "make_barbell: k >= 2");
    edge_list es;
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = i + 1; j < k; ++j) {
            es.emplace_back(nid(i), nid(j));
            es.emplace_back(nid(k + i), nid(k + j));
        }
    }
    es.emplace_back(nid(0), nid(k));  // bridge
    graph g(2 * k, es, "barbell(" + std::to_string(k) + ")");
    graph_facts f;
    f.diameter = 3;
    g.set_facts(f);
    return g;
}

graph make_lollipop(std::size_t k, std::size_t tail) {
    require(k >= 2 && tail >= 1, "make_lollipop: k >= 2, tail >= 1");
    edge_list es;
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = i + 1; j < k; ++j) es.emplace_back(nid(i), nid(j));
    }
    for (std::size_t t = 0; t < tail; ++t) {
        es.emplace_back(nid(t == 0 ? 0 : k + t - 1), nid(k + t));
    }
    return graph(k + tail, es,
                 "lollipop(k=" + std::to_string(k) + ",tail=" + std::to_string(tail) + ")");
}

graph make_dumbbell(std::size_t k, std::size_t bar) {
    require(k >= 2, "make_dumbbell: k >= 2");
    require(bar >= 1, "make_dumbbell: bar >= 1 (use make_barbell for bar = 0)");
    const std::size_t n = 2 * k + bar;
    // Clique A on [0, k), bar on [k, k+bar), clique B on [k+bar, n).
    edge_list es;
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = i + 1; j < k; ++j) {
            es.emplace_back(nid(i), nid(j));
            es.emplace_back(nid(k + bar + i), nid(k + bar + j));
        }
    }
    es.emplace_back(nid(0), nid(k));  // clique A anchor -> first bar node
    for (std::size_t t = 0; t + 1 < bar; ++t) es.emplace_back(nid(k + t), nid(k + t + 1));
    es.emplace_back(nid(k + bar - 1), nid(k + bar));  // last bar node -> B anchor
    graph g(n, es,
            "dumbbell(k=" + std::to_string(k) + ",bar=" + std::to_string(bar) + ")");
    graph_facts f;
    // Farthest pair: non-anchor of A to non-anchor of B, via both anchors.
    f.diameter = bar + 3;
    g.set_facts(f);
    return g;
}

graph make_wheel(std::size_t n) {
    require(n >= 4, "make_wheel: n >= 4");
    edge_list es;
    es.reserve(2 * (n - 1));
    for (std::size_t i = 1; i < n; ++i) {
        es.emplace_back(nid(0), nid(i));
        const std::size_t next = i + 1 < n ? i + 1 : 1;
        if (next != i) es.emplace_back(nid(i), nid(next));
    }
    graph g(n, es, "wheel(" + std::to_string(n) + ")");
    graph_facts f;
    f.diameter = n == 4 ? 1 : 2;  // W_4 = K_4
    g.set_facts(f);
    return g;
}

graph make_watts_strogatz(std::size_t n, std::size_t k, double beta,
                          std::uint64_t seed, std::size_t max_attempts) {
    require(k >= 2 && k % 2 == 0, "make_watts_strogatz: k even, >= 2");
    require(k < n, "make_watts_strogatz: k < n");
    require(beta >= 0.0 && beta <= 1.0, "make_watts_strogatz: beta in [0,1]");
    xoshiro256ss rng(derive_seed(seed, n, k ^ 0x55AA));
    for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
        // Ring lattice: i ~ i+d for d in [1, k/2].
        std::set<std::pair<node_id, node_id>> edges;
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t d = 1; d <= k / 2; ++d) {
                const node_id a = nid(i), b = nid((i + d) % n);
                edges.insert({std::min(a, b), std::max(a, b)});
            }
        }
        // Rewire each lattice edge with probability beta: keep endpoint u,
        // re-point the other end at a uniform node (skipping self-loops
        // and existing edges, so |E| = nk/2 is preserved).
        const edge_list lattice(edges.begin(), edges.end());
        for (const auto& [u, v] : lattice) {
            if (!rng.bernoulli(beta)) continue;
            const auto w = nid(rng.below(n));
            if (w == u) continue;
            const std::pair<node_id, node_id> nkey{std::min(u, w), std::max(u, w)};
            if (edges.count(nkey)) continue;
            edges.erase({u, v});
            edges.insert(nkey);
        }
        try {
            return graph(n, edge_list(edges.begin(), edges.end()),
                         "watts_strogatz(n=" + std::to_string(n) +
                             ",k=" + std::to_string(k) + ")");
        } catch (const error&) {
            continue;  // rewiring disconnected the ring; resample
        }
    }
    throw error("make_watts_strogatz: exceeded max_attempts");
}

graph make_barabasi_albert(std::size_t n, std::size_t m, std::uint64_t seed) {
    require(m >= 1, "make_barabasi_albert: m >= 1");
    require(n >= m + 1, "make_barabasi_albert: n >= m + 1");
    xoshiro256ss rng(derive_seed(seed, n, m ^ 0xBA));
    edge_list es;
    // Seed community: K_{m+1}, so every node starts with degree >= m.
    // `ends` holds every edge endpoint once per incidence; sampling a
    // uniform entry is exactly degree-proportional sampling.
    std::vector<node_id> ends;
    for (std::size_t i = 0; i <= m; ++i) {
        for (std::size_t j = i + 1; j <= m; ++j) {
            es.emplace_back(nid(i), nid(j));
            ends.push_back(nid(i));
            ends.push_back(nid(j));
        }
    }
    std::set<node_id> picked;
    for (std::size_t v = m + 1; v < n; ++v) {
        picked.clear();
        while (picked.size() < m) {
            picked.insert(ends[rng.below(ends.size())]);
        }
        for (node_id u : picked) {
            es.emplace_back(nid(v), u);
            ends.push_back(nid(v));
            ends.push_back(u);
        }
    }
    return graph(n, es,
                 "barabasi_albert(n=" + std::to_string(n) + ",m=" +
                     std::to_string(m) + ")");
}

graph make_random_geometric(std::size_t n, double radius, std::uint64_t seed,
                            std::size_t max_attempts) {
    require(n >= 1, "make_random_geometric: n >= 1");
    require(radius > 0.0, "make_random_geometric: radius > 0");
    xoshiro256ss rng(derive_seed(seed, n, 0x2CC));
    const double r2 = radius * radius;
    for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
        std::vector<std::pair<double, double>> pts(n);
        for (auto& p : pts) p = {rng.uniform01(), rng.uniform01()};
        edge_list es;
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                const double dx = pts[i].first - pts[j].first;
                const double dy = pts[i].second - pts[j].second;
                if (dx * dx + dy * dy <= r2) es.emplace_back(nid(i), nid(j));
            }
        }
        try {
            return graph(n, es, "random_geometric(n=" + std::to_string(n) + ")");
        } catch (const error&) {
            continue;  // disconnected; resample the point set
        }
    }
    throw error("make_random_geometric: exceeded max_attempts (radius too small?)");
}

graph make_connected_caveman(std::size_t num_caves, std::size_t cave_size) {
    require(num_caves >= 3, "make_connected_caveman: num_caves >= 3");
    // cave_size = 2 would make the graph 1-regular — a perfect matching,
    // necessarily disconnected.
    require(cave_size >= 3, "make_connected_caveman: cave_size >= 3");
    const std::size_t n = num_caves * cave_size;
    auto at = [cave_size](std::size_t c, std::size_t i) {
        return nid(c * cave_size + i);
    };
    edge_list es;
    for (std::size_t c = 0; c < num_caves; ++c) {
        for (std::size_t i = 0; i < cave_size; ++i) {
            for (std::size_t j = i + 1; j < cave_size; ++j) {
                // The (0,1) edge of each cave is re-pointed to the next
                // cave's member 1, keeping the graph (cave_size-1)-regular.
                if (i == 0 && j == 1) continue;
                es.emplace_back(at(c, i), at(c, j));
            }
        }
        es.emplace_back(at(c, 0), at((c + 1) % num_caves, 1));
    }
    return graph(n, es,
                 "connected_caveman(" + std::to_string(num_caves) + "x" +
                     std::to_string(cave_size) + ")");
}

const char* to_string(graph_family f) noexcept {
    switch (f) {
        case graph_family::path: return "path";
        case graph_family::cycle: return "cycle";
        case graph_family::complete: return "complete";
        case graph_family::star: return "star";
        case graph_family::grid2d: return "grid2d";
        case graph_family::torus: return "torus";
        case graph_family::hypercube: return "hypercube";
        case graph_family::binary_tree: return "binary_tree";
        case graph_family::random_regular: return "random_regular";
        case graph_family::erdos_renyi: return "erdos_renyi";
        case graph_family::ring_of_cliques: return "ring_of_cliques";
        case graph_family::barbell: return "barbell";
        case graph_family::lollipop: return "lollipop";
        case graph_family::dumbbell: return "dumbbell";
        case graph_family::wheel: return "wheel";
        case graph_family::watts_strogatz: return "watts_strogatz";
        case graph_family::barabasi_albert: return "barabasi_albert";
        case graph_family::random_geometric: return "random_geometric";
        case graph_family::connected_caveman: return "connected_caveman";
    }
    return "?";
}

std::optional<graph_family> family_from_string(std::string_view name) {
    for (graph_family f : all_families()) {
        if (name == to_string(f)) return f;
    }
    if (name == "ws") return graph_family::watts_strogatz;
    if (name == "ba") return graph_family::barabasi_albert;
    if (name == "rgg" || name == "geometric") return graph_family::random_geometric;
    if (name == "caveman") return graph_family::connected_caveman;
    if (name == "er") return graph_family::erdos_renyi;
    if (name == "grid") return graph_family::grid2d;
    if (name == "tree") return graph_family::binary_tree;
    return std::nullopt;
}

graph make_family(graph_family f, std::size_t n, std::uint64_t seed) {
    require(n >= 1, "make_family: n >= 1");
    switch (f) {
        case graph_family::path: return make_path(n);
        case graph_family::cycle: return make_cycle(std::max<std::size_t>(n, 3));
        case graph_family::complete: return make_complete(std::max<std::size_t>(n, 2));
        case graph_family::star: return make_star(std::max<std::size_t>(n, 2));
        case graph_family::grid2d: {
            const auto side = static_cast<std::size_t>(std::round(std::sqrt(n)));
            return make_grid2d(std::max<std::size_t>(side, 2),
                               std::max<std::size_t>(side, 2));
        }
        case graph_family::torus: {
            const auto side = static_cast<std::size_t>(std::round(std::sqrt(n)));
            return make_torus(std::max<std::size_t>(side, 3),
                              std::max<std::size_t>(side, 3));
        }
        case graph_family::hypercube: {
            std::size_t d = 1;
            while ((std::size_t{1} << (d + 1)) <= n && d < 24) ++d;
            return make_hypercube(d);
        }
        case graph_family::binary_tree: return make_binary_tree(n);
        case graph_family::random_regular: {
            std::size_t nn = n;
            if (nn * 4 % 2 != 0) ++nn;  // keep n*d even (d=4: always even)
            return make_random_regular(std::max<std::size_t>(nn, 6), 4, seed);
        }
        case graph_family::erdos_renyi: {
            const std::size_t nn = std::max<std::size_t>(n, 4);
            const double p =
                std::min(1.0, 3.0 * std::log(static_cast<double>(nn)) /
                                   static_cast<double>(nn));
            return make_erdos_renyi(nn, p, seed);
        }
        case graph_family::ring_of_cliques: {
            const auto side = std::max<std::size_t>(
                3, static_cast<std::size_t>(std::round(std::sqrt(n))));
            return make_ring_of_cliques(side, std::max<std::size_t>(n / side, 1));
        }
        case graph_family::barbell: return make_barbell(std::max<std::size_t>(n / 2, 2));
        case graph_family::lollipop:
            return make_lollipop(std::max<std::size_t>(n / 2, 2),
                                 std::max<std::size_t>(n - n / 2, 1));
        case graph_family::dumbbell: {
            // Bar takes ~n/4 nodes; the cliques split the rest.
            const std::size_t bar = std::max<std::size_t>(n / 4, 1);
            const std::size_t k = std::max<std::size_t>((n - std::min(bar, n)) / 2, 2);
            return make_dumbbell(k, bar);
        }
        case graph_family::wheel: return make_wheel(std::max<std::size_t>(n, 4));
        case graph_family::watts_strogatz: {
            // k = 4 nearest neighbors, 15% shortcuts: clustered but small
            // diameter — the canonical small-world operating point.
            const std::size_t nn = std::max<std::size_t>(n, 6);
            return make_watts_strogatz(nn, 4, 0.15, seed);
        }
        case graph_family::barabasi_albert:
            return make_barabasi_albert(std::max<std::size_t>(n, 3), 2, seed);
        case graph_family::random_geometric: {
            const std::size_t nn = std::max<std::size_t>(n, 2);
            // ~1.5x the connectivity-threshold radius √(ln n / (π n)), so
            // the rejection loop accepts quickly at every size.
            const double r = std::min(
                1.5, 1.5 * std::sqrt(std::log(static_cast<double>(nn) + 1.0) /
                                     (3.14159265358979 * static_cast<double>(nn))));
            return make_random_geometric(nn, r, seed);
        }
        case graph_family::connected_caveman: {
            const auto caves = std::max<std::size_t>(
                3, static_cast<std::size_t>(std::round(std::sqrt(n))));
            return make_connected_caveman(caves, std::max<std::size_t>(n / caves, 3));
        }
    }
    throw error("make_family: unknown family");
}

std::vector<graph_family> all_families() {
    return {graph_family::path,          graph_family::cycle,
            graph_family::complete,      graph_family::star,
            graph_family::grid2d,        graph_family::torus,
            graph_family::hypercube,     graph_family::binary_tree,
            graph_family::random_regular, graph_family::erdos_renyi,
            graph_family::ring_of_cliques, graph_family::barbell,
            graph_family::lollipop,      graph_family::dumbbell,
            graph_family::wheel,         graph_family::watts_strogatz,
            graph_family::barabasi_albert, graph_family::random_geometric,
            graph_family::connected_caveman};
}

}  // namespace anole
