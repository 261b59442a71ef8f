#include "graph/graph.h"

#include <algorithm>
#include <numeric>
#include <queue>

namespace anole {

graph::graph(std::size_t n, const std::vector<std::pair<node_id, node_id>>& edges,
             std::string name)
    : name_(std::move(name)) {
    require(n >= 1, "graph: need at least one node");
    require(n <= std::size_t{1} << 31, "graph: too many nodes for node_id");

    // Validate edges and count degrees. The first offending edge names the
    // error: the first edge out of range or a self-loop, unless an edge
    // before it repeats an earlier one — a sorted scan of that prefix's
    // {min, max} keys finds such a repeat.
    std::size_t bad = 0;
    while (bad < edges.size() && edges[bad].first < n && edges[bad].second < n &&
           edges[bad].first != edges[bad].second) {
        ++bad;
    }
    std::vector<std::uint64_t> keys(bad);
    for (std::size_t i = 0; i < bad; ++i) {
        const auto [lo, hi] = std::minmax(edges[i].first, edges[i].second);
        keys[i] = std::uint64_t{lo} << 32 | hi;
    }
    std::sort(keys.begin(), keys.end());
    require(std::adjacent_find(keys.begin(), keys.end()) == keys.end(),
            "graph: parallel edges not allowed");
    if (bad < edges.size()) {
        const auto [u, v] = edges[bad];
        throw error(u < n && v < n ? "graph: self-loops not allowed"
                                   : "graph: edge endpoint out of range");
    }
    std::vector<std::size_t> deg(n, 0);
    for (auto [u, v] : edges) {
        ++deg[u];
        ++deg[v];
    }

    offsets_.assign(n + 1, 0);
    std::partial_sum(deg.begin(), deg.end(), offsets_.begin() + 1);
    nbr_.resize(2 * edges.size());
    rev_port_.resize(2 * edges.size());

    std::vector<std::size_t> fill(n, 0);
    for (auto [u, v] : edges) {
        const auto pu = static_cast<port_id>(fill[u]++);
        const auto pv = static_cast<port_id>(fill[v]++);
        nbr_[offsets_[u] + pu] = v;
        nbr_[offsets_[v] + pv] = u;
        rev_port_[offsets_[u] + pu] = pv;
        rev_port_[offsets_[v] + pv] = pu;
    }
    max_degree_ = deg.empty() ? 0 : *std::max_element(deg.begin(), deg.end());

    // Connectivity check (model requirement, paper §2).
    if (n > 1) {
        std::vector<char> vis(n, 0);
        std::queue<node_id> q;
        q.push(0);
        vis[0] = 1;
        std::size_t cnt = 1;
        while (!q.empty()) {
            const node_id u = q.front();
            q.pop();
            for (node_id w : neighbors(u)) {
                if (!vis[w]) {
                    vis[w] = 1;
                    ++cnt;
                    q.push(w);
                }
            }
        }
        require(cnt == n, "graph: must be connected");
    }
}

port_id graph::port_to(node_id u, node_id v) const {
    for (port_id p = 0; p < degree(u); ++p) {
        if (neighbor(u, p) == v) return p;
    }
    throw error("graph::port_to: not an edge");
}

void fill_port_permutation(std::uint64_t seed, node_id u, std::span<port_id> perm) {
    std::iota(perm.begin(), perm.end(), 0);
    xoshiro256ss rng(derive_seed(seed, u, 0x9097));
    for (std::size_t i = perm.size(); i > 1; --i) {
        std::swap(perm[i - 1], perm[rng.below(i)]);
    }
}

graph graph::with_permuted_ports(std::uint64_t seed) const {
    // Full copy first, then permute the adjacency in place: building the
    // result from the private default constructor and assigning fields one
    // by one left every later-added member (cached profiles, auxiliary
    // adjacency) half-initialized — copy-then-permute cannot drift.
    graph out = *this;
    out.name_ = name_ + "+permports";

    const std::size_t n = num_nodes();
    // Per-node permutation of its port slots.
    std::vector<std::vector<port_id>> perm(n);  // perm[u][old_port] = new_port
    for (node_id u = 0; u < n; ++u) {
        perm[u].resize(degree(u));
        fill_port_permutation(seed, u, perm[u]);
    }
    for (node_id u = 0; u < n; ++u) {
        for (port_id p = 0; p < degree(u); ++p) {
            const node_id v = neighbor(u, p);
            const port_id q = reverse_port(u, p);
            const port_id np = perm[u][p];
            out.nbr_[offsets_[u] + np] = v;
            out.rev_port_[offsets_[u] + np] = perm[v][q];
        }
    }
    return out;
}

std::vector<std::pair<node_id, node_id>> graph::edge_list() const {
    std::vector<std::pair<node_id, node_id>> out;
    out.reserve(num_edges());
    for (node_id u = 0; u < num_nodes(); ++u) {
        for (node_id v : neighbors(u)) {
            if (u < v) out.emplace_back(u, v);
        }
    }
    return out;
}

}  // namespace anole
