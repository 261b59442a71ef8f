// anole — immutable undirected graph with port numbering.
//
// This is the topology substrate for the anonymous-network model of the
// paper (§2): a connected undirected graph G = (V, E) where nodes have NO
// identifiers, only a local labeling of incident links ("port numbers"
// 1..deg). Engine-side code refers to nodes by dense index (bookkeeping
// only); protocol code must never see those indices — the simulator's
// node context exposes ports exclusively, and tests run protocols under
// random port permutations to enforce label-independence.
//
// Representation: CSR adjacency. For each node u and each local port p we
// store the neighbor index and the *reverse port* — the port at the
// neighbor under which this link appears. The reverse port is what makes
// O(1) message delivery into the right inbox slot possible.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace anole {

using node_id = std::uint32_t;
using port_id = std::uint32_t;  // 0-based in code; the paper's 1..N is cosmetic

// Analytic facts a generator may know about the instance it produced.
// Estimators (graph/properties.h, graph/spectral.h) fill gaps at runtime.
struct graph_facts {
    std::optional<std::uint64_t> diameter;
    std::optional<double> conductance;        // Φ(G), exact or analytic bound
    std::optional<double> isoperimetric;      // i(G)
    std::optional<std::uint64_t> mixing_time; // tmix upper bound (lazy walk)
};

class graph {
public:
    // Builds from an edge list over nodes [0, n). Validates: no self-loops,
    // no parallel edges, connected (required by the model, §2).
    graph(std::size_t n, const std::vector<std::pair<node_id, node_id>>& edges,
          std::string name = "custom");

    // --- size ---
    [[nodiscard]] std::size_t num_nodes() const noexcept { return offsets_.size() - 1; }
    [[nodiscard]] std::size_t num_edges() const noexcept { return nbr_.size() / 2; }
    [[nodiscard]] std::size_t degree(node_id u) const noexcept {
        return offsets_[u + 1] - offsets_[u];
    }
    [[nodiscard]] std::size_t max_degree() const noexcept { return max_degree_; }

    // --- topology access (engine-side only) ---
    // CSR index of (u, port 0): directed edge (u, p) is entry offset(u) + p
    // of every per-directed-edge table (the engine's message slots).
    [[nodiscard]] std::size_t offset(node_id u) const noexcept { return offsets_[u]; }
    // Neighbor reached from u via local port p (0 <= p < degree(u)).
    [[nodiscard]] node_id neighbor(node_id u, port_id p) const noexcept {
        return nbr_[offsets_[u] + p];
    }
    // Port at `neighbor(u,p)` under which the same link appears.
    [[nodiscard]] port_id reverse_port(node_id u, port_id p) const noexcept {
        return rev_port_[offsets_[u] + p];
    }
    // All neighbors of u in port order.
    [[nodiscard]] std::span<const node_id> neighbors(node_id u) const noexcept {
        return {nbr_.data() + offsets_[u], degree(u)};
    }

    // Port at u that leads to v; throws if (u,v) is not an edge. O(deg(u)).
    [[nodiscard]] port_id port_to(node_id u, node_id v) const;

    // --- anonymity adversary ---
    // Returns a copy with every node's ports independently permuted at
    // random (per-node permutations from fill_port_permutation, so the
    // engine's per-round re-wiring adversary — sim/dynamics.h — reduces
    // to this exactly when it fires once before round 0). The abstract
    // topology is identical; only local labels move.
    [[nodiscard]] graph with_permuted_ports(std::uint64_t seed) const;

    // --- metadata ---
    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] const graph_facts& facts() const noexcept { return facts_; }
    void set_facts(graph_facts f) noexcept { facts_ = std::move(f); }

    // Edge list (u < v), for analyzers.
    [[nodiscard]] std::vector<std::pair<node_id, node_id>> edge_list() const;

private:
    std::vector<std::size_t> offsets_;  // n+1 entries
    std::vector<node_id> nbr_;          // 2m entries, port-ordered per node
    std::vector<port_id> rev_port_;     // parallel to nbr_
    std::size_t max_degree_ = 0;
    std::string name_;
    graph_facts facts_;
};

// The canonical port-relabeling draw shared by graph::with_permuted_ports
// and the dynamics adversary (sim/dynamics.h): fills perm with a uniform
// permutation of [0, perm.size()) — perm[old_port] = new_port — derived
// deterministically from (seed, u). Keeping both callers on one derivation
// is what makes "rewire every round" provably reduce to "permute once".
void fill_port_permutation(std::uint64_t seed, node_id u, std::span<port_id> perm);

}  // namespace anole
