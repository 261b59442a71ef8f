#include "core/post_election.h"

#include <algorithm>

namespace anole {

announce_result run_announce(const graph& g, node_id root, std::uint64_t leader_id,
                             std::uint64_t diameter, std::uint64_t seed) {
    require(root < g.num_nodes(), "run_announce: root out of range");
    require(leader_id != 0, "run_announce: leader_id must be nonzero");

    const std::uint64_t rounds = diameter + 2;
    engine<announce_node> eng(g, seed, congest_budget::strict_log(16));
    eng.spawn([&](std::size_t u) {
        return announce_node(g.degree(static_cast<node_id>(u)), u == root, leader_id,
                             rounds);
    });
    eng.run_until_halted(rounds + 2);

    announce_result res;
    res.leader_id = leader_id;
    res.rounds = eng.round();
    res.totals = eng.metrics().total();
    res.all_know_leader = true;
    res.bfs_tree_valid = true;
    res.depths.reserve(g.num_nodes());
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        const announce_node& nd = eng.node(u);
        res.depths.push_back(nd.depth());
        if (!nd.joined() || nd.known_leader() != leader_id) {
            res.all_know_leader = false;
        }
        res.tree_depth = std::max(res.tree_depth, nd.depth());
        if (u != root) {
            if (!nd.parent()) {
                res.bfs_tree_valid = false;
            } else {
                const node_id pu =
                    g.neighbor(static_cast<node_id>(u), *nd.parent());
                if (eng.node(pu).depth() + 1 != nd.depth()) {
                    res.bfs_tree_valid = false;
                }
            }
        }
    }
    return res;
}

explicit_result run_explicit_irrevocable(const graph& g,
                                         const irrevocable_params& params,
                                         std::uint64_t diameter, std::uint64_t seed) {
    explicit_result out;
    out.election = run_irrevocable(g, params, seed);
    if (!out.election.success) return out;

    // The driver knows the winner's vertex (harness knowledge only; the
    // announcement protocol itself stays anonymous).
    out.announcement = run_announce(g, out.election.leader_node,
                                    out.election.leader_id, diameter, seed + 1);
    out.success = out.announcement.all_know_leader;
    return out;
}

}  // namespace anole
