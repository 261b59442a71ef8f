#include "baseline/flood_max.h"

namespace anole {

flood_result run_flood_max(const graph& g, std::uint64_t diameter, std::uint64_t seed,
                           congest_budget budget, const dynamics_spec& dynamics) {
    const std::size_t n = g.num_nodes();
    require(n >= 2 && n < (std::size_t{1} << 15), "run_flood_max: 2 <= n < 2^15");
    const auto nn = static_cast<std::uint64_t>(n);
    const std::uint64_t id_space = nn * nn * nn * nn;

    return run_protocol<flood_max_node, flood_result>(
        g, seed, budget, dynamics,
        [&](std::size_t u) {
            return flood_max_node(g.degree(static_cast<node_id>(u)), id_space,
                                  diameter + 1);
        },
        [&](engine<flood_max_node>& eng) {
            eng.set_phase("flood");
            eng.run_until_halted(diameter + 3);
            return oracle_options{.round_cap = diameter + 3};
        },
        [](const engine<flood_max_node>&, flood_result&) {});
}

}  // namespace anole
