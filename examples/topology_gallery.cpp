// topology_gallery — render any zoo family as a self-contained SVG via
// the in-tree multilevel Barnes–Hut force layout.
//
//   ./topology_gallery                      # list every family + alias
//   ./topology_gallery wheel 32 > wheel.svg
//   ./topology_gallery ba 48 7 > ba.svg     # n = 48, seed 7
//
// docs/TOPOLOGIES.md pairs each catalog entry with its thumbnail
// command; this is the binary those commands run. It prints the 320×240
// thumbnail that the campaign HTML report's gallery shows for the same
// (family, n, seed), laid out by graph/layout.h (deterministic in the
// seed, O(V log V + E) per iteration).
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "graph/generators.h"
#include "graph/layout.h"

using namespace anole;

int main(int argc, char** argv) {
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: topology_gallery <family> [n=32] [seed=1]\n"
                     "families:");
        for (const graph_family f : all_families()) {
            std::fprintf(stderr, " %s", to_string(f));
        }
        std::fprintf(stderr, "\naliases: ws ba rgg geometric caveman er grid tree\n");
        return 2;
    }
    const auto family = family_from_string(argv[1]);
    if (!family) {
        std::fprintf(stderr, "error: unknown family '%s' (run with no args for "
                             "the list)\n",
                     argv[1]);
        return 2;
    }
    const auto parse_count = [](const char* arg, const char* what,
                                std::uint64_t dflt) -> std::uint64_t {
        if (arg == nullptr) return dflt;
        char* end = nullptr;
        const std::uint64_t v = std::strtoull(arg, &end, 10);
        // Reject sign prefixes (strtoull wraps "-1"), trailing garbage,
        // and empty input.
        if (*arg == '\0' || *arg == '-' || *arg == '+' || end == nullptr ||
            *end != '\0') {
            std::fprintf(stderr, "error: %s must be a non-negative number, "
                                 "got '%s'\n",
                         what, arg);
            std::exit(2);
        }
        return v;
    };
    const std::size_t n = parse_count(argc > 2 ? argv[2] : nullptr, "n", 32);
    const std::uint64_t seed = parse_count(argc > 3 ? argv[3] : nullptr, "seed", 1);
    if (n == 0) {
        std::fprintf(stderr, "error: n must be a positive number, got '%s'\n",
                     argv[2]);
        return 2;
    }

    try {
        const graph g = make_family(*family, n, seed);

        std::fprintf(stderr, "%s: %zu nodes, %zu edges\n", g.name().c_str(),
                     g.num_nodes(), g.num_edges());
        std::cout << layout_svg(g, force_layout(g, {.seed = seed})) << "\n";
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    return 0;
}
