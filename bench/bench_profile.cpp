// Profile-pipeline benchmark + perf-regression gate.
//
// Measures the topology-measurement prologue every campaign pays —
// profile() in graph/spectral.h — against its pre-Lanczos predecessor,
// replicated here so the before/after is measured, not recalled:
//
//   1. profile pipeline — end-to-end profile() (Lanczos eigenpair, shared
//      Fiedler sweep, cost-model tmix, n·m-budgeted diameter) vs the
//      legacy path: power iteration with the fixed 40·n·ln n budget run
//      three times (λ₂ + two Fiedler computations), a serial dense §2
//      simulation from every extremal start, and all-pairs BFS for every
//      n <= 4096. The legacy side is *measured capped and extrapolated*
//      (its full run is minutes to hours — the point of this PR); the
//      extrapolation factors are deterministic iteration/step counts, so
//      the printed "legacy s (est)" is an honest lower bound (the old
//      early-exit check's extra matvec every 32 iters is included, its
//      possible early stop is not — it never fired on low-gap families).
//   2. profile at scale — wall-clock for full profiles at n = 10^5.
//   3. estimator agreement — Lanczos vs power-iteration λ₂, and the
//      extremal-start tmix that profile() runs above n = 128 vs the
//      exhaustive §2 evaluation, as identity gates.
//   4. exact kernels — diameter_exact and conductance_exact +
//      isoperimetric_exact against frozen replicas of the loops they
//      replaced (one queue BFS per source; a from-scratch tally of every
//      cut mask, run once per measure), with a bitwise-equality column.
//   5. layout — the multilevel force_layout against a frozen replica of
//      the single-level pass it replaced (100/50/30 Barnes–Hut
//      iterations from a random start), with layout_stress for both and a
//      "quality ok" column: new stress <= 1.05 x replica stress.
//
// The committed baseline lives at BENCH_PROFILE.json in the repo root;
// CI regenerates and gates against it through bench/gate.h, like
// BENCH_ENGINE.json: speedup ratios may not fall below baseline/3
// (same-host ratios, so runner speed cancels), agreement columns must
// stay "yes".
//
// Flags: --quick | --csv | --json | --jobs N | --json-out FILE | --check FILE
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <queue>
#include <string>
#include <vector>

#include "bench/gate.h"
#include "graph/generators.h"
#include "graph/lanczos.h"
#include "graph/layout.h"
#include "graph/properties.h"
#include "graph/spectral.h"
#include "sim/thread_pool.h"
#include "util/rng.h"
#include "util/table.h"

namespace anole {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// --- legacy replica ----------------------------------------------------------
//
// The pre-Lanczos spectral path, replicated faithfully: scatter-form
// symmetrized matvec, deflation against √d, fixed iteration budget
// min(40·n·ln(n+2), 4e6)+100 with no residual exit.

std::vector<double> legacy_sym_step(const graph& g, const std::vector<double>& x,
                                    const std::vector<double>& inv_sqrt_d) {
    std::vector<double> y(x.size(), 0.0);
    for (node_id u = 0; u < g.num_nodes(); ++u) {
        y[u] += 0.5 * x[u];
        const double xu = 0.5 * x[u] * inv_sqrt_d[u];
        for (node_id v : g.neighbors(u)) y[v] += xu * inv_sqrt_d[v];
    }
    return y;
}

double legacy_norm2(const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x * x;
    return std::sqrt(s);
}

void legacy_deflate(std::vector<double>& v, const std::vector<double>& top) {
    double dot = 0;
    for (std::size_t i = 0; i < v.size(); ++i) dot += v[i] * top[i];
    for (std::size_t i = 0; i < v.size(); ++i) v[i] -= dot * top[i];
}

std::uint64_t legacy_auto_iters(std::size_t n) {
    const double nn = static_cast<double>(n);
    return static_cast<std::uint64_t>(std::min(40.0 * nn * std::log(nn + 2.0), 4.0e6)) +
           100;
}

// Times `cap` legacy power iterations; the caller extrapolates.
double legacy_power_seconds(const graph& g, std::uint64_t cap) {
    const std::size_t n = g.num_nodes();
    std::vector<double> inv_sqrt_d(n), top(n);
    for (node_id u = 0; u < n; ++u) {
        inv_sqrt_d[u] = 1.0 / std::sqrt(static_cast<double>(g.degree(u)));
        top[u] = std::sqrt(static_cast<double>(g.degree(u)));
    }
    const double tn = legacy_norm2(top);
    for (double& x : top) x /= tn;
    xoshiro256ss rng(derive_seed(0xFEED, n, g.num_edges()));
    std::vector<double> v(n);
    for (double& x : v) x = rng.uniform01() - 0.5;
    legacy_deflate(v, top);
    const double nv = legacy_norm2(v);
    for (double& x : v) x /= nv;

    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t t = 0; t < cap; ++t) {
        std::vector<double> w = legacy_sym_step(g, v, inv_sqrt_d);
        legacy_deflate(w, top);
        const double nw = legacy_norm2(w);
        if (nw < 1e-300) break;
        for (std::size_t i = 0; i < n; ++i) v[i] = w[i] / nw;
    }
    return seconds_since(t0);
}

// The legacy tmix start heuristic, replicated to get its exact start
// count (the dense simulation cost is per start).
std::size_t legacy_start_count(const graph& g) {
    const auto d0 = bfs_distances(g, 0);
    const node_id a =
        static_cast<node_id>(std::max_element(d0.begin(), d0.end()) - d0.begin());
    const auto da = bfs_distances(g, a);
    const node_id b =
        static_cast<node_id>(std::max_element(da.begin(), da.end()) - da.begin());
    node_id dmin = 0, dmax = 0;
    for (node_id u = 0; u < g.num_nodes(); ++u) {
        if (g.degree(u) < g.degree(dmin)) dmin = u;
        if (g.degree(u) > g.degree(dmax)) dmax = u;
    }
    std::vector<node_id> starts = {0, a, b, dmin, dmax};
    xoshiro256ss rng(derive_seed(1, g.num_nodes(), 0x317));
    for (std::size_t i = 0; i < 4; ++i) {
        starts.push_back(static_cast<node_id>(rng.below(g.num_nodes())));
    }
    std::sort(starts.begin(), starts.end());
    starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
    return starts.size();
}

// Times `cap` dense §2 simulation steps (distribution step + ∞-gap scan).
double legacy_tmix_step_seconds(const graph& g, std::uint64_t cap) {
    const auto target = walk_stationary(g);
    std::vector<double> pi(g.num_nodes(), 0.0);
    pi[0] = 1.0;
    double sink = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t t = 0; t < cap; ++t) {
        double gap = 0.0;
        for (std::size_t i = 0; i < pi.size(); ++i) {
            gap = std::max(gap, std::abs(pi[i] - target[i]));
        }
        sink += gap;
        pi = walk_distribution_step(g, pi);
    }
    if (sink < 0) std::printf("impossible\n");  // keep the gap scan alive
    return seconds_since(t0) / static_cast<double>(cap);
}

// Estimated full legacy profile() cost: 3 fixed-budget power runs (λ₂ +
// Fiedler twice — the old path recomputed the vector per sweep cut), the
// serial dense tmix simulation, and all-pairs BFS when n <= 4096.
double legacy_profile_seconds_est(const graph& g, std::uint64_t tmix_steps_est) {
    const std::size_t n = g.num_nodes();
    const std::uint64_t budget = legacy_auto_iters(n);
    const std::uint64_t cap = std::min<std::uint64_t>(budget, 150);
    const double per_iter = legacy_power_seconds(g, cap) / static_cast<double>(cap);
    // +1/32: the old stabilization check ran one extra matvec every 32
    // iterations past t=64.
    double total = per_iter * static_cast<double>(budget) * (1.0 + 1.0 / 32.0) * 3.0;

    const std::size_t starts = legacy_start_count(g);
    const double per_step = legacy_tmix_step_seconds(g, 30);
    total += per_step * static_cast<double>(tmix_steps_est) *
             static_cast<double>(starts);

    if (n <= 4096) {
        const auto t0 = std::chrono::steady_clock::now();
        for (node_id s = 0; s < 4; ++s) (void)bfs_distances(g, s);
        total += seconds_since(t0) / 4.0 * static_cast<double>(n);
    }
    return total;
}

// How many dense steps the legacy simulation would have run per start.
// When the new pipeline measured tmix, that value is the answer; when it
// reported the spectral bound, discount by 4x (the bound's log-factor
// slack) so the legacy estimate stays conservative.
std::uint64_t legacy_tmix_steps(const graph_profile& p) {
    if (p.mixing_method == profile_method::spectral) {
        return std::max<std::uint64_t>(1, p.mixing_time / 4);
    }
    return std::max<std::uint64_t>(1, p.mixing_time);
}

// --- legacy exact kernels ----------------------------------------------------
//
// diameter_exact as one std::queue BFS per source, and the exact cut
// measures as a from-scratch O(n + m) tally of every mask's indicator
// vector. profile() ran the cut enumeration once for Φ and once for i(G).

std::vector<std::uint32_t> legacy_bfs_distances(const graph& g, node_id src) {
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

std::uint32_t legacy_diameter(const graph& g) {
    std::uint32_t diam = 0;
    for (node_id u = 0; u < g.num_nodes(); ++u) {
        const auto dist = legacy_bfs_distances(g, u);
        diam = std::max(diam, *std::max_element(dist.begin(), dist.end()));
    }
    return diam;
}

struct legacy_cut_tally {
    std::uint64_t boundary = 0;
    std::uint64_t size_s = 0;
    std::uint64_t vol_s = 0;
};

template <class Fn>
void legacy_enumerate_cuts(const graph& g, Fn&& fn) {
    const std::size_t n = g.num_nodes();
    const std::size_t limit = std::size_t{1} << (n - 1);
    std::vector<bool> in_s(n, false);
    for (std::size_t mask = 1; mask < limit; ++mask) {
        for (std::size_t b = 0; b + 1 < n; ++b) in_s[b + 1] = ((mask >> b) & 1u) != 0;
        legacy_cut_tally t;
        for (node_id u = 0; u < n; ++u) {
            if (!in_s[u]) continue;
            ++t.size_s;
            t.vol_s += g.degree(u);
            for (node_id v : g.neighbors(u)) {
                if (!in_s[v]) ++t.boundary;
            }
        }
        fn(t);
    }
}

double legacy_conductance_exact(const graph& g) {
    double best = std::numeric_limits<double>::infinity();
    const std::uint64_t vol_total = 2 * g.num_edges();
    legacy_enumerate_cuts(g, [&](const legacy_cut_tally& t) {
        const std::uint64_t vol_min = std::min(t.vol_s, vol_total - t.vol_s);
        if (vol_min == 0) return;
        best = std::min(best,
                        static_cast<double>(t.boundary) / static_cast<double>(vol_min));
    });
    return best;
}

double legacy_isoperimetric_exact(const graph& g) {
    double best = std::numeric_limits<double>::infinity();
    const std::size_t n = g.num_nodes();
    legacy_enumerate_cuts(g, [&](const legacy_cut_tally& t) {
        const std::uint64_t s = std::min<std::uint64_t>(t.size_s, n - t.size_s);
        if (s == 0) return;
        best = std::min(best, static_cast<double>(t.boundary) / static_cast<double>(s));
    });
    return best;
}

// --- legacy force layout -----------------------------------------------------
//
// The single-level force_layout the multilevel one replaced: seeded
// random start, then 100 (n <= 2048), 50 (n <= 32768) or 30 Fruchterman–
// Reingold iterations on the whole graph, Barnes–Hut repulsion, linear
// cooling from 0.1, 256-node blocks sharded over the pool.

std::vector<layout_point> legacy_force_layout(const graph& g, std::uint64_t seed,
                                              thread_pool* pool) {
    constexpr std::uint64_t kLayoutTag = 0x6c61796f75743264ULL;  // "layout2d"
    const std::size_t n = g.num_nodes();
    std::vector<layout_point> pts(n);
    for (std::size_t u = 0; u < n; ++u) {
        xoshiro256ss rng(derive_seed(seed, u, kLayoutTag));
        pts[u] = {rng.uniform01(), rng.uniform01()};
    }
    const double k = std::sqrt(1.0 / static_cast<double>(n));
    const std::size_t iters = n <= 2048 ? 100 : n <= 32768 ? 50 : 30;
    std::vector<layout_point> disp(n);
    bh_quadtree tree;
    constexpr std::size_t kBlock = 256;
    const std::size_t blocks = (n + kBlock - 1) / kBlock;
    for (std::size_t it = 0; it < iters; ++it) {
        tree.build(pts);
        const double t =
            std::max(0.1 * (1.0 - static_cast<double>(it) / static_cast<double>(iters)),
                     1e-3);
        const auto do_block = [&](std::size_t b) {
            std::vector<std::int32_t> scratch;
            scratch.reserve(128);
            const std::size_t lo = b * kBlock, hi = std::min(lo + kBlock, n);
            for (std::size_t u = lo; u < hi; ++u) {
                layout_point f = tree.repulsion(pts[u], u, k, 0.85, scratch);
                for (const node_id v : g.neighbors(static_cast<node_id>(u))) {
                    const double dx = pts[u].x - pts[v].x;
                    const double dy = pts[u].y - pts[v].y;
                    const double d = std::sqrt(dx * dx + dy * dy);
                    f.x -= dx * d / k;
                    f.y -= dy * d / k;
                }
                const double len = std::sqrt(f.x * f.x + f.y * f.y);
                if (len > t) {
                    f.x *= t / len;
                    f.y *= t / len;
                }
                disp[u] = f;
            }
        };
        if (pool != nullptr && pool->size() > 1 && blocks > 1) {
            pool->parallel_for(blocks, do_block);
        } else {
            for (std::size_t b = 0; b < blocks; ++b) do_block(b);
        }
        for (std::size_t u = 0; u < n; ++u) {
            pts[u].x += disp[u].x;
            pts[u].y += disp[u].y;
        }
    }
    double minx = pts[0].x, maxx = pts[0].x, miny = pts[0].y, maxy = pts[0].y;
    for (const layout_point& p : pts) {
        minx = std::min(minx, p.x);
        maxx = std::max(maxx, p.x);
        miny = std::min(miny, p.y);
        maxy = std::max(maxy, p.y);
    }
    const double span = std::max({maxx - minx, maxy - miny, 1e-12});
    for (layout_point& p : pts) {
        p.x = (p.x - minx) / span;
        p.y = (p.y - miny) / span;
    }
    return pts;
}

// Fastest of at least 3 calls, repeating until `min_total` seconds have
// been spent, so sub-millisecond kernels are not timed off one call.
template <class Fn>
double best_seconds(Fn&& fn, double min_total) {
    double best = std::numeric_limits<double>::infinity();
    double total = 0.0;
    for (int rep = 0; rep < 3 || total < min_total; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const double s = seconds_since(t0);
        best = std::min(best, s);
        total += s;
    }
    return best;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// --- the bench ---------------------------------------------------------------

int run(const bench::gate_options& opt) {
    bench::gate_run gate(opt);
    thread_pool pool(opt.jobs);

    // --- 1. end-to-end profile(): new pipeline vs extrapolated legacy ---
    struct workload {
        const char* name;
        graph g;
    };
    std::vector<workload> workloads;
    if (opt.quick) {
        workloads.push_back({"dumbbell(512)",
                             make_family(graph_family::dumbbell, 512, 1)});
        workloads.push_back({"caveman(300)",
                             make_family(graph_family::connected_caveman, 300, 1)});
        workloads.push_back({"ba(512)",
                             make_family(graph_family::barabasi_albert, 512, 1)});
    } else {
        workloads.push_back({"dumbbell(4096)",
                             make_family(graph_family::dumbbell, 4096, 1)});
        workloads.push_back({"caveman(1200)",
                             make_family(graph_family::connected_caveman, 1200, 1)});
        workloads.push_back({"ba(4096)",
                             make_family(graph_family::barabasi_albert, 4096, 1)});
        workloads.push_back({"torus(64x64)", make_torus(64, 64)});
    }

    text_table t1({"workload", "n", "m", "new s", "legacy s (est)", "speedup",
                   "tmix method"});
    for (auto& w : workloads) {
        profile_options po;
        po.pool = &pool;
        graph_profile p;
        double new_s = 1e300;
        for (int rep = 0; rep < 2; ++rep) {
            const auto t0 = std::chrono::steady_clock::now();
            p = profile(w.g, po);
            new_s = std::min(new_s, seconds_since(t0));
        }
        const double legacy_s = legacy_profile_seconds_est(w.g, legacy_tmix_steps(p));
        t1.add_row({w.name, fmt_count(w.g.num_nodes()), fmt_count(w.g.num_edges()),
                    fmt_fixed(new_s, 3), fmt_fixed(legacy_s, 1),
                    fmt_ratio(legacy_s / new_s), to_string(p.mixing_method)});
    }
    gate.emit("profile pipeline", t1);

    // --- 2. full profiles at scale (n = 1e5; informational, not gated) ---
    struct scale_case {
        const char* name;
        graph_family family;
        std::size_t n;
    };
    const std::size_t big = opt.quick ? 10'000 : 100'000;
    std::vector<scale_case> scale = {
        {"watts_strogatz", graph_family::watts_strogatz, big},
        {"barabasi_albert", graph_family::barabasi_albert, big},
        {"caveman", graph_family::connected_caveman, big},
    };
    text_table t2({"family", "n", "m", "profile s", "lambda2", "tmix", "tmix method",
                   "diam method"});
    for (const auto& c : scale) {
        const graph g = make_family(c.family, c.n, 1);
        profile_options po;
        po.pool = &pool;
        const auto t0 = std::chrono::steady_clock::now();
        const graph_profile p = profile(g, po);
        const double s = seconds_since(t0);
        t2.add_row({c.name, fmt_count(g.num_nodes()), fmt_count(g.num_edges()),
                    fmt_fixed(s, 2), fmt_fixed(p.lambda2, 6), fmt_count(p.mixing_time),
                    to_string(p.mixing_method), to_string(p.diameter_method)});
    }
    gate.emit("profile at scale", t2);

    // --- 3. estimator agreement (identity-gated) ---
    text_table t3({"family", "n", "lambda2 agree", "tmix agree"});
    const std::vector<graph_family> agree_fams = {
        graph_family::cycle,          graph_family::complete,
        graph_family::dumbbell,       graph_family::connected_caveman,
        graph_family::watts_strogatz, graph_family::barabasi_albert,
    };
    bool all_agree = true;
    for (graph_family f : agree_fams) {
        const std::size_t n = 64;
        const graph g = make_family(f, n, 1);
        const double l_lan = lambda2_lazy(g, 0, &pool);
        const double l_pow = lambda2_power(g);
        const bool l_ok = std::abs(l_lan - l_pow) <= 1e-6;

        mixing_time_options mo;
        mo.pool = &pool;
        const std::uint64_t extremal = mixing_time_simulated(g, mo);
        mo.exhaustive_starts = true;
        const std::uint64_t exact = mixing_time_simulated(g, mo);
        const std::uint64_t diff = extremal > exact ? extremal - exact : exact - extremal;
        const bool t_ok =
            diff <= std::max<std::uint64_t>(2, exact / 4);  // ±25% or ±2 steps
        all_agree = all_agree && l_ok && t_ok;
        t3.add_row({to_string(f), fmt_count(n), l_ok ? "yes" : "NO",
                    t_ok ? "yes" : "NO"});
    }
    gate.emit("estimator agreement", t3);
    if (!all_agree) {
        std::fprintf(stderr, "estimator disagreement — spectral pipeline bug\n");
        return 2;
    }

    // --- 4. exact kernels vs their legacy loops (ratio + identity gated) ---
    text_table t4({"workload", "n", "m", "new s", "legacy s", "speedup", "same result"});
    bool all_same = true;
    const auto add_kernel_row = [&](const char* name, const graph& g, double new_s,
                                    double legacy_s, bool same) {
        all_same = all_same && same;
        t4.add_row({name, fmt_count(g.num_nodes()), fmt_count(g.num_edges()),
                    fmt_fixed(new_s, 5), fmt_fixed(legacy_s, 5),
                    fmt_ratio(legacy_s / new_s), same ? "yes" : "NO"});
    };
    for (auto& w : std::vector<workload>{
             {"diameter ba(1024)", make_family(graph_family::barabasi_albert, 1024, 1)},
             {"diameter rgg(1024)", make_family(graph_family::random_geometric, 1024, 1)},
             {"diameter caveman(1024)",
              make_family(graph_family::connected_caveman, 1024, 1)}}) {
        std::uint32_t d_new = 0, d_old = 0;
        const double new_s = best_seconds([&] { d_new = diameter_exact(w.g); }, 0.2);
        const double legacy_s = best_seconds([&] { d_old = legacy_diameter(w.g); }, 0.2);
        add_kernel_row(w.name, w.g, new_s, legacy_s, d_new == d_old);
    }
    // Exact cuts run up to exact_cuts_n = 20 nodes in profile().
    for (auto& w : std::vector<workload>{
             {"cuts er(16)", make_family(graph_family::erdos_renyi, 16, 1)},
             {"cuts grid(4x4)", make_grid2d(4, 4)},
             {"cuts er(20)", make_family(graph_family::erdos_renyi, 20, 1)},
             {"cuts grid(4x5)", make_grid2d(4, 5)}}) {
        double phi_new = 0, iso_new = 0, phi_old = 0, iso_old = 0;
        const double new_s = best_seconds(
            [&] {
                phi_new = conductance_exact(w.g);
                iso_new = isoperimetric_exact(w.g);
            },
            0.2);
        const double legacy_s = best_seconds(
            [&] {
                phi_old = legacy_conductance_exact(w.g);
                iso_old = legacy_isoperimetric_exact(w.g);
            },
            0.2);
        add_kernel_row(w.name, w.g, new_s, legacy_s,
                       same_bits(phi_new, phi_old) && same_bits(iso_new, iso_old));
    }
    gate.emit("exact kernels", t4);
    if (!all_same) {
        std::fprintf(stderr, "exact kernel mismatch — properties.cpp bug\n");
        return 2;
    }

    // --- 5. multilevel layout vs the single-level replica (ratio + quality) ---
    // profile-cold's seven gallery families at its thumbnail size, then
    // three families at 16384 where the replica drops to 50 iterations.
    struct layout_case {
        const char* name;
        graph_family family;
        std::size_t n;
    };
    std::vector<layout_case> layout_cases = {
        {"ba(1024)", graph_family::barabasi_albert, 1024},
        {"ws(1024)", graph_family::watts_strogatz, 1024},
        {"torus(1024)", graph_family::torus, 1024},
        {"rgg(1024)", graph_family::random_geometric, 1024},
        {"random_regular(1024)", graph_family::random_regular, 1024},
        {"er(1024)", graph_family::erdos_renyi, 1024},
        {"caveman(1024)", graph_family::connected_caveman, 1024},
    };
    if (!opt.quick) {
        layout_cases.push_back({"torus(16384)", graph_family::torus, 16384});
        layout_cases.push_back({"ba(16384)", graph_family::barabasi_albert, 16384});
        layout_cases.push_back({"star(16384)", graph_family::star, 16384});
    }
    text_table t5({"workload", "n", "new s", "replica s", "speedup", "new stress",
                   "replica stress", "quality ok"});
    for (const layout_case& c : layout_cases) {
        const graph g = make_family(c.family, c.n, 1);
        layout_options lo;
        lo.pool = &pool;
        std::vector<layout_point> pts_new, pts_old;
        const double new_s = best_seconds([&] { pts_new = force_layout(g, lo); }, 0.5);
        const double legacy_s =
            best_seconds([&] { pts_old = legacy_force_layout(g, lo.seed, &pool); }, 0.5);
        const double stress_new = layout_stress(g, pts_new, 1);
        const double stress_old = layout_stress(g, pts_old, 1);
        t5.add_row({c.name, fmt_count(g.num_nodes()), fmt_fixed(new_s, 4),
                    fmt_fixed(legacy_s, 4), fmt_ratio(legacy_s / new_s),
                    fmt_fixed(stress_new, 3), fmt_fixed(stress_old, 3),
                    stress_new <= 1.05 * stress_old ? "yes" : "NO"});
    }
    gate.emit("layout", t5);

    // Gate the speedup ratios (same-host, machine-independent) and the
    // agreement identities; absolute seconds stay informational.
    return gate.finish({
        {"profile pipeline", "workload", "speedup", false},
        {"estimator agreement", "family", "lambda2 agree", true},
        {"estimator agreement", "family", "tmix agree", true},
        {"exact kernels", "workload", "speedup", false},
        {"exact kernels", "workload", "same result", true},
        {"layout", "workload", "speedup", false},
        {"layout", "workload", "quality ok", true},
    });
}

}  // namespace
}  // namespace anole

int main(int argc, char** argv) {
    return anole::run(anole::bench::gate_options::parse(argc, argv, true));
}
