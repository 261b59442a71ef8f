#include "graph/spectral.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "graph/lanczos.h"
#include "graph/properties.h"
#include "sim/thread_pool.h"
#include "util/rng.h"

namespace anole {

std::vector<double> walk_distribution_step(const graph& g, const std::vector<double>& pi) {
    require(pi.size() == g.num_nodes(), "walk_distribution_step: size mismatch");
    std::vector<double> out(pi.size(), 0.0);
    for (node_id u = 0; u < g.num_nodes(); ++u) {
        const double self = pi[u] * 0.5;
        out[u] += self;
        const double share = pi[u] * 0.5 / static_cast<double>(g.degree(u));
        for (node_id v : g.neighbors(u)) out[v] += share;
    }
    return out;
}

std::vector<double> walk_stationary(const graph& g) {
    std::vector<double> pi(g.num_nodes());
    const double denom = 2.0 * static_cast<double>(g.num_edges());
    for (node_id u = 0; u < g.num_nodes(); ++u) {
        pi[u] = static_cast<double>(g.degree(u)) / denom;
    }
    return pi;
}

namespace {

constexpr std::uint64_t kOverBudget = ~std::uint64_t{0};

// Steps the distribution from a point mass at `src` until within eps of
// stationary in ∞-norm; returns the step count, or kOverBudget past
// max_steps (pool jobs must not throw; callers convert the sentinel).
std::uint64_t mix_from(const graph& g, node_id src, const std::vector<double>& target,
                       double eps, std::uint64_t max_steps) {
    std::vector<double> pi(g.num_nodes(), 0.0);
    pi[src] = 1.0;
    for (std::uint64_t t = 0;; ++t) {
        double gap = 0.0;
        for (std::size_t i = 0; i < pi.size(); ++i) {
            gap = std::max(gap, std::abs(pi[i] - target[i]));
        }
        if (gap <= eps) return t;
        if (t >= max_steps) return kOverBudget;
        pi = walk_distribution_step(g, pi);
    }
}

// The shared start heuristic: BFS-farthest pair, min/max degree, and
// four random nodes.
std::vector<node_id> extremal_starts(const graph& g, std::uint64_t seed) {
    const auto d0 = bfs_distances(g, 0);
    const node_id a = static_cast<node_id>(std::max_element(d0.begin(), d0.end()) -
                                           d0.begin());
    const auto da = bfs_distances(g, a);
    const node_id b = static_cast<node_id>(std::max_element(da.begin(), da.end()) -
                                           da.begin());
    node_id dmin = 0, dmax = 0;
    for (node_id u = 0; u < g.num_nodes(); ++u) {
        if (g.degree(u) < g.degree(dmin)) dmin = u;
        if (g.degree(u) > g.degree(dmax)) dmax = u;
    }
    std::vector<node_id> starts = {0, a, b, dmin, dmax};
    xoshiro256ss rng(derive_seed(seed, g.num_nodes(), 0x317));
    for (int i = 0; i < 4; ++i) {
        starts.push_back(static_cast<node_id>(rng.below(g.num_nodes())));
    }
    std::sort(starts.begin(), starts.end());
    starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
    return starts;
}

}  // namespace

std::uint64_t mixing_time_simulated(const graph& g, const mixing_time_options& opt) {
    const auto target = walk_stationary(g);
    const double eps = 1.0 / (2.0 * static_cast<double>(g.num_nodes()));

    std::vector<node_id> starts;
    if (opt.exhaustive_starts) {
        starts.resize(g.num_nodes());
        std::iota(starts.begin(), starts.end(), 0);
    } else {
        starts = extremal_starts(g, opt.seed);
    }

    // Starts shard over the pool; each lands in its own slot, so the
    // max-reduction below is independent of scheduling.
    std::vector<std::uint64_t> per_start(starts.size(), 0);
    const auto one_start = [&](std::size_t i) {
        per_start[i] = mix_from(g, starts[i], target, eps, opt.max_steps);
    };
    if (opt.pool == nullptr || starts.size() <= 1) {
        for (std::size_t i = 0; i < starts.size(); ++i) one_start(i);
    } else {
        opt.pool->parallel_for(starts.size(), one_start);
    }
    std::uint64_t worst = 0;
    for (std::uint64_t t : per_start) worst = std::max(worst, t);
    require(worst != kOverBudget, "mixing_time_simulated: exceeded max_steps");
    return worst;
}

namespace {

// y = N x with N = I/2 + D^{-1/2} A D^{-1/2} / 2 (symmetric).
std::vector<double> lazy_sym_step(const graph& g, const std::vector<double>& x,
                                  const std::vector<double>& inv_sqrt_d) {
    std::vector<double> y(x.size(), 0.0);
    for (node_id u = 0; u < g.num_nodes(); ++u) {
        y[u] += 0.5 * x[u];
        const double xu = 0.5 * x[u] * inv_sqrt_d[u];
        for (node_id v : g.neighbors(u)) {
            y[v] += xu * inv_sqrt_d[v];
        }
    }
    return y;
}

double norm2(const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x * x;
    return std::sqrt(s);
}

void deflate(std::vector<double>& v, const std::vector<double>& unit_top) {
    double dot = 0;
    for (std::size_t i = 0; i < v.size(); ++i) dot += v[i] * unit_top[i];
    for (std::size_t i = 0; i < v.size(); ++i) v[i] -= dot * unit_top[i];
}

std::size_t auto_iters(const graph& g, std::size_t requested) {
    if (requested != 0) return requested;
    // Power iteration error decays like (λ3/λ2)^t; spectral gaps as small
    // as ~1/n² (cycle) need Θ(n² log n) iterations. Cap generously; the
    // residual early exit below stops well-conditioned families long
    // before this worst-case budget.
    const double n = static_cast<double>(g.num_nodes());
    const double est = 40.0 * n * std::log(n + 2.0);
    return static_cast<std::size_t>(std::min(est, 4.0e6)) + 100;
}

// Power-iteration core: leaves the converged unit vector in `v` and returns
// the final Rayleigh quotient. `tol` bounds ‖Nv − ρv‖₂, computed from
// ρ = v·w and ‖w‖ (no extra matvec: residual² = ‖w‖² − ρ² for unit v).
double power_iterate(const graph& g, std::vector<double>& v,
                     const std::vector<double>& inv_sqrt_d,
                     const std::vector<double>& top, std::size_t its, double tol) {
    double rho = 0.5;
    for (std::size_t t = 0; t < its; ++t) {
        std::vector<double> w = lazy_sym_step(g, v, inv_sqrt_d);
        deflate(w, top);
        const double nw = norm2(w);
        if (nw < 1e-300) return 0.5;  // spectrum collapsed; lazy floor
        double dot = 0.0;
        for (std::size_t i = 0; i < v.size(); ++i) dot += v[i] * w[i];
        rho = dot;
        const double res2 = nw * nw - rho * rho;
        for (std::size_t i = 0; i < v.size(); ++i) v[i] = w[i] / nw;
        if (t > 4 && res2 <= tol * tol) break;
    }
    return rho;
}

}  // namespace

double lambda2_lazy(const graph& g, std::size_t iters, thread_pool* pool) {
    lanczos_options opt;
    opt.max_iters = iters;
    opt.pool = pool;
    return lanczos_lambda2(g, opt).lambda2;
}

double lambda2_power(const graph& g, std::size_t iters, double tol) {
    const std::size_t n = g.num_nodes();
    require(n >= 2, "lambda2_power: n >= 2");
    std::vector<double> inv_sqrt_d(n), top(n);
    for (node_id u = 0; u < n; ++u) {
        inv_sqrt_d[u] = 1.0 / std::sqrt(static_cast<double>(g.degree(u)));
        top[u] = std::sqrt(static_cast<double>(g.degree(u)));
    }
    const double tn = norm2(top);
    for (double& x : top) x /= tn;

    xoshiro256ss rng(derive_seed(0xFEED, n, g.num_edges()));
    std::vector<double> v(n);
    for (double& x : v) x = rng.uniform01() - 0.5;
    deflate(v, top);
    const double nv = norm2(v);
    require(nv > 0, "lambda2_power: degenerate start");
    for (double& x : v) x /= nv;

    return power_iterate(g, v, inv_sqrt_d, top, auto_iters(g, iters), tol);
}

std::uint64_t mixing_time_spectral_bound(const graph& g, double lambda2) {
    const double n = static_cast<double>(g.num_nodes());
    const auto ds = degrees(g);
    const double ratio = std::sqrt(static_cast<double>(ds.max) /
                                   static_cast<double>(ds.min));
    // ‖P^t π0 − π‖∞ ≤ n·√(dmax/dmin)·λ₂^t; need ≤ 1/(2n).
    const double needed = std::log(2.0 * n * n * ratio);
    const double gap = -std::log(std::min(lambda2, 1.0 - 1e-12));
    return static_cast<std::uint64_t>(std::ceil(needed / std::max(gap, 1e-12)));
}

std::vector<double> fiedler_vector(const graph& g, std::size_t iters, std::uint64_t seed,
                                   thread_pool* pool) {
    lanczos_options opt;
    opt.max_iters = iters;
    opt.seed = seed;
    opt.pool = pool;
    return lanczos_lambda2(g, opt).fiedler;
}

const char* to_string(profile_method m) noexcept {
    switch (m) {
        case profile_method::fact: return "fact";
        case profile_method::exact: return "exact";
        case profile_method::sweep: return "sweep";
        case profile_method::simulated: return "simulated";
        case profile_method::spectral: return "spectral";
    }
    return "unknown";
}

profile_method profile_method_from_string(const std::string& s) {
    if (s == "fact") return profile_method::fact;
    if (s == "exact") return profile_method::exact;
    if (s == "sweep") return profile_method::sweep;
    if (s == "simulated") return profile_method::simulated;
    if (s == "spectral") return profile_method::spectral;
    throw error("profile_method_from_string: unknown method '" + s + "'");
}

std::string graph_profile::to_json() const {
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "{\"n\":%zu,\"m\":%zu,\"diameter\":%u,\"conductance\":%.17g,"
        "\"isoperimetric\":%.17g,\"mixing_time\":%llu,\"lambda2\":%.17g,"
        "\"diameter_method\":\"%s\",\"conductance_method\":\"%s\","
        "\"isoperimetric_method\":\"%s\",\"mixing_method\":\"%s\","
        "\"lambda2_converged\":%s}",
        n, m, diameter, conductance, isoperimetric,
        static_cast<unsigned long long>(mixing_time), lambda2, to_string(diameter_method),
        to_string(conductance_method), to_string(isoperimetric_method),
        to_string(mixing_method), lambda2_converged ? "true" : "false");
    return std::string(buf);
}

graph_profile profile(const graph& g, const profile_options& opt) {
    graph_profile p;
    p.n = g.num_nodes();
    p.m = g.num_edges();
    const graph_facts& f = g.facts();

    if (f.diameter) {
        p.diameter = static_cast<std::uint32_t>(*f.diameter);
        p.diameter_method = profile_method::fact;
    } else if (static_cast<std::uint64_t>(p.n) * p.m <= opt.exact_diameter_work) {
        p.diameter = diameter_exact(g, opt.pool);
        p.diameter_method = profile_method::exact;
    } else {
        p.diameter = diameter_estimate(g).upper;
        p.diameter_method = profile_method::sweep;
    }

    // One Lanczos run serves λ₂ and (when needed) both sweep cuts — the
    // old path recomputed the Fiedler vector per cut.
    lanczos_options lopt;
    lopt.seed = opt.seed;
    lopt.pool = opt.pool;
    const lanczos_result eig = lanczos_lambda2(g, lopt);
    p.lambda2 = eig.lambda2;
    p.lambda2_converged = eig.converged;

    const bool small = p.n <= opt.exact_cuts_n;
    if (f.conductance) {
        p.conductance = *f.conductance;
        p.conductance_method = profile_method::fact;
    } else if (small) {
        p.conductance = conductance_exact(g);
        p.conductance_method = profile_method::exact;
    } else {
        p.conductance = conductance_sweep(g, eig.fiedler);
        p.conductance_method = profile_method::sweep;
    }
    if (f.isoperimetric) {
        p.isoperimetric = *f.isoperimetric;
        p.isoperimetric_method = profile_method::fact;
    } else if (small) {
        p.isoperimetric = isoperimetric_exact(g);
        p.isoperimetric_method = profile_method::exact;
    } else {
        p.isoperimetric = isoperimetric_sweep(g, eig.fiedler);
        p.isoperimetric_method = profile_method::sweep;
    }

    if (f.mixing_time) {
        p.mixing_time = *f.mixing_time;
        p.mixing_method = profile_method::fact;
        return p;
    }
    if (p.n <= opt.exhaustive_tmix_n) {
        mixing_time_options mo;
        mo.seed = opt.seed;
        mo.exhaustive_starts = true;
        mo.pool = opt.pool;
        p.mixing_time = mixing_time_simulated(g, mo);
        p.mixing_method = profile_method::exact;
        return p;
    }

    // Cost model: predict the dense simulation's work from the spectral
    // bound t̂ (already paid for by the Lanczos run) in floats touched (2m
    // per step per start) and run it when that fits the budget; past the
    // budget the bound itself is the answer.
    const std::uint64_t that = mixing_time_spectral_bound(g, p.lambda2);
    const double starts = 5.0 + 4.0;  // extremal heuristic start count
    const double m2 = 2.0 * static_cast<double>(p.m);
    const double dense_cost = static_cast<double>(that) * m2 * starts;
    if (dense_cost <= static_cast<double>(opt.tmix_work_budget)) {
        mixing_time_options mo;
        mo.seed = opt.seed;
        // Past 8·t̂ something is off (the bound should dominate the
        // measured value); give up on measurement and report the bound.
        mo.max_steps = 8 * that + 64;
        mo.pool = opt.pool;
        try {
            p.mixing_time = mixing_time_simulated(g, mo);
            p.mixing_method = profile_method::simulated;
            return p;
        } catch (const error&) {
            // Step cap blown: fall through to the spectral bound.
        }
    }
    p.mixing_time = that;
    p.mixing_method = profile_method::spectral;
    return p;
}

}  // namespace anole
