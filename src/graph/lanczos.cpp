#include "graph/lanczos.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "sim/thread_pool.h"
#include "util/rng.h"

namespace anole {

namespace {

// Fixed block size for sharded vector work. Fixed — not derived from the
// pool size — so partial sums are accumulated over identical ranges and
// reduced in identical (block) order no matter how many workers run:
// bitwise-identical results for every pool configuration.
constexpr std::size_t kBlock = 1 << 15;

std::size_t num_blocks(std::size_t n) { return (n + kBlock - 1) / kBlock; }

template <class Fn>
void for_blocks(std::size_t n, thread_pool* pool, Fn&& fn) {
    const std::size_t blocks = num_blocks(n);
    if (pool == nullptr || blocks <= 1) {
        for (std::size_t b = 0; b < blocks; ++b) {
            fn(b, b * kBlock, std::min(n, (b + 1) * kBlock));
        }
        return;
    }
    pool->parallel_for(blocks, [&](std::size_t b) {
        fn(b, b * kBlock, std::min(n, (b + 1) * kBlock));
    });
}

// Sum over fixed blocks of block_sum(lo, hi), reduced in block order.
template <class Fn>
double sum_blocks(std::size_t n, thread_pool* pool, std::vector<double>& partial,
                  Fn&& block_sum) {
    partial.assign(num_blocks(n), 0.0);
    for_blocks(n, pool, [&](std::size_t b, std::size_t lo, std::size_t hi) {
        partial[b] = block_sum(lo, hi);
    });
    double s = 0.0;
    for (double p : partial) s += p;
    return s;
}

double dot_det(const std::vector<double>& x, const std::vector<double>& y,
               std::vector<double>& partial, thread_pool* pool) {
    return sum_blocks(x.size(), pool, partial, [&](std::size_t lo, std::size_t hi) {
        double s = 0.0;
        for (std::size_t i = lo; i < hi; ++i) s += x[i] * y[i];
        return s;
    });
}

// w -= c * x, then dot(w, y), in one element loop: element i is updated
// before it is read and each block still sums in index order, so the
// result has the bits of the separate axpy and dot. y may be w itself.
double axpy_dot_det(std::vector<double>& w, double c, const std::vector<double>& x,
                    const std::vector<double>& y, std::vector<double>& partial,
                    thread_pool* pool) {
    return sum_blocks(w.size(), pool, partial, [&](std::size_t lo, std::size_t hi) {
        double s = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
            w[i] -= c * x[i];
            s += w[i] * y[i];
        }
        return s;
    });
}

// w -= c * x, then ‖w‖₂.
double axpy_norm_det(std::vector<double>& w, double c, const std::vector<double>& x,
                     std::vector<double>& partial, thread_pool* pool) {
    return std::sqrt(axpy_dot_det(w, c, x, w, partial, pool));
}

// One modified Gram–Schmidt pass of w against the basis, then the top
// eigenvector; returns ‖w‖₂ afterwards. Each projection's axpy shares
// its element loop with the next dot.
double mgs_pass(std::vector<double>& w, const std::vector<std::vector<double>>& basis,
                const std::vector<double>& top, std::vector<double>& partial,
                thread_pool* pool) {
    double h = dot_det(w, basis[0], partial, pool);
    for (std::size_t k = 1; k < basis.size(); ++k) {
        h = axpy_dot_det(w, h, basis[k - 1], basis[k], partial, pool);
    }
    h = axpy_dot_det(w, h, basis.back(), top, partial, pool);
    return axpy_norm_det(w, h, top, partial, pool);
}

// y = N x with N = I/2 + D^{-1/2} A D^{-1/2} / 2, in gather form: each
// output element is one node's sum over its neighbor list in port order,
// so the summation order is a property of the graph, not the sharding.
void lazy_sym_matvec(const graph& g, const std::vector<double>& x,
                     const std::vector<double>& inv_sqrt_d,
                     std::vector<double>& scaled, std::vector<double>& y,
                     thread_pool* pool) {
    const std::size_t n = g.num_nodes();
    for_blocks(n, pool, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) scaled[i] = x[i] * inv_sqrt_d[i];
    });
    for_blocks(n, pool, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t u = lo; u < hi; ++u) {
            double s = 0.0;
            for (node_id v : g.neighbors(static_cast<node_id>(u))) s += scaled[v];
            y[u] = 0.5 * x[u] + 0.5 * inv_sqrt_d[u] * s;
        }
    });
}

// Number of eigenvalues of the j×j tridiagonal (alpha, beta) strictly
// below each x[k] (Sturm sequence counts). The three chains are
// independent and interleaved, so their divisions overlap; each one
// computes exactly what a sweep of its own would.
std::array<std::size_t, 3> sturm_counts(const std::vector<double>& alpha,
                                        const std::vector<double>& beta, std::size_t j,
                                        const std::array<double, 3>& x) {
    std::array<std::size_t, 3> count{};
    std::array<double, 3> q{1.0, 1.0, 1.0};
    for (std::size_t i = 0; i < j; ++i) {
        const double b2 = i == 0 ? 0.0 : beta[i - 1] * beta[i - 1];
        for (std::size_t k = 0; k < 3; ++k) {
            q[k] = alpha[i] - x[k] - (q[k] == 0.0 ? b2 / 1e-300 : b2 / q[k]);
            if (q[k] < 0.0) ++count[k];
        }
    }
    return count;
}

// Largest eigenvalue of the leading j×j tridiagonal by bisection. The
// deflated lazy spectrum lives in [0, 1]; widen slightly for roundoff.
// Once the midpoint rounds onto an end, lo and hi are adjacent doubles
// (or equal): a further step either leaves them as they are or sets the
// other end to mid, and 0.5·(lo + hi) stays mid either way, so returning
// it there is exactly what the full 100 steps would return.
// Each sweep also counts at both midpoints the following step could
// pick, so one sweep takes two steps; the midpoints, decisions and
// early exit are those of one step per sweep.
double tridiag_largest(const std::vector<double>& alpha,
                       const std::vector<double>& beta, std::size_t j) {
    double lo = -0.25, hi = 1.25;
    for (int it = 0; it < 100; it += 2) {
        const double mid = 0.5 * (lo + hi);
        if (mid == lo || mid == hi) return mid;
        const std::array<std::size_t, 3> count =
            sturm_counts(alpha, beta, j, {mid, 0.5 * (lo + mid), 0.5 * (mid + hi)});
        const bool below = count[0] >= j;  // all eigenvalues below mid
        (below ? hi : lo) = mid;
        // The second step's midpoint is the one counted for this half.
        const double mid2 = 0.5 * (lo + hi);
        if (mid2 == lo || mid2 == hi) return mid2;
        (count[below ? 1 : 2] >= j ? hi : lo) = mid2;
    }
    return 0.5 * (lo + hi);
}

// Eigenvector of the j×j tridiagonal for eigenvalue ~theta via inverse
// iteration (Gaussian elimination with partial pivoting; the fill-in of
// a pivoted tridiagonal solve is one extra superdiagonal).
std::vector<double> tridiag_eigvec(const std::vector<double>& alpha,
                                   const std::vector<double>& beta, std::size_t j,
                                   double theta) {
    std::vector<double> y(j, 1.0 / std::sqrt(static_cast<double>(j)));
    const double shift = theta + 1e-13 + std::abs(theta) * 1e-12;
    std::vector<double> d(j), e(j, 0.0), f(j, 0.0), sub(j, 0.0);
    for (int pass = 0; pass < 3; ++pass) {
        for (std::size_t i = 0; i < j; ++i) {
            d[i] = alpha[i] - shift;
            e[i] = i + 1 < j ? beta[i] : 0.0;
            sub[i] = i + 1 < j ? beta[i] : 0.0;
            f[i] = 0.0;
        }
        std::vector<double> rhs = y;
        for (std::size_t i = 0; i + 1 < j; ++i) {
            if (std::abs(sub[i]) > std::abs(d[i])) {
                std::swap(d[i], sub[i]);
                std::swap(e[i], d[i + 1]);
                std::swap(f[i], e[i + 1]);
                std::swap(rhs[i], rhs[i + 1]);
            }
            if (d[i] == 0.0) d[i] = 1e-300;
            const double m = sub[i] / d[i];
            d[i + 1] -= m * e[i];
            e[i + 1] -= m * f[i];
            rhs[i + 1] -= m * rhs[i];
        }
        if (d[j - 1] == 0.0) d[j - 1] = 1e-300;
        for (std::size_t ii = j; ii-- > 0;) {
            double s = rhs[ii];
            if (ii + 1 < j) s -= e[ii] * y[ii + 1];
            if (ii + 2 < j) s -= f[ii] * y[ii + 2];
            y[ii] = s / d[ii];
        }
        double nn = 0.0;
        for (double v : y) nn += v * v;
        nn = std::sqrt(nn);
        if (nn < 1e-300) break;
        for (double& v : y) v /= nn;
    }
    return y;
}

}  // namespace

lanczos_result lanczos_lambda2(const graph& g, const lanczos_options& opt) {
    const std::size_t n = g.num_nodes();
    require(n >= 2, "lanczos_lambda2: n >= 2");
    thread_pool* pool = opt.pool;

    std::vector<double> inv_sqrt_d(n), top(n);
    for (node_id u = 0; u < n; ++u) {
        inv_sqrt_d[u] = 1.0 / std::sqrt(static_cast<double>(g.degree(u)));
        top[u] = std::sqrt(static_cast<double>(g.degree(u)));
    }
    std::vector<double> partial;
    const double tn = std::sqrt(dot_det(top, top, partial, pool));
    for (double& x : top) x /= tn;

    // Krylov budget: small relative to n (convergence is typically tens
    // of steps), capped so the stored basis stays within ~512 MB.
    std::size_t max_iters = opt.max_iters;
    if (max_iters == 0) {
        max_iters = std::min<std::size_t>(n - 1, 256);
        const std::size_t mem_cap =
            std::max<std::size_t>(48, (std::size_t{64} << 20) / std::max<std::size_t>(n, 1));
        max_iters = std::min(max_iters, mem_cap);
    }
    max_iters = std::min(max_iters, n - 1) > 0 ? std::min(max_iters, n - 1) : 1;

    std::vector<std::vector<double>> basis;
    basis.reserve(max_iters + 1);
    std::vector<double> alpha, beta;
    alpha.reserve(max_iters);
    beta.reserve(max_iters);

    // Deterministic random start, deflated against the top eigenvector.
    {
        xoshiro256ss rng(derive_seed(opt.seed, n, g.num_edges()));
        std::vector<double> v(n);
        for (double& x : v) x = rng.uniform01() - 0.5;
        const double nv =
            axpy_norm_det(v, dot_det(v, top, partial, pool), top, partial, pool);
        require(nv > 0, "lanczos_lambda2: degenerate start");
        for_blocks(n, pool, [&](std::size_t, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) v[i] /= nv;
        });
        basis.push_back(std::move(v));
    }

    lanczos_result out;
    std::vector<double> w(n), scaled(n);
    double theta = 0.0;
    std::vector<double> ritz_y;

    for (std::size_t j = 0; j < max_iters; ++j) {
        lazy_sym_matvec(g, basis[j], inv_sqrt_d, scaled, w, pool);
        const double a =
            j > 0 ? axpy_dot_det(w, beta[j - 1], basis[j - 1], basis[j], partial, pool)
                  : dot_det(w, basis[j], partial, pool);
        alpha.push_back(a);
        const double c = axpy_dot_det(w, a, basis[j], top, partial, pool);
        const double nb_raw = axpy_norm_det(w, c, top, partial, pool);

        // Reorthogonalize against the whole basis every step: with a lazy
        // (period-k) schedule the recurrence coefficients recorded between
        // passes absorb the re-grown parasitic components and T's spectrum
        // drifts above 1 (observed at n=10⁴). One full Gram–Schmidt pass
        // per step keeps T faithful; the *second* pass is the selective
        // part — run only when the first pass removed a macroscopic
        // component (Kahan–Parlett: "twice is enough").
        double nb = mgs_pass(w, basis, top, partial, pool);
        if (nb < 0.5 * nb_raw) nb = mgs_pass(w, basis, top, partial, pool);
        out.iterations = j + 1;

        if (nb < 1e-12) {
            // Krylov space exhausted: T now represents the reachable
            // invariant subspace exactly — the Ritz pair is the answer.
            theta = tridiag_largest(alpha, beta, alpha.size());
            ritz_y = tridiag_eigvec(alpha, beta, alpha.size(), theta);
            break;
        }
        beta.push_back(nb);
        std::vector<double> next(n);
        for_blocks(n, pool, [&](std::size_t, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) next[i] = w[i] / nb;
        });
        basis.push_back(std::move(next));

        // Ritz convergence estimate: residual of the top Ritz pair of
        // T_{j+1} is β_j · |last component of its eigenvector|.
        theta = tridiag_largest(alpha, beta, alpha.size());
        ritz_y = tridiag_eigvec(alpha, beta, alpha.size(), theta);
        if (nb * std::abs(ritz_y.back()) <= 0.5 * opt.tol && j >= 2) break;
    }

    // Assemble the Ritz vector in node space, re-deflate, normalize.
    std::vector<double> fied(n, 0.0);
    const std::size_t k = ritz_y.size();
    for_blocks(n, pool, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            double s = 0.0;
            for (std::size_t jj = 0; jj < k; ++jj) s += ritz_y[jj] * basis[jj][i];
            fied[i] = s;
        }
    });
    const double nf =
        axpy_norm_det(fied, dot_det(fied, top, partial, pool), top, partial, pool);
    if (nf > 1e-300) {
        for_blocks(n, pool, [&](std::size_t, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) fied[i] /= nf;
        });
    }

    // Honest residual against the graph operator (one extra matvec).
    lazy_sym_matvec(g, fied, inv_sqrt_d, scaled, w, pool);
    out.residual = axpy_norm_det(w, theta, fied, partial, pool);
    // The deflated lazy spectrum is analytically ⊆ [0, 1]; clamp the last
    // ulps of roundoff so downstream log(1 − λ₂) stays finite.
    out.lambda2 = std::clamp(theta, 0.0, 1.0);
    out.converged = out.residual <= opt.tol;

    // Scale back: sweep cuts order by the D^{-1/2}-scaled embedding.
    for_blocks(n, pool, [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fied[i] *= inv_sqrt_d[i];
    });
    out.fiedler = std::move(fied);
    return out;
}

}  // namespace anole
