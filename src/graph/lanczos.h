// anole — sparse Lanczos eigensolver for the symmetrized lazy walk.
//
// Every protocol in the paper is parameterized by spectral quantities of
// the topology (λ₂ feeds the tmix bound, the Fiedler vector feeds the
// Φ/i(G) sweep cuts), so `profile()` needs the second eigenpair of
//
//     N = I/2 + D^{-1/2} A D^{-1/2} / 2        (symmetric, spectrum ⊆ [0,1])
//
// at sizes where power iteration with deflation (the pre-Lanczos path,
// still exported as lambda2_power in graph/spectral.h) is hopeless: its
// error decays like (λ₃/λ₂)^t, which on the low-gap families central to
// the paper's story (dumbbell, caveman, cycle) means Θ(n²)-ish matvecs.
// Lanczos builds a Krylov basis instead and extracts the Ritz pair from
// the tridiagonal projection — tens to a few hundred matvecs for the same
// answer.
//
// Implementation notes:
//   * The known top eigenpair (√d, 1) is deflated explicitly: every new
//     Krylov vector is orthogonalized against the unit √d vector, so the
//     largest Ritz value of T approximates λ₂ directly.
//   * Reorthogonalization: one full Gram–Schmidt pass against the stored
//     basis every step (lazier schedules let the recurrence coefficients
//     absorb re-grown parasitic components and T's spectrum drifts above
//     1), with a *selective* second pass when the first one removed a
//     macroscopic component (Kahan–Parlett: twice is enough). The basis
//     is stored anyway (the Fiedler vector is recovered from it), and
//     its size is capped, so the extra pass stays O(max_iters · n).
//   * Matvecs, dots and axpys are sharded over an optional thread_pool
//     in *fixed-size blocks* with the partial sums reduced in block
//     order, so the result is bitwise identical for every pool size
//     (including none) — the same jobs-invariance contract the engine's
//     sharded rounds keep.
//   * Both Gram–Schmidt passes run one routine that fuses each axpy
//     w -= h_k·v_k into the element loop of the next dot (v_{k+1}, then
//     the top vector, then w itself for the norm). Each element is
//     updated before it is read and each block still sums in index
//     order, so every dot has the bits of the unfused axpy-then-dot.
//   * The Ritz value comes from Sturm bisection on T. Each sweep also
//     counts at the two midpoints the next step could pick (three
//     interleaved chains) and takes two steps: the same midpoints,
//     decisions and early exit as one step per sweep, in half the
//     dependent division chains.
//
// `tests/graph/lanczos_test.cpp` checks the Ritz pair against a dense
// Jacobi reference on all 19 zoo families and enforces the determinism
// contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace anole {

class thread_pool;  // sim/thread_pool.h; borrowed, never owned

struct lanczos_options {
    // Krylov budget. 0 = auto: min(n - 1, 256), clamped further when the
    // basis would exceed ~512 MB (64e6 doubles) so million-node graphs
    // stay in memory. Convergence is usually reached far earlier.
    std::size_t max_iters = 0;
    // Ritz-residual target ‖N v − θ v‖₂; the spectrum lives in [0, 1] so
    // this is an absolute eigenvalue error bound. Every profile bit
    // depends on it.
    static constexpr double tol = 1e-9;
    std::uint64_t seed = 7;
    // Shards matvecs/reductions; nullptr = serial. Results are bitwise
    // identical either way.
    thread_pool* pool = nullptr;
};

struct lanczos_result {
    double lambda2 = 0.0;          // largest Ritz value after deflation
    std::vector<double> fiedler;   // eigenvector, D^{-1/2}-scaled (sweep-ready)
    std::size_t iterations = 0;    // Lanczos steps taken
    double residual = 0.0;         // ‖N v − θ v‖₂ of the returned pair
    bool converged = false;        // residual <= tol before the budget ran out
};

// Second eigenpair of the symmetrized lazy walk. Requires n >= 2.
// Deterministic in (g, opt.seed) and independent of opt.pool.
[[nodiscard]] lanczos_result lanczos_lambda2(const graph& g,
                                             const lanczos_options& opt = {});

}  // namespace anole
