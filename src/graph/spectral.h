// anole — spectral analysis of the lazy random walk.
//
// The paper's walk (Algorithm 5) is the *lazy uniform* walk: stay put with
// probability 1/2, else move to a uniform neighbor. Its transition matrix
// is P = I/2 + D⁻¹A/2 with stationary distribution π_i = d_i / 2m, and the
// paper defines tmix(G) as the least t with ‖P^t π0 − π*‖∞ ≤ 1/(2n) for
// every start π0 (§2).
//
// We provide:
//   * walk_distribution_step — one exact step of π ← πP (sparse, O(m));
//   * mixing_time_simulated — direct evaluation of the §2 definition from
//     every point-mass start (exact; O(n · tmix · m), for small/medium n)
//     or from a heuristic subset of extremal starts (certified as a lower
//     bound estimate, in practice tight); independent starts shard over
//     an optional thread_pool with a jobs-invariant max-reduction;
//   * mixing_time_spectral_bound — the λ₂ upper bound on tmix, reported
//     when simulating would cost more than profile()'s work budget;
//   * lambda2_lazy / fiedler_vector — second eigenpair of the symmetrized
//     lazy walk via sparse Lanczos (graph/lanczos.h); the pre-Lanczos
//     power-iteration-with-deflation λ₂ remains as lambda2_power (with
//     residual-based early exit), a cross-check for the Lanczos path;
//   * profile() — the one-stop measurement bundle with per-field
//     provenance, three tmix methods (exhaustive dense evaluation up to
//     n = 128, extremal-start dense simulation while it fits the work
//     budget, the spectral bound past it), and thread-pool sharding
//     throughout.
//
// docs/PROFILES.md describes the pipeline, the estimator error semantics
// and the on-disk cache layered above this module by sim/profile_cache.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace anole {

class thread_pool;  // sim/thread_pool.h; borrowed, never owned

// One step of the lazy uniform walk distribution: out[v] =
// pi[v]/2 + Σ_{u~v} pi[u]/(2 deg(u)). `pi` and the result sum to the same
// total (exactly in real arithmetic; to ~1e-15 in double).
[[nodiscard]] std::vector<double> walk_distribution_step(const graph& g,
                                                         const std::vector<double>& pi);

// Stationary distribution of the lazy uniform walk: d_i / 2m.
[[nodiscard]] std::vector<double> walk_stationary(const graph& g);

struct mixing_time_options {
    // If true, try every point-mass start (exact per the §2 definition);
    // otherwise only extremal starts (double-sweep endpoints, min/max
    // degree nodes, plus four random ones).
    bool exhaustive_starts = false;
    std::uint64_t seed = 1;
    // Hard cap on simulated steps per start (throws anole::error beyond it).
    std::uint64_t max_steps = 50'000'000;
    // Shards independent starts; nullptr = serial. The per-start step
    // counts are deterministic and the reduction is a max, so the result
    // is identical for every pool size.
    thread_pool* pool = nullptr;
};

// tmix per the paper's definition (∞-norm gap 1/(2n)). With
// exhaustive_starts this is exact; otherwise it is a lower-bound estimate
// that is tight on all families we ship (worst starts are extremal).
[[nodiscard]] std::uint64_t mixing_time_simulated(const graph& g,
                                                  const mixing_time_options& opt = {});

// Second-largest eigenvalue (all eigenvalues of the lazy matrix are >= 0,
// so this is λ₂) of the symmetrized lazy walk
// N = I/2 + D^{-1/2} A D^{-1/2} / 2, via sparse Lanczos (graph/lanczos.h).
// `iters` caps the Krylov budget (default auto); `pool` shards matvecs
// with bitwise-identical results.
[[nodiscard]] double lambda2_lazy(const graph& g, std::size_t iters = 0,
                                  thread_pool* pool = nullptr);

// Pre-Lanczos path: power iteration with deflation of the known top
// eigenvector (√d), kept as a cross-check and for the perf baseline.
// Stops early once the Rayleigh residual ‖Nv − ρv‖₂ drops below `tol`
// (computed from quantities the iteration already has, no extra matvec).
[[nodiscard]] double lambda2_power(const graph& g, std::size_t iters = 0,
                                   double tol = 1e-9);

// Spectral upper bound on tmix from λ₂ (e.g. lambda2_lazy(g); profile()
// reuses its Lanczos run): ceil( log(n²·√(dmax/dmin)·2) / −log λ₂ ).
[[nodiscard]] std::uint64_t mixing_time_spectral_bound(const graph& g, double lambda2);

// Fiedler-style embedding: eigenvector of the *second* eigenvalue of the
// normalized adjacency D^{-1/2} A D^{-1/2}, components scaled by D^{-1/2}
// so sweep cuts cut the right measure. Deterministic given `seed`;
// Lanczos-backed (pool shards matvecs, bitwise identical).
[[nodiscard]] std::vector<double> fiedler_vector(const graph& g, std::size_t iters = 0,
                                                 std::uint64_t seed = 7,
                                                 thread_pool* pool = nullptr);

// --- one-stop profile used by benches ---

// How a profile field was obtained. The numeric contract per method:
// fact/exact are true values; sweep is a certified upper bound (cuts) or
// BFS upper bound (diameter); simulated is the §2 evaluation from
// extremal starts (lower-bound estimate, tight in practice); spectral is
// the λ₂ upper bound on tmix.
enum class profile_method : std::uint8_t {
    fact,       // generator-provided graph_facts
    exact,      // exhaustive computation of the definition
    sweep,      // sweep-cut / double-sweep upper bound
    simulated,  // dense §2 simulation from extremal starts
    spectral,   // λ₂-derived upper bound
};

[[nodiscard]] const char* to_string(profile_method m) noexcept;
// Parses to_string's output; throws anole::error on unknown names.
[[nodiscard]] profile_method profile_method_from_string(const std::string& s);

struct graph_profile {
    std::size_t n = 0;
    std::size_t m = 0;
    std::uint32_t diameter = 0;      // exact when n·m small, else upper bound
    double conductance = 0;          // exact when n <= 20, else sweep upper bound
    double isoperimetric = 0;        // likewise
    std::uint64_t mixing_time = 0;   // per §2; see mixing_method for how
    double lambda2 = 0;

    // Provenance (new): how each field above was obtained.
    profile_method diameter_method = profile_method::exact;
    profile_method conductance_method = profile_method::exact;
    profile_method isoperimetric_method = profile_method::exact;
    profile_method mixing_method = profile_method::exact;
    bool lambda2_converged = false;  // Lanczos residual met its tolerance

    // Single-line JSON object; doubles printed with %.17g so a parse via
    // util/json (std::from_chars) round-trips them bitwise.
    [[nodiscard]] std::string to_json() const;
};

struct profile_options {
    // Seeds Lanczos' start vector and the random extremal tmix starts.
    // Every profile, cached or fresh, is taken at this one seed.
    static constexpr std::uint64_t seed = 1;
    // Shards eigensolver matvecs and independent tmix starts. Results are
    // identical for every pool configuration (including none).
    thread_pool* pool = nullptr;
    // Approximate work budget (floats touched) for *measuring* tmix past
    // exhaustive_tmix_n; when the extremal-start dense simulation would
    // exceed it, profile() reports the spectral bound instead.
    static constexpr std::uint64_t tmix_work_budget = 400'000'000;
    // Below this n, tmix is evaluated exhaustively from every start.
    static constexpr std::size_t exhaustive_tmix_n = 128;
    // All-pairs BFS diameter only while n·m stays under this.
    static constexpr std::uint64_t exact_diameter_work = 50'000'000;
    // Exact-enumeration cut bound (must stay <= 24, see properties.h).
    static constexpr std::size_t exact_cuts_n = 20;
};

// Computes the profile, honoring generator-provided graph_facts when
// available (they win over estimates; estimates fill gaps).
[[nodiscard]] graph_profile profile(const graph& g, const profile_options& opt = {});

}  // namespace anole
