// anole — statistics helpers for the experiment harness.
//
// Experiments run multiple seeds per configuration; benches report
// mean/median/stddev/min/max and simple regressions (measured cost vs a
// predicted asymptotic form) so the tables can show measured/predicted
// ratios (docs/BENCHMARKS.md lists what each bench compares).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/error.h"

namespace anole {

// Accumulates samples; all queries are O(n log n) worst case (sorting for
// order statistics) on an explicit copy, so accumulation stays O(1).
class sample_stats {
public:
    void add(double x) { xs_.push_back(x); }

    [[nodiscard]] std::size_t count() const noexcept { return xs_.size(); }
    [[nodiscard]] bool empty() const noexcept { return xs_.empty(); }
    [[nodiscard]] double mean() const;
    [[nodiscard]] double variance() const;  // sample variance (n-1 denominator)
    [[nodiscard]] double stddev() const;
    [[nodiscard]] double min() const;
    [[nodiscard]] double max() const;
    [[nodiscard]] double median() const { return percentile(50.0); }
    // Linear-interpolated percentile, p in [0, 100].
    [[nodiscard]] double percentile(double p) const;
    [[nodiscard]] const std::vector<double>& samples() const noexcept { return xs_; }

private:
    std::vector<double> xs_;
};

// Least-squares fit y ≈ a*x (through the origin): returns a.
// Used to estimate the constant in "messages ≈ a * sqrt(n*tmix/phi)".
[[nodiscard]] double fit_through_origin(std::span<const double> x,
                                        std::span<const double> y);

// Ordinary least squares y ≈ a + b*x; returns {a, b}.
struct linear_fit_result {
    double intercept;
    double slope;
    double r2;  // coefficient of determination
};
[[nodiscard]] linear_fit_result linear_fit(std::span<const double> x,
                                           std::span<const double> y);

// log-log slope: fits log y ≈ a + b log x, returns b. Estimates the
// empirical polynomial exponent of a scaling curve. All inputs must be > 0.
[[nodiscard]] double loglog_slope(std::span<const double> x, std::span<const double> y);

}  // namespace anole
