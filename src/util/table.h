// anole — aligned text tables + CSV for bench output.
//
// Every bench binary prints (a) a human-readable aligned table mirroring
// the paper's Table 1 row structure and (b) optionally machine-readable
// CSV (--csv) or JSON (--json) in the schema docs/BENCHMARKS.md describes.
#pragma once

#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

#include "util/error.h"

namespace anole {

class text_table {
public:
    explicit text_table(std::vector<std::string> headers)
        : headers_(std::move(headers)) {
        require(!headers_.empty(), "text_table: no headers");
    }

    void add_row(std::vector<std::string> cells) {
        require(cells.size() == headers_.size(),
                "text_table::add_row: cell count != header count");
        rows_.push_back(std::move(cells));
    }

    [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }
    [[nodiscard]] const std::vector<std::string>& header() const noexcept {
        return headers_;
    }
    [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const noexcept {
        return rows_;
    }

    // Aligned, boxed with '-' rules; right-aligns cells that parse as numbers.
    void print(std::ostream& os) const;
    // RFC-4180-ish CSV (quotes cells containing comma/quote/newline).
    void print_csv(std::ostream& os) const;
    // JSON: {"title": ..., "rows": [{header: cell, ...}, ...]} — one
    // object per row keyed by header, all values as strings (the
    // BENCH_*.json trajectory schema; see docs/BENCHMARKS.md).
    void print_json(std::ostream& os, const std::string& title) const;

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

// Formatting helpers used by benches: fixed decimals, engineering-style
// thousands grouping for counters, compact scientific for big values.
[[nodiscard]] std::string fmt_fixed(double v, int decimals);
[[nodiscard]] std::string fmt_count(std::uint64_t v);     // 1234567 -> "1,234,567"
[[nodiscard]] std::string fmt_sci(double v, int sig = 3); // 1.23e+06
[[nodiscard]] std::string fmt_ratio(double v);            // 2 decimals + 'x'

}  // namespace anole
