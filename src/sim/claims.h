// anole — the paper's claims, checked over a campaign's static cells.
//
// Table 1 and Theorem 1 state shapes, not numbers: row B (irrevocable)
// sends fewer messages than row C (gilbert), gilbert's message count
// grows with a larger exponent once irrevocable's territories stop inside
// half the graph, and irrevocable's rounds stay within a constant band of
// tmix·log² n. evaluate_claims checks each shape over
// campaign_cells with a stated bound and keeps its evidence rows, so a
// campaign's table, report and exit code say whether the paper's shapes
// held. docs/CAMPAIGNS.md derives every bound.
//
// Only static cells are read (the paper's bounds are for static
// networks), and a claim is left out when none of its cells exist with
// ok runs.
#pragma once

#include <string>
#include <vector>

#include "sim/campaign.h"
#include "util/table.h"

namespace anole {

// One check of a claim: a cell, a family or a fit against its bound.
struct claim_row {
    std::string cell;
    std::string measured;
    std::string bound;
    std::string evidence;
    bool pass = false;
};

// A claim holds when every one of its rows passes.
struct claim_result {
    std::string name;             // e.g. "theorem1.time"
    std::vector<claim_row> rows;  // never empty
};

// The applicable claims over the static cells of `records`, in the fixed
// order table1.B<C, theorem1.exponent, theorem1.time.
[[nodiscard]] std::vector<claim_result> evaluate_claims(
    const std::vector<campaign_record>& records);

// One row per check: claim, cell, measured, bound, verdict, evidence.
[[nodiscard]] text_table claims_table(const std::vector<claim_result>& claims);

// The names of the claims that fail, in order; empty when all hold.
[[nodiscard]] std::vector<std::string> failed_claims(
    const std::vector<claim_result>& claims);

}  // namespace anole
