#include "sim/claims.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <variant>

#include "core/params.h"
#include "sim/runner.h"
#include "util/stats.h"

namespace anole {

namespace {

// One static (family, n) coordinate: its cells with ok runs, by variant.
// Every cell of a coordinate shares the instance, so `head` carries the
// profile columns for all of them.
struct coordinate {
    const campaign_record* head = nullptr;
    const campaign_cell* flood = nullptr;
    const campaign_cell* irrevocable = nullptr;
    const campaign_cell* gilbert = nullptr;
};

std::vector<coordinate> static_coordinates(const std::vector<campaign_cell>& cells) {
    std::vector<coordinate> out;
    std::map<std::pair<graph_family, std::size_t>, std::size_t> at;
    for (const campaign_cell& c : cells) {
        const campaign_unit& u = c.head->unit;
        if (!u.dynamics_name.empty() || c.ok == 0) continue;
        const auto [it, fresh] = at.try_emplace({u.family, u.n}, out.size());
        if (fresh) out.push_back(coordinate{c.head});
        coordinate& k = out[it->second];
        if (u.variant == algo_kind::flood_max) k.flood = &c;
        if (u.variant == algo_kind::irrevocable) k.irrevocable = &c;
        if (u.variant == algo_kind::gilbert) k.gilbert = &c;
    }
    return out;
}

std::string cell_name(const campaign_record& r) {
    return std::string(to_string(r.unit.family)) + "/" + std::to_string(r.unit.n);
}

// The irrevocable parameters the cell's runs used: the campaign default,
// filled from the record's profile columns the way run_once fills them.
irrevocable_params run_params(const campaign_record& r) {
    graph_profile prof;
    prof.n = r.nodes;
    prof.mixing_time = r.tmix;
    prof.conductance = r.phi;
    const algo_config cfg = campaign_default_config(algo_kind::irrevocable, r.nodes);
    return scenario_runner::fill(std::get<irrevocable_cfg>(cfg).params, prof);
}

std::string band(double lo, double hi) {
    std::string s = "[";
    return s.append(fmt_fixed(lo, 3)).append(", ").append(fmt_fixed(hi, 3)).append("]");
}

// Row B's mean messages below row C's in every coordinate that has both.
// The evidence carries E1's msg/claim constants: mean messages over each
// row's Table 1 form.
claim_result table1_b_below_c(const std::vector<coordinate>& coords) {
    claim_result res{"table1.B<C", {}};
    for (const coordinate& k : coords) {
        if (k.irrevocable == nullptr || k.gilbert == nullptr) continue;
        const campaign_record& h = *k.head;
        const irrevocable_params p = run_params(h);
        const double n = static_cast<double>(p.n), t = static_cast<double>(p.tmix),
                     l = p.log2n();
        const double b = k.irrevocable->messages.mean();
        const double c = k.gilbert->messages.mean();
        std::string evidence =
            "sqrt(tmix*phi) " + fmt_fixed(std::sqrt(t * h.phi), 2) + "; msg/claim";
        if (k.flood != nullptr) {
            evidence += " A " + fmt_fixed(k.flood->messages.mean() /
                                              static_cast<double>(h.edges), 2);
        }
        evidence += " B " + fmt_fixed(b / std::sqrt(n * t / h.phi), 2) + " C " +
                    fmt_fixed(c / (t * std::sqrt(n) * std::pow(l, 3.5)), 2);
        res.rows.push_back({cell_name(h), fmt_ratio(c / b), "> 1.00x", evidence, b < c});
    }
    return res;
}

// Gilbert's log-log message exponent above irrevocable's, per family with
// at least 3 distinct node counts whose territory stops inside half the
// graph (2·cap <= n, the regime docs/CAMPAIGNS.md derives).
claim_result theorem1_exponent(const std::vector<coordinate>& coords) {
    claim_result res{"theorem1.exponent", {}};
    std::vector<graph_family> families;
    for (const coordinate& k : coords) {
        if (std::find(families.begin(), families.end(), k.head->unit.family) ==
            families.end()) {
            families.push_back(k.head->unit.family);
        }
    }
    for (const graph_family f : families) {
        std::vector<double> n, b, c;
        std::size_t outside = 0;
        for (const coordinate& k : coords) {
            if (k.head->unit.family != f || k.irrevocable == nullptr ||
                k.gilbert == nullptr || k.irrevocable->messages.mean() <= 0 ||
                k.gilbert->messages.mean() <= 0) {
                continue;
            }
            const irrevocable_params p = run_params(*k.head);
            if (2 * p.territory_cap() > p.n) {
                ++outside;
                continue;
            }
            n.push_back(static_cast<double>(p.n));
            b.push_back(k.irrevocable->messages.mean());
            c.push_back(k.gilbert->messages.mean());
        }
        if (std::set<double>(n.begin(), n.end()).size() < 3) continue;
        const double sb = loglog_slope(n, b), sc = loglog_slope(n, c);
        res.rows.push_back({to_string(f), fmt_fixed(sc - sb, 2), "> 0",
                            "gilbert n^" + fmt_fixed(sc, 2) + ", irrevocable n^" +
                                fmt_fixed(sb, 2) + " over " + std::to_string(n.size()) +
                                " sizes, " + std::to_string(outside) +
                                " left out (2*cap > n)",
                            sc > sb});
    }
    return res;
}

// Irrevocable's rounds / (T·L²) between the end of its broadcast phase and
// the end of its schedule (docs/CAMPAIGNS.md), plus the through-origin fit
// constant against the hull of the bands.
claim_result theorem1_time(const std::vector<coordinate>& coords) {
    claim_result res{"theorem1.time", {}};
    std::vector<double> predictor, rounds;
    double lo_min = std::numeric_limits<double>::infinity(), hi_max = 0;
    for (const coordinate& k : coords) {
        if (k.irrevocable == nullptr) continue;
        const irrevocable_params p = run_params(*k.head);
        const double x = static_cast<double>(p.tmix) * p.log2n() * p.log2n();
        const double r = k.irrevocable->rounds.mean();
        const double lo = static_cast<double>(p.bc_end()) / x;
        const double hi = static_cast<double>(p.total_rounds() + 1) / x;
        lo_min = std::min(lo_min, lo);
        hi_max = std::max(hi_max, hi);
        predictor.push_back(x);
        rounds.push_back(r);
        res.rows.push_back({cell_name(*k.head), fmt_fixed(r / x, 3), band(lo, hi),
                            "rounds " + fmt_count(static_cast<std::uint64_t>(r)) +
                                "; tmix*log2(n)^2 " +
                                fmt_count(static_cast<std::uint64_t>(x)),
                            lo <= r / x && r / x <= hi});
    }
    if (res.rows.empty()) return res;
    const double a = fit_through_origin(predictor, rounds);
    res.rows.push_back({"fit", "a = " + fmt_fixed(a, 3), band(lo_min, hi_max),
                        "rounds ~ a * tmix*log2(n)^2 over " +
                            std::to_string(predictor.size()) + " cells",
                        lo_min <= a && a <= hi_max});
    return res;
}

}  // namespace

std::vector<claim_result> evaluate_claims(const std::vector<campaign_record>& records) {
    const std::vector<campaign_cell> cells = campaign_cells(records);
    const std::vector<coordinate> coords = static_coordinates(cells);
    std::vector<claim_result> claims;
    for (const auto claim : {table1_b_below_c, theorem1_exponent, theorem1_time}) {
        claim_result c = claim(coords);
        if (!c.rows.empty()) claims.push_back(std::move(c));
    }
    return claims;
}

text_table claims_table(const std::vector<claim_result>& claims) {
    text_table t({"claim", "cell", "measured", "bound", "verdict", "evidence"});
    for (const claim_result& c : claims) {
        for (const claim_row& r : c.rows) {
            t.add_row({c.name, r.cell, r.measured, r.bound, r.pass ? "pass" : "FAIL",
                       r.evidence});
        }
    }
    return t;
}

std::vector<std::string> failed_claims(const std::vector<claim_result>& claims) {
    std::vector<std::string> names;
    for (const claim_result& c : claims) {
        if (std::any_of(c.rows.begin(), c.rows.end(),
                        [](const claim_row& r) { return !r.pass; })) {
            names.push_back(c.name);
        }
    }
    return names;
}

}  // namespace anole
