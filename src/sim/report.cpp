#include "sim/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <set>
#include <string_view>

#include "graph/generators.h"
#include "graph/layout.h"
#include "sim/claims.h"
#include "sim/thread_pool.h"
#include "util/atomic_file.h"
#include "util/stats.h"
#include "util/table.h"

namespace anole {

namespace {

// Topology gallery cap: families whose largest instance exceeds it are
// skipped (with a note) rather than stalling the report. layout_svg caps
// the edges each thumbnail draws.
constexpr std::size_t max_thumb_nodes = 150000;

// --- small helpers ----------------------------------------------------------

std::string html_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '&': out += "&amp;"; break;
            case '<': out += "&lt;"; break;
            case '>': out += "&gt;"; break;
            case '"': out += "&quot;"; break;
            default: out += c;
        }
    }
    return out;
}

std::string fmt_g(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.4g", v);
    return buf;
}

std::string fmt_pos(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", v);
    return buf;
}

// Fixed categorical slot per variant — identity, never rank; the CSS
// custom properties --s1..--s5 carry the light/dark hex pairs.
int variant_slot(algo_kind k) {
    switch (k) {
        case algo_kind::flood_max: return 1;
        case algo_kind::gilbert: return 2;
        case algo_kind::irrevocable: return 3;
        case algo_kind::revocable: return 4;
        case algo_kind::cautious_broadcast: return 5;
    }
    return 1;
}

// Dash pattern per dynamics model (series identity stays the variant
// hue; the line style distinguishes the adversary).
const char* dynamics_dash(std::size_t dyn_index) {
    static const char* kDashes[] = {"", "6 3", "2 3", "8 3 2 3", "1 3"};
    return kDashes[dyn_index % (sizeof kDashes / sizeof kDashes[0])];
}

// --- series extraction ------------------------------------------------------

struct series_point {
    std::size_t n = 0;
    double mean_messages = 0;
    double mean_rounds = 0;
    std::size_t runs = 0;
};

struct chart_series {
    algo_kind variant;
    std::string dynamics;  // empty = static
    std::size_t dyn_index = 0;
    std::vector<series_point> points;  // sorted by n

    [[nodiscard]] std::string label() const {
        std::string l = to_string(variant);
        if (!dynamics.empty()) l += "@" + dynamics;
        return l;
    }
};

struct family_chart {
    graph_family family;
    std::vector<chart_series> series;
};

// Per-family mean complexity series over the cells with ok runs,
// families and series in first-appearance order, points sorted by n.
std::vector<family_chart> extract_charts(const std::vector<campaign_record>& records) {
    std::vector<family_chart> charts;
    std::map<std::string, std::size_t> family_at;
    std::map<std::string, std::size_t> dyn_index;
    for (const campaign_cell& c : campaign_cells(records)) {
        if (c.ok == 0) continue;
        const campaign_unit& u = c.head->unit;
        auto [fit, fnew] = family_at.try_emplace(to_string(u.family), charts.size());
        if (fnew) charts.push_back(family_chart{u.family, {}});
        family_chart& fc = charts[fit->second];

        auto [dit, dnew] = dyn_index.try_emplace(u.dynamics_name, dyn_index.size());
        chart_series* sp = nullptr;
        for (chart_series& s : fc.series) {
            if (s.variant == u.variant && s.dynamics == u.dynamics_name) {
                sp = &s;
                break;
            }
        }
        if (sp == nullptr) {
            fc.series.push_back(chart_series{u.variant, u.dynamics_name, dit->second, {}});
            sp = &fc.series.back();
        }
        sp->points.push_back(
            series_point{u.n, c.messages.mean(), c.rounds.mean(), c.ok});
    }
    for (family_chart& fc : charts) {
        for (chart_series& s : fc.series) {
            std::sort(s.points.begin(), s.points.end(),
                      [](const series_point& a, const series_point& b) {
                          return a.n < b.n;
                      });
        }
    }
    return charts;
}

// --- SVG line chart ---------------------------------------------------------

constexpr double kW = 280, kH = 204;
constexpr double kL = 46, kR = 272, kT = 12, kB = 176;

double log_pos(double v, double lo, double hi) {
    if (hi <= lo) return 0.5;
    return (std::log10(std::max(v, 1.0)) - lo) / (hi - lo);
}

// One small-multiple: log-log polylines + markers, native <title>
// tooltips, recessive grid. `metric` selects messages or rounds.
std::string chart_svg(const family_chart& fc, bool messages, double ylo, double yhi,
                      const std::vector<std::size_t>& xticks) {
    const double xlo = std::log10(std::max<double>(xticks.front(), 1));
    const double xhi = std::log10(std::max<double>(xticks.back(), 1));
    const auto px = [&](double n) { return kL + log_pos(n, xlo, xhi) * (kR - kL); };
    const auto py = [&](double v) { return kB - log_pos(v, ylo, yhi) * (kB - kT); };

    std::string s;
    s += "<svg viewBox=\"0 0 " + fmt_pos(kW) + " " + fmt_pos(kH) +
         "\" width=\"" + fmt_pos(kW) + "\" height=\"" + fmt_pos(kH) +
         "\" role=\"img\" aria-label=\"" + html_escape(to_string(fc.family)) +
         (messages ? " messages" : " rounds") + " vs n\">";

    // Horizontal gridlines + y tick labels at integer powers of ten.
    for (int e = static_cast<int>(std::ceil(ylo)); e <= static_cast<int>(std::floor(yhi));
         ++e) {
        const double y = py(std::pow(10.0, e));
        s += "<line class=\"grid\" x1=\"" + fmt_pos(kL) + "\" y1=\"" + fmt_pos(y) +
             "\" x2=\"" + fmt_pos(kR) + "\" y2=\"" + fmt_pos(y) + "\"/>";
        const std::string lab =
            e <= 3 ? fmt_g(std::pow(10.0, e)) : ("1e" + std::to_string(e));
        s += "<text class=\"tick\" x=\"" + fmt_pos(kL - 4) + "\" y=\"" +
             fmt_pos(y + 3) + "\" text-anchor=\"end\">" + lab + "</text>";
    }
    // Baseline + x tick labels at the recorded sizes.
    s += "<line class=\"axis\" x1=\"" + fmt_pos(kL) + "\" y1=\"" + fmt_pos(kB) +
         "\" x2=\"" + fmt_pos(kR) + "\" y2=\"" + fmt_pos(kB) + "\"/>";
    for (const std::size_t n : xticks) {
        const double x = px(static_cast<double>(n));
        s += "<text class=\"tick\" x=\"" + fmt_pos(x) + "\" y=\"" + fmt_pos(kB + 12) +
             "\" text-anchor=\"middle\">" + std::to_string(n) + "</text>";
    }

    for (const chart_series& cs : fc.series) {
        const int slot = variant_slot(cs.variant);
        const char* dash = dynamics_dash(cs.dyn_index);
        std::string pl = "<polyline class=\"sv" + std::to_string(slot) + "\"";
        if (dash[0] != '\0') pl += " stroke-dasharray=\"" + std::string(dash) + "\"";
        pl += " points=\"";
        for (const series_point& p : cs.points) {
            const double v = messages ? p.mean_messages : p.mean_rounds;
            pl += fmt_pos(px(static_cast<double>(p.n))) + "," + fmt_pos(py(v)) + " ";
        }
        pl += "\"/>";
        s += pl;
        for (const series_point& p : cs.points) {
            const double v = messages ? p.mean_messages : p.mean_rounds;
            s += "<circle class=\"sf" + std::to_string(slot) + "\" cx=\"" +
                 fmt_pos(px(static_cast<double>(p.n))) + "\" cy=\"" + fmt_pos(py(v)) +
                 "\" r=\"3\"><title>" + html_escape(cs.label()) +
                 " · n=" + std::to_string(p.n) + " · mean " +
                 (messages ? "messages " : "rounds ") + fmt_g(v) + " (" +
                 std::to_string(p.runs) + " runs)</title></circle>";
        }
    }
    s += "<text class=\"chart-title\" x=\"" + fmt_pos(kL) + "\" y=\"" +
         fmt_pos(kT - 2) + "\">" + html_escape(to_string(fc.family)) + "</text>";
    s += "</svg>";
    return s;
}

// Global log10 range of one metric across every chart (shared y-scale —
// small multiples must be comparable).
void metric_range(const std::vector<family_chart>& charts, bool messages,
                  double* lo, double* hi) {
    double mn = 1e300, mx = -1e300;
    for (const family_chart& fc : charts) {
        for (const chart_series& cs : fc.series) {
            for (const series_point& p : cs.points) {
                const double v =
                    std::max(messages ? p.mean_messages : p.mean_rounds, 1.0);
                mn = std::min(mn, v);
                mx = std::max(mx, v);
            }
        }
    }
    if (mx < mn) {
        mn = 1;
        mx = 10;
    }
    *lo = std::floor(std::log10(mn));
    *hi = std::ceil(std::log10(mx));
    if (*hi <= *lo) *hi = *lo + 1;
}

std::string legend_html(const std::vector<family_chart>& charts) {
    std::vector<std::pair<std::string, std::pair<int, std::size_t>>> entries;
    std::set<std::string> seen;
    for (const family_chart& fc : charts) {
        for (const chart_series& cs : fc.series) {
            if (!seen.insert(cs.label()).second) continue;
            entries.emplace_back(cs.label(),
                                 std::make_pair(variant_slot(cs.variant), cs.dyn_index));
        }
    }
    if (entries.size() < 2) return "";  // single series: the title names it
    std::string s = "<div class=\"legend\">";
    for (const auto& [label, sd] : entries) {
        const char* dash = dynamics_dash(sd.second);
        s += "<span class=\"lg\"><svg viewBox=\"0 0 26 10\" width=\"26\" "
             "height=\"10\" aria-hidden=\"true\"><line class=\"sv" +
             std::to_string(sd.first) + "\" x1=\"1\" y1=\"5\" x2=\"25\" y2=\"5\"";
        if (dash[0] != '\0') s += " stroke-dasharray=\"" + std::string(dash) + "\"";
        s += "/></svg>" + html_escape(label) + "</span>";
    }
    s += "</div>";
    return s;
}

// --- sections ---------------------------------------------------------------

std::string tiles_html(const std::vector<campaign_record>& records,
                       const report_options& opt) {
    std::size_t ok = 0, elected = 0, safe = 0;
    for (const campaign_record& r : records) {
        if (!r.ok) continue;
        ++ok;
        if (r.leaders == 1) ++elected;
        if (r.oracle_ok) ++safe;
    }
    const auto tile = [](const std::string& value, const std::string& label) {
        return "<div class=\"tile\"><div class=\"tile-v\">" + value +
               "</div><div class=\"tile-l\">" + label + "</div></div>";
    };
    std::string units = std::to_string(records.size());
    if (opt.expected_units > 0) units += " / " + std::to_string(opt.expected_units);
    std::string s = "<div class=\"tiles\">";
    s += tile(units, "units recorded");
    s += tile(std::to_string(ok), "completed ok");
    s += tile(std::to_string(elected) + " / " + std::to_string(ok), "single leader");
    s += tile(std::to_string(safe) + " / " + std::to_string(ok), "oracle clean");
    s += "</div>";
    return s;
}

std::string table_html(const text_table& t) {
    std::string s = "<table><thead><tr>";
    for (const std::string& h : t.header()) s += "<th>" + html_escape(h) + "</th>";
    s += "</tr></thead><tbody>";
    for (const auto& row : t.rows()) {
        s += "<tr>";
        for (const std::string& cell : row) s += "<td>" + html_escape(cell) + "</td>";
        s += "</tr>";
    }
    s += "</tbody></table>";
    return s;
}

std::string safety_html(const std::vector<campaign_record>& records) {
    std::vector<const campaign_record*> violations, failures;
    for (const campaign_record& r : records) {
        if (r.ok && !r.oracle_ok) violations.push_back(&r);
        if (!r.ok) failures.push_back(&r);
    }
    std::string s;
    if (violations.empty() && failures.empty()) {
        s += "<p class=\"status-good\">✓ every completed unit passed the safety "
             "oracle and no unit failed.</p>";
        return s;
    }
    constexpr std::size_t kCap = 50;
    if (!violations.empty()) {
        s += "<p class=\"status-crit\">✗ " + std::to_string(violations.size()) +
             " oracle violation(s)</p><ul>";
        for (std::size_t i = 0; i < std::min(violations.size(), kCap); ++i) {
            s += "<li><code>" + html_escape(violations[i]->unit.key()) + "</code> — " +
                 html_escape(violations[i]->oracle_summary) + "</li>";
        }
        if (violations.size() > kCap) {
            s += "<li>… " + std::to_string(violations.size() - kCap) + " more</li>";
        }
        s += "</ul>";
    }
    if (!failures.empty()) {
        s += "<p class=\"status-crit\">✗ " + std::to_string(failures.size()) +
             " failed unit(s)</p><ul>";
        for (std::size_t i = 0; i < std::min(failures.size(), kCap); ++i) {
            s += "<li><code>" + html_escape(failures[i]->unit.key()) + "</code> — " +
                 html_escape(failures[i]->error) + "</li>";
        }
        if (failures.size() > kCap) {
            s += "<li>… " + std::to_string(failures.size() - kCap) + " more</li>";
        }
        s += "</ul>";
    }
    return s;
}

// The verdict line and the claims table (sim/claims.h).
std::string claims_html(const std::vector<claim_result>& claims) {
    const std::vector<std::string> failed = failed_claims(claims);
    std::string s;
    if (failed.empty()) {
        s += "<p class=\"status-good\">✓ all " + std::to_string(claims.size()) +
             " applicable claim(s) hold.</p>";
    } else {
        s += "<p class=\"status-crit\">✗ failed:";
        for (const std::string& name : failed) s += " <code>" + html_escape(name) + "</code>";
        s += "</p>";
    }
    return s + table_html(claims_table(claims));
}

// One thumbnail figure per family, in pick order; empty without records.
std::vector<std::string> gallery_figures(const std::vector<campaign_record>& records,
                                         const report_options& opt) {
    // Largest recorded instance per family, first-appearance order.
    struct pick {
        graph_family family;
        std::size_t n = 0;
        std::uint64_t topology_seed = 1;
    };
    std::vector<pick> picks;
    std::map<std::string, std::size_t> at;
    for (const campaign_record& r : records) {
        const std::string k = to_string(r.unit.family);
        auto [it, fresh] = at.try_emplace(k, picks.size());
        if (fresh) picks.push_back(pick{r.unit.family, r.unit.n, r.unit.topology_seed});
        pick& p = picks[it->second];
        if (r.unit.n > p.n) {
            p.n = r.unit.n;
            p.topology_seed = r.unit.topology_seed;
        }
    }
    if (picks.empty()) return {};

    thread_pool pool(opt.jobs);

    // One job per pick, each writing only its own slot; the force pass
    // inside shards over the same (helping) pool. Slots are read in
    // pick order, so the bytes do not depend on scheduling. Pool jobs
    // must not throw: a failure is parked in its slot, and the first one
    // in pick order is rethrown, so the error does not depend on it
    // either.
    std::vector<std::string> figures(picks.size());
    std::vector<std::exception_ptr> errors(picks.size());
    pool.parallel_for(picks.size(), [&](std::size_t i) {
        const pick& p = picks[i];
        std::string& f = figures[i];
        try {
            f = "<figure class=\"thumb\">";
            if (p.n > max_thumb_nodes) {
                f += "<div class=\"thumb-skip\">n=" + std::to_string(p.n) +
                     " exceeds the thumbnail cap</div>";
            } else {
                const graph g = make_family(p.family, p.n, p.topology_seed);
                f += layout_svg(g, force_layout(g, {.seed = p.topology_seed, .pool = &pool}));
            }
            f += "<figcaption>" + html_escape(to_string(p.family)) + " · n=" +
                 std::to_string(p.n) + "</figcaption></figure>";
        } catch (...) {
            errors[i] = std::current_exception();
        }
    });
    for (const std::exception_ptr& e : errors) {
        if (e) std::rethrow_exception(e);
    }
    return figures;
}

// Every color below is a CSS custom property with a dark-mode override;
// SVG marks reference them by class so one stylesheet themes charts,
// legend and thumbnails together.
const char* kCss = R"css(
:root { color-scheme: light dark; }
body {
  --page:#f9f9f7; --surface-1:#fcfcfb; --ink:#0b0b0b; --ink-2:#52514e;
  --muted:#898781; --grid:#e1e0d9; --axis:#c3c2b7;
  --s1:#2a78d6; --s2:#eb6834; --s3:#1baf7a; --s4:#eda100; --s5:#e87ba4;
  --good:#006300; --crit:#d03b3b; --ring:rgba(11,11,11,0.10);
  background:var(--page); color:var(--ink); margin:0 auto; padding:24px;
  max-width:1160px;
  font:14px/1.5 system-ui,-apple-system,"Segoe UI",sans-serif;
}
@media (prefers-color-scheme: dark) { body {
  --page:#0d0d0d; --surface-1:#1a1a19; --ink:#ffffff; --ink-2:#c3c2b7;
  --muted:#898781; --grid:#2c2c2a; --axis:#383835;
  --s1:#3987e5; --s2:#d95926; --s3:#199e70; --s4:#c98500; --s5:#d55181;
  --good:#0ca30c; --crit:#d03b3b; --ring:rgba(255,255,255,0.10);
} }
h1 { font-size:20px; margin:0 0 4px; }
h2 { font-size:16px; margin:28px 0 10px; }
.sub { color:var(--ink-2); margin:0 0 20px; }
.tiles { display:flex; gap:12px; flex-wrap:wrap; }
.tile { background:var(--surface-1); border:1px solid var(--ring);
        border-radius:8px; padding:12px 18px; min-width:120px; }
.tile-v { font-size:24px; }
.tile-l { color:var(--ink-2); font-size:12px; }
.legend { display:flex; gap:14px; flex-wrap:wrap; margin:6px 0 10px;
          color:var(--ink-2); font-size:12px; }
.lg { display:inline-flex; align-items:center; gap:5px; }
.lg line { stroke-width:2; fill:none; }
.charts, .gallery { display:flex; gap:14px; flex-wrap:wrap; }
.charts svg, .thumb svg { background:var(--surface-1);
  border:1px solid var(--ring); border-radius:8px; }
svg polyline { fill:none; stroke-width:2; }
.sv1 { stroke:var(--s1); } .sf1 { fill:var(--s1); }
.sv2 { stroke:var(--s2); } .sf2 { fill:var(--s2); }
.sv3 { stroke:var(--s3); } .sf3 { fill:var(--s3); }
.sv4 { stroke:var(--s4); } .sf4 { fill:var(--s4); }
.sv5 { stroke:var(--s5); } .sf5 { fill:var(--s5); }
.grid { stroke:var(--grid); stroke-width:1; }
.axis { stroke:var(--axis); stroke-width:1; }
.tick { fill:var(--muted); font-size:9px;
        font-variant-numeric:tabular-nums; }
.chart-title { fill:var(--ink-2); font-size:11px; }
.thumb { margin:0; }
.thumb .ge { stroke:var(--axis); }
.thumb .gn { fill:var(--s1); }
.thumb figcaption { color:var(--ink-2); font-size:12px; text-align:center;
                    margin-top:4px; }
.thumb-skip { width:320px; height:240px; display:flex; align-items:center;
  justify-content:center; color:var(--muted); background:var(--surface-1);
  border:1px solid var(--ring); border-radius:8px; }
table { border-collapse:collapse; background:var(--surface-1);
        border:1px solid var(--ring); border-radius:8px; }
th, td { padding:5px 12px; text-align:right;
         font-variant-numeric:tabular-nums; }
th { color:var(--ink-2); font-weight:600; border-bottom:1px solid var(--axis); }
td:first-child, th:first-child, td:nth-child(3), th:nth-child(3)
  { text-align:left; }
tbody tr + tr td { border-top:1px solid var(--grid); }
.status-good { color:var(--good); }
.status-crit { color:var(--crit); }
code { font-size:12px; }
)css";

}  // namespace

// --- entry points -----------------------------------------------------------

std::string render_campaign_report(const std::vector<campaign_record>& records,
                                   const report_options& opt) {
    const std::vector<family_chart> charts = extract_charts(records);

    // Shared x ticks: every recorded size, so the multiples line up.
    std::set<std::size_t> sizes;
    for (const campaign_record& r : records) sizes.insert(r.unit.n);
    const std::vector<std::size_t> xticks(sizes.begin(), sizes.end());

    std::string html;
    html.reserve(1 << 18);
    html += "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">";
    html += "<meta name=\"viewport\" content=\"width=device-width,initial-scale=1\">";
    html += "<title>anole campaign report</title>";
    html += "<style>";
    html += kCss;
    html += "</style></head><body>";
    html += "<h1>anole campaign report</h1>";
    html += "<p class=\"sub\">" + std::to_string(records.size()) +
            " records · ledger schema v" + std::to_string(campaign_schema_version) +
            " · self-contained (no external resources)</p>";

    html += tiles_html(records, opt);

    if (!charts.empty() && !xticks.empty()) {
        const std::string legend = legend_html(charts);
        for (const bool messages : {true, false}) {
            double ylo = 0, yhi = 1;
            metric_range(charts, messages, &ylo, &yhi);
            html += std::string("<h2>mean ") +
                    (messages ? "messages" : "rounds") + " vs n (log–log)</h2>";
            html += legend;
            html += "<div class=\"charts\">";
            for (const family_chart& fc : charts) {
                html += chart_svg(fc, messages, ylo, yhi, xticks);
            }
            html += "</div>";
        }
    }

    html += "<h2>aggregate table</h2>";
    html += table_html(campaign_table(records));

    const std::vector<claim_result> claims = evaluate_claims(records);
    if (!claims.empty()) {
        html += "<h2>claims</h2>";
        html += claims_html(claims);
    }

    html += "<h2>safety</h2>";
    html += safety_html(records);

    static constexpr std::string_view gallery_head =
        "<h2>topology gallery</h2>"
        "<p class=\"sub\">force-directed thumbnails (multilevel "
        "Barnes–Hut force layout, deterministic from the campaign "
        "topology seed); dense instances are stride-sampled.</p>"
        "<div class=\"gallery\">";
    static constexpr std::string_view gallery_tail = "</div>";
    static constexpr std::string_view page_tail = "</body></html>\n";

    // The figures go straight into `html`, reserved once at its final
    // size: at the report's peak the gallery (about a megabyte at
    // n = 1024) lives in the figures and in `html`, and nowhere else.
    const std::vector<std::string> figures = gallery_figures(records, opt);
    if (!figures.empty()) {
        std::size_t rest = gallery_head.size() + gallery_tail.size() + page_tail.size();
        for (const std::string& f : figures) rest += f.size();
        html.reserve(html.size() + rest);
        html += gallery_head;
        for (const std::string& f : figures) html += f;
        html += gallery_tail;
    }

    html += page_tail;
    return html;
}

void write_campaign_report(const std::string& path,
                           const std::vector<campaign_record>& records,
                           const report_options& opt) {
    replace_file(path, render_campaign_report(records, opt));
}

}  // namespace anole
