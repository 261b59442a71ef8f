// anole bench — the perf-regression gate harness shared by
// bench_engine_micro and bench_profile.
//
// A gated binary prints each table through gate_run::emit (the same
// text / --csv / --json output as every other bench) and ends with
// gate_run::finish(checks), which replaces --json-out FILE atomically and,
// with --check FILE, compares the run against a committed baseline
// (BENCH_ENGINE.json, BENCH_PROFILE.json; docs/BENCHMARKS.md):
//   * ratio columns may not fall below baseline/3 — both sides of each
//     ratio run on the same host, so runner speed cancels;
//   * identity columns must read "yes", in the run and in the baseline;
//   * every gated table, and every baseline row of it, must be in the run,
//     so a renamed or dropped workload fails instead of leaving the gate.
// Rows the baseline does not have yet are not gated. --check with
// --quick exits 2: quick sizes are not baseline rows.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "util/atomic_file.h"
#include "util/json.h"
#include "util/table.h"

namespace anole::bench {

struct gate_options : options {
    std::string json_out;
    std::string check;

    // --quick | --csv | --json | [--jobs N] | --json-out FILE | --check FILE,
    // read by options::parse. The shared flags a gate does not use
    // (--full, --seeds, --node-jobs, and --jobs unless takes_jobs) are
    // unknown here. Bad or conflicting flags exit 2.
    static gate_options parse(int argc, char** argv, bool takes_jobs) {
        gate_options o;
        const auto gate_flag = [&](const std::string& a, int& i) {
            if (a == "--json-out") {
                o.json_out = flag_value(argc, argv, i, "--json-out");
            } else if (a == "--check") {
                o.check = flag_value(argc, argv, i, "--check");
            } else if (a == "--help" || a == "-h") {
                std::printf("flags: --quick | --csv | --json |%s --json-out FILE |"
                            " --check FILE\n",
                            takes_jobs ? " --jobs N |" : "");
                std::exit(0);
            } else if (a == "--full" || a == "--seeds" || a == "--node-jobs" ||
                       (!takes_jobs && a == "--jobs")) {
                std::fprintf(stderr, "error: unknown flag '%s' (try --help)\n",
                             a.c_str());
                std::exit(2);
            } else {
                return false;
            }
            return true;
        };
        static_cast<options&>(o) = options::parse(argc, argv, gate_flag);
        if (o.quick && !o.check.empty()) {
            std::fprintf(stderr, "error: --check gates full-size rows; drop --quick\n");
            std::exit(2);
        }
        return o;
    }
};

struct emitted {
    std::string title;
    text_table table;
};

// Parses a formatted cell ("1,234", "12.34", "8.52x") as a double.
inline double cell_number(const std::string& s) {
    std::string clean;
    for (char c : s) {
        if (c != ',' && c != 'x') clean.push_back(c);
    }
    return std::strtod(clean.c_str(), nullptr);
}

// One gated (table, row-key, column): a ratio that must stay at least
// baseline/3, or an identity cell that must read "yes" on both sides.
struct gate_column {
    std::string title;      // table title
    std::string key;        // header of the row-key column
    std::string column;     // header of the gated column
    bool identity = false;  // "yes"-match instead of ratio
};

// Compares `tables` against the baseline file at `path` (one JSON table
// per line, as --json-out writes). Returns 0 when every check holds, 1 on
// any regression, on a missing table or baseline row, or when the baseline
// cannot be opened.
inline int run_check(const std::string& path, const std::vector<emitted>& tables,
                     const std::vector<gate_column>& checks) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "check: cannot open baseline '%s'\n", path.c_str());
        return 1;
    }
    std::map<std::string, json_value> baseline;  // title -> object
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        json_value v = json_parse(line);
        std::string title = v.at("title").as_string();
        baseline.emplace(std::move(title), std::move(v));
    }
    // Current values, via the same JSON serialization.
    std::map<std::string, json_value> current;
    for (const auto& e : tables) {
        std::ostringstream os;
        e.table.print_json(os, e.title);
        current.emplace(e.title, json_parse(os.str()));
    }
    int failures = 0;
    for (const auto& c : checks) {
        auto bit = baseline.find(c.title);
        auto cit = current.find(c.title);
        if (bit == baseline.end() || cit == current.end()) {
            std::fprintf(stderr, "check: table '%s' missing (baseline: %s, current: %s)\n",
                         c.title.c_str(), bit == baseline.end() ? "no" : "yes",
                         cit == current.end() ? "no" : "yes");
            ++failures;
            continue;
        }
        std::map<std::string, const json_value*> cur_rows;
        for (const auto& row : cit->second.at("rows").as_array()) {
            cur_rows.emplace(row.at(c.key).as_string(), &row);
        }
        for (const auto& row : bit->second.at("rows").as_array()) {
            const std::string& key = row.at(c.key).as_string();
            auto r = cur_rows.find(key);
            if (r == cur_rows.end()) {
                std::fprintf(stderr, "check: %s / %s missing from this run\n",
                             c.title.c_str(), key.c_str());
                ++failures;
                continue;
            }
            const std::string& cur_cell = r->second->at(c.column).as_string();
            const std::string& base_cell = row.at(c.column).as_string();
            if (c.identity) {
                if (cur_cell != "yes" || base_cell != "yes") {
                    std::fprintf(stderr,
                                 "check: %s / %s / %s = '%s', baseline '%s' "
                                 "(both must be 'yes')\n",
                                 c.title.c_str(), key.c_str(), c.column.c_str(),
                                 cur_cell.c_str(), base_cell.c_str());
                    ++failures;
                }
                continue;
            }
            const double cur = cell_number(cur_cell);
            const double base = cell_number(base_cell);
            if (base > 0 && cur < base / 3.0) {
                std::fprintf(stderr,
                             "check: hard regression: %s / %s / %s = %.3g, "
                             "baseline %.3g (floor %.3g)\n",
                             c.title.c_str(), key.c_str(), c.column.c_str(), cur, base,
                             base / 3.0);
                ++failures;
            }
        }
    }
    if (failures == 0) {
        std::printf("check: OK — all gated columns within 3x of '%s'\n", path.c_str());
    }
    return failures == 0 ? 0 : 1;
}

// The tables of one gated run, printed as they are emitted.
class gate_run {
public:
    explicit gate_run(gate_options opt) : opt_(std::move(opt)) {}

    void emit(const std::string& title, const text_table& t) {
        bench::emit(t, opt_, title);
        tables_.push_back(emitted{title, t});
    }

    // Writes --json-out, then gates against --check. Returns the exit code.
    [[nodiscard]] int finish(const std::vector<gate_column>& checks) const {
        if (!opt_.json_out.empty()) {
            std::ostringstream json;
            for (const auto& e : tables_) e.table.print_json(json, e.title);
            try {
                replace_file(opt_.json_out, json.str());
            } catch (const error&) {
                std::fprintf(stderr, "cannot write '%s'\n", opt_.json_out.c_str());
                return 2;
            }
        }
        return opt_.check.empty() ? 0 : run_check(opt_.check, tables_, checks);
    }

private:
    gate_options opt_;
    std::vector<emitted> tables_;
};

}  // namespace anole::bench
