// anole bench — shared harness helpers.
//
// Every bench binary is standalone: `./bench_x` runs the experiment with
// defaults and prints paper-style tables; flags:
//   --quick      smaller sweep (CI)
//   --full       larger sweep (takes minutes)
//   --csv        append machine-readable CSV after each table
//   --json       append one JSON object per table (the BENCH_*.json
//                trajectory schema; see docs/BENCHMARKS.md)
//   --seeds N    repetitions per configuration (default 3-5 per bench)
//   --jobs N     worker threads for the scenario sweep (default: all cores)
//   --node-jobs N  shard every engine round across N workers (default 1 =
//                serial rounds; results identical for any value — see
//                docs/PERFORMANCE.md for when this beats --jobs)
//
// Results are deterministic in the seed set — the ScenarioRunner
// (src/sim/runner.h) derives every repetition's randomness from
// scenario.seed + r, so --jobs only changes wall-clock time, never
// numbers. docs/BENCHMARKS.md describes each bench's default mode.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/spectral.h"
#include "sim/dynamics.h"
#include "sim/runner.h"
#include "util/stats.h"
#include "util/table.h"

namespace anole::bench {

// The value after flag argv[i], advancing i; exits 2 when it is missing.
inline std::string flag_value(int argc, char** argv, int& i, const char* flag) {
    if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", flag);
        std::exit(2);
    }
    return argv[++i];
}

// The value of `flag` as a number: plain decimal digits that fit, or
// exit 2 (" 4", "-1" and "4x" are all rejected).
inline std::uint64_t parse_u64(const std::string& v, const char* flag) {
    std::uint64_t parsed = 0;
    const char* end = v.data() + v.size();
    const auto [stop, ec] = std::from_chars(v.data(), end, parsed);
    if (ec != std::errc{} || stop != end) {
        std::fprintf(stderr, "error: %s expects a number of plain digits, got '%s'\n",
                     flag, v.c_str());
        std::exit(2);
    }
    return parsed;
}

// The count after flag argv[i], advancing i; exits 2 as parse_u64 does.
inline std::size_t parse_count(int argc, char** argv, int& i, const char* flag) {
    return static_cast<std::size_t>(parse_u64(flag_value(argc, argv, i, flag), flag));
}

// The non-empty items of a comma list.
inline std::vector<std::string> split_csv(const std::string& s) {
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty()) out.push_back(item);
    }
    return out;
}

// The dynamics presets named by a comma list, or exit 2 on an unknown
// name or a list that names none. "all" anywhere in the list yields every
// preset once, after every other name has been checked.
inline std::vector<std::pair<std::string, dynamics_spec>> parse_presets(
    const std::string& list, const char* flag) {
    std::vector<std::pair<std::string, dynamics_spec>> out;
    bool all = false;
    for (const std::string& name : split_csv(list)) {
        if (name == "all") {
            all = true;
            continue;
        }
        const auto d = dynamics_preset(name);
        if (!d) {
            std::fprintf(stderr, "error: %s: unknown dynamics preset '%s'\n", flag,
                         name.c_str());
            std::exit(2);
        }
        out.emplace_back(name, *d);
    }
    if (all) return all_dynamics_presets();
    if (out.empty()) {
        std::fprintf(stderr, "error: %s expects a comma list of presets, got '%s'\n",
                     flag, list.c_str());
        std::exit(2);
    }
    return out;
}

struct options {
    bool quick = false;
    bool full = false;
    bool csv = false;
    bool json = false;
    std::size_t seeds = 0;      // 0 = bench default
    std::size_t jobs = 0;       // 0 = hardware concurrency
    std::size_t node_jobs = 0;  // 0 = serial engine rounds

    // `extra(flag, i)` may claim a bench-specific flag (returning true,
    // with i advanced past any value it read) before it counts as unknown.
    using extra_flag = std::function<bool(const std::string&, int&)>;
    static options parse(int argc, char** argv, const extra_flag& extra = {}) {
        options o;
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (extra && extra(a, i)) continue;
            if (a == "--quick") {
                o.quick = true;
            } else if (a == "--full") {
                o.full = true;
            } else if (a == "--csv") {
                o.csv = true;
            } else if (a == "--json") {
                o.json = true;
            } else if (a == "--seeds") {
                o.seeds = parse_count(argc, argv, i, "--seeds");
            } else if (a == "--jobs") {
                o.jobs = parse_count(argc, argv, i, "--jobs");
            } else if (a == "--node-jobs") {
                o.node_jobs = parse_count(argc, argv, i, "--node-jobs");
            } else if (a == "--help" || a == "-h") {
                std::printf("flags: --quick | --full | --csv | --json |"
                            " --seeds N | --jobs N | --node-jobs N\n");
                std::exit(0);
            } else {
                std::fprintf(stderr, "error: unknown flag '%s' (try --help)\n",
                             a.c_str());
                std::exit(2);
            }
        }
        return o;
    }

    [[nodiscard]] std::size_t seeds_or(std::size_t dflt) const {
        return seeds == 0 ? dflt : seeds;
    }

    // The shared experiment driver, sized from --jobs; --node-jobs
    // becomes the default engine-round sharding for every scenario.
    [[nodiscard]] scenario_runner make_runner() const {
        return scenario_runner(jobs, node_jobs);
    }
};

inline void emit(const text_table& t, const options& opt, const std::string& title) {
    std::cout << "\n== " << title << " ==\n";
    t.print(std::cout);
    if (opt.csv) {
        std::cout << "-- csv --\n";
        t.print_csv(std::cout);
    }
    if (opt.json) {
        std::cout << "-- json --\n";
        t.print_json(std::cout, title);
    }
    std::cout.flush();
}

// Election-outcome buckets over a scenario's repetitions. Errored runs
// (run.ok == false) are counted separately — never as "no leader".
struct outcome_counts {
    std::size_t unique = 0, multi = 0, none = 0, errors = 0;
    std::string first_error;
};

inline outcome_counts count_outcomes(const scenario_result& res) {
    outcome_counts c;
    for (const auto& run : res.runs) {
        if (!run.ok) {
            if (c.errors == 0) c.first_error = run.error;
            ++c.errors;
        } else if (run.num_leaders() == 1) {
            ++c.unique;
        } else if (run.num_leaders() > 1) {
            ++c.multi;
        } else {
            ++c.none;
        }
    }
    return c;
}

// Prints a post-table warning when any repetition errored out.
inline void warn_errors(const std::vector<scenario_result>& results) {
    std::size_t errors = 0;
    std::string first;
    for (const auto& res : results) {
        const auto c = count_outcomes(res);
        if (errors == 0 && c.errors > 0) first = res.label + ": " + c.first_error;
        errors += c.errors;
    }
    if (errors > 0) {
        std::fprintf(stderr,
                     "warning: %zu repetition(s) errored and are excluded "
                     "from the outcome columns (first: %s)\n",
                     errors, first.c_str());
    }
}

inline std::string fmt_mean_sd(const sample_stats& s) {
    if (s.count() == 0) return "-";  // every run in the cell errored
    if (s.count() < 2) return fmt_count(static_cast<std::uint64_t>(s.mean()));
    return fmt_count(static_cast<std::uint64_t>(s.mean())) + " ±" +
           fmt_count(static_cast<std::uint64_t>(s.stddev()));
}

}  // namespace anole::bench
