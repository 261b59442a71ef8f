// bench_e2e — the end-to-end campaign benchmark.
//
//   bench_e2e --workload NAME --seed S --seconds T --trace 0|1
//   bench_e2e --compare A.jsonl B.jsonl
//   bench_e2e --self-test
//
// One process runs one workload: the campaign spec in
// bench_e2e/workloads/NAME.json (the campaign_spec_from_json schema of
// docs/CAMPAIGNS.md) with topology_seed = S, and base_seed = S unless the
// spec pins it. The library only ever sees that spec. A run has two timed
// phases:
//
//   setup     materialize and cold-profile every topology of the spec
//             into a fresh profile-cache file; repeated, median = setup_s;
//   campaign  new runners on the now-warm cache run the spec, then
//             merge_fleet, then write_campaign_report; repeated until T
//             seconds after the run started, fastest = campaign_s. On
//             shared hosts the same campaign slows by up to 2x for
//             seconds to minutes at a time; the fastest iteration was
//             the steadiest statistic tried (README.md has the
//             measurements).
//
// Single-process workloads use one 4-thread scenario_runner with serial
// engine rounds. The fleet workload runs 4 in-process run_fleet_worker
// threads with a 1-thread runner each.
//
// With --trace 1 the campaign alternates with a traced copy that drives
// the same units by calling each layer's public functions from here and
// times every call. Spans stay in memory and are written to
// .bench_build/traces/ at exit; the run prints per-layer metrics instead
// of end-to-end ones. bench_e2e/README.md lists the workloads, the
// metrics, and which end-to-end number each layer metric should move.
//
// Every run checks its outputs and exits 1 if any check fails: the
// merged ledger covers the whole expansion, every iteration (traced or
// not) writes the same ledger bytes, the campaign phase
// computes no fresh profile, a rerun of the finished campaign executes
// nothing, and at seed 1 the ledger digest matches the pin in
// bench_e2e/workloads/seed1_digests.json. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "graph/layout.h"
#include "graph/properties.h"
#include "sim/campaign.h"
#include "sim/fleet.h"
#include "sim/report.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/table.h"

using namespace anole;
namespace fs = std::filesystem;

namespace {

using steady = std::chrono::steady_clock;

// Busy threads per run: the single-process runner's pool size, and the
// number of in-process fleet workers.
constexpr std::size_t kThreads = 4;
// Setup repeats at least kMinSetupReps times. Beyond that it may use
// kSetupBudgetS and kMaxSetupReps repeats per run, so a cheap setup still
// yields a steady median.
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 100;
constexpr double kSetupBudgetS = 2.0;

const std::string kWorkloadDir = "bench_e2e/workloads/";
const std::string kPinFile = kWorkloadDir + "seed1_digests.json";
const std::string kWorkRoot = ".bench_build/";

struct workload {
    const char* name;
    bool fleet;  // 4 fleet worker threads instead of one 4-thread runner
};
constexpr workload kWorkloads[] = {
    {"elect-known-n", false},
    {"elect-unknown-n", false},
    {"profile-cold", false},
    {"fleet-ledger", true},
};

struct metric_def {
    const char* name;
    const char* unit;
};
// Printed with --trace 0; BENCHMARK.json "end_to_end" lists the same.
constexpr metric_def kEndToEnd[] = {
    {"setup_s", "s"},
    {"campaign_s", "s"},
    {"peak_rss_mb", "MB"},
};
// Printed with --trace 1; BENCHMARK.json "per_layer" lists the same.
constexpr metric_def kPerLayer[] = {
    {"graph.generate_s", "s"},
    {"profile.profile_s", "s"},
    {"profile.lanczos_s", "s"},
    {"profile.diameter_s", "s"},
    {"profile_cache.store_s", "s"},
    {"profile_cache.lookup_s", "s"},
    {"engine.busy_s", "s"},
    {"engine.rounds", "count"},
    {"engine.messages", "count"},
    {"engine.node_rounds", "count"},
    {"engine.ns_per_node_round", "ns"},
    {"engine.ns_per_message", "ns"},
    {"engine.unit_p50_s", "s"},
    {"engine.unit_tail_s", "s"},
    {"engine.unit_tail_pct", "%"},
    {"engine.unit_max_s", "s"},
    {"runner.wall_s", "s"},
    {"runner.utilization", "ratio"},
    {"campaign.ledger_write_s", "s"},
    {"campaign.ledger_load_s", "s"},
    {"campaign.parse_mb_per_s", "MB/s"},
    {"campaign.ledger_bytes", "bytes"},
    {"fleet.worker_max_s", "s"},
    {"fleet.useful_frac", "ratio"},
    {"fleet.groups_claimed", "count"},
    {"fleet.merge_s", "s"},
    {"report.render_s", "s"},
    {"report.layout_s", "s"},
    {"report.bytes", "bytes"},
    {"trace.uncovered_s", "s"},
    {"trace.traced_campaign_s", "s"},
    {"trace.untraced_campaign_s", "s"},
};

double seconds_since(steady::time_point start) {
    return std::chrono::duration<double>(steady::now() - start).count();
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    require(static_cast<bool>(in), "cannot read '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

double file_bytes(const std::string& path) {
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    return ec ? 0.0 : static_cast<double>(size);
}

// FNV-1a 64 of the file's bytes, as 16 hex digits.
std::string file_digest(const std::string& path) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : read_file(path)) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- the spec's shape --------------------------------------------------------

// Units per topology group: the block run_campaign batches and fleets lease.
std::size_t group_size(const campaign_spec& spec) {
    return spec.variants.size() * std::max<std::size_t>(spec.dynamics.size(), 1) *
           spec.seeds;
}

std::vector<family_spec> topologies(const campaign_spec& spec) {
    std::vector<family_spec> out;
    for (const graph_family f : spec.families) {
        for (const std::size_t n : spec.sizes) out.push_back({f, n, spec.topology_seed});
    }
    return out;
}

// The profile-cache key scenario_runner::materialize assigns to a
// generated topology.
std::string profile_key(const family_spec& t) {
    return std::string(to_string(t.family)) + "/" + std::to_string(t.n) + "/s" +
           std::to_string(t.seed) + "/v" + std::to_string(profile_cache_version);
}

// Files one run writes; all live under `dir`, which is removed on every
// exit path.
struct run_files {
    explicit run_files(std::string d)
        : dir(std::move(d)), cache(dir + "/profiles.jsonl"), report(dir + "/report.html") {
        fs::remove_all(dir);
        fs::create_directories(dir);
    }
    ~run_files() {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }
    run_files(const run_files&) = delete;
    run_files& operator=(const run_files&) = delete;

    std::string dir;
    std::string cache;   // the warm profile cache the campaign phase reads
    std::string report;  // the HTML report
};

void reset_ledger(const campaign_spec& spec) {
    fs::remove(spec.output);
    fs::remove_all(fleet_paths{spec.output}.dir());
}

report_options report_opts(const merge_report& mr) {
    report_options ro;
    ro.expected_units = mr.total_units;
    ro.jobs = kThreads;
    return ro;
}

// Runs fn(i) for every worker i on its own thread, joins them all, then
// rethrows the first failure.
template <class Fn>
void run_workers(Fn&& fn) {
    std::vector<std::exception_ptr> errors(kThreads);
    {
        std::vector<std::jthread> threads;
        for (std::size_t i = 0; i < kThreads; ++i) {
            threads.emplace_back([&fn, &errors, i] {
                try {
                    fn(i);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            });
        }
    }
    for (const std::exception_ptr& e : errors) {
        if (e) std::rethrow_exception(e);
    }
}

// --- checks ------------------------------------------------------------------

class checks {
public:
    void expect(bool ok, const std::string& what) {
        if (ok) return;
        failures_.push_back(what);
        std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
    [[nodiscard]] bool passed() const noexcept { return failures_.empty(); }

private:
    std::vector<std::string> failures_;
};

// --- tracing -----------------------------------------------------------------

std::atomic<int> g_next_thread{0};
int thread_index() {
    thread_local const int index = g_next_thread++;
    return index;
}

// Spans and counters of one traced phase. Thread-safe: engine spans
// arrive from pool and fleet-worker threads.
class trace_log {
public:
    struct span {
        const char* layer;
        int thread;
        steady::time_point start, end;
    };

    explicit trace_log(std::string phase) : phase_(std::move(phase)) {}
    trace_log(const trace_log&) = delete;
    trace_log& operator=(const trace_log&) = delete;

    // Runs fn() inside a span named `layer` and returns its result.
    template <class Fn>
    auto time(const char* layer, Fn&& fn) {
        const steady::time_point start = steady::now();
        if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
            fn();
            add(layer, start);
        } else {
            auto out = fn();
            add(layer, start);
            return out;
        }
    }

    void count(const std::string& name, double v) {
        std::lock_guard<std::mutex> lk(mu_);
        counters_[name] += v;
    }

    // The phase's wall-clock window; trace.uncovered_s is measured in it.
    void set_window(steady::time_point start, steady::time_point end) {
        window_start_ = start;
        window_end_ = end;
    }

    [[nodiscard]] double counter(const std::string& name) const {
        std::lock_guard<std::mutex> lk(mu_);
        const auto it = counters_.find(name);
        return it == counters_.end() ? 0.0 : it->second;
    }

    [[nodiscard]] std::vector<double> durations(std::string_view layer) const {
        std::lock_guard<std::mutex> lk(mu_);
        std::vector<double> out;
        for (const span& s : spans_) {
            if (layer == s.layer) {
                out.push_back(std::chrono::duration<double>(s.end - s.start).count());
            }
        }
        return out;
    }

    [[nodiscard]] double total(std::string_view layer) const {
        double sum = 0;
        for (const double d : durations(layer)) sum += d;
        return sum;
    }

    // Seconds of the window that no span covers.
    [[nodiscard]] double uncovered() const {
        std::vector<std::pair<steady::time_point, steady::time_point>> iv;
        {
            std::lock_guard<std::mutex> lk(mu_);
            for (const span& s : spans_) {
                const auto a = std::max(s.start, window_start_);
                const auto b = std::min(s.end, window_end_);
                if (a < b) iv.emplace_back(a, b);
            }
        }
        std::sort(iv.begin(), iv.end());
        steady::duration covered{0};
        steady::time_point reach = window_start_;
        for (const auto& [a, b] : iv) {
            if (b <= reach) continue;
            covered += b - std::max(a, reach);
            reach = b;
        }
        return std::chrono::duration<double>(window_end_ - window_start_ - covered).count();
    }

    // One JSON line per span, times in seconds since `origin`.
    void write(std::ostream& os, steady::time_point origin) const {
        std::lock_guard<std::mutex> lk(mu_);
        const auto rel = [origin](steady::time_point t) {
            return std::chrono::duration<double>(t - origin).count();
        };
        char buf[256];
        for (const span& s : spans_) {
            std::snprintf(buf, sizeof(buf),
                          "{\"phase\":\"%s\",\"layer\":\"%s\",\"thread\":%d,"
                          "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                          phase_.c_str(), s.layer, s.thread, rel(s.start), rel(s.end));
            os << buf;
        }
        os << "{\"phase\":\"" << phase_ << "\",\"counters\":{";
        bool first = true;
        for (const auto& [name, v] : counters_) {
            std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", first ? "" : ",",
                          name.c_str(), v);
            os << buf;
            first = false;
        }
        os << "}}\n";
    }

private:
    void add(const char* layer, steady::time_point start) {
        const steady::time_point end = steady::now();
        std::lock_guard<std::mutex> lk(mu_);
        spans_.push_back({layer, thread_index(), start, end});
    }

    std::string phase_;
    mutable std::mutex mu_;
    std::vector<span> spans_;
    std::map<std::string, double> counters_;
    steady::time_point window_start_{}, window_end_{};
};

// --- setup phase -------------------------------------------------------------

// Materializes and cold-profiles every topology through one runner, the
// way a campaign's first group batch does; returns the phase's seconds.
double setup_untraced(const campaign_spec& spec, const std::string& cache,
                      checks& chk) {
    fs::remove(cache);
    const std::vector<family_spec> topos = topologies(spec);
    const steady::time_point start = steady::now();
    scenario_runner runner(kThreads);
    runner.set_profile_cache(cache);
    for (const family_spec& t : topos) (void)runner.profile_for(runner.materialize(t));
    const double seconds = seconds_since(start);
    chk.expect(runner.fresh_profiles() == topos.size(),
               "setup profiled " + std::to_string(runner.fresh_profiles()) + " of " +
                   std::to_string(topos.size()) + " topologies cold");
    return seconds;
}

// The same work, one span per generate / profile / store call. Keeps the
// graphs so the profile parts can be replayed afterwards.
void setup_traced(const campaign_spec& spec, const std::string& cache, trace_log& log,
                  std::vector<graph>& graphs) {
    fs::remove(cache);
    const steady::time_point start = steady::now();
    thread_pool pool(kThreads);
    profile_cache store(cache);
    profile_options po;
    po.pool = &pool;
    for (const family_spec& t : topologies(spec)) {
        graph g = log.time("graph.generate",
                           [&] { return make_family(t.family, t.n, t.seed); });
        const graph_profile p = log.time("profile.profile", [&] { return profile(g, po); });
        log.time("profile_cache.store", [&] { store.store(profile_key(t), p); });
        log.count(std::string("profile.tmix_method.") + to_string(p.mixing_method), 1);
        graphs.push_back(std::move(g));
    }
    log.set_window(start, steady::now());
}

// Times the Lanczos run and the diameter computation profile() performs,
// as separate calls: profile() does not expose its parts.
void replay_profile_parts(const std::vector<graph>& graphs, trace_log& log) {
    thread_pool pool(kThreads);
    const profile_options po;
    for (const graph& g : graphs) {
        log.time("profile.lanczos", [&] { (void)fiedler_vector(g, 0, po.seed, &pool); });
        if (g.facts().diameter) continue;
        if (static_cast<std::uint64_t>(g.num_nodes()) * g.num_edges() <=
            po.exact_diameter_work) {
            log.time("profile.diameter", [&] { (void)diameter_exact(g); });
        } else {
            log.time("profile.diameter", [&] { (void)diameter_estimate(g); });
        }
    }
}

// Times force_layout on each graph the report's gallery draws (the
// largest recorded size per family), as render_campaign_report lays it out.
void replay_layouts(const std::vector<campaign_record>& records, trace_log& log) {
    std::vector<family_spec> picks;
    for (const campaign_record& r : records) {
        auto it = std::find_if(picks.begin(), picks.end(), [&](const family_spec& p) {
            return p.family == r.unit.family;
        });
        if (it == picks.end()) {
            picks.push_back({r.unit.family, r.unit.n, r.unit.topology_seed});
        } else if (r.unit.n > it->n) {
            *it = {r.unit.family, r.unit.n, r.unit.topology_seed};
        }
    }
    thread_pool pool(kThreads);
    for (const family_spec& p : picks) {
        const graph g = make_family(p.family, p.n, p.seed);
        layout_options lo;
        lo.seed = p.seed;
        lo.pool = &pool;
        log.time("report.layout", [&] { (void)force_layout(g, lo); });
    }
}

// --- campaign phase ----------------------------------------------------------

struct campaign_outcome {
    double seconds = 0;
    std::string digest;              // of the merged ledger
    std::size_t executed = 0;        // units run (fleet: summed over workers)
    std::size_t fresh_profiles = 0;  // profiles computed despite the warm cache
    std::size_t failed_units = 0;    // records with ok == false or oracle_ok == false
    merge_report merge;
};

void finish(campaign_outcome& out, const campaign_spec& spec, const merge_report& mr,
            const std::vector<campaign_record>& records) {
    out.merge = mr;
    out.digest = file_digest(spec.output);
    for (const campaign_record& r : records) {
        if (!r.ok || !r.oracle_ok) ++out.failed_units;
    }
}

campaign_outcome campaign_untraced(const campaign_spec& spec, const run_files& files,
                                   bool fleet) {
    reset_ledger(spec);
    campaign_outcome out;
    const steady::time_point start = steady::now();
    if (fleet) {
        std::vector<fleet_report> reports(kThreads);
        std::vector<std::size_t> fresh(kThreads, 0);
        run_workers([&](std::size_t i) {
            scenario_runner runner(1);
            runner.set_profile_cache(files.cache);
            fleet_options fo;
            fo.worker_id = "w" + std::to_string(i);
            reports[i] = run_fleet_worker(spec, runner, fo);
            fresh[i] = runner.fresh_profiles();
        });
        for (std::size_t i = 0; i < kThreads; ++i) {
            out.executed += reports[i].executed;
            out.fresh_profiles += fresh[i];
        }
    } else {
        scenario_runner runner(kThreads);
        runner.set_profile_cache(files.cache);
        out.executed = run_campaign(spec, runner).executed;
        out.fresh_profiles = runner.fresh_profiles();
    }
    const merge_report mr = merge_fleet(spec);
    const std::vector<campaign_record> records = load_campaign_ledger(spec.output);
    write_campaign_report(files.report, records, report_opts(mr));
    out.seconds = seconds_since(start);
    finish(out, spec, mr, records);
    return out;
}

// --- traced campaign ---------------------------------------------------------

std::vector<campaign_record> load_traced(const std::string& path, trace_log& log) {
    log.count("campaign.load_bytes", file_bytes(path));
    return log.time("campaign.ledger_load", [&] { return load_campaign_ledger(path); });
}

void append_traced(std::ofstream& out, const std::vector<campaign_record>& records,
                   trace_log& log) {
    log.time("campaign.ledger_write", [&] {
        for (const campaign_record& rec : records) out << rec.to_json() << "\n";
        out.flush();
    });
    require(out.good(), "ledger write failed");
}

// One topology group, unit by unit, as run_campaign_units does it through
// scenario_runner::run_batch. `pool` null runs the units inline, as a fleet
// worker's one-thread runner does.
std::vector<campaign_record> run_group_traced(const std::vector<campaign_unit>& units,
                                              const profile_cache& cache,
                                              thread_pool* pool, trace_log& log) {
    const campaign_unit& head = units.front();
    const family_spec topo{head.family, head.n, head.topology_seed};
    const graph g =
        log.time("graph.generate", [&] { return make_family(topo.family, topo.n, topo.seed); });
    std::optional<graph_profile> prof =
        log.time("profile_cache.lookup", [&] { return cache.lookup(profile_key(topo)); });
    if (!prof) {
        log.count("profile_cache.fresh", 1);
        profile_options po;
        po.pool = pool;
        prof = log.time("profile.profile", [&] { return profile(g, po); });
    }

    std::vector<scenario_result> results(units.size());
    const auto run_unit = [&](std::size_t i) {
        const campaign_unit& u = units[i];
        const algo_config cfg = campaign_default_config(u.variant, u.n, g.num_edges());
        run_record run = log.time("engine.unit", [&] {
            return scenario_runner::run_once(g, *prof, cfg, u.seed, u.dynamics);
        });
        log.count("engine.rounds", static_cast<double>(run.rounds()));
        log.count("engine.messages", static_cast<double>(run.totals().messages));
        log.count("engine.node_rounds",
                  static_cast<double>(run.rounds()) * static_cast<double>(g.num_nodes()));
        scenario_result& res = results[i];
        res.label = u.key();
        res.kind = u.variant;
        res.topology = &g;
        res.profile = *prof;
        res.runs.push_back(std::move(run));
    };
    if (pool != nullptr) {
        for (std::size_t i = 0; i < units.size(); ++i) pool->submit([&, i] { run_unit(i); });
        pool->wait();
    } else {
        for (std::size_t i = 0; i < units.size(); ++i) run_unit(i);
    }

    std::vector<campaign_record> records;
    for (std::size_t i = 0; i < units.size(); ++i) {
        records.push_back(make_campaign_record(units[i], results[i]));
    }
    return records;
}

// run_campaign on a fresh ledger: groups in order, one batch each.
std::size_t single_traced(const campaign_spec& spec, const std::string& cache_path,
                          trace_log& log) {
    thread_pool pool(kThreads);
    const auto cache = log.time("profile_cache.lookup",
                                [&] { return std::make_unique<profile_cache>(cache_path); });
    std::ofstream ledger(spec.output);
    ledger << campaign_schema_header_line() << "\n";
    const std::vector<campaign_unit> units = expand(spec);
    const std::size_t group = group_size(spec);
    for (std::size_t lo = 0; lo < units.size(); lo += group) {
        const std::vector<campaign_unit> batch(units.begin() + static_cast<std::ptrdiff_t>(lo),
                                               units.begin() +
                                                   static_cast<std::ptrdiff_t>(lo + group));
        append_traced(ledger, run_group_traced(batch, *cache, &pool, log), log);
    }
    log.count("fleet.groups_claimed", static_cast<double>(units.size() / group));
    return units.size();
}

struct worker_tally {
    std::size_t executed = 0;
    double seconds = 0;
};

// run_fleet_worker: scan ledger + shards, claim a group's lease, re-scan,
// run what is still pending, append to the own shard, release; stop after
// a pass that claims nothing.
worker_tally fleet_worker_traced(const campaign_spec& spec, const std::string& cache_path,
                                 std::size_t id, trace_log& log) {
    const steady::time_point start = steady::now();
    worker_tally tally;
    const auto cache = log.time("profile_cache.lookup",
                                [&] { return std::make_unique<profile_cache>(cache_path); });
    const std::vector<campaign_unit> units = expand(spec);
    const std::size_t group = group_size(spec);
    const fleet_paths paths{spec.output};
    fs::create_directories(paths.dir());
    const std::string worker = "w" + std::to_string(id);
    std::ofstream shard(paths.shard(worker));
    shard << campaign_schema_header_line() << "\n";

    const auto scan = [&] {
        std::set<std::string> done;
        for (const campaign_record& r : load_traced(spec.output, log)) done.insert(r.unit.key());
        for (const std::string& s : paths.shard_files()) {
            for (const campaign_record& r : load_traced(s, log)) done.insert(r.unit.key());
        }
        return done;
    };
    const auto pending_in = [&](std::size_t g, const std::set<std::string>& done) {
        std::vector<campaign_unit> pending;
        for (std::size_t i = g * group; i < std::min((g + 1) * group, units.size()); ++i) {
            if (!done.count(units[i].key())) pending.push_back(units[i]);
        }
        return pending;
    };

    for (;;) {
        std::size_t claimed = 0;
        const std::set<std::string> done = scan();
        for (std::size_t g = 0; g * group < units.size(); ++g) {
            if (pending_in(g, done).empty()) continue;
            const std::string lease = paths.lease(g);
            const lease_info mine{worker, fleet_now(), 60, g};
            if (!log.time("fleet.lease", [&] { return try_acquire_lease(lease, mine); })) {
                continue;
            }
            ++claimed;
            const std::vector<campaign_unit> todo = pending_in(g, scan());
            if (!todo.empty()) {
                append_traced(shard, run_group_traced(todo, *cache, nullptr, log), log);
                tally.executed += todo.size();
            }
            log.time("fleet.lease", [&] { release_lease(lease, worker); });
        }
        log.count("fleet.groups_claimed", static_cast<double>(claimed));
        if (claimed == 0) break;
    }
    (void)scan();  // run_fleet_worker's closing scan for its skipped count
    tally.seconds = seconds_since(start);
    return tally;
}

campaign_outcome campaign_traced(const campaign_spec& spec, const run_files& files,
                                 bool fleet, trace_log& log) {
    reset_ledger(spec);
    campaign_outcome out;
    const steady::time_point start = steady::now();
    double worker_max = 0;
    if (fleet) {
        std::vector<worker_tally> tallies(kThreads);
        run_workers([&](std::size_t i) {
            tallies[i] = fleet_worker_traced(spec, files.cache, i, log);
        });
        for (const worker_tally& t : tallies) {
            out.executed += t.executed;
            worker_max = std::max(worker_max, t.seconds);
        }
    } else {
        out.executed = single_traced(spec, files.cache, log);
        worker_max = seconds_since(start);
    }
    log.count("runner.wall_s", seconds_since(start));
    log.count("fleet.worker_max_s", worker_max);
    const merge_report mr = log.time("fleet.merge", [&] { return merge_fleet(spec); });
    const std::vector<campaign_record> records = load_traced(spec.output, log);
    log.time("report.render",
             [&] { write_campaign_report(files.report, records, report_opts(mr)); });
    const steady::time_point end = steady::now();
    log.set_window(start, end);
    out.seconds = std::chrono::duration<double>(end - start).count();
    out.fresh_profiles = static_cast<std::size_t>(log.counter("profile_cache.fresh"));
    finish(out, spec, mr, records);
    return out;
}

// --- per-layer metrics -------------------------------------------------------

using metric_map = std::map<std::string, double>;

metric_map setup_layers(const trace_log& log) {
    return {
        {"graph.generate_s", log.total("graph.generate")},
        {"profile.profile_s", log.total("profile.profile")},
        {"profile_cache.store_s", log.total("profile_cache.store")},
        {"trace.uncovered_s", log.uncovered()},
    };
}

metric_map campaign_layers(const trace_log& log, const campaign_outcome& o,
                           const campaign_spec& spec, const run_files& files) {
    sample_stats units;
    for (const double d : log.durations("engine.unit")) units.add(d);
    const double busy = log.total("engine.unit");
    const double n = static_cast<double>(units.count());
    // The highest percentile with at least 10 units beyond it, never below
    // the median.
    const double tail_pct = std::max(50.0, std::floor(100.0 * (1.0 - 10.0 / std::max(n, 1.0))));
    const double wall = log.counter("runner.wall_s");
    const double load_s = log.total("campaign.ledger_load");
    return {
        {"graph.generate_s", log.total("graph.generate")},
        {"profile_cache.lookup_s", log.total("profile_cache.lookup")},
        {"engine.busy_s", busy},
        {"engine.rounds", log.counter("engine.rounds")},
        {"engine.messages", log.counter("engine.messages")},
        {"engine.node_rounds", log.counter("engine.node_rounds")},
        {"engine.ns_per_node_round", ratio(busy * 1e9, log.counter("engine.node_rounds"))},
        {"engine.ns_per_message", ratio(busy * 1e9, log.counter("engine.messages"))},
        {"engine.unit_p50_s", units.empty() ? 0.0 : units.median()},
        {"engine.unit_tail_s", units.empty() ? 0.0 : units.percentile(tail_pct)},
        {"engine.unit_tail_pct", tail_pct},
        {"engine.unit_max_s", units.empty() ? 0.0 : units.max()},
        {"runner.wall_s", wall},
        {"runner.utilization", ratio(busy, wall * static_cast<double>(kThreads))},
        {"campaign.ledger_write_s", log.total("campaign.ledger_write")},
        {"campaign.ledger_load_s", load_s},
        {"campaign.parse_mb_per_s", ratio(log.counter("campaign.load_bytes") / 1e6, load_s)},
        {"campaign.ledger_bytes", file_bytes(spec.output)},
        {"fleet.worker_max_s", log.counter("fleet.worker_max_s")},
        {"fleet.useful_frac",
         ratio(static_cast<double>(o.merge.covered), static_cast<double>(o.executed))},
        {"fleet.groups_claimed", log.counter("fleet.groups_claimed")},
        {"fleet.merge_s", log.total("fleet.merge")},
        {"report.render_s", log.total("report.render")},
        {"report.bytes", file_bytes(files.report)},
        {"trace.uncovered_s", log.uncovered()},
        {"trace.traced_campaign_s", o.seconds},
    };
}

// --- result line -------------------------------------------------------------

template <std::size_t N>
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const metric_def (&defs)[N], const metric_map& values) {
    std::string line = "{\"correct\":" + std::string(correct ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(attempted) +
                       ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
    char buf[160];
    for (std::size_t i = 0; i < N; ++i) {
        const auto it = values.find(defs[i].name);
        require(it != values.end(), std::string("metric not measured: ") + defs[i].name);
        std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                      i == 0 ? "" : ",", defs[i].name, it->second, defs[i].unit);
        line += buf;
    }
    line += "}}";
    std::fflush(stderr);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

// --- whole-run checks --------------------------------------------------------

void check_outcome(checks& chk, const campaign_outcome& o, std::string& digest,
                   const std::string& label) {
    chk.expect(o.merge.covered == o.merge.total_units && o.merge.foreign == 0,
               label + ": ledger covers " + std::to_string(o.merge.covered) + " of " +
                   std::to_string(o.merge.total_units) + " units (" +
                   std::to_string(o.merge.foreign) + " foreign)");
    chk.expect(o.fresh_profiles == 0, label + ": campaign phase computed " +
                                          std::to_string(o.fresh_profiles) +
                                          " fresh profiles on a warm cache");
    if (digest.empty()) digest = o.digest;
    chk.expect(o.digest == digest,
               label + ": ledger digest " + o.digest + " differs from " + digest);
}

void check_rerun(checks& chk, const campaign_spec& spec, const std::string& cache) {
    scenario_runner runner(kThreads);
    runner.set_profile_cache(cache);
    const std::size_t executed = run_campaign(spec, runner).executed;
    chk.expect(executed == 0, "rerun of the finished campaign executed " +
                                  std::to_string(executed) + " units");
}

void check_pin(checks& chk, const std::string& workload, const std::string& digest) {
    const json_value pins = json_parse(read_file(kPinFile));
    const bool pinned = pins.contains(workload);
    chk.expect(pinned && pins.at(workload).as_string() == digest,
               "seed-1 ledger digest " + digest + " does not match the pin " +
                   (pinned ? pins.at(workload).as_string() : "(none)") + " in " + kPinFile);
}

// Peak resident set size of this process image (VmHWM). getrusage's
// ru_maxrss is not used: it survives execve, so behind run.py it reports
// the Python launcher's peak whenever that is the larger one.
double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
    }
    throw error("no VmHWM line in /proc/self/status");
}

// --- one benchmark run -------------------------------------------------------

int run_workload(const workload& w, std::uint64_t seed, double seconds, bool trace) {
    const steady::time_point origin = steady::now();
    const std::string text = read_file(kWorkloadDir + w.name + ".json");
    campaign_spec spec = campaign_spec_from_json(text);
    spec.topology_seed = seed;
    // A spec that sets base_seed pins its run seeds; README.md says why
    // elect-unknown-n does.
    if (!json_parse(text).contains("base_seed")) spec.base_seed = seed;

    const std::string tag = std::string(w.name) + "-s" + std::to_string(seed);
    const run_files files(kWorkRoot + "runs/" + tag + "-p" + std::to_string(::getpid()));
    spec.output = files.dir + "/ledger.jsonl";

    checks chk;
    std::string digest;
    std::size_t attempted = 0, failed = 0;
    const auto tally = [&](const campaign_outcome& o) {
        attempted += o.executed;
        failed += o.failed_units;
    };

    if (!trace) {
        sample_stats setup_s, campaign_s;
        double setup_total = 0;
        const auto setup = [&] {
            setup_s.add(setup_untraced(spec, files.cache, chk));
            setup_total += setup_s.samples().back();
        };
        const auto campaign = [&] {
            const campaign_outcome o = campaign_untraced(spec, files, w.fleet);
            check_outcome(chk, o, digest, "campaign");
            campaign_s.add(o.seconds);
            tally(o);
        };
        // Peak RSS is read after one setup and one campaign, the whole of
        // a single-campaign process: the allocator's arenas keep growing
        // over later iterations, whose count depends on speed.
        setup();
        campaign();
        const double rss_mb = peak_rss_mb();
        // Later setups are spread over the run, so their median samples
        // the host's load over the whole run, as the campaigns do.
        for (double elapsed; (elapsed = seconds_since(origin)) < seconds;) {
            const double share = elapsed / seconds;
            if (static_cast<double>(setup_s.count()) < kMaxSetupReps * share &&
                setup_total < kSetupBudgetS * share) {
                setup();
            } else {
                campaign();
            }
        }
        while (setup_s.count() < kMinSetupReps) setup();
        check_rerun(chk, spec, files.cache);
        if (seed == 1) check_pin(chk, w.name, digest);
        std::fprintf(stderr, "%s: %zu setups, %zu campaigns, ledger digest %s\n",
                     tag.c_str(), setup_s.count(), campaign_s.count(), digest.c_str());
        print_result(chk.passed(), attempted, failed, kEndToEnd,
                     {{"setup_s", setup_s.median()},
                      {"campaign_s", campaign_s.min()},
                      {"peak_rss_mb", rss_mb}});
        return chk.passed() ? 0 : 1;
    }

    // Traced run: an untraced setup, a traced setup that must store the
    // same cache bytes, then untraced/traced campaign pairs for `seconds`.
    (void)setup_untraced(spec, files.cache, chk);
    std::deque<trace_log> logs;
    trace_log& setup_log = logs.emplace_back("setup");
    std::vector<graph> graphs;
    const std::string traced_cache = files.dir + "/profiles-traced.jsonl";
    setup_traced(spec, traced_cache, setup_log, graphs);
    chk.expect(read_file(traced_cache) == read_file(files.cache),
               "traced setup stored a different profile cache");
    trace_log& replay_log = logs.emplace_back("replay");
    replay_profile_parts(graphs, replay_log);
    graphs.clear();

    // Layer metrics come from the fastest traced campaign, the iteration
    // campaign_s would pick.
    metric_map fastest;
    std::size_t traced = 0;
    sample_stats untraced_s;
    do {
        const campaign_outcome u = campaign_untraced(spec, files, w.fleet);
        check_outcome(chk, u, digest, "untraced campaign");
        untraced_s.add(u.seconds);
        tally(u);
        trace_log& log = logs.emplace_back("campaign");
        const campaign_outcome t = campaign_traced(spec, files, w.fleet, log);
        check_outcome(chk, t, digest, "traced campaign");
        if (traced++ == 0 || t.seconds < fastest.at("trace.traced_campaign_s")) {
            fastest = campaign_layers(log, t, spec, files);
        }
        tally(t);
    } while (seconds_since(origin) < seconds);
    replay_layouts(load_campaign_ledger(spec.output), replay_log);
    check_rerun(chk, spec, files.cache);
    if (seed == 1) check_pin(chk, w.name, digest);

    metric_map m = setup_layers(setup_log);
    for (const auto& [k, v] : fastest) m[k] += v;
    m["profile.lanczos_s"] = replay_log.total("profile.lanczos");
    m["profile.diameter_s"] = replay_log.total("profile.diameter");
    m["report.layout_s"] = replay_log.total("report.layout");
    m["trace.untraced_campaign_s"] = untraced_s.min();

    const std::string trace_path = kWorkRoot + "traces/" + tag + ".jsonl";
    fs::create_directories(kWorkRoot + "traces");
    {
        std::ofstream out(trace_path);
        for (const trace_log& log : logs) log.write(out, origin);
    }
    std::fprintf(stderr, "%s: %zu traced campaigns, ledger digest %s, spans in %s\n",
                 tag.c_str(), traced, digest.c_str(), trace_path.c_str());
    print_result(chk.passed(), attempted, failed, kPerLayer, m);
    return chk.passed() ? 0 : 1;
}

// --- --self-test -------------------------------------------------------------

// A tiny spec through every path a benchmark run takes: untraced and
// traced setup, then untraced and traced campaigns, single-process and
// fleet, all of which must write one identical ledger.
int self_test() {
    campaign_spec spec = campaign_spec_from_json(
        R"({"families":["cycle","star"],"sizes":[16],"variants":["flood","cautious"],"seeds":2})");
    const run_files files("bench_e2e_self_test");
    spec.output = files.dir + "/ledger.jsonl";

    checks chk;
    (void)setup_untraced(spec, files.cache, chk);
    trace_log setup_log("setup");
    std::vector<graph> graphs;
    setup_traced(spec, files.dir + "/profiles-traced.jsonl", setup_log, graphs);
    chk.expect(read_file(files.dir + "/profiles-traced.jsonl") == read_file(files.cache),
               "traced setup stored a different profile cache");

    const std::size_t units = expand(spec).size();
    std::string digest;
    for (const bool fleet : {false, true}) {
        const std::string mode = fleet ? "fleet" : "single";
        check_outcome(chk, campaign_untraced(spec, files, fleet), digest, mode + " untraced");
        trace_log log("campaign");
        const campaign_outcome t = campaign_traced(spec, files, fleet, log);
        check_outcome(chk, t, digest, mode + " traced");
        chk.expect(log.durations("engine.unit").size() == units,
                   mode + " traced: one engine span per unit");
        const metric_map m = campaign_layers(log, t, spec, files);
        chk.expect(m.at("engine.rounds") > 0 && m.at("report.bytes") > 0,
                   mode + " traced: layer counters recorded");
    }
    check_rerun(chk, spec, files.cache);
    std::printf("self-test: %s (%zu units, ledger digest %s)\n",
                chk.passed() ? "ok" : "FAILED", units, digest.c_str());
    return chk.passed() ? 0 : 1;
}

// --- --compare ---------------------------------------------------------------

// statistics.quantiles(values, n=4) (Python's default "exclusive"
// method), so the spreads printed here are the ones the benchmark's
// acceptance rule computes.
std::array<double, 3> quartiles(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t ld = v.size();
    if (ld == 1) return {v[0], v[0], v[0]};
    std::array<double, 3> q{};
    const std::size_t m = ld + 1;
    for (std::size_t i = 1; i <= 3; ++i) {
        std::size_t j = i * m / 4;
        j = std::clamp<std::size_t>(j, 1, ld - 1);
        const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
        q[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    return q;
}

using samples = std::map<std::pair<std::string, std::string>, std::vector<double>>;

// Lines of {"workload": W, "metrics": {name: {"value": v, ...}}, ...}.
samples load_samples(const std::string& path) {
    samples out;
    std::istringstream in(read_file(path));
    std::string line;
    while (std::getline(in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        const json_value v = json_parse(line);
        const std::string& w = v.at("workload").as_string();
        for (const auto& [name, m] : v.at("metrics").as_object()) {
            out[{w, name}].push_back(m.at("value").as_number());
        }
    }
    return out;
}

int compare(const std::string& a_path, const std::string& b_path) {
    struct bound_def {
        bool lower_better = true;
        std::optional<double> bound;
    };
    std::map<std::string, bound_def> defs;
    const json_value bench = json_parse(read_file("BENCHMARK.json"));
    for (const char* section : {"end_to_end", "per_layer"}) {
        for (const json_value& d : bench.at(section).as_array()) {
            bound_def b;
            b.lower_better = d.at("better").as_string() == "lower";
            if (d.contains("bound")) b.bound = d.at("bound").as_number();
            defs[d.at("name").as_string()] = b;
        }
    }
    const samples a = load_samples(a_path);
    const samples b = load_samples(b_path);
    std::set<std::pair<std::string, std::string>> keys;
    for (const auto& [k, v] : a) keys.insert(k);
    for (const auto& [k, v] : b) keys.insert(k);

    const auto pct = [](double x) { return fmt_fixed(100.0 * x, 2) + "%"; };
    text_table t({"workload", "metric", "A median", "A q1..q3", "A spread", "B median",
                  "B q1..q3", "B spread", "change", "bound", "verdict"});
    bool all_within = true;
    for (const auto& key : keys) {
        const auto ia = a.find(key);
        const auto ib = b.find(key);
        if (ia == a.end() || ib == b.end()) continue;
        const std::array<double, 3> qa = quartiles(ia->second);
        const std::array<double, 3> qb = quartiles(ib->second);
        const double spread_a = ratio(qa[2] - qa[0], qa[1]);
        const double spread_b = ratio(qb[2] - qb[0], qb[1]);
        const bound_def def = defs.count(key.second) ? defs[key.second] : bound_def{};
        // Positive = B is worse than A.
        const double worse = def.lower_better ? ratio(qb[1] - qa[1], qa[1])
                                              : ratio(qa[1] - qb[1], qa[1]);
        std::string verdict = "-";
        if (def.bound) {
            const bool within = worse <= *def.bound;
            all_within = all_within && within;
            verdict = within ? "within" : "WORSE";
            if (within && std::max(spread_a, spread_b) > *def.bound) verdict = "unresolved";
        }
        const auto range = [](const std::array<double, 3>& q) {
            return fmt_sci(q[0], 4) + ".." + fmt_sci(q[2], 4);
        };
        t.add_row({key.first, key.second, fmt_sci(qa[1], 4), range(qa), pct(spread_a),
                   fmt_sci(qb[1], 4), range(qb), pct(spread_b), pct(worse),
                   def.bound ? pct(*def.bound) : "-", verdict});
    }
    t.print(std::cout);
    std::printf("%s\n", all_within ? "all bounded metrics within their bounds"
                                   : "some bounded metric is worse than its bound");
    return all_within ? 0 : 1;
}

// --- command line ------------------------------------------------------------

[[noreturn]] void usage(int code) {
    std::fprintf(code == 0 ? stdout : stderr,
                 "usage: bench_e2e --workload NAME --seed S --seconds T --trace 0|1\n"
                 "       bench_e2e --compare A.jsonl B.jsonl\n"
                 "       bench_e2e --self-test\n"
                 "workloads: elect-known-n, elect-unknown-n, profile-cold, "
                 "fleet-ledger\n");
    std::exit(code);
}

std::uint64_t parse_u64(const std::string& v, const char* flag) {
    if (v.empty() || v.size() > 19 || v.find_first_not_of("0123456789") != std::string::npos) {
        std::fprintf(stderr, "error: %s expects a non-negative integer, got '%s'\n", flag,
                     v.c_str());
        std::exit(2);
    }
    return std::stoull(v);
}

}  // namespace

int main(int argc, char** argv) {
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.size() == 1 && args[0] == "--self-test") return self_test();
        if (args.size() == 3 && args[0] == "--compare") return compare(args[1], args[2]);
        if (args.size() == 1 && (args[0] == "--help" || args[0] == "-h")) usage(0);

        std::string name;
        std::optional<std::uint64_t> seed, seconds, trace;
        for (std::size_t i = 0; i < args.size(); ++i) {
            if (i + 1 >= args.size()) usage(2);
            const std::string& v = args[++i];
            if (args[i - 1] == "--workload") {
                name = v;
            } else if (args[i - 1] == "--seed") {
                seed = parse_u64(v, "--seed");
            } else if (args[i - 1] == "--seconds") {
                seconds = parse_u64(v, "--seconds");
            } else if (args[i - 1] == "--trace") {
                trace = parse_u64(v, "--trace");
            } else {
                usage(2);
            }
        }
        if (!seed || !seconds || !trace || *trace > 1 || *seconds == 0) usage(2);
        for (const workload& w : kWorkloads) {
            if (name == w.name) {
                return run_workload(w, *seed, static_cast<double>(*seconds), *trace == 1);
            }
        }
        std::fprintf(stderr, "error: unknown workload '%s'\n", name.c_str());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
