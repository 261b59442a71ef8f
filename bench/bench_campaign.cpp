// Campaign driver — the declarative sweep CLI over the topology zoo.
//
//   ./bench_campaign --families barbell,watts_strogatz,ba --sizes 64,256
//                    --variants revocable,cautious --seeds 8
//
// expands the cartesian sweep {families × sizes × variants × seeds} into
// single-repetition units, runs them through the ScenarioRunner (shared
// topology/profile caches across variants), streams one JSON record per
// unit to a JSONL file (default campaign.jsonl), and prints the
// aggregate per-cell table. Re-running with the same spec and output
// file skips every already-recorded unit — an interrupted campaign
// resumes where it died, and a completed one reports "0 executed".
//
// Flags beyond the sweep axes:
//   --spec FILE.json   load the docs/CAMPAIGNS.md JSON schema; sweep-axis
//                      flags override the file's values
//   --out FILE         JSONL record stream (default campaign.jsonl);
//                      --no-out disables persistence (and thus resume)
//   --profile-cache F  persistent profile cache (docs/PROFILES.md): a
//                      repeat campaign against a warm cache reports
//                      "profiles: 0 fresh" and skips all measurement
//   --base-seed N      first run seed (default 1)
//   --topology-seed N  instance seed for generated families (default 1)
//   --dry-run          print the expansion size and exit
//   --csv --json --jobs N   as in every other bench (see bench/common.h)
//
// Fleet modes (docs/FLEET.md) — many worker processes, one campaign:
//   --worker ID        run as a fleet worker: lease topology groups from
//                      <out>.fleet/, append records to a private shard
//   --lease-ttl N      seconds before a silent worker's lease is
//                      reclaimable (default 60)
//   --merge            fold <out> + every shard into the canonical
//                      ledger (byte-identical to a single-worker run)
//   --report FILE.html write the self-contained HTML report (sim/report.h)
//                      after running / merging
//
// After the aggregate table comes the claims table (sim/claims.h): the
// paper's Table 1 and Theorem 1 shapes checked over the static cells.
// A failing claim makes the run and --merge exit 1.
#include <algorithm>
#include <fstream>
#include <sstream>

#include "bench/common.h"
#include "sim/campaign.h"
#include "sim/claims.h"
#include "sim/fleet.h"
#include "sim/report.h"

using namespace anole;
using namespace anole::bench;

namespace {

[[noreturn]] void usage(int code) {
    std::printf(
        "usage: bench_campaign [--spec FILE.json]\n"
        "    [--families f1,f2,...] [--sizes n1,n2,...]\n"
        "    [--variants v1,v2,...] [--seeds N] [--dynamics d1,d2,...]\n"
        "    [--out FILE | --no-out] [--profile-cache FILE]\n"
        "    [--base-seed N] [--topology-seed N]\n"
        "    [--jobs N] [--csv] [--json] [--dry-run]\n"
        "    [--worker ID [--lease-ttl N] | --merge] [--report FILE.html]\n"
        "families: any graph_family name or alias (ws, ba, rgg, caveman,\n"
        "er, grid, tree); variants: flood_max|flood, gilbert, irrevocable,\n"
        "revocable, cautious_broadcast|cautious;\ndynamics:");
    for (const auto& preset : all_dynamics_presets()) {
        std::printf(" %s,", preset.first.c_str());
    }
    std::printf(" or 'all' (docs/DYNAMICS.md).\n");
    std::exit(code);
}

// Prints the aggregate table, then the claims table when a claim
// applies; false when one of them fails.
bool emit_tables(const std::vector<campaign_record>& records, bool csv, bool json) {
    options opt;  // reuse the shared table emitter for --csv/--json
    opt.csv = csv;
    opt.json = json;
    emit(campaign_table(records), opt, "CAMPAIGN: aggregate by cell");
    const std::vector<claim_result> claims = evaluate_claims(records);
    if (claims.empty()) return true;
    emit(claims_table(claims), opt, "CLAIMS: the paper's shapes over the static cells");
    const std::vector<std::string> failed = failed_claims(claims);
    std::printf("\nclaims: %zu checked, %zu failed", claims.size(), failed.size());
    for (const std::string& name : failed) std::printf(" %s", name.c_str());
    std::printf("\n");
    return failed.empty();
}

}  // namespace

int main(int argc, char** argv) {
    campaign_spec spec;
    spec.output = "campaign.jsonl";
    spec.families.clear();
    spec.sizes.clear();
    spec.variants.clear();

    bool emit_csv = false, emit_json = false, dry_run = false, no_out = false;
    bool seeds_set = false, base_seed_set = false, topology_seed_set = false;
    bool worker_mode = false, merge_mode = false;
    std::size_t jobs = 0;
    std::uint64_t lease_ttl = 60;
    std::string out_flag, profile_cache_path, worker_id, report_path;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&] { return flag_value(argc, argv, i, a.c_str()); };
        if (a == "--spec") {
            const std::string path = value();
            std::ifstream in(path);
            if (!in) {
                std::fprintf(stderr, "error: cannot read spec '%s'\n", path.c_str());
                return 2;
            }
            std::stringstream buf;
            buf << in.rdbuf();
            try {
                const campaign_spec loaded = campaign_spec_from_json(buf.str());
                // Axis flags seen later override; start from the file.
                if (spec.families.empty()) spec.families = loaded.families;
                if (spec.sizes.empty()) spec.sizes = loaded.sizes;
                if (spec.variants.empty()) spec.variants = loaded.variants;
                if (spec.dynamics.empty()) spec.dynamics = loaded.dynamics;
                if (!seeds_set) spec.seeds = loaded.seeds;
                if (!base_seed_set) spec.base_seed = loaded.base_seed;
                if (!topology_seed_set) spec.topology_seed = loaded.topology_seed;
                if (!loaded.output.empty()) spec.output = loaded.output;
            } catch (const std::exception& e) {
                std::fprintf(stderr, "error: bad spec '%s': %s\n", path.c_str(),
                             e.what());
                return 2;
            }
        } else if (a == "--families") {
            spec.families.clear();
            for (const std::string& name : split_csv(value())) {
                const auto f = family_from_string(name);
                if (!f) {
                    std::fprintf(stderr, "error: unknown family '%s'\n", name.c_str());
                    return 2;
                }
                spec.families.push_back(*f);
            }
        } else if (a == "--sizes") {
            spec.sizes.clear();
            for (const std::string& v : split_csv(value())) {
                spec.sizes.push_back(static_cast<std::size_t>(parse_u64(v, "--sizes")));
            }
        } else if (a == "--variants") {
            spec.variants.clear();
            for (const std::string& name : split_csv(value())) {
                const auto k = variant_from_string(name);
                if (!k) {
                    std::fprintf(stderr, "error: unknown variant '%s'\n",
                                 name.c_str());
                    return 2;
                }
                spec.variants.push_back(*k);
            }
        } else if (a == "--dynamics") {
            spec.dynamics = parse_presets(value(), "--dynamics");
        } else if (a == "--seeds") {
            spec.seeds = parse_count(argc, argv, i, "--seeds");
            seeds_set = true;
        } else if (a == "--out") {
            out_flag = value();
        } else if (a == "--no-out") {
            no_out = true;
        } else if (a == "--profile-cache") {
            profile_cache_path = value();
        } else if (a == "--base-seed") {
            spec.base_seed = parse_u64(value(), "--base-seed");
            base_seed_set = true;
        } else if (a == "--topology-seed") {
            spec.topology_seed = parse_u64(value(), "--topology-seed");
            topology_seed_set = true;
        } else if (a == "--worker") {
            worker_mode = true;
            worker_id = value();
        } else if (a == "--lease-ttl") {
            lease_ttl = parse_u64(value(), "--lease-ttl");
        } else if (a == "--merge") {
            merge_mode = true;
        } else if (a == "--report") {
            report_path = value();
        } else if (a == "--jobs") {
            jobs = parse_count(argc, argv, i, "--jobs");
        } else if (a == "--csv") {
            emit_csv = true;
        } else if (a == "--json") {
            emit_json = true;
        } else if (a == "--dry-run") {
            dry_run = true;
        } else if (a == "--help" || a == "-h") {
            usage(0);
        } else {
            std::fprintf(stderr, "error: unknown flag '%s' (try --help)\n", a.c_str());
            return 2;
        }
    }

    // Demo sweep when no axes were given: the conductance extremes.
    if (spec.families.empty()) {
        spec.families = {graph_family::barbell, graph_family::watts_strogatz,
                         graph_family::barabasi_albert};
    }
    if (spec.sizes.empty()) spec.sizes = {64};
    if (spec.variants.empty()) {
        spec.variants = {algo_kind::flood_max, algo_kind::irrevocable};
    }
    if (!out_flag.empty()) spec.output = out_flag;
    if (no_out) spec.output.clear();

    if (worker_mode && merge_mode) {
        std::fprintf(stderr, "error: --worker and --merge are exclusive\n");
        return 2;
    }
    if ((worker_mode || merge_mode) && spec.output.empty()) {
        std::fprintf(stderr, "error: fleet modes need a ledger (--out, not "
                             "--no-out)\n");
        return 2;
    }

    try {
        spec.validate();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }

    const auto units = expand(spec);
    if (dry_run) {
        std::printf("campaign: %zu units (%zu families x %zu sizes x %zu variants "
                    "x %zu dynamics x %zu seeds)\n",
                    units.size(), spec.families.size(), spec.sizes.size(),
                    spec.variants.size(),
                    std::max<std::size_t>(spec.dynamics.size(), 1), spec.seeds);
        return 0;
    }

    if (merge_mode) {
        try {
            const merge_report mr = merge_fleet(spec);
            std::printf("merge: %zu shards, %zu records, covering %zu/%zu units "
                        "(%zu duplicates, %zu foreign)\n",
                        mr.shards, mr.records, mr.covered, mr.total_units,
                        mr.duplicates, mr.foreign);
            const auto records = load_campaign_ledger(spec.output);
            const bool claims_hold = emit_tables(records, emit_csv, emit_json);
            if (!report_path.empty()) {
                report_options ro;
                ro.expected_units = mr.total_units;
                ro.jobs = jobs;
                write_campaign_report(report_path, records, ro);
                std::printf("report: %s\n", report_path.c_str());
            }
            return claims_hold ? 0 : 1;
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    }

    if (worker_mode) {
        scenario_runner wrunner(jobs);
        if (!profile_cache_path.empty()) {
            wrunner.set_profile_cache(profile_cache_path);
        }
        fleet_options fopt;
        fopt.worker_id = worker_id;
        fopt.lease_ttl = lease_ttl;
        try {
            const fleet_report fr = run_fleet_worker(spec, wrunner, fopt);
            std::printf("worker %s: %zu groups claimed (%zu reclaimed), "
                        "%zu executed, %zu skipped, %zu failed, %zu left "
                        "leased; shard %s\n",
                        fr.worker_id.c_str(), fr.groups_claimed,
                        fr.leases_reclaimed, fr.executed, fr.skipped, fr.failed,
                        fr.left_leased, fr.shard.c_str());
            std::printf("profiles: %zu fresh\n", wrunner.fresh_profiles());
            return fr.failed == 0 ? 0 : 1;
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    }

    scenario_runner runner(jobs);
    if (!profile_cache_path.empty()) runner.set_profile_cache(profile_cache_path);
    campaign_report report;
    try {
        report = run_campaign(spec, runner);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }

    const bool claims_hold = emit_tables(report.records, emit_csv, emit_json);

    std::printf("\ncampaign: %zu executed, %zu skipped (already recorded), "
                "%zu failed; %zu/%zu units recorded%s%s\n",
                report.executed, report.skipped, report.failed,
                report.records.size(), units.size(),
                spec.output.empty() ? "" : " in ",
                spec.output.c_str());
    if (profile_cache_path.empty()) {
        std::printf("profiles: %zu fresh\n", runner.fresh_profiles());
    } else {
        std::printf("profiles: %zu fresh (cache: %s)\n", runner.fresh_profiles(),
                    profile_cache_path.c_str());
    }
    if (!report_path.empty()) {
        try {
            report_options ro;
            ro.expected_units = units.size();
            ro.jobs = jobs;
            write_campaign_report(report_path, report.records, ro);
            std::printf("report: %s\n", report_path.c_str());
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 1;
        }
    }
    return report.failed == 0 && claims_hold ? 0 : 1;
}
