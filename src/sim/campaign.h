// anole — declarative campaign engine on top of the ScenarioRunner.
//
// A campaign is a cartesian sweep {families × sizes × algorithm variants
// × seeds} declared once (flags or a JSON spec file) and expanded into
// one atomic unit of work per coordinate — a single repetition of one
// algorithm on one topology instance. The engine:
//
//   * groups units by topology, so every variant and seed of a given
//     (family, n) shares one generated graph AND one measured profile
//     through the runner's caches (profiles are the expensive step:
//     spectral estimation + mixing simulation — computed once per
//     topology per campaign instead of once per bench as before);
//   * runs up to --jobs topology groups at once on the runner's pool
//     (scenario_runner::run_stream) and streams one JSON record per
//     completed unit to a JSONL file, appending and flushing whole groups
//     in expansion order, so a killed campaign loses at most the groups
//     in flight;
//   * resumes by reading that file back: units whose key is already
//     recorded are skipped, never re-run (campaign_report::skipped says
//     how many);
//   * aggregates everything — fresh and previously recorded runs — into
//     a per-(family, n, variant) table emitted through the existing
//     --json/--csv table path.
//
// Record order in the file is deterministic: topology groups in spec
// order, units in (variant, seed) order within a group — independent of
// --jobs (the runner's stream hands groups back in index order).
// docs/CAMPAIGNS.md documents the spec schema and resume semantics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/runner.h"
#include "util/stats.h"
#include "util/table.h"

namespace anole {

// --- ledger schema ----------------------------------------------------------
//
// Every ledger (and fleet shard — sim/fleet.h) starts with one schema
// header line so merge/report tooling can reject files written by an
// incompatible build with a clear error instead of silently mis-reading
// them. Ledgers from before the header existed ("legacy", version 0) are
// still accepted on resume — their record lines parse unchanged.

inline constexpr int campaign_schema_version = 1;

// The header line (no trailing newline):
//   {"schema":"anole-campaign","version":1}
[[nodiscard]] std::string campaign_schema_header_line();

// Classifies one line: the version if it is a schema header, nullopt
// otherwise (record line, torn line, legacy garbage — caller decides).
// Lines that cannot spell the "schema" key are rejected without a parse.
[[nodiscard]] std::optional<int> parse_campaign_schema_header(std::string_view line);

// --- declaration ------------------------------------------------------------

struct campaign_spec {
    std::vector<graph_family> families;
    std::vector<std::size_t> sizes;
    std::vector<algo_kind> variants;
    // Repetitions per (family, size, variant) cell; unit r runs with
    // seed base_seed + r.
    std::size_t seeds = 3;
    std::uint64_t base_seed = 1;
    // Seed of the generated topology instances (one instance per
    // (family, size), shared by every variant and run seed).
    std::uint64_t topology_seed = 1;
    // Dynamics axis (sim/dynamics.h): named adversary models every
    // (family, size, variant, seed) cell is additionally swept over.
    // Empty = static network only, with unit keys identical to campaigns
    // from before this axis existed (resume files stay compatible).
    std::vector<std::pair<std::string, dynamics_spec>> dynamics;
    // JSONL path records stream to; empty = in-memory only (no resume).
    std::string output;

    void validate() const;
};

// Parses the JSON spec schema of docs/CAMPAIGNS.md:
//   {"families": ["barbell", "ws"], "sizes": [64, 256],
//    "variants": ["revocable", "cautious"], "seeds": 8,
//    "base_seed": 1, "topology_seed": 1, "output": "campaign.jsonl",
//    "dynamics": ["static", "churn", {"name": "lossy", "loss_prob": 0.1}]}
// "dynamics" entries are preset names (strings) or knob objects
// (dynamics_from_json). Unknown families/variants/keys throw anole::error.
[[nodiscard]] campaign_spec campaign_spec_from_json(const std::string& text);

// Variant-name parser for flags and spec files: accepts the algo_kind
// to_string names plus "flood" and "cautious". nullopt for unknown.
[[nodiscard]] std::optional<algo_kind> variant_from_string(std::string_view name);

// The per-variant default configuration campaigns run at requested size
// n with `edges` edges (0 = unknown, assume dense). flood/gilbert/
// irrevocable use profile-auto-filled defaults; revocable uses a blind,
// hard-budgeted scaled policy (the paper's faithful phase lengths are
// poly(n⁸) — not sweepable; hopeless cells must report failure in
// bounded time, not stall the campaign); cautious uses the x = 1
// territory cap.
[[nodiscard]] algo_config campaign_default_config(algo_kind k, std::size_t n,
                                                  std::size_t edges = 0);

// --- expansion --------------------------------------------------------------

// One atomic unit: a single repetition at one sweep coordinate.
struct campaign_unit {
    graph_family family;
    std::size_t n = 0;  // requested size (the instance may differ slightly)
    std::uint64_t topology_seed = 1;  // instance seed (spec-wide)
    algo_kind variant;
    std::uint64_t seed = 0;
    // Dynamics-axis coordinate; empty name = static network (no axis).
    std::string dynamics_name = {};
    dynamics_spec dynamics = {};

    // Resume key: "family/n/t<topology_seed>/variant/seed", plus a
    // "/<dynamics_name>" suffix only when a dynamics axis is configured —
    // static-only campaigns keep the historical key format, so old resume
    // files load unchanged. The topology seed is part of the key so
    // re-running against the same file with resampled instances
    // (--topology-seed) re-runs rather than silently skipping records
    // measured on different graphs.
    [[nodiscard]] std::string key() const;
};

// Full cartesian expansion in deterministic order: (family, size) outer
// (topology groups), (variant, seed) inner.
[[nodiscard]] std::vector<campaign_unit> expand(const campaign_spec& spec);

// Units per topology group: variants × max(dynamics, 1) × seeds. Groups
// are consecutive runs of this many units in expand()'s order.
[[nodiscard]] inline std::size_t campaign_group_size(const campaign_spec& spec) {
    return spec.variants.size() * std::max<std::size_t>(spec.dynamics.size(), 1) *
           spec.seeds;
}

// --- results ----------------------------------------------------------------

// One JSONL line; holds everything the aggregate tables need so resumed
// campaigns never re-run completed units.
struct campaign_record {
    campaign_unit unit;
    std::size_t nodes = 0;  // actual instance size
    std::size_t edges = 0;
    double phi = 0;
    std::uint64_t tmix = 0;
    bool ok = false;
    bool success = false;
    std::size_t leaders = 0;
    std::uint64_t rounds = 0;
    std::uint64_t messages = 0;
    std::uint64_t bits = 0;
    std::uint64_t congest_rounds = 0;
    // Safety-oracle verdict (sim/oracle.h). Records from before the oracle
    // existed load as oracle_ok = true with an empty summary; the summary
    // is only written (and only meaningful) when a check failed.
    bool oracle_ok = true;
    std::string oracle_summary;
    std::string error;

    [[nodiscard]] std::string to_json() const;  // one line, no trailing \n
    [[nodiscard]] static campaign_record from_json(std::string_view line);
};

struct campaign_report {
    std::size_t executed = 0;  // units run in this invocation
    std::size_t skipped = 0;   // units found already recorded
    std::size_t failed = 0;    // executed units with ok == false
    // All units in expansion order, recorded + fresh.
    std::vector<campaign_record> records;
};

// One aggregate cell: the records of one (family, n, variant, dynamics)
// coordinate. campaign_table, the report and the claims pass
// (sim/claims.h) all aggregate through campaign_cells.
struct campaign_cell {
    const campaign_record* head = nullptr;  // the cell's first record
    std::size_t runs = 0;
    std::size_t ok = 0;
    std::size_t elected = 0;  // ok runs with exactly one leader
    std::size_t safe = 0;     // ok runs the safety oracle passed
    sample_stats messages;    // over the ok runs
    sample_stats rounds;
};

// The cells of `records` in first-appearance order. Each cell points
// into `records`, which must outlive it.
[[nodiscard]] std::vector<campaign_cell> campaign_cells(
    const std::vector<campaign_record>& records);

// Aggregate per-(family, n, variant) table over the records: run/ok
// counts, election rate, message/round statistics, profile columns.
[[nodiscard]] text_table campaign_table(const std::vector<campaign_record>& records);

// Reads one ledger or shard file line by line, in file order, so each
// line is parsed once. If the first non-empty line fed in is a schema
// header of a different version it throws anole::error naming the path;
// headerless (legacy) files pass. Schema headers anywhere are skipped.
// load_campaign_ledger, merge_fleet and the fleet workers' incremental
// scans all read through it.
class campaign_ledger_reader {
public:
    explicit campaign_ledger_reader(std::string path) : path_(std::move(path)) {}

    // True if `line` is a schema header (callers skip it).
    [[nodiscard]] bool header(std::string_view line);
    // The record on `line`; nullopt for blank, header, torn and foreign
    // lines.
    [[nodiscard]] std::optional<campaign_record> record(std::string_view line);

private:
    std::string path_;
    bool first_ = true;
};

// All parseable records of a ledger/shard file, in file order (schema
// header checked and skipped; torn/foreign lines dropped). Missing file
// = empty vector.
[[nodiscard]] std::vector<campaign_record> load_campaign_ledger(
    const std::string& path);

// --- execution --------------------------------------------------------------

// One record from one completed unit (the JSONL line run_campaign and the
// fleet workers stream). Exposed so sim/fleet.h produces byte-identical
// records to the single-process path.
[[nodiscard]] campaign_record make_campaign_record(const campaign_unit& unit,
                                                   const scenario_result& res);

// Runs `units` — which must all belong to one topology group (same
// family, n, topology_seed) — through the runner, sharing one generated
// graph and one profile, and returns their records in input order: the
// one-group case of the stream run_campaign runs, which fleet workers
// call per leased group.
[[nodiscard]] std::vector<campaign_record> run_campaign_units(
    const std::vector<campaign_unit>& units, scenario_runner& runner);

// Runs the campaign on `runner` (which supplies the thread pool and the
// shared topology/profile caches). If spec.output names an existing
// JSONL file, its records are loaded first and those units are skipped.
// Up to runner.jobs() topology groups run at once; fresh records are
// appended to the same file group by group in expansion order, flushed
// per group. If a group fails to materialize or profile, the jobs in
// flight finish, the file holds exactly the groups before it, and the
// error is rethrown. Lines that fail to parse are ignored (a torn final
// line from a killed run is expected, and the unit simply re-runs).
campaign_report run_campaign(const campaign_spec& spec, scenario_runner& runner);

}  // namespace anole
