// anole — multi-process campaign fleet: worker leasing + ledger merge.
//
// One campaign, many worker processes, one shared filesystem. Workers
// coordinate through files alone (no sockets, no daemon), so a fleet is
// just N invocations of `bench_campaign --worker <id>` against the same
// spec, followed by one `bench_campaign --merge`:
//
//   * Work is leased per TOPOLOGY GROUP (the consecutive expansion-order
//     block of units sharing one (family, n, topology_seed) — the same
//     granularity run_campaign batches and flushes at). A lease is a
//     JSON file under <ledger>.fleet/ created with create-exclusive
//     semantics: exactly one claimant wins a fresh lease. Leases carry
//     an owner id, a heartbeat timestamp and a TTL; a lease whose
//     heartbeat is older than its TTL belonged to a crashed worker and
//     is reclaimed (atomic rename + read-back confirmation).
//   * Each worker appends records to its OWN JSONL shard,
//     <ledger>.fleet/shard-<id>.jsonl — no two processes ever append to
//     one file, so shards are never torn by interleaving.
//   * merge_fleet folds the main ledger plus every shard into one
//     canonical ledger: lines keep their raw bytes (records are never
//     re-serialized — float round-trips would perturb them), keyed by
//     the record's "key" field, later sources winning duplicates, output
//     in campaign expansion order. The result is byte-identical to what
//     a single-worker run_campaign would have written (test-enforced)
//     and resumes like any ordinary ledger.
//
// Residual races (two workers executing one unit around a lease
// expiry) cost duplicate work, never correctness: records are
// deterministic functions of their unit, and the merge dedups them.
// docs/FLEET.md documents the protocol end to end.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/campaign.h"

namespace anole {

// --- paths ------------------------------------------------------------------

// The on-disk layout of one fleet, rooted next to the campaign ledger.
struct fleet_paths {
    std::string ledger;  // the campaign's spec.output

    // <ledger>.fleet — shards and leases live here.
    [[nodiscard]] std::string dir() const { return ledger + ".fleet"; }
    [[nodiscard]] std::string shard(const std::string& worker_id) const {
        return dir() + "/shard-" + worker_id + ".jsonl";
    }
    [[nodiscard]] std::string lease(std::size_t group_index) const {
        return dir() + "/lease-" + std::to_string(group_index) + ".json";
    }
    // Every shard-*.jsonl currently in dir(), sorted by filename so merge
    // order (and therefore duplicate resolution) is deterministic.
    [[nodiscard]] std::vector<std::string> shard_files() const;
};

// Sanitizes an operator-supplied worker id to [A-Za-z0-9._-] (it names
// files); empty input falls back to fleet_worker_id().
[[nodiscard]] std::string sanitize_worker_id(const std::string& id);

// Default worker id: "w<pid>" — unique per process on one host.
[[nodiscard]] std::string fleet_worker_id();

// --- leases -----------------------------------------------------------------

// Wall-clock seconds since the Unix epoch (leases must compare across
// machines, so steady_clock is no use here).
[[nodiscard]] std::uint64_t fleet_now();

struct lease_info {
    std::string owner;
    std::uint64_t heartbeat = 0;  // unix seconds of the last touch
    std::uint64_t ttl = 60;       // seconds of silence before reclaimable
    std::size_t group = 0;        // topology-group index (diagnostics)

    [[nodiscard]] bool expired(std::uint64_t now) const {
        return now > heartbeat + ttl;
    }
    [[nodiscard]] std::string to_json() const;
};

// The lease at `path`; nullopt when missing or torn (a torn lease reads
// as expired-equivalent: reclaimable).
[[nodiscard]] std::optional<lease_info> read_lease(const std::string& path);

// One attempt to own the lease at `path`:
//   * no file        → create-exclusive write wins it;
//   * ours already   → heartbeat refreshed, still ours;
//   * live, foreign  → false;
//   * expired / torn → takeover: write-temp + atomic rename, then read
//     back — only the claimant whose bytes landed owns it (*reclaimed
//     set true for the winner).
[[nodiscard]] bool try_acquire_lease(const std::string& path, const lease_info& mine,
                                     bool* reclaimed = nullptr);

// Deletes the lease iff it is still owned by `owner`.
void release_lease(const std::string& path, const std::string& owner);

// --- worker -----------------------------------------------------------------

// A worker's running view of which units are finished: the keys of every
// record in the ledger and in every shard. Each refresh parses only the
// bytes appended since the previous one, so a worker's scan cost grows
// with the fleet's output, not with output x refreshes. Per file it keeps
// the (device, inode) pair and the offset just past the last complete
// '\n' line; a partial last line waits for the next refresh. A file whose
// inode changed or that shrank below the offset (merge_fleet's rename)
// is re-read from byte 0 and schema-checked again. Keys only accumulate:
// a file that disappears keeps its keys.
class fleet_scan {
public:
    explicit fleet_scan(std::string ledger) : paths_{std::move(ledger)} {}

    // Reads what the ledger and the current shards gained since the last
    // refresh. Throws anole::error when a file's first line is a schema
    // header of another version.
    const std::set<std::string>& refresh();

private:
    struct cursor {
        std::uint64_t device = 0;
        std::uint64_t inode = 0;
        std::uint64_t offset = 0;  // just past the last complete line read
        campaign_ledger_reader reader;
    };
    void read(const std::string& path);

    fleet_paths paths_;
    std::map<std::string, cursor> files_;
    std::set<std::string> done_;
};

struct fleet_options {
    std::string worker_id;    // empty = fleet_worker_id()
    std::uint64_t lease_ttl = 60;  // seconds
};

struct fleet_report {
    std::string worker_id;
    std::string shard;             // this worker's shard path
    std::size_t groups_claimed = 0;
    std::size_t leases_reclaimed = 0;  // expired leases taken over
    std::size_t executed = 0;      // units this worker ran
    std::size_t failed = 0;        // executed units with ok == false
    std::size_t skipped = 0;       // units found recorded by someone else
    std::size_t left_leased = 0;   // pending groups held live by others at exit
};

// Runs one fleet worker to completion: repeatedly refreshes its
// fleet_scan of the ledger and every shard for finished unit keys,
// claims an unfinished topology group, runs it through
// run_campaign_units, appends the records to this worker's shard
// (flushed per group) and releases the lease. Exits when
// a full pass claims nothing — every remaining pending group is then
// held by a live peer, which will finish it. spec.output must be set.
fleet_report run_fleet_worker(const campaign_spec& spec, scenario_runner& runner,
                              const fleet_options& opt = {});

// --- merge ------------------------------------------------------------------

struct merge_report {
    std::size_t shards = 0;      // shard files folded in
    std::size_t records = 0;     // distinct record lines kept
    std::size_t duplicates = 0;  // extra lines dropped by later-wins
    std::size_t foreign = 0;     // records outside this spec's expansion
    std::size_t covered = 0;     // expansion units with a record
    std::size_t total_units = 0; // expansion size
};

// Folds <ledger> + every shard into the canonical ledger (temp + atomic
// rename over spec.output): schema header, then covered units' raw lines
// in expansion order, then foreign lines sorted by key. Sources are read
// ledger-first then shards sorted by filename; the last occurrence of a
// key wins. Throws anole::error on a source with an incompatible schema
// header. Idempotent: merging a merged fleet changes nothing.
merge_report merge_fleet(const campaign_spec& spec);

}  // namespace anole
