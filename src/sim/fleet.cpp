#include "sim/fleet.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "util/atomic_file.h"
#include "util/json.h"

namespace anole {

// --- paths ------------------------------------------------------------------

std::vector<std::string> fleet_paths::shard_files() const {
    std::vector<std::string> files;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir(), ec)) {
        if (!entry.is_regular_file()) continue;
        const std::string name = entry.path().filename().string();
        if (name.rfind("shard-", 0) == 0 && name.size() > 6 &&
            name.compare(name.size() - 6, 6, ".jsonl") == 0) {
            files.push_back(entry.path().string());
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

std::string sanitize_worker_id(const std::string& id) {
    if (id.empty()) return fleet_worker_id();
    std::string out = id;
    for (char& c : out) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
        if (!ok) c = '_';
    }
    return out;
}

std::string fleet_worker_id() {
    // Built with += rather than operator+ to sidestep GCC 12's spurious
    // -Wrestrict on (const char* + string&&).
    std::string id = "w";
    id += std::to_string(static_cast<long>(::getpid()));
    return id;
}

// --- leases -----------------------------------------------------------------

std::uint64_t fleet_now() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::seconds>(
                                          std::chrono::system_clock::now()
                                              .time_since_epoch())
                                          .count());
}

std::string lease_info::to_json() const {
    return "{\"owner\":\"" + json_escape(owner) +
           "\",\"heartbeat\":" + std::to_string(heartbeat) +
           ",\"ttl\":" + std::to_string(ttl) +
           ",\"group\":" + std::to_string(group) + "}";
}

std::optional<lease_info> read_lease(const std::string& path) {
    std::ifstream in(path);
    if (!in) return std::nullopt;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    try {
        const json_value v = json_parse(text);
        lease_info l;
        l.owner = v.at("owner").as_string();
        l.heartbeat = v.at("heartbeat").as_uint();
        l.ttl = v.at("ttl").as_uint();
        l.group = static_cast<std::size_t>(v.at("group").as_uint());
        return l;
    } catch (const error&) {
        return std::nullopt;  // torn lease: treated as reclaimable
    }
}

bool try_acquire_lease(const std::string& path, const lease_info& mine,
                       bool* reclaimed) {
    if (reclaimed != nullptr) *reclaimed = false;
    // Fresh claim: create-exclusive WITH complete content, so a racing
    // loser can never observe the winner's lease half-written (and
    // mistake it for a torn one).
    const std::string body = mine.to_json() + "\n";
    if (create_file(path, body)) return true;

    const std::optional<lease_info> cur = read_lease(path);
    if (cur.has_value() && cur->owner == mine.owner) {
        replace_file(path, body);  // refresh our own heartbeat
        return true;
    }
    if (cur.has_value() && !cur->expired(mine.heartbeat)) return false;

    // Expired or torn: take over by atomic replace, then confirm by
    // reading back — if several claimants raced, exactly one set of
    // bytes landed last and only that claimant proceeds.
    replace_file(path, body);
    const std::optional<lease_info> after = read_lease(path);
    if (after.has_value() && after->owner == mine.owner) {
        if (reclaimed != nullptr) *reclaimed = true;
        return true;
    }
    return false;
}

void release_lease(const std::string& path, const std::string& owner) {
    const std::optional<lease_info> cur = read_lease(path);
    if (cur.has_value() && cur->owner == owner) std::remove(path.c_str());
}

// --- worker -----------------------------------------------------------------

namespace {

// Closes a POSIX descriptor on scope exit.
class fd_closer {
public:
    explicit fd_closer(int fd) : fd_(fd) {}
    ~fd_closer() { ::close(fd_); }
    fd_closer(const fd_closer&) = delete;
    fd_closer& operator=(const fd_closer&) = delete;

private:
    int fd_;
};

}  // namespace

const std::set<std::string>& fleet_scan::refresh() {
    read(paths_.ledger);
    for (const std::string& shard : paths_.shard_files()) read(shard);
    return done_;
}

void fleet_scan::read(const std::string& path) {
    // One descriptor for stat and read, so a rename between the two
    // cannot pair one file's inode with another file's bytes.
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return;  // missing: nothing recorded there (yet)
    const fd_closer closer(fd);
    struct stat st {};
    if (::fstat(fd, &st) != 0) throw error("fleet: cannot stat " + path);
    const auto device = static_cast<std::uint64_t>(st.st_dev);
    const auto inode = static_cast<std::uint64_t>(st.st_ino);
    const auto size = static_cast<std::uint64_t>(st.st_size);

    auto it = files_.find(path);
    if (it == files_.end() || it->second.device != device ||
        it->second.inode != inode || size < it->second.offset) {
        // New or replaced file: read it whole, schema check included.
        it = files_.insert_or_assign(
                       path, cursor{device, inode, 0, campaign_ledger_reader(path)})
                 .first;
    }
    cursor& c = it->second;
    if (size == c.offset) return;

    std::string bytes(size - c.offset, '\0');
    std::size_t got = 0;
    while (got < bytes.size()) {
        const ssize_t r = ::pread(fd, bytes.data() + got, bytes.size() - got,
                                  static_cast<off_t>(c.offset + got));
        if (r < 0 && errno == EINTR) continue;
        if (r < 0) throw error("fleet: cannot read " + path);
        if (r == 0) break;  // truncated since the fstat
        got += static_cast<std::size_t>(r);
    }
    const std::string_view text(bytes.data(), got);
    std::size_t begin = 0;
    for (std::size_t nl = text.find('\n'); nl != std::string_view::npos;
         nl = text.find('\n', begin)) {
        if (auto rec = c.reader.record(text.substr(begin, nl - begin))) {
            done_.insert(rec->unit.key());
        }
        begin = nl + 1;
    }
    c.offset += begin;
}

fleet_report run_fleet_worker(const campaign_spec& spec, scenario_runner& runner,
                              const fleet_options& opt) {
    spec.validate();
    require(!spec.output.empty(), "fleet: spec.output must name the ledger");
    // The first refresh schema-checks the ledger and every existing shard,
    // this worker's own included, before anything is written.
    fleet_scan scan(spec.output);
    (void)scan.refresh();

    const std::vector<campaign_unit> units = expand(spec);
    const std::size_t group = campaign_group_size(spec);
    const std::size_t groups = (units.size() + group - 1) / group;

    const fleet_paths paths{spec.output};
    std::filesystem::create_directories(paths.dir());

    fleet_report report;
    report.worker_id = sanitize_worker_id(opt.worker_id);
    report.shard = paths.shard(report.worker_id);

    // Open (or resume) this worker's shard. A killed predecessor with our
    // id may have left a partial line; append_jsonl ends it.
    std::ofstream shard = append_jsonl(report.shard, campaign_schema_header_line());
    shard.flush();

    // Multi-pass: claim whatever is free, re-scan, repeat. A pass that
    // claims nothing means every pending group is held by a live peer —
    // that peer finishes it, so this worker is done.
    for (;;) {
        std::size_t claimed_this_pass = 0;
        std::size_t blocked_this_pass = 0;
        // The scan's live set: each later refresh updates `done` in place.
        const std::set<std::string>& done = scan.refresh();

        for (std::size_t g = 0; g < groups; ++g) {
            const std::size_t lo = g * group;
            const std::size_t hi = std::min(lo + group, units.size());
            std::vector<campaign_unit> pending;
            for (std::size_t i = lo; i < hi; ++i) {
                if (!done.count(units[i].key())) pending.push_back(units[i]);
            }
            if (pending.empty()) continue;

            const std::string lease_path = paths.lease(g);
            lease_info mine{report.worker_id, fleet_now(), opt.lease_ttl, g};
            bool reclaimed = false;
            if (!try_acquire_lease(lease_path, mine, &reclaimed)) {
                ++blocked_this_pass;
                continue;
            }
            if (reclaimed) ++report.leases_reclaimed;
            ++report.groups_claimed;
            ++claimed_this_pass;

            // The claim may have raced a peer that just finished these
            // units (lease released, records landed between our scan and
            // our claim): re-filter against a fresh scan before running.
            (void)scan.refresh();
            std::vector<campaign_unit> todo;
            for (const campaign_unit& u : pending) {
                if (!done.count(u.key())) todo.push_back(u);
            }
            if (!todo.empty()) {
                const std::vector<campaign_record> recs =
                    run_campaign_units(todo, runner);
                for (const campaign_record& rec : recs) {
                    ++report.executed;
                    if (!rec.ok) ++report.failed;
                    shard << rec.to_json() << "\n";
                }
                shard.flush();
                require(shard.good(), "fleet: write failed for " + report.shard);
            }
            release_lease(lease_path, report.worker_id);
        }

        if (claimed_this_pass == 0) {
            report.left_leased = blocked_this_pass;
            break;
        }
    }

    // Units someone (possibly a previous run) finished that we never ran.
    const std::set<std::string>& done = scan.refresh();
    std::size_t recorded = 0;
    for (const campaign_unit& u : units) {
        if (done.count(u.key())) ++recorded;
    }
    report.skipped = recorded > report.executed ? recorded - report.executed : 0;
    return report;
}

// --- merge ------------------------------------------------------------------

namespace {

// The "key" field of one raw record line; nullopt for headers, torn
// lines and non-record JSON.
std::optional<std::string> line_key(const std::string& line) {
    try {
        const json_value v = json_parse(line);
        if (!v.is_object() || !v.contains("key")) return std::nullopt;
        return v.at("key").as_string();
    } catch (const error&) {
        return std::nullopt;
    }
}

}  // namespace

merge_report merge_fleet(const campaign_spec& spec) {
    spec.validate();
    require(!spec.output.empty(), "fleet merge: spec.output must name the ledger");

    const std::vector<campaign_unit> units = expand(spec);
    std::map<std::string, std::size_t> unit_index;
    for (std::size_t i = 0; i < units.size(); ++i) {
        unit_index.emplace(units[i].key(), i);
    }

    const fleet_paths paths{spec.output};
    std::vector<std::string> sources;
    {
        std::ifstream probe(spec.output);
        if (probe) sources.push_back(spec.output);
    }
    std::vector<std::string> shards = paths.shard_files();
    sources.insert(sources.end(), shards.begin(), shards.end());

    merge_report report;
    report.shards = shards.size();
    report.total_units = units.size();

    // Raw line bytes per key — records are NEVER re-serialized (default
    // double formatting would perturb them); later sources win.
    std::map<std::string, std::string> covered;   // expansion keys
    std::map<std::string, std::string> foreign;   // everything else
    for (const std::string& src : sources) {
        std::ifstream in(src);
        require(static_cast<bool>(in), "fleet merge: cannot read " + src);
        campaign_ledger_reader reader(src);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || reader.header(line)) continue;
            const std::optional<std::string> key = line_key(line);
            if (!key.has_value()) continue;  // torn tail: that unit re-runs
            auto& bucket = unit_index.count(*key) ? covered : foreign;
            auto [it, inserted] = bucket.insert_or_assign(*key, line);
            (void)it;
            if (!inserted) ++report.duplicates;
        }
    }
    report.covered = covered.size();
    report.foreign = foreign.size();
    report.records = covered.size() + foreign.size();

    // Canonical rewrite: header, covered lines in expansion order,
    // foreign lines sorted by key (std::map iteration), atomic replace.
    std::string bytes = campaign_schema_header_line() + "\n";
    for (const campaign_unit& u : units) {
        auto it = covered.find(u.key());
        if (it != covered.end()) bytes.append(it->second) += '\n';
    }
    for (const auto& [key, line] : foreign) bytes.append(line) += '\n';
    replace_file(spec.output, bytes);
    return report;
}

}  // namespace anole
