#include "sim/campaign.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "util/atomic_file.h"
#include "util/json.h"

namespace anole {

// --- ledger schema ----------------------------------------------------------

std::string campaign_schema_header_line() {
    return "{\"schema\":\"anole-campaign\",\"version\":" +
           std::to_string(campaign_schema_version) + "}";
}

std::optional<int> parse_campaign_schema_header(std::string_view line) {
    // A header must spell its "schema" key, literally or through a \u
    // escape; record lines do neither, so they skip the parse.
    if (line.find("\"schema\"") == std::string_view::npos &&
        line.find('\\') == std::string_view::npos) {
        return std::nullopt;
    }
    try {
        const json_value v = json_parse(line);
        if (!v.is_object() || !v.contains("schema")) return std::nullopt;
        if (v.at("schema").as_string() != "anole-campaign") return std::nullopt;
        return static_cast<int>(v.at("version").as_uint());
    } catch (const error&) {
        return std::nullopt;
    }
}

bool campaign_ledger_reader::header(std::string_view line) {
    if (line.empty()) return false;
    const auto version = parse_campaign_schema_header(line);
    if (first_) {  // only a file's first non-empty line is version-checked
        first_ = false;
        if (version.has_value() && *version != campaign_schema_version) {
            throw error("campaign ledger '" + path_ + "': schema version " +
                        std::to_string(*version) + " is incompatible (this build "
                        "reads version " + std::to_string(campaign_schema_version) +
                        ")");
        }
    }
    return version.has_value();
}

std::optional<campaign_record> campaign_ledger_reader::record(std::string_view line) {
    if (line.empty() || header(line)) return std::nullopt;
    try {
        return campaign_record::from_json(line);
    } catch (const error&) {
        return std::nullopt;
    }
}

// --- declaration ------------------------------------------------------------

void campaign_spec::validate() const {
    require(!families.empty(), "campaign: need at least one family");
    require(!sizes.empty(), "campaign: need at least one size");
    require(!variants.empty(), "campaign: need at least one variant");
    require(seeds >= 1, "campaign: seeds >= 1");
    // A repeated axis entry would expand into units that share one key.
    const auto distinct = [](const auto& axis, const char* what, const auto& name) {
        std::set<std::string> seen;
        for (const auto& v : axis) {
            require(seen.insert(name(v)).second,
                    std::string("campaign: duplicate ") + what + " '" + name(v) + "'");
        }
    };
    distinct(families, "family", [](graph_family f) { return std::string(to_string(f)); });
    distinct(sizes, "size", [](std::size_t n) { return std::to_string(n); });
    distinct(variants, "variant", [](algo_kind k) { return std::string(to_string(k)); });
    distinct(dynamics, "dynamics name", [](const auto& d) { return d.first; });
    for (const auto& [name, d] : dynamics) {
        require(!name.empty(), "campaign: dynamics axis entries need names");
        require(name.find('/') == std::string::npos,
                "campaign: dynamics name must not contain '/' (it keys records)");
        d.validate();
    }
}

std::optional<algo_kind> variant_from_string(std::string_view name) {
    for (const algo_kind k :
         {algo_kind::flood_max, algo_kind::gilbert, algo_kind::irrevocable,
          algo_kind::revocable, algo_kind::cautious_broadcast}) {
        if (name == to_string(k)) return k;
    }
    if (name == "flood") return algo_kind::flood_max;
    if (name == "cautious") return algo_kind::cautious_broadcast;
    return std::nullopt;
}

algo_config campaign_default_config(algo_kind k, std::size_t n, std::size_t edges) {
    switch (k) {
        case algo_kind::flood_max: return flood_cfg{};
        case algo_kind::gilbert: return gilbert_cfg{};
        case algo_kind::irrevocable: return irrevocable_cfg{};
        case algo_kind::revocable: {
            revocable_cfg rc;
            // Campaigns sweep cells the dedicated revocable bench never
            // attempts (n >= 64, low-Φ zoo families), so the policy is
            // scaled harder than bench_revocable's (0.02, 0.12) and blind
            // on purpose: informed mode's r(k) carries a 1/i(G)² factor
            // that is astronomical on barbell/dumbbell/caveman, while
            // blind r(k) depends on k alone.
            rc.params = revocable_params::scaled(std::nullopt, 0.008, 0.05);
            rc.auto_isoperimetric = false;
            // Certification needs k ≳ √n; past k = 16 each estimate level
            // costs ~64x the previous one, so the ladder is capped there
            // and cells with n ≫ 256 report failure instead of stalling.
            rc.params.k_cap = 16;
            // Hard per-unit budget. Diffusion exchanges ~2m messages per
            // round, so bounding rounds·m bounds a hopeless cell's actual
            // work; the estimate is dense (n²/8) when the true edge count
            // is unknown.
            const std::size_t m = edges > 0 ? edges : std::max<std::size_t>(
                                                          n * n / 8, std::size_t{1});
            rc.max_rounds = std::clamp<std::uint64_t>(400'000'000 / m, 20'000,
                                                      2'000'000);
            return rc;
        }
        case algo_kind::cautious_broadcast: {
            cautious_cfg cc;
            cc.cap_x = 1.0;
            return cc;
        }
    }
    throw error("campaign_default_config: unknown variant");
}

campaign_spec campaign_spec_from_json(const std::string& text) {
    const json_value v = json_parse(text);
    campaign_spec spec;
    for (const auto& [key, val] : v.as_object()) {
        if (key == "families") {
            for (const auto& f : val.as_array()) {
                const auto fam = family_from_string(f.as_string());
                require(fam.has_value(),
                        "campaign spec: unknown family '" + f.as_string() + "'");
                spec.families.push_back(*fam);
            }
        } else if (key == "sizes") {
            for (const auto& s : val.as_array()) {
                spec.sizes.push_back(static_cast<std::size_t>(s.as_uint()));
            }
        } else if (key == "variants") {
            for (const auto& a : val.as_array()) {
                const auto kind = variant_from_string(a.as_string());
                require(kind.has_value(),
                        "campaign spec: unknown variant '" + a.as_string() + "'");
                spec.variants.push_back(*kind);
            }
        } else if (key == "seeds") {
            spec.seeds = static_cast<std::size_t>(val.as_uint());
        } else if (key == "base_seed") {
            spec.base_seed = val.as_uint();
        } else if (key == "topology_seed") {
            spec.topology_seed = val.as_uint();
        } else if (key == "dynamics") {
            for (const auto& d : val.as_array()) {
                if (d.is_string()) {
                    const auto preset = dynamics_preset(d.as_string());
                    require(preset.has_value(), "campaign spec: unknown dynamics "
                                                "preset '" + d.as_string() + "'");
                    spec.dynamics.emplace_back(d.as_string(), *preset);
                } else {
                    spec.dynamics.push_back(dynamics_from_json(d));
                }
            }
        } else if (key == "output") {
            spec.output = val.as_string();
        } else {
            throw error("campaign spec: unknown key '" + key + "'");
        }
    }
    spec.validate();
    return spec;
}

// --- expansion --------------------------------------------------------------

std::string campaign_unit::key() const {
    std::string k = std::string(to_string(family)) + "/" + std::to_string(n) + "/t" +
                    std::to_string(topology_seed) + "/" + to_string(variant) + "/" +
                    std::to_string(seed);
    if (!dynamics_name.empty()) k += "/" + dynamics_name;
    return k;
}

std::vector<campaign_unit> expand(const campaign_spec& spec) {
    spec.validate();
    // No dynamics axis = one static pass with the historical (suffix-free)
    // unit keys.
    std::vector<std::pair<std::string, dynamics_spec>> dyn = spec.dynamics;
    if (dyn.empty()) dyn.emplace_back("", dynamics_spec{});
    std::vector<campaign_unit> units;
    units.reserve(spec.families.size() * spec.sizes.size() * spec.variants.size() *
                  dyn.size() * spec.seeds);
    for (const graph_family f : spec.families) {
        for (const std::size_t n : spec.sizes) {
            for (const algo_kind v : spec.variants) {
                for (const auto& [dname, dspec] : dyn) {
                    for (std::size_t r = 0; r < spec.seeds; ++r) {
                        units.push_back({f, n, spec.topology_seed, v,
                                         spec.base_seed + r, dname, dspec});
                    }
                }
            }
        }
    }
    return units;
}

// --- records ----------------------------------------------------------------

std::string campaign_record::to_json() const {
    std::ostringstream os;
    os << "{\"key\":\"" << json_escape(unit.key()) << "\""
       << ",\"family\":\"" << to_string(unit.family) << "\""
       << ",\"n\":" << unit.n << ",\"topology_seed\":" << unit.topology_seed
       << ",\"variant\":\"" << to_string(unit.variant) << "\"";
    // Written only on dynamics-axis campaigns; static-only records keep
    // the historical schema byte-for-byte.
    if (!unit.dynamics_name.empty()) {
        os << ",\"dynamics\":\"" << json_escape(unit.dynamics_name) << "\"";
    }
    os << ",\"seed\":" << unit.seed << ",\"nodes\":" << nodes
       << ",\"edges\":" << edges << ",\"phi\":" << phi << ",\"tmix\":" << tmix
       << ",\"ok\":" << (ok ? "true" : "false")
       << ",\"success\":" << (success ? "true" : "false")
       << ",\"leaders\":" << leaders << ",\"rounds\":" << rounds
       << ",\"messages\":" << messages << ",\"bits\":" << bits
       << ",\"congest_rounds\":" << congest_rounds
       << ",\"oracle_ok\":" << (oracle_ok ? "true" : "false");
    if (!oracle_ok) os << ",\"oracle\":\"" << json_escape(oracle_summary) << "\"";
    os << ",\"error\":\"" << json_escape(error) << "\"}";
    return os.str();
}

campaign_record campaign_record::from_json(std::string_view line) {
    const json_value v = json_parse(line);
    campaign_record rec;
    const auto fam = family_from_string(v.at("family").as_string());
    require(fam.has_value(), "campaign record: unknown family");
    const auto var = variant_from_string(v.at("variant").as_string());
    require(var.has_value(), "campaign record: unknown variant");
    rec.unit.family = *fam;
    rec.unit.n = static_cast<std::size_t>(v.at("n").as_uint());
    rec.unit.topology_seed = v.at("topology_seed").as_uint();
    rec.unit.variant = *var;
    // Tolerated missing: pre-dynamics records and static-only campaigns.
    if (v.contains("dynamics")) rec.unit.dynamics_name = v.at("dynamics").as_string();
    rec.unit.seed = v.at("seed").as_uint();
    rec.nodes = static_cast<std::size_t>(v.at("nodes").as_uint());
    rec.edges = static_cast<std::size_t>(v.at("edges").as_uint());
    rec.phi = v.at("phi").as_number();
    rec.tmix = v.at("tmix").as_uint();
    rec.ok = v.at("ok").as_bool();
    rec.success = v.at("success").as_bool();
    rec.leaders = static_cast<std::size_t>(v.at("leaders").as_uint());
    rec.rounds = v.at("rounds").as_uint();
    rec.messages = v.at("messages").as_uint();
    rec.bits = v.at("bits").as_uint();
    rec.congest_rounds = v.at("congest_rounds").as_uint();
    // Tolerated missing: ledgers written before the oracle layer existed.
    if (v.contains("oracle_ok")) rec.oracle_ok = v.at("oracle_ok").as_bool();
    if (v.contains("oracle")) rec.oracle_summary = v.at("oracle").as_string();
    rec.error = v.at("error").as_string();
    return rec;
}

// --- aggregation ------------------------------------------------------------

std::vector<campaign_cell> campaign_cells(const std::vector<campaign_record>& records) {
    std::vector<campaign_cell> cells;
    std::map<std::string, std::size_t> at;
    for (const campaign_record& r : records) {
        std::string k = std::string(to_string(r.unit.family)) + "/" +
                        std::to_string(r.unit.n) + "/" + to_string(r.unit.variant);
        if (!r.unit.dynamics_name.empty()) k += "@" + r.unit.dynamics_name;
        const auto [it, inserted] = at.try_emplace(std::move(k), cells.size());
        if (inserted) cells.emplace_back().head = &r;
        campaign_cell& c = cells[it->second];
        ++c.runs;
        if (!r.ok) continue;
        ++c.ok;
        if (r.leaders == 1) ++c.elected;
        if (r.oracle_ok) ++c.safe;
        c.messages.add(static_cast<double>(r.messages));
        c.rounds.add(static_cast<double>(r.rounds));
    }
    return cells;
}

text_table campaign_table(const std::vector<campaign_record>& records) {
    text_table t({"family", "n", "variant", "runs", "ok", "elected", "safe", "phi",
                  "tmix", "messages", "rounds"});
    const auto mean = [](const sample_stats& s) {
        return s.empty() ? "-" : fmt_count(static_cast<std::uint64_t>(s.mean()));
    };
    for (const campaign_cell& c : campaign_cells(records)) {
        const campaign_record& head = *c.head;
        // Dynamics-axis cells render as "variant@model" in the existing
        // column so the table schema never changes shape.
        std::string variant_cell = to_string(head.unit.variant);
        if (!head.unit.dynamics_name.empty()) {
            variant_cell += "@" + head.unit.dynamics_name;
        }
        t.add_row({to_string(head.unit.family), std::to_string(head.unit.n),
                   variant_cell, std::to_string(c.runs),
                   std::to_string(c.ok) + "/" + std::to_string(c.runs),
                   std::to_string(c.elected) + "/" + std::to_string(c.ok),
                   std::to_string(c.safe) + "/" + std::to_string(c.ok),
                   fmt_fixed(head.phi, 5), std::to_string(head.tmix), mean(c.messages),
                   mean(c.rounds)});
    }
    return t;
}

// --- execution --------------------------------------------------------------

std::vector<campaign_record> load_campaign_ledger(const std::string& path) {
    std::vector<campaign_record> records;
    if (path.empty()) return records;
    std::ifstream in(path);
    if (!in) return records;
    campaign_ledger_reader reader(path);
    std::string line;
    while (std::getline(in, line)) {
        if (auto rec = reader.record(line)) records.push_back(std::move(*rec));
    }
    return records;
}

campaign_record make_campaign_record(const campaign_unit& unit,
                                     const scenario_result& res) {
    campaign_record rec;
    rec.unit = unit;
    rec.nodes = res.profile.n;
    rec.edges = res.profile.m;
    rec.phi = res.profile.conductance;
    rec.tmix = res.profile.mixing_time;
    require(res.runs.size() == 1, "campaign: unit scenarios run one repetition");
    const run_record& run = res.runs.front();
    rec.ok = run.ok;
    rec.success = run.success();
    rec.leaders = run.num_leaders();
    rec.rounds = run.rounds();
    rec.messages = run.totals().messages;
    rec.bits = run.totals().bits;
    rec.congest_rounds = run.totals().congest_rounds;
    if (run.ok) {
        const oracle_report orc = run.oracle();
        rec.oracle_ok = orc.pass();
        if (!orc.pass()) rec.oracle_summary = orc.summary();
    }
    rec.error = run.error;
    return rec;
}

namespace {

// The scenarios of one topology group's units, one repetition each. Runs
// on the runner's pool as the group's preparation: the topology is
// materialized first (cached — the runner reuses the same instance) so
// per-variant budgets can read the actual edge count.
std::vector<scenario> group_scenarios(const std::vector<campaign_unit>& units,
                                      scenario_runner& runner) {
    const campaign_unit& head = units.front();
    const graph& topo =
        runner.materialize(family_spec{head.family, head.n, head.topology_seed});
    std::vector<scenario> batch;
    batch.reserve(units.size());
    for (const campaign_unit& u : units) {
        scenario s;
        s.label = u.key();
        s.topology = family_spec{u.family, u.n, u.topology_seed};
        s.algo = campaign_default_config(u.variant, u.n, topo.num_edges());
        s.seed = u.seed;
        s.repetitions = 1;
        s.dynamics = u.dynamics;
        batch.push_back(std::move(s));
    }
    return batch;
}

}  // namespace

std::vector<campaign_record> run_campaign_units(
    const std::vector<campaign_unit>& units, scenario_runner& runner) {
    std::vector<campaign_record> records;
    if (units.empty()) return records;
    for (const campaign_unit& u : units) {
        require(u.family == units.front().family && u.n == units.front().n &&
                    u.topology_seed == units.front().topology_seed,
                "run_campaign_units: units must share one topology group");
    }
    runner.run_stream(
        1, [&](std::size_t) { return group_scenarios(units, runner); },
        [&](std::size_t, std::vector<scenario_result> results) {
            records.reserve(units.size());
            for (std::size_t i = 0; i < units.size(); ++i) {
                records.push_back(make_campaign_record(units[i], results[i]));
            }
        });
    return records;
}

namespace {

// Records already present in the output file, keyed for resume. Torn or
// foreign lines are skipped — those units simply re-run.
std::map<std::string, campaign_record> load_completed(const std::string& path) {
    std::map<std::string, campaign_record> done;
    for (campaign_record& rec : load_campaign_ledger(path)) {
        std::string k = rec.unit.key();
        done.insert_or_assign(std::move(k), std::move(rec));
    }
    return done;
}

}  // namespace

campaign_report run_campaign(const campaign_spec& spec, scenario_runner& runner) {
    spec.validate();
    const std::vector<campaign_unit> units = expand(spec);
    const std::map<std::string, campaign_record> done = load_completed(spec.output);

    // Legacy headerless ledgers stay headerless, so older builds can
    // still append to them.
    std::ofstream out;
    if (!spec.output.empty()) {
        out = append_jsonl(spec.output, campaign_schema_header_line());
    }

    campaign_report report;
    std::map<std::string, campaign_record> fresh;

    // The pending units of every topology group that has any, in
    // expansion order.
    std::vector<std::vector<campaign_unit>> groups;
    const std::size_t group = campaign_group_size(spec);
    for (std::size_t base = 0; base < units.size(); base += group) {
        std::vector<campaign_unit> pending;
        for (std::size_t i = base; i < base + group; ++i) {
            if (done.count(units[i].key())) {
                ++report.skipped;
            } else {
                pending.push_back(units[i]);
            }
        }
        if (!pending.empty()) groups.push_back(std::move(pending));
    }

    // One batch per group: all variants and seeds of a (family, size)
    // share the generated graph and its profile through the runner
    // caches. Up to runner.jobs() groups overlap on the pool; each is
    // appended and flushed in expansion order before the next is
    // admitted, so the file holds the same bytes for any jobs value.
    runner.run_stream(
        groups.size(), [&](std::size_t g) { return group_scenarios(groups[g], runner); },
        [&](std::size_t g, std::vector<scenario_result> results) {
            for (std::size_t i = 0; i < results.size(); ++i) {
                campaign_record rec = make_campaign_record(groups[g][i], results[i]);
                ++report.executed;
                if (!rec.ok) ++report.failed;
                if (out.is_open()) out << rec.to_json() << "\n";
                std::string k = rec.unit.key();
                fresh.emplace(std::move(k), std::move(rec));
            }
            if (out.is_open()) {
                out.flush();
                require(out.good(), "campaign: write failed for " + spec.output);
            }
        });

    // Assemble every record — resumed + fresh — in expansion order.
    report.records.reserve(units.size());
    for (const campaign_unit& u : units) {
        const std::string k = u.key();
        if (auto it = fresh.find(k); it != fresh.end()) {
            report.records.push_back(it->second);
        } else if (auto it2 = done.find(k); it2 != done.end()) {
            report.records.push_back(it2->second);
        }
    }
    return report;
}

}  // namespace anole
