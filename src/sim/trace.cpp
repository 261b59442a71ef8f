#include "sim/trace.h"

#include <charconv>
#include <utility>

#include "util/error.h"
#include "util/json.h"

namespace anole {

namespace {

constexpr std::pair<trace_kind, const char*> kind_names[] = {
    {trace_kind::rewire, "rewire"},
    {trace_kind::leave, "leave"},
    {trace_kind::join, "join"},
    {trace_kind::adaptive_crash, "acrash"},
    {trace_kind::adaptive_kill, "akill"},
    {trace_kind::cut_kill, "ckill"},
    {trace_kind::window_reset, "wreset"},
    {trace_kind::edge_down, "edown"},
    {trace_kind::churn_kill, "churn"},
    {trace_kind::loss_kill, "loss"},
    {trace_kind::crash, "crash"},
    {trace_kind::sleep, "sleep"},
};

}  // namespace

const char* to_string(trace_kind k) noexcept {
    for (const auto& [kind, name] : kind_names) {
        if (kind == k) return name;
    }
    return "?";
}

std::optional<trace_kind> trace_kind_from_string(std::string_view s) {
    for (const auto& [kind, name] : kind_names) {
        if (s == name) return kind;
    }
    return std::nullopt;
}

trace_log trace_log::load(const std::string& path) {
    std::ifstream in(path);
    require(in.good(), "trace: cannot open '" + path + "'");
    trace_log log;
    std::string line;
    std::size_t lineno = 0;
    bool have_header = false;
    const auto fail = [&](const std::string& what) -> void {
        throw error("trace: " + path + ":" + std::to_string(lineno) + ": " + what);
    };
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty()) continue;
        json_value v;
        try {
            v = json_parse(line);
        } catch (const error& e) {
            fail(std::string("malformed JSON (") + e.what() + ")");
        }
        if (!v.is_object()) fail("expected a JSON object");
        if (!have_header) {
            if (!v.contains("anole_trace")) fail("missing trace header");
            require(v.at("anole_trace").as_uint() == 1,
                    "trace: unsupported trace version");
            for (const char* key : {"n", "slots", "edges", "seed", "spec"}) {
                if (!v.contains(key)) {
                    fail(std::string("header missing required field '") + key + "'");
                }
            }
            log.n = static_cast<std::size_t>(v.at("n").as_uint());
            log.slots = static_cast<std::size_t>(v.at("slots").as_uint());
            log.edges = static_cast<std::size_t>(v.at("edges").as_uint());
            // The resolved schedule seed is a full 64-bit hash; JSON
            // numbers are doubles (53-bit mantissa), so it travels as a
            // plain decimal string, read whole or rejected.
            const json_value& sv = v.at("seed");
            if (sv.is_string()) {
                const std::string& text = sv.as_string();
                const char* end = text.data() + text.size();
                const auto [ptr, ec] = std::from_chars(text.data(), end, log.seed);
                if (ec != std::errc{} || ptr != end) {
                    fail("header seed '" + text + "' is not a plain decimal integer");
                }
            } else {
                log.seed = sv.as_uint();
            }
            if (!v.at("spec").is_object()) fail("header spec must be an object");
            log.spec = v.at("spec");
            have_header = true;
            continue;
        }
        trace_event ev;
        if (!v.contains("r") || !v.contains("e")) {
            fail("event needs 'r' (round) and 'e' (kind)");
        }
        ev.round = v.at("r").as_uint();
        const auto kind = trace_kind_from_string(v.at("e").as_string());
        if (!kind) fail("unknown event kind '" + v.at("e").as_string() + "'");
        ev.kind = *kind;
        if (v.contains("a")) ev.a = v.at("a").as_uint();
        if (v.contains("b")) ev.b = v.at("b").as_uint();
        if (!log.events.empty() && ev.round < log.events.back().round) {
            fail("events out of round order");
        }
        log.events.push_back(ev);
    }
    require(have_header, "trace: '" + path + "' has no header line");
    return log;
}

void trace_log::check_against(std::size_t graph_n, std::size_t graph_slots,
                              std::size_t graph_edges) const {
    require(n == graph_n, "trace: footprint mismatch — trace has " +
                              std::to_string(n) + " nodes, graph has " +
                              std::to_string(graph_n));
    require(slots == graph_slots, "trace: footprint mismatch — trace has " +
                                      std::to_string(slots) + " slots, graph has " +
                                      std::to_string(graph_slots));
    require(edges == graph_edges, "trace: footprint mismatch — trace has " +
                                      std::to_string(edges) + " edges, graph has " +
                                      std::to_string(graph_edges));
    for (std::size_t i = 0; i < events.size(); ++i) {
        const trace_event& ev = events[i];
        const auto id_fail = [&](const char* what, std::uint64_t limit) -> void {
            throw error("trace: event " + std::to_string(i + 1) + " (" +
                        to_string(ev.kind) + " " + std::to_string(ev.a) + " at round " +
                        std::to_string(ev.round) + "): " + what + " out of range [0, " +
                        std::to_string(limit) + ")");
        };
        switch (ev.kind) {
            case trace_kind::rewire:
            case trace_kind::leave:
            case trace_kind::join:
            case trace_kind::adaptive_crash:
            case trace_kind::crash:
            case trace_kind::sleep:
                if (ev.a >= n) id_fail("node id", n);
                break;
            case trace_kind::adaptive_kill:
            case trace_kind::cut_kill:
            case trace_kind::churn_kill:
            case trace_kind::loss_kill:
                if (ev.a >= slots) id_fail("slot id", slots);
                break;
            case trace_kind::edge_down:
                if (ev.a >= edges) id_fail("edge id", edges);
                break;
            case trace_kind::window_reset:
                break;
        }
    }
}

trace_writer::trace_writer(const std::string& path, std::size_t n, std::size_t slots,
                           std::size_t edges, std::uint64_t seed,
                           const std::string& spec_json) {
    out_.open(path, std::ios::trunc);
    require(out_.good(), "trace: cannot open '" + path + "' for writing");
    out_ << "{\"anole_trace\":1,\"n\":" << n << ",\"slots\":" << slots
         << ",\"edges\":" << edges << ",\"seed\":\"" << seed
         << "\",\"spec\":" << spec_json << "}\n";
}

void trace_writer::record(std::uint64_t round, trace_kind kind, std::uint64_t a,
                          std::uint64_t b) {
    out_ << "{\"r\":" << round << ",\"e\":\"" << to_string(kind) << "\"";
    if (a != 0 || kind != trace_kind::window_reset) out_ << ",\"a\":" << a;
    if (b != 0) out_ << ",\"b\":" << b;
    out_ << "}\n";
}

}  // namespace anole
