// anole — dynamics trace record / replay.
//
// Every dynamics schedule — hash-sampled, membership churn, or adaptive
// (protocol-state-dependent) — can be recorded as a JSONL event trace
// and replayed byte-for-byte later. Recording turns any adversarial
// failure found in a campaign into a committed regression case: the
// replayed run applies exactly the recorded events (no resampling, no
// strategy probe needed) and is bitwise identical to the original for
// every `--node-jobs` value.
//
// File format (docs/DYNAMICS.md): one JSON object per line.
//
//   header   {"anole_trace":1,"n":16,"slots":32,"edges":16,
//             "seed":123,"spec":{...dynamics_spec knobs...}}
//   events   {"r":4,"e":"rewire","a":3}
//            {"r":5,"e":"crash","a":7}
//            {"r":6,"e":"sleep","a":2,"b":10}
//
// `r` is the round, `e` the event kind, `a` the entity (node, slot or
// edge id — kind-dependent), `b` an auxiliary value (sleep wake round).
// Events are round-major and, within a round, in the engine's fixed
// phase order (rewire -> membership -> adaptive -> message faults ->
// node faults). The header pins the footprint shape and the resolved
// schedule seed: port-rewire permutations are a pure function of
// (seed, round), so they are *not* recorded per port — replay rederives
// them, which keeps traces O(events), not O(events x degree).
//
// Loading validates structure eagerly (version, required header fields,
// known kinds, non-decreasing rounds, ids in range once checked against
// a footprint), so a hand-edited or mismatched trace is rejected with a
// clear anole::error instead of silently corrupting a replay. This
// layer knows nothing about dynamics_spec — the header spec travels as a
// parsed JSON object and sim/dynamics.cpp reads its knobs — so
// trace.{h,cpp} stays a leaf below the dynamics layer.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace anole {

enum class trace_kind : std::uint8_t {
    rewire,          // a: node whose ports were relabeled
    leave,           // a: node departing (its out-slot range is released)
    join,            // a: node (re)attaching with its footprint edges
    adaptive_crash,  // a: node crashed by leader_assassin
    adaptive_kill,   // a: slot killed by target_frontier_loss
    cut_kill,        // a: slot killed by cut_churn
    window_reset,    // churn window redraw boundary (no entity)
    edge_down,       // a: undirected edge down for the new window
    churn_kill,      // a: slot killed on a down edge
    loss_kill,       // a: slot killed by i.i.d. loss
    crash,           // a: node crashed by the i.i.d. model
    sleep,           // a: node, b: first round it is awake again
};

[[nodiscard]] const char* to_string(trace_kind k) noexcept;
[[nodiscard]] std::optional<trace_kind> trace_kind_from_string(std::string_view s);

struct trace_event {
    std::uint64_t round = 0;
    trace_kind kind = trace_kind::rewire;
    std::uint64_t a = 0;
    std::uint64_t b = 0;

    friend bool operator==(const trace_event&, const trace_event&) = default;
};

// A parsed trace file: the recorded footprint shape, the resolved
// schedule seed, the recorded spec knobs (a JSON object the dynamics
// layer reads), and the flat event list.
struct trace_log {
    std::size_t n = 0;       // nodes in the footprint
    std::size_t slots = 0;   // 2m directed-edge slots
    std::size_t edges = 0;   // undirected footprint edges
    std::uint64_t seed = 0;  // resolved dynamics schedule seed
    json_value spec;         // recorded dynamics_spec knobs
    std::vector<trace_event> events;

    // Parses and structurally validates `path`. Throws anole::error with
    // the offending line number on any malformed or out-of-order input.
    [[nodiscard]] static trace_log load(const std::string& path);

    // Validates entity ids and footprint shape against the graph the
    // replay will run on. Throws anole::error on any mismatch.
    void check_against(std::size_t graph_n, std::size_t graph_slots,
                       std::size_t graph_edges) const;
};

// Streams events to a JSONL trace file as the schedule is realized. The
// file is flushed and closed on destruction (engine teardown), so the
// trace is complete as soon as the driver returns.
class trace_writer {
public:
    trace_writer(const std::string& path, std::size_t n, std::size_t slots,
                 std::size_t edges, std::uint64_t seed, const std::string& spec_json);

    void record(std::uint64_t round, trace_kind kind, std::uint64_t a = 0,
                std::uint64_t b = 0);

private:
    std::ofstream out_;
};

}  // namespace anole
