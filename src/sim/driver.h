// anole — the one election driver.
//
// Every protocol in Table 1 runs the same way: build an engine over the
// graph and attach the adversary, spawn one node per vertex, expose each
// node's status() to the engine (the adaptive adversary's census), run
// the protocol's schedule, then count the live leaders and hand the final
// state to the safety oracle (sim/oracle.h). run_protocol does those
// steps once. Each protocol supplies only what differs:
//
//   * `spawn(u)`        — the node factory (retained for membership churn);
//   * `drive(eng)`      — the round schedule, returning the oracle's
//                         options (its round cap, whether views are
//                         checked);
//   * `finish(eng, out)` — the protocol's extra result fields, and its
//                         success criterion when that is not "exactly one
//                         live leader".
//
// Node classes expose `node_status status() const`; result structs derive
// from run_outcome and add only their extra fields.
#pragma once

#include <cstdint>
#include <utility>

#include "graph/graph.h"
#include "sim/budget.h"
#include "sim/dynamics.h"
#include "sim/engine.h"
#include "sim/metrics.h"
#include "sim/oracle.h"

namespace anole {

// The fields every election driver reports.
struct run_outcome {
    bool success = false;          // default: exactly one live leader
    std::size_t num_leaders = 0;   // leader flags among live nodes
    std::uint64_t leader_id = 0;   // own ID of the (last) live leader
    node_id leader_node = 0;       // its vertex — harness knowledge only
    std::uint64_t rounds = 0;      // engine rounds executed
    phase_counters totals;
    oracle_report oracle;          // sim/oracle.h safety verdicts
};

template <class Node, class Result, class Spawn, class Drive, class Finish>
[[nodiscard]] Result run_protocol(const graph& g, std::uint64_t seed,
                                  congest_budget budget, const dynamics_spec& dynamics,
                                  Spawn&& spawn, Drive&& drive, Finish&& finish) {
    engine<Node> eng(g, seed, budget);
    if (dynamics.enabled()) eng.set_dynamics(dynamics, seed);
    eng.spawn(std::forward<Spawn>(spawn));
    const auto status = [&eng](std::size_t u) { return eng.node(u).status(); };
    eng.set_status_probe(status);

    const oracle_options checks = drive(eng);
    Result out;
    out.rounds = eng.round();
    out.totals = eng.metrics().total();
    for (std::size_t u = 0; u < eng.num_nodes(); ++u) {
        if (!eng.node_present(u) || eng.node_crashed(u)) continue;
        const node_status st = status(u);
        if (!st.leader) continue;
        ++out.num_leaders;
        out.leader_id = st.own_id;
        out.leader_node = static_cast<node_id>(u);
    }
    out.success = out.num_leaders == 1;
    finish(std::as_const(eng), out);
    out.oracle = run_oracle(eng, status, checks);
    return out;
}

}  // namespace anole
