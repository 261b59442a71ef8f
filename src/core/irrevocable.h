// anole — Irrevocable Leader Election with known n (paper §4, Theorem 1).
//
// Algorithm 1 in four phases, all in the CONGEST model:
//
//   1. init (round 0) — every node draws ID uniform in {1..n⁴} and becomes
//      a candidate with probability (c·log n)/n.
//   2. broadcast — every candidate grows a territory with Cautious
//      broadcast (core/cautious_broadcast.h). The whp ≤ 4c·log n parallel
//      executions are time-multiplexed over *super-rounds* of 4c·log n
//      engine rounds: each node assigns the executions it is involved in
//      to slots in arrival order and steps one execution per engine round
//      (paper §4 "Candidate nodes span their territories"). Messages are
//      demultiplexed by the execution's source ID, so slot choices are
//      purely local.
//   3. walk — each candidate launches x lazy random walks (stay with
//      probability 1/2, else uniform neighbor) carrying its ID for
//      c·tmix·log n rounds. Walk tokens traversing a link in the same
//      round are merged into one ⟨ID_max, count⟩ message, and smaller IDs
//      are absorbed by larger ones on contact (Algorithm 5), keeping each
//      link at one O(log n)-bit message per round.
//   4. convergecast — every tree node repeatedly pushes the largest walk
//      ID it has seen toward each of its parents (one per territory it
//      belongs to); a candidate that never learns an ID above its own
//      raises the leader flag (Algorithm 5 convergecast + Algorithm 1
//      line 7).
//
// Documented deviation from the printed pseudocode: Algorithm 5 line 2
// initializes ID_max ← own ID at *every* node; taken literally the
// convergecast would return the maximum of all n random IDs and no
// candidate could ever win. The analysis (Theorem 1: "exactly one
// candidate with biggest ID is heard by all other candidates") requires
// that only candidate IDs circulate, so non-candidates start with
// ID_max = 0 here. Convergecast sends are also change-triggered rather
// than every-round — the Theorem 1 proof charges convergecast "not bigger
// than Cautious broadcast" messages, which every-round sending would
// violate (same reconciliation as Algorithm 4 line 24; see
// core/cautious_broadcast.h).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/cautious_broadcast.h"
#include "core/params.h"
#include "graph/graph.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "util/bit_codec.h"

namespace anole {

// Wire message: cautious-broadcast kinds (tagged with the execution's
// source ID), walk-token batches, and convergecast updates.
struct ir_msg {
    enum class kind : std::uint8_t {
        // 0..6 mirror cb_kind numerically (cast in both directions).
        cb_source = 0,
        cb_confirm = 1,
        cb_size = 2,
        cb_activate = 3,
        cb_deactivate = 4,
        cb_stop = 5,
        cb_refresh = 6,
        walk = 7,  // exec = ID_max carried, value = token count
        cc = 8,    // exec = ID_max
    };

    kind k = kind::cb_source;
    std::uint64_t exec = 0;
    std::uint64_t value = 0;

    [[nodiscard]] std::size_t bit_size() const noexcept {
        switch (k) {
            case kind::cb_confirm:
            case kind::cb_size:
            case kind::cb_refresh:
            case kind::walk:
                return 4 + gamma0_bits(exec) + gamma0_bits(value);
            default:
                return 4 + gamma0_bits(exec);
        }
    }
};

class irrevocable_node {
public:
    using message_type = ir_msg;

    irrevocable_node(std::size_t degree, const irrevocable_params& params)
        : degree_(degree),
          p_(&params),
          cfg_{.cap = params.territory_cap()} {}

    void on_round(node_ctx<ir_msg>& ctx, inbox_view<ir_msg> inbox);

    // --- quiet-round fast-forward hooks (sim/engine.h) ---
    // Nonzero only after a round that sent nothing: in the broadcast phase
    // it counts the rounds until the next slot whose execution is not
    // idle, in the convergecast phase (change-triggered sends) it runs to
    // the decide round; walks draw RNG, so the walk phase never skips.
    [[nodiscard]] std::uint64_t quiet_horizon() const noexcept;
    [[nodiscard]] bit_charge quiet_charge() const noexcept { return {}; }
    void fast_forward(std::uint64_t rounds) noexcept { next_ += rounds; }

    // --- observers ---
    [[nodiscard]] bool is_candidate() const noexcept { return candidate_; }
    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
    [[nodiscard]] bool is_leader() const noexcept { return leader_; }
    [[nodiscard]] const std::map<std::uint64_t, cb_exec>& executions() const noexcept {
        return execs_;
    }
    // Executions beyond the super-round slot capacity (whp zero; §4).
    [[nodiscard]] std::size_t slot_overflows() const noexcept { return overflows_; }
    [[nodiscard]] node_status status() const noexcept {
        node_status st;
        st.decided = decided_;
        st.leader = leader_;
        st.own_id = id_;
        return st;
    }

private:
    void init(node_ctx<ir_msg>& ctx);
    void broadcast_round(node_ctx<ir_msg>& ctx, inbox_view<ir_msg> inbox);
    void walk_round(node_ctx<ir_msg>& ctx, inbox_view<ir_msg> inbox);
    void convergecast_round(node_ctx<ir_msg>& ctx, inbox_view<ir_msg> inbox);
    void decide(node_ctx<ir_msg>& ctx);

    cb_exec& exec_for(std::uint64_t exec_id);
    void absorb_id(std::uint64_t id) noexcept {
        if (id > id_max_) id_max_ = id;
    }

    std::size_t degree_;
    const irrevocable_params* p_;
    cb_config cfg_;  // every execution's cautious-broadcast config

    std::uint64_t next_ = 0;  // the round of the next on_round
    bool quiet_ = false;      // the last round sent nothing
    bool inited_ = false;
    bool candidate_ = false;
    std::uint64_t id_ = 0;
    bool leader_ = false;
    bool decided_ = false;

    // Broadcast phase: executions keyed by source ID; slot order = arrival.
    std::map<std::uint64_t, cb_exec> execs_;
    std::vector<std::uint64_t> slots_;
    std::size_t overflows_ = 0;

    // Walk phase.
    std::uint64_t walk_count_ = 0;
    std::uint64_t id_max_ = 0;
    std::vector<std::uint64_t> out_scratch_;  // per-port token counts
    std::vector<port_id> touched_;            // ports with nonzero counts

    // Convergecast phase: distinct parent ports over all territories.
    bool cc_ready_ = false;
    std::vector<port_id> parent_ports_;
    std::uint64_t cc_last_sent_ = 0;  // change-triggered resend
};

// --- experiment driver -------------------------------------------------------

// Table 1 row B's CONGEST budget: strict 16·⌈log2 n⌉ bits per link and
// round (every protocol message fits; 16 is the O(log n) constant).
inline constexpr congest_budget irrevocable_budget = congest_budget::strict_log(16);

struct irrevocable_result : run_outcome {
    std::size_t num_candidates = 0;
    bool max_candidate_won = false;
    std::size_t slot_overflows = 0;
    phase_counters phase_broadcast;
    phase_counters phase_walk;
    phase_counters phase_convergecast;
    std::vector<std::uint64_t> territory_sizes;  // per candidate (tree size)
};

// Runs the full protocol on `g` with fresh per-node randomness derived
// from `seed`. The graph outlives the call.
[[nodiscard]] irrevocable_result run_irrevocable(
    const graph& g, const irrevocable_params& params, std::uint64_t seed,
    congest_budget budget = irrevocable_budget, const dynamics_spec& dynamics = {});

}  // namespace anole
