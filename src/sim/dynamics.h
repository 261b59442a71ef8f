// anole — dynamic / adversarial network layer.
//
// The paper analyses static anonymous networks; this layer stresses its
// protocols beyond that model. A `dynamics_spec` attached to a scenario
// composes per-round adversary events that the engine applies at each
// round boundary, before delivery:
//
//   * port re-wiring — the anonymity adversary. graph::with_permuted_ports
//     permutes every node's port labels exactly once, at construction;
//     here the adversary may relabel any subset of nodes *every round*,
//     in place, in O(changed degree): the engine's flat 2m-slot CSR
//     layout survives because a per-node relabeling is a permutation of
//     that node's own slot range — peer-table entries and in-flight
//     messages move together, so the `peer_slot_` involution stays exact
//     and delivery stays one table load. Physically nothing changes:
//     the same nodes exchange the same messages, only the port numbers
//     they observe are shuffled. A single firing before round 0 is
//     bitwise-equivalent to running on with_permuted_ports (both draw
//     per-node permutations via fill_port_permutation).
//
//   * edge churn — a T-interval-connectivity generator over any footprint
//     from the topology zoo. Time is cut into windows of `interval`
//     rounds; at each window start every non-backbone edge goes down
//     independently with probability `down_prob` and stays down for the
//     window. The backbone (a BFS spanning tree of the footprint) is
//     never churned when `protect_backbone` is set, so the intersection
//     of every window's live graph — indeed every single round's live
//     graph — contains a connected spanning subgraph: the classic
//     T-interval-connected adversary with T = interval. Messages on a
//     down edge are destroyed at delivery time.
//
//   * message loss — i.i.d. faults: every delivered message is destroyed
//     independently with probability `loss_prob`. Decisions are hashed
//     from (seed, round, slot), so they are identical for every
//     `--node-jobs` value and never touch the nodes' private RNG streams.
//
//   * node crash / sleep — per live node per round: a crashed node is
//     permanently silent (the engine treats it as halted, so runs always
//     terminate with a verdict); a sleeping node skips `sleep_rounds`
//     rounds and resumes — the stamp-based slot liveness already
//     tolerates absence, messages that arrive while asleep simply expire
//     unread (quiescent slots).
//
// Cost accounting: senders are charged at send time, so messages killed
// by loss or churn still count against the message/bit budget lines and
// against fragmenting congest_rounds — the network was paid, delivery
// failed. docs/DYNAMICS.md specifies the schedule schema and semantics.
//
// Everything here is deterministic in (spec.seed | run seed): the whole
// event schedule is a pure function of the seed, hashed per
// (round, entity) — never of thread interleaving. The engine applies all
// dynamics in a serial pre-round pass, so sharded rounds stay bitwise
// identical to serial ones.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "sim/trace.h"
#include "util/rng.h"

namespace anole {

// --- adaptive strategies -----------------------------------------------------

// The oblivious models above draw events independently of protocol
// state. An adaptive strategy instead observes a read-only per-round
// snapshot of the engine (halted/present flags plus per-node
// decided/leader status reported through the engine's status probe) and
// emits *targeted* events — the paper's adversary is adaptive, and these
// are the canonical attacks against each algorithm family:
//
//   * target_frontier_loss — kills messages whose sender is live but
//     undecided: the active frontier of the computation (max-id waves,
//     walk tokens, territory recruitment) is hit while settled traffic
//     passes. `strategy_intensity` is the per-message kill probability.
//   * leader_assassin — waits until a node raises its leader flag, gives
//     it `strategy_grace` observed rounds, then crashes it; at most
//     `strategy_max_kills` assassinations per run. The re-election bound
//     of revocable variants is measured under exactly this adversary.
//   * cut_churn — kills messages crossing a decision boundary: slots
//     whose two endpoints disagree on `decided` (territory frontiers,
//     tree cuts). `strategy_intensity` is the per-message kill
//     probability.
//
// Strategies run in the same serial pre-round pass as everything else
// and draw from the schedule seed, never from node RNG streams, so
// `--node-jobs` bitwise identity survives adaptivity.
enum class adaptive_kind : std::uint8_t {
    none,
    target_frontier_loss,
    leader_assassin,
    cut_churn,
};

[[nodiscard]] const char* to_string(adaptive_kind k) noexcept;
[[nodiscard]] std::optional<adaptive_kind> adaptive_from_string(std::string_view s);

// Per-node protocol status reported to the adaptive snapshot (and to the
// recovery oracles of sim/oracle.h) through the engine's status probe.
// Drivers install a probe translating their protocol's observers; the
// view fields are only meaningful for revocable-style algorithms.
struct node_status {
    bool decided = false;  // reached a final local verdict
    bool leader = false;   // currently holds the leader flag
    std::uint64_t own_id = 0;         // chosen ID (0 = none)
    std::uint64_t own_cert = 0;       // own certificate
    std::uint64_t view_id = 0;        // leader view: ID
    std::uint64_t view_cert = 0;      // leader view: certificate
};

// A membership change the engine must apply: respawn + mark present on
// join, mark absent on leave (the dynamics layer already released the
// slot range).
struct membership_event {
    node_id u = 0;
    bool join = false;
};

// --- declaration ------------------------------------------------------------

struct dynamics_spec {
    // Port re-wiring adversary: each live node's ports are relabeled this
    // round with probability `rewire_prob`; additionally, if
    // `rewire_period` > 0, *every* node is relabeled in rounds that are
    // multiples of the period (period 1 = the full every-round adversary;
    // a period beyond the run length fires at round 0 only, which is the
    // with_permuted_ports reduction).
    double rewire_prob = 0;
    std::uint64_t rewire_period = 0;

    // Edge churn: per window of `churn_interval` rounds, each non-backbone
    // edge is down with probability `edge_down_prob`. With
    // `protect_backbone`, a BFS spanning tree never churns (T-interval
    // connectivity, T = churn_interval); without it the live graph may
    // disconnect — algorithms must still reach a bounded verdict.
    double edge_down_prob = 0;
    std::uint64_t churn_interval = 1;
    bool protect_backbone = true;

    // Fault models.
    double loss_prob = 0;   // i.i.d. per delivered message
    double crash_prob = 0;  // per live node per round, permanent
    double sleep_prob = 0;  // per live node per round
    std::uint64_t sleep_rounds = 4;

    // Adaptive adversary (see adaptive_kind above). Intensity is the
    // per-target kill probability for the message-killing strategies;
    // grace / max_kills shape leader_assassin.
    adaptive_kind strategy = adaptive_kind::none;
    double strategy_intensity = 1.0;
    std::uint64_t strategy_grace = 1;
    std::uint64_t strategy_max_kills = 1;

    // Membership churn: per round, each live present node leaves with
    // `leave_prob` (its out-slot range is released — in-flight messages
    // from it die with it) and each absent node rejoins with `join_prob`
    // (re-attaching on its generator-sampled footprint edges with a
    // fresh protocol instance).
    double leave_prob = 0;
    double join_prob = 0;

    // Trace record / replay (sim/trace.h, docs/DYNAMICS.md). When
    // `trace_replay` names a trace file, the schedule is read from it —
    // the file's recorded spec and seed override every sampling knob
    // above — and applied byte-for-byte. When `trace_record` names a
    // path, the realized schedule (sampled or replayed) is streamed
    // there as it happens. (Brace-initialized like every other knob, so
    // the presets' designated initializers may leave them out.)
    std::string trace_record{};
    std::string trace_replay{};

    // Schedule seed; 0 = derived from the run seed, so repetitions see
    // independent schedules while staying reproducible.
    std::uint64_t seed = 0;

    [[nodiscard]] bool enabled() const noexcept {
        return rewire_prob > 0 || rewire_period > 0 || edge_down_prob > 0 ||
               loss_prob > 0 || crash_prob > 0 || sleep_prob > 0 ||
               strategy != adaptive_kind::none || leave_prob > 0 || join_prob > 0 ||
               !trace_record.empty() || !trace_replay.empty();
    }
    // "rewire(p=0.1)+churn(0.2/T=8)+loss(0.05)" — table/JSON label.
    [[nodiscard]] std::string summary() const;

    void validate() const;

    // Flat knob object, the exact inverse of dynamics_from_json — the
    // campaign spec/ledger round-trip and the trace header both use it.
    [[nodiscard]] std::string to_json() const;

    friend bool operator==(const dynamics_spec&, const dynamics_spec&) = default;
};

// Named presets for CLI axes (bench_dynamics, bench_campaign --dynamics);
// all_dynamics_presets() lists every name. nullopt for unknown.
[[nodiscard]] std::optional<dynamics_spec> dynamics_preset(std::string_view name);
[[nodiscard]] std::vector<std::pair<std::string, dynamics_spec>> all_dynamics_presets();

// --- realized-schedule statistics -------------------------------------------

// Tallied by the engine's pre-round pass; the chi-squared fault-model
// tests compare realized rates against the configured probabilities.
struct dynamics_stats {
    std::uint64_t rewired_nodes = 0;    // node relabelings applied
    std::uint64_t deliveries = 0;       // live messages inspected at delivery
    std::uint64_t lost_messages = 0;    // killed by i.i.d. loss
    std::uint64_t churned_messages = 0; // killed on a down edge
    std::uint64_t edge_down_rounds = 0; // Σ over rounds of down edges
    std::uint64_t crashes = 0;
    std::uint64_t crash_trials = 0;     // live-node crash draws
    std::uint64_t sleep_events = 0;
    std::uint64_t leaves = 0;           // membership departures
    std::uint64_t joins = 0;            // membership (re)attachments
    std::uint64_t released_messages = 0;  // in-flight messages a leaver took down
    std::uint64_t targeted_losses = 0;  // killed by target_frontier_loss
    std::uint64_t cut_losses = 0;       // killed by cut_churn
    std::uint64_t assassinations = 0;   // leaders crashed by leader_assassin
    // Order-fixed hash over every event the adversary emitted (rewired
    // node ids, down edge ids, killed slots, crashes, sleeps): two runs
    // with equal digests realized byte-identical schedules.
    std::uint64_t schedule_digest = 0;

    friend bool operator==(const dynamics_stats&, const dynamics_stats&) = default;
};

// --- slot tables -------------------------------------------------------------

// The engine's sender-major slots follow the graph's CSR indexing:
// slot(u, p) = g.offset(u) + p. peer_slots(g)[slot(u, p)] is the reverse
// directed edge's slot (an involution) — the engine's peer table, built
// here and nowhere else (throws past 2^32 directed edges).
// slot_owners(g)[s] is the node whose out-slot s is; rewires never change
// it, since a relabeling permutes a node's own slot range.
[[nodiscard]] std::vector<std::uint32_t> peer_slots(const graph& g);
[[nodiscard]] std::vector<node_id> slot_owners(const graph& g);

// Applies the port relabelings of `nodes` (sorted, unique) to the peer
// table in place — peer stays an involution and the induced multigraph
// {owner[s], owner[peer[s]]} is untouched — and appends to `moves` one
// (old slot, new slot) pair per slot whose position changed, so callers
// can relocate parallel payload arrays (in-flight messages, stamps, edge
// ids) with a gather/scatter. Per-node permutations are drawn via
// fill_port_permutation(seed, u), identical to with_permuted_ports(seed).
// O(Σ degree(u) · log |nodes|).
void apply_port_rewire(const graph& g, const std::vector<node_id>& owner,
                       std::vector<std::uint32_t>& peer,
                       const std::vector<node_id>& nodes, std::uint64_t seed,
                       std::vector<std::pair<std::uint32_t, std::uint32_t>>& moves);

// --- runtime state -----------------------------------------------------------

namespace detail {

// Hash-based Bernoulli: one draw per (seed, round, entity, tag) — stable
// under resharding and cheap enough for per-message use.
[[nodiscard]] inline bool hash_bernoulli(std::uint64_t seed, std::uint64_t round,
                                         std::uint64_t entity, std::uint64_t tag,
                                         double p) noexcept {
    if (p <= 0) return false;
    if (p >= 1) return true;
    const std::uint64_t h = derive_seed(seed ^ tag, round, entity);
    return static_cast<double>(h >> 11) * 0x1.0p-53 < p;
}

}  // namespace detail

// Per-engine adversary state: owns the schedule (windowed churn draws,
// sleep clocks), the auxiliary slot tables (owner, edge ids) and the
// realized-event statistics. It reads and rewires the engine's live peer
// table `peer` (peer_slots(g) before the first rewire) in place and keeps
// no copy of it, so every strategy sees the ports as they are now. The
// engine calls the plan_* / apply_* hooks serially at the top of every
// step(); the only per-node query from inside sharded rounds is asleep(),
// which is read-only.
class dynamics_state {
public:
    // `peer` must outlive this object.
    dynamics_state(const graph& g, std::vector<std::uint32_t>& peer,
                   const dynamics_spec& spec, std::uint64_t run_seed);

    [[nodiscard]] const dynamics_spec& spec() const noexcept { return spec_; }
    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

    // Master seed of round r's relabeling draws; with_permuted_ports of
    // this seed equals a full rewire firing in round r (the reduction the
    // port_rewire tests pin).
    [[nodiscard]] std::uint64_t rewire_seed(std::uint64_t round) const noexcept {
        return derive_seed(seed_, round, 0x5EBA11);
    }

    // True when an adaptive strategy needs per-node decided/leader status
    // this run (replayed schedules never re-observe — the recorded
    // events already encode what the adversary saw).
    [[nodiscard]] bool wants_status() const noexcept {
        return !replaying() && spec_.strategy != adaptive_kind::none;
    }
    [[nodiscard]] bool replaying() const noexcept { return replay_ != nullptr; }

    // What the engine hands every hook of one pre-round pass: the round,
    // its delivery mark, the live stamp array (slot kills write 0, which
    // never matches a mark) and the node flags. The flags are references,
    // so each phase sees the crashes and membership changes the engine
    // folded in after the phases before it.
    struct round_view {
        std::uint64_t round;
        std::uint32_t mark;
        std::vector<std::uint32_t>& stamp;
        const std::vector<char>& halted;
        const std::vector<char>& present;
    };

    // The phases, in the order the engine calls them and the trace
    // records their events. Each phase either samples its events or, under
    // replay, reads this round's recorded events of its kinds; both feed
    // every event through one member, so a replay applies exactly the code
    // that recorded it. Returned references are valid until the next call.
    //
    // (1) Port re-wiring: relabels the ports of the nodes the adversary
    // picks (live, present ones when sampling) in the peer table and
    // returns the payload moves the engine mirrors onto its in-flight
    // message and stamp arrays.
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& plan_rewire(
        const round_view& v);

    // (2) Membership churn: releases each leaver's out-slot range (its
    // in-flight messages die) and returns the leaves and joins the engine
    // applies to its live-node set and protocol instances.
    const std::vector<membership_event>& plan_membership(const round_view& v);

    // (3) Adaptive strategy: observes the per-node decided/leader flags
    // (refreshed from the engine's status probe; empty vectors = no probe
    // installed, flags read as false), kills targeted messages in place
    // and returns the nodes it crashes.
    const std::vector<node_id>& plan_adaptive(const round_view& v,
                                              const std::vector<char>& decided,
                                              const std::vector<char>& leader);

    // (4)+(5) Edge churn and message loss: redraws the churn window if it
    // expired, then kills every live slot whose edge is down or that
    // loses its i.i.d. draw.
    void apply_message_faults(const round_view& v);

    // (6) Node faults: crash/sleep draws for every live node; returns the
    // newly crashed nodes for the engine's halted set and keeps the sleep
    // clocks internally.
    const std::vector<node_id>& plan_node_faults(const round_view& v);

    // Read-only, called from sharded rounds: is u asleep in `round`?
    [[nodiscard]] bool asleep(node_id u, std::uint64_t round) const noexcept {
        return !sleep_until_.empty() && sleep_until_[u] > round;
    }

    [[nodiscard]] const dynamics_stats& stats() const noexcept { return stats_; }

private:
    void note(std::uint64_t event) noexcept {
        stats_.schedule_digest =
            splitmix64_next(stats_.schedule_digest += event * 0x9e3779b97f4a7c15ULL);
    }
    // Every realized event, sampled or replayed, goes through here: the
    // digest note, the trace record, the stats counter and the state
    // change.
    void realize(const round_view& v, trace_kind kind, std::uint64_t a,
                 std::uint64_t b = 0);
    // Realizes this round's recorded events of `kinds`, in file order, with
    // the checks only a trace needs. A no-op unless replaying.
    void replay(const round_view& v, std::initializer_list<trace_kind> kinds);
    void release_slot_range(node_id u, const round_view& v);

    const graph& g_;
    std::vector<std::uint32_t>& peer_;  // the engine's live peer table
    dynamics_spec spec_;
    std::uint64_t seed_;

    std::vector<node_id> owner_;  // slot_owners(g_)
    // Churn: undirected edge id per slot (maintained under rewires), the
    // backbone mask, and the current window's down set.
    std::vector<std::uint32_t> slot_edge_;
    std::vector<char> backbone_;
    std::vector<char> edge_down_;
    std::uint64_t window_ = ~std::uint64_t{0};  // last redrawn churn window
    std::size_t down_count_ = 0;

    std::vector<std::uint64_t> sleep_until_;

    // Adaptive-strategy state: round+1 when u was first observed holding
    // the leader flag (0 = not currently observed), and the assassin's
    // spent kill budget.
    std::vector<std::uint64_t> leader_seen_;
    std::uint64_t kills_ = 0;

    // Trace record / replay.
    std::unique_ptr<trace_writer> writer_;
    std::unique_ptr<trace_log> replay_;
    std::size_t cursor_ = 0;

    // Reused per-round scratch.
    std::vector<node_id> rewired_;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> moves_;
    std::vector<node_id> crashed_;
    std::vector<membership_event> membership_;
    std::vector<node_id> adaptive_crashed_;

    dynamics_stats stats_;
};

// --- parsing -----------------------------------------------------------------

// Spec-file form (campaign "dynamics" axis entries; docs/DYNAMICS.md):
// the to_json() object, keyed by member name, plus an optional "name",
// e.g. {"name": "lossy", "loss_prob": 0.05}. All keys optional except
// that the entry must either name a preset or set at least one knob. A
// bare {"name": "loss"} resolves the preset.
[[nodiscard]] std::pair<std::string, dynamics_spec> dynamics_from_json(
    const json_value& v);

}  // namespace anole
