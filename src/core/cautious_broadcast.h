// anole — Cautious broadcast (paper §4, Algorithms 2–4).
//
// The paper's novel technique #1: a source ("candidate") grows a spanning
// tree over a bounded *territory*, throttled so that "only nodes in less
// populated branches are given permit to extend the tree". Mechanisms:
//
//   * adoption — an active tree node extends by sending the source ID
//     through a uniformly random unused port; the receiver (if not yet in
//     a tree for this execution) adopts the sender as parent and replies
//     with a confirmation (its initial subtree size, 1).
//   * doubling-threshold reports — each node tracks its confirmed subtree
//     size (1 + Σ last confirmed sizes of children). When the count first
//     exceeds a power of two it reports the count to its parent, turns
//     passive, and deactivates its children: the populated branch pauses.
//     Count changes *between* crossings flow upward as lightweight
//     `refresh` reports (one per change, no passivation): without them,
//     degree-2 chains deadlock with every count stuck at 4 — a node's
//     count is 1 + its child's last report, and crossing values (2,3,5,9,
//     …) can then never exceed 3. Refreshes cost ≤ depth messages per
//     adoption, which stays within Lemma 1's Õ(x·tmix) envelope: on
//     bushy (well-connected) trees depth is logarithmic, and on chain-like
//     graphs Φ is small so the cap x·tmix·Φ, and hence the territory, is
//     tiny relative to the budget.
//   * legitimacy confirmation — a parent that absorbs a child's report
//     without crossing its own threshold re-activates that child
//     (re-activation waves cascade down); a parent that does cross
//     reports upward in turn. Small branches thus resume quickly while
//     large ones stall until an ancestor vouches for their growth. The
//     root self-confirms (it owns the global budget).
//   * global cap — when any node's confirmed count reaches the cap
//     x·tmix·Φ it floods ⟨stop⟩ through the tree and the execution
//     freezes (Algorithm 4 line 2).
//
// Pseudocode reconciliation (documented deviation): Algorithm 4 line 24
// as printed sends the subtree size to the parent *every round*, which
// would cost Ω(T·tmix) messages per territory and contradict Lemma 1's
// Õ(x·tmix) bound; the prose spec in §4 (and Lemma 1's proof, which
// charges "a constant number of uses of a link per each change of the
// thresholds at its end nodes") reports only on threshold crossings. We
// implement the prose by default and keep the literal printed behavior
// available as cb_config::report_every_round for the E11 ablation, which
// measures exactly this message blow-up. cb_config::naive gives the
// naive uncautious flood for the same experiment.
//
// The class below is one *execution's* per-node state machine, engine
// agnostic: the caller buffers received messages into it and invokes
// step() once per logical round with a send callback. It is used (a)
// embedded in the Irrevocable LE protocol, which multiplexes many
// executions over super-rounds (core/irrevocable.h), and (b) standalone
// via `cautious_broadcast_node` for the Lemma 1 experiments (E7/E11).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "util/bit_codec.h"
#include "util/error.h"
#include "util/rng.h"

namespace anole {

enum class cb_kind : std::uint8_t {
    source = 0,      // carries the broadcast/source ID; invites adoption
    confirm = 1,     // adoption ack: initial subtree report of 1
    size = 2,        // threshold report: confirmed subtree count
    activate = 3,    // legitimacy confirmation / re-activation wave
    deactivate = 4,  // pause wave for populated branches
    stop = 5,        // territory cap reached: freeze the execution
    refresh = 6,     // non-crossing count update (no vouch implied)
};

enum class cb_status : std::uint8_t { active, passive, stopped };

struct cb_config {
    std::uint64_t cap = UINT64_MAX;  // x·tmix·Φ territory cap
    bool report_every_round = false; // literal Algorithm 4 line 24 (E11)
    // Naive uncautious flood (E11): no doubling-threshold machinery, and
    // extensions go out on every unused port instead of one random port.
    bool naive = false;
};

class cb_exec {
public:
    // Non-source node, not yet in any tree for this execution.
    explicit cb_exec(std::size_t degree) : degree_(degree) {}

    // Source (candidate) node: root of the tree, active from the start.
    [[nodiscard]] static cb_exec make_root(std::size_t degree, std::uint64_t source_id) {
        cb_exec e(degree);
        e.is_root_ = true;
        e.in_tree_ = true;
        e.source_id_ = source_id;
        e.status_ = cb_status::active;
        return e;
    }

    // Buffers a received message for the next step(). `value` is the
    // source ID for cb_kind::source and the count for confirm/size.
    void receive(port_id p, cb_kind kind, std::uint64_t value) {
        pending_.emplace_back(p, kind, value);
    }

    // One logical round: processes buffered receptions, then transmits.
    // send(port, kind, value); the state machine never emits two messages
    // to the same port within one step.
    template <class Send>
    void step(const cb_config& cfg, xoshiro256ss& rng, Send&& send) {
        process_receptions(cfg);
        transmit(cfg, rng, std::forward<Send>(send));
    }

    // True when a step() with no new receptions would send nothing, draw
    // no RNG and change no state (the engine's quiet-round fast-forward
    // relies on it). random_avail_port is the only RNG draw and it draws
    // only when it returns a port, so a draw always comes with a send.
    [[nodiscard]] bool idle(const cb_config& cfg) const noexcept;

    // --- observers (harness/tests) ---
    [[nodiscard]] bool in_tree() const noexcept { return in_tree_; }
    [[nodiscard]] bool is_root() const noexcept { return is_root_; }
    [[nodiscard]] cb_status status() const noexcept { return status_; }
    [[nodiscard]] std::uint64_t source_id() const noexcept { return source_id_; }
    [[nodiscard]] std::optional<port_id> parent() const noexcept { return parent_; }
    [[nodiscard]] std::uint64_t confirmed() const noexcept { return confirmed_; }
    [[nodiscard]] std::uint64_t report_threshold() const noexcept { return report_next_; }
    [[nodiscard]] const std::vector<port_id>& children() const noexcept {
        return children_;
    }

private:
    void process_receptions(const cb_config& cfg);

    template <class Send>
    void transmit(const cb_config& cfg, xoshiro256ss& rng, Send&& send);

    void mark_used(port_id p) {
        auto it = std::lower_bound(used_.begin(), used_.end(), p);
        if (it == used_.end() || *it != p) used_.insert(it, p);
    }
    [[nodiscard]] std::size_t child_index(port_id p) const {
        for (std::size_t i = 0; i < children_.size(); ++i) {
            if (children_[i] == p) return i;
        }
        return children_.size();
    }
    void upsert_child(port_id p, std::uint64_t sz, bool reporter);
    void recompute_confirmed() {
        std::uint64_t c = 1;
        for (std::uint64_t s : child_size_) c += s;
        confirmed_ = c;
    }
    // Smallest power of two >= v ("exceeds 2^i": the next report fires
    // only when confirmed_ becomes strictly greater than this).
    [[nodiscard]] static std::uint64_t pow2_at_least(std::uint64_t v) {
        std::uint64_t t = 1;
        while (t < v) t <<= 1;
        return t;
    }
    [[nodiscard]] std::optional<port_id> random_avail_port(xoshiro256ss& rng);
    [[nodiscard]] bool stop_came_from(port_id p) const {
        return std::find(stop_from_.begin(), stop_from_.end(), p) != stop_from_.end();
    }

    std::size_t degree_ = 0;
    bool is_root_ = false;
    bool in_tree_ = false;
    bool adopted_this_round_ = false;
    bool got_activate_ = false;
    bool got_deactivate_ = false;
    bool got_child_update_ = false;  // a confirm/size/refresh arrived
    cb_status status_ = cb_status::passive;
    std::uint64_t source_id_ = 0;
    std::optional<port_id> parent_;
    std::uint64_t confirmed_ = 1;
    std::uint64_t report_next_ = 1;
    std::uint64_t last_reported_ = 0;  // last count sent to the parent
    bool stop_told_ = false;

    std::vector<port_id> children_;
    std::vector<std::uint64_t> child_size_;
    std::vector<char> child_passive_;   // what we believe / last told them
    std::vector<char> child_stop_told_; // late joiners still need the stop
    std::vector<port_id> used_;         // sorted; ports sent to or received from
    std::vector<port_id> reporters_;    // children that reported this round
    std::vector<port_id> stop_from_;    // ports a stop arrived on (no echo)
    struct pending_msg {
        port_id port;
        cb_kind kind;
        std::uint64_t value;
        pending_msg(port_id p, cb_kind k, std::uint64_t v)
            : port(p), kind(k), value(v) {}
    };
    std::vector<pending_msg> pending_;
};

// ---------------------------------------------------------------------------

// Wire message for the standalone protocol (one execution network-wide).
struct cb_msg {
    cb_kind kind = cb_kind::source;
    std::uint64_t value = 0;

    [[nodiscard]] std::size_t bit_size() const noexcept {
        // 3-bit kind tag + payload where meaningful.
        switch (kind) {
            case cb_kind::source:
            case cb_kind::confirm:
            case cb_kind::size:
            case cb_kind::refresh:
                return 3 + gamma0_bits(value);
            default:
                return 3;
        }
    }
};

// Standalone single-execution cautious broadcast as an engine protocol:
// the experiment constructs exactly one node as the source. Runs a fixed
// number of logical rounds then halts. (The Irrevocable LE protocol embeds
// cb_exec directly and multiplexes many executions instead.)
class cautious_broadcast_node {
public:
    using message_type = cb_msg;

    cautious_broadcast_node(std::size_t degree, bool is_source, std::uint64_t source_id,
                            cb_config cfg, std::uint64_t logical_rounds)
        : exec_(is_source ? cb_exec::make_root(degree, source_id) : cb_exec(degree)),
          cfg_(cfg),
          rounds_(logical_rounds) {}

    void on_round(node_ctx<cb_msg>& ctx, inbox_view<cb_msg> inbox) {
        next_ = ctx.round() + 1;
        quiet_ = false;
        for (const auto& [port, msg] : inbox) exec_.receive(port, msg.kind, msg.value);
        if (ctx.round() >= rounds_) {
            ctx.halt();
            return;
        }
        exec_.step(cfg_, ctx.rng(), [&ctx](port_id p, cb_kind k, std::uint64_t v) {
            ctx.send(p, cb_msg{k, v});
        });
        quiet_ = ctx.sent() == 0;
    }

    // --- quiet-round fast-forward hooks (sim/engine.h) ---
    // After a silent round an idle exec stays idle until the halt round.
    [[nodiscard]] std::uint64_t quiet_horizon() const noexcept {
        if (!quiet_ || next_ >= rounds_ || !exec_.idle(cfg_)) return 0;
        return rounds_ - next_;
    }
    [[nodiscard]] bit_charge quiet_charge() const noexcept { return {}; }
    void fast_forward(std::uint64_t rounds) noexcept { next_ += rounds; }

    [[nodiscard]] const cb_exec& exec() const noexcept { return exec_; }
    // Broadcast elects nobody: `leader` stays false.
    [[nodiscard]] node_status status() const noexcept {
        node_status st;
        st.decided = exec_.in_tree();
        return st;
    }

private:
    cb_exec exec_;
    cb_config cfg_;
    std::uint64_t rounds_;
    std::uint64_t next_ = 0;  // the round of the next on_round
    bool quiet_ = false;      // the last round sent nothing
};

// --- experiment driver -------------------------------------------------------

// The Lemma 1 harness's CONGEST budget: strict 16·⌈log2 n⌉ bits per link
// and round.
inline constexpr congest_budget cautious_budget = congest_budget::strict_log(16);

// `success` means the source recruited at least one other node (the
// source is in its own tree by construction, so territory >= 1 always).
struct cb_result : run_outcome {
    std::size_t territory = 0;  // live nodes in the source's tree
};

// Node 0 is the source (ID 4242); everything else starts passive.
// Runs `rounds` logical rounds, then every node halts.
[[nodiscard]] cb_result run_cautious(const graph& g, const cb_config& cfg,
                                     std::uint64_t rounds, std::uint64_t seed,
                                     congest_budget budget = cautious_budget,
                                     const dynamics_spec& dynamics = {});

// --- template implementation -----------------------------------------------

template <class Send>
void cb_exec::transmit(const cb_config& cfg, xoshiro256ss& rng, Send&& send) {
    if (!in_tree_) return;

    if (status_ == cb_status::stopped) {
        // Freeze: propagate stop to all tree neighbors (no echo). Children
        // that joined after the first wave (in-flight adoptions) are told
        // as soon as their confirm arrives — hence per-child flags rather
        // than a single latch.
        if (!stop_told_) {
            stop_told_ = true;
            if (!is_root_ && parent_ && !stop_came_from(*parent_)) {
                send(*parent_, cb_kind::stop, 0);
            }
        }
        for (std::size_t i = 0; i < children_.size(); ++i) {
            if (!child_stop_told_[i] && !stop_came_from(children_[i])) {
                child_stop_told_[i] = 1;
                send(children_[i], cb_kind::stop, 0);
            } else {
                child_stop_told_[i] = 1;
            }
        }
        reporters_.clear();
        got_activate_ = got_deactivate_ = got_child_update_ = false;
        return;
    }

    // Adoption ack (first round in the tree).
    const bool just_adopted = adopted_this_round_;
    if (just_adopted) {
        adopted_this_round_ = false;
        last_reported_ = 1;
        send(*parent_, cb_kind::confirm, 1);
    }

    recompute_confirmed();
    const bool child_update = got_child_update_;
    got_child_update_ = false;

    // Global cap: freeze the execution (Algorithm 4 line 2). Deferred one
    // step after adoption so the ack is the only parent-port message of
    // the round (in the real protocol a fresh node's count is 1 anyway —
    // children cannot have confirmed to it yet).
    if (!just_adopted && confirmed_ >= cfg.cap) {
        status_ = cb_status::stopped;
        stop_told_ = true;
        for (std::size_t i = 0; i < children_.size(); ++i) {
            child_stop_told_[i] = 1;
            send(children_[i], cb_kind::stop, 0);
        }
        if (!is_root_ && parent_) send(*parent_, cb_kind::stop, 0);
        reporters_.clear();
        got_activate_ = got_deactivate_ = false;
        return;
    }

    // Literal printed-pseudocode mode (E11): size to parent every round.
    if (cfg.report_every_round && !is_root_ && !just_adopted) {
        send(*parent_, cb_kind::size, confirmed_);
    }

    bool crossed = false;
    // A just-adopted node defers threshold handling one step so the
    // adoption ack is the only message on the parent port this round.
    if (!cfg.naive && !just_adopted && confirmed_ > report_next_) {
        crossed = true;
        report_next_ = pow2_at_least(confirmed_);
        // A fresh cross supersedes any wave received this round: we must
        // await (or, as root, grant) a new confirmation.
        got_activate_ = got_deactivate_ = false;
        if (!is_root_) {
            if (!cfg.report_every_round) {
                last_reported_ = confirmed_;
                send(*parent_, cb_kind::size, confirmed_);
            }
            status_ = cb_status::passive;
            for (std::size_t i = 0; i < children_.size(); ++i) {
                if (!child_passive_[i]) {
                    child_passive_[i] = 1;
                    send(children_[i], cb_kind::deactivate, 0);
                }
            }
        } else {
            for (port_id p : reporters_) {
                const std::size_t i = child_index(p);
                if (i < children_.size() && child_passive_[i]) {
                    child_passive_[i] = 0;
                    send(p, cb_kind::activate, 0);
                }
            }
        }
    } else if (!cfg.naive && !cfg.report_every_round && !is_root_ &&
               !just_adopted && child_update && confirmed_ != last_reported_) {
        // Non-crossing count change: refresh the parent's view without
        // the passivation protocol (see the header note on chain graphs).
        last_reported_ = confirmed_;
        send(*parent_, cb_kind::refresh, confirmed_);
    }

    if (!crossed && status_ == cb_status::active) {
        // Absorbed reports without crossing: vouch for the reporters.
        for (port_id p : reporters_) {
            const std::size_t i = child_index(p);
            if (i < children_.size() && child_passive_[i]) {
                child_passive_[i] = 0;
                send(p, cb_kind::activate, 0);
            }
        }
    }
    reporters_.clear();

    // Wave cascades (mutually exclusive: a parent sends one message per
    // logical round, and a cross cleared both flags above).
    if (got_activate_) {
        got_activate_ = false;
        for (std::size_t i = 0; i < children_.size(); ++i) {
            if (child_passive_[i]) {
                child_passive_[i] = 0;
                send(children_[i], cb_kind::activate, 0);
            }
        }
    }
    if (got_deactivate_) {
        got_deactivate_ = false;
        for (std::size_t i = 0; i < children_.size(); ++i) {
            if (!child_passive_[i]) {
                child_passive_[i] = 1;
                send(children_[i], cb_kind::deactivate, 0);
            }
        }
    }

    // Extension: active nodes invite unused neighbors.
    if (status_ == cb_status::active &&
        (cfg.naive || confirmed_ <= report_next_)) {
        if (cfg.naive) {
            for (port_id p = 0; p < degree_; ++p) {
                if (!std::binary_search(used_.begin(), used_.end(), p)) {
                    mark_used(p);
                    send(p, cb_kind::source, source_id_);
                }
            }
        } else if (auto p = random_avail_port(rng)) {
            mark_used(*p);
            send(*p, cb_kind::source, source_id_);
        }
    }
}

}  // namespace anole
