#include "sim/dynamics.h"

#include <algorithm>
#include <iomanip>
#include <queue>
#include <sstream>

#include "util/json.h"

namespace anole {

// --- adaptive strategies -----------------------------------------------------

const char* to_string(adaptive_kind k) noexcept {
    switch (k) {
        case adaptive_kind::none: return "none";
        case adaptive_kind::target_frontier_loss: return "target_frontier_loss";
        case adaptive_kind::leader_assassin: return "leader_assassin";
        case adaptive_kind::cut_churn: return "cut_churn";
    }
    return "?";
}

std::optional<adaptive_kind> adaptive_from_string(std::string_view s) {
    for (const adaptive_kind k :
         {adaptive_kind::none, adaptive_kind::target_frontier_loss,
          adaptive_kind::leader_assassin, adaptive_kind::cut_churn}) {
        if (s == to_string(k)) return k;
    }
    return std::nullopt;
}

// --- declaration ------------------------------------------------------------

void dynamics_spec::validate() const {
    const auto prob = [](double p, const char* what) {
        require(p >= 0 && p <= 1, std::string("dynamics: ") + what + " must be in [0, 1]");
    };
    prob(rewire_prob, "rewire_prob");
    prob(edge_down_prob, "edge_down_prob");
    prob(loss_prob, "loss_prob");
    prob(crash_prob, "crash_prob");
    prob(sleep_prob, "sleep_prob");
    prob(strategy_intensity, "strategy_intensity");
    prob(leave_prob, "leave_prob");
    prob(join_prob, "join_prob");
    require(churn_interval >= 1, "dynamics: churn_interval >= 1");
    require(sleep_rounds >= 1, "dynamics: sleep_rounds >= 1");
    require(strategy_grace >= 1, "dynamics: strategy_grace >= 1");
}

std::string dynamics_spec::summary() const {
    std::ostringstream os;
    const char* sep = "";
    if (rewire_prob > 0 || rewire_period > 0) {
        os << sep << "rewire(";
        if (rewire_prob > 0) os << "p=" << rewire_prob;
        if (rewire_period > 0) os << (rewire_prob > 0 ? "," : "") << "every=" << rewire_period;
        os << ")";
        sep = "+";
    }
    if (edge_down_prob > 0) {
        os << sep << "churn(" << edge_down_prob << "/T=" << churn_interval
           << (protect_backbone ? "" : ",unprotected") << ")";
        sep = "+";
    }
    if (loss_prob > 0) {
        os << sep << "loss(" << loss_prob << ")";
        sep = "+";
    }
    if (crash_prob > 0) {
        os << sep << "crash(" << crash_prob << ")";
        sep = "+";
    }
    if (sleep_prob > 0) {
        os << sep << "sleep(" << sleep_prob << "x" << sleep_rounds << ")";
        sep = "+";
    }
    if (strategy == adaptive_kind::target_frontier_loss) {
        os << sep << "frontier(" << strategy_intensity << ")";
        sep = "+";
    } else if (strategy == adaptive_kind::leader_assassin) {
        os << sep << "assassin(grace=" << strategy_grace << ",kills="
           << strategy_max_kills << ")";
        sep = "+";
    } else if (strategy == adaptive_kind::cut_churn) {
        os << sep << "cutchurn(" << strategy_intensity << ")";
        sep = "+";
    }
    if (leave_prob > 0 || join_prob > 0) {
        os << sep << "member(leave=" << leave_prob << ",join=" << join_prob << ")";
        sep = "+";
    }
    if (!trace_replay.empty()) {
        os << sep << "replay";
        sep = "+";
    }
    if (*sep == '\0') return "static";
    return os.str();
}

std::string dynamics_spec::to_json() const {
    std::ostringstream os;
    // Max-precision doubles: the value must survive a JSON round trip
    // bit-exactly (resume keys and trace headers replay from it).
    os << std::setprecision(17);
    os << "{\"rewire_prob\":" << rewire_prob << ",\"rewire_period\":" << rewire_period
       << ",\"edge_down_prob\":" << edge_down_prob
       << ",\"churn_interval\":" << churn_interval
       << ",\"protect_backbone\":" << (protect_backbone ? "true" : "false")
       << ",\"loss_prob\":" << loss_prob << ",\"crash_prob\":" << crash_prob
       << ",\"sleep_prob\":" << sleep_prob << ",\"sleep_rounds\":" << sleep_rounds
       << ",\"strategy\":\"" << to_string(strategy) << "\""
       << ",\"strategy_intensity\":" << strategy_intensity
       << ",\"strategy_grace\":" << strategy_grace
       << ",\"strategy_max_kills\":" << strategy_max_kills
       << ",\"leave_prob\":" << leave_prob << ",\"join_prob\":" << join_prob;
    if (!trace_record.empty()) {
        os << ",\"trace_record\":\"" << json_escape(trace_record) << "\"";
    }
    if (!trace_replay.empty()) {
        os << ",\"trace_replay\":\"" << json_escape(trace_replay) << "\"";
    }
    os << ",\"seed\":" << seed << "}";
    return os.str();
}

std::optional<dynamics_spec> dynamics_preset(std::string_view name) {
    dynamics_spec d;
    if (name == "static") return d;
    if (name == "rewire") {  // the full anonymity adversary, every round
        d.rewire_period = 1;
        return d;
    }
    if (name == "churn") {  // T-interval-connected churn, T = 8
        d.edge_down_prob = 0.25;
        d.churn_interval = 8;
        return d;
    }
    if (name == "loss") {
        d.loss_prob = 0.05;
        return d;
    }
    if (name == "crash") {
        d.crash_prob = 0.001;
        return d;
    }
    if (name == "sleep") {
        d.sleep_prob = 0.01;
        d.sleep_rounds = 8;
        return d;
    }
    if (name == "storm") {  // everything at once, mildly
        d.rewire_prob = 0.1;
        d.edge_down_prob = 0.15;
        d.churn_interval = 4;
        d.loss_prob = 0.02;
        d.sleep_prob = 0.005;
        d.sleep_rounds = 4;
        return d;
    }
    if (name == "frontier") {  // adaptive: kill undecided senders' traffic
        d.strategy = adaptive_kind::target_frontier_loss;
        d.strategy_intensity = 0.5;
        return d;
    }
    if (name == "assassin") {  // adaptive: crash the leader right after it decides
        d.strategy = adaptive_kind::leader_assassin;
        d.strategy_grace = 1;
        d.strategy_max_kills = 1;
        return d;
    }
    if (name == "cutchurn") {  // adaptive: churn the decision boundary
        d.strategy = adaptive_kind::cut_churn;
        d.strategy_intensity = 0.6;
        return d;
    }
    if (name == "member") {  // membership churn: nodes leave and rejoin
        d.leave_prob = 0.01;
        d.join_prob = 0.05;
        return d;
    }
    return std::nullopt;
}

std::vector<std::pair<std::string, dynamics_spec>> all_dynamics_presets() {
    std::vector<std::pair<std::string, dynamics_spec>> out;
    for (const char* name : {"static", "rewire", "churn", "loss", "crash", "sleep",
                             "storm", "frontier", "assassin", "cutchurn", "member"}) {
        out.emplace_back(name, *dynamics_preset(name));
    }
    return out;
}

// --- slot tables -------------------------------------------------------------

std::vector<std::uint32_t> peer_slots(const graph& g) {
    const std::size_t slots = 2 * g.num_edges();
    require(slots < 0xffffffffull, "peer_slots: > 2^32 directed edges unsupported");
    std::vector<std::uint32_t> peer(slots);
    for (node_id u = 0; u < g.num_nodes(); ++u) {
        const auto deg = static_cast<port_id>(g.degree(u));
        for (port_id p = 0; p < deg; ++p) {
            peer[g.offset(u) + p] = static_cast<std::uint32_t>(
                g.offset(g.neighbor(u, p)) + g.reverse_port(u, p));
        }
    }
    return peer;
}

std::vector<node_id> slot_owners(const graph& g) {
    std::vector<node_id> owner(2 * g.num_edges());
    for (node_id u = 0; u < g.num_nodes(); ++u) {
        std::fill_n(owner.begin() + static_cast<std::ptrdiff_t>(g.offset(u)),
                    g.degree(u), u);
    }
    return owner;
}

// --- in-place rewire ---------------------------------------------------------

void apply_port_rewire(const graph& g, const std::vector<node_id>& owner,
                       std::vector<std::uint32_t>& peer,
                       const std::vector<node_id>& nodes, std::uint64_t seed,
                       std::vector<std::pair<std::uint32_t, std::uint32_t>>& moves) {
    if (nodes.empty()) return;
    // Index into `nodes` if v is rewired this round, else -1.
    const auto rewired_index = [&](node_id v) -> std::ptrdiff_t {
        const auto it = std::lower_bound(nodes.begin(), nodes.end(), v);
        return (it != nodes.end() && *it == v) ? it - nodes.begin() : -1;
    };

    // Draw every permutation and snapshot every rewired peer range first:
    // the in-place writes below overlap the rewired ranges. Scratch is
    // reused across calls — the every-round rewire adversary calls this
    // once per round, and the buffers dominate its cost otherwise.
    static thread_local std::vector<std::size_t> off;
    static thread_local std::vector<port_id> perm;
    static thread_local std::vector<std::uint32_t> old_peer;
    off.assign(nodes.size() + 1, 0);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        off[i + 1] = off[i] + g.degree(nodes[i]);
    }
    perm.resize(off.back());
    old_peer.resize(off.back());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const node_id u = nodes[i];
        const std::size_t d = off[i + 1] - off[i];
        fill_port_permutation(seed, u, std::span<port_id>(perm.data() + off[i], d));
        std::copy_n(peer.data() + g.offset(u), d, old_peer.data() + off[i]);
    }

    // σ relabels slots within rewired nodes' ranges and fixes the rest.
    const auto sigma = [&](std::uint32_t t) -> std::uint32_t {
        const node_id v = owner[t];
        const std::ptrdiff_t j = rewired_index(v);
        if (j < 0) return t;
        const std::size_t base = g.offset(v);
        return static_cast<std::uint32_t>(
            base + perm[off[static_cast<std::size_t>(j)] + (t - base)]);
    };

    // New peer table: peer'[σ(s)] = σ(peer[s]) for every directed edge
    // with a rewired endpoint. Each such edge is visited from each of its
    // rewired endpoints; the non-rewired side (σ = identity) is patched
    // from here. The composition of per-node range permutations keeps
    // peer' an involution and the induced multigraph untouched.
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const node_id u = nodes[i];
        const std::size_t base = g.offset(u);
        const std::size_t d = off[i + 1] - off[i];
        for (std::size_t p = 0; p < d; ++p) {
            const auto s = static_cast<std::uint32_t>(base + p);
            const auto s2 = static_cast<std::uint32_t>(base + perm[off[i] + p]);
            const std::uint32_t t = old_peer[off[i] + p];
            peer[s2] = sigma(t);
            if (rewired_index(owner[t]) < 0) peer[t] = s2;
            if (s2 != s) moves.emplace_back(s, s2);
        }
    }
}

// --- runtime state -----------------------------------------------------------

dynamics_state::dynamics_state(const graph& g, std::vector<std::uint32_t>& peer,
                               const dynamics_spec& spec, std::uint64_t run_seed)
    : g_(g), peer_(peer), spec_(spec),
      seed_(spec.seed != 0 ? spec.seed : derive_seed(run_seed, 0xD74A, 0x1C5)),
      owner_(slot_owners(g)) {
    spec_.validate();
    const std::size_t n = g.num_nodes();
    if (!spec_.trace_replay.empty()) {
        // The recorded schedule owns this run: the trace header's spec
        // and resolved seed replace every sampling knob (so window
        // redraw gates, stat counting and rewire permutations all match
        // the original run exactly); only the trace paths themselves
        // survive from the caller's spec.
        replay_ = std::make_unique<trace_log>(trace_log::load(spec_.trace_replay));
        replay_->check_against(n, peer_.size(), g.num_edges());
        auto [name, recorded] = dynamics_from_json(json_parse(replay_->spec_json));
        (void)name;
        recorded.trace_record = spec_.trace_record;
        recorded.trace_replay = spec_.trace_replay;
        spec_ = std::move(recorded);
        seed_ = replay_->seed;
    }
    if (!spec_.trace_record.empty()) {
        dynamics_spec header = spec_;
        header.trace_record.clear();
        header.trace_replay.clear();
        writer_ = std::make_unique<trace_writer>(spec_.trace_record, n,
                                                 peer_.size(), g.num_edges(),
                                                 seed_, header.to_json());
    }
    if (spec_.strategy == adaptive_kind::leader_assassin && !replaying()) {
        leader_seen_.assign(n, 0);
    }
    if (spec_.edge_down_prob > 0) {
        // Undirected edge ids per slot, and the protected BFS backbone.
        const std::size_t m = g.num_edges();
        slot_edge_.assign(peer_.size(), 0);
        std::uint32_t next_edge = 0;
        for (std::uint32_t s = 0; s < peer_.size(); ++s) {
            if (s < peer_[s]) {
                slot_edge_[s] = next_edge;
                slot_edge_[peer_[s]] = next_edge;
                ++next_edge;
            }
        }
        backbone_.assign(m, 0);
        edge_down_.assign(m, 0);
        if (spec_.protect_backbone && n > 1) {
            std::vector<char> vis(n, 0);
            std::queue<node_id> q;
            q.push(0);
            vis[0] = 1;
            while (!q.empty()) {
                const node_id u = q.front();
                q.pop();
                const auto deg = static_cast<port_id>(g.degree(u));
                for (port_id p = 0; p < deg; ++p) {
                    const node_id v = g.neighbor(u, p);
                    if (vis[v]) continue;
                    vis[v] = 1;
                    backbone_[slot_edge_[g.offset(u) + p]] = 1;
                    q.push(v);
                }
            }
        }
    }
    if (spec_.sleep_prob > 0) sleep_until_.assign(n, 0);
}

// Digest offsets per event kind: kept distinct so the schedule digest
// separates event types, and identical between the sampling and replay
// paths (both funnel through emit()).
namespace {

std::uint64_t note_base(trace_kind k) noexcept {
    switch (k) {
        case trace_kind::rewire: return 0x11;
        case trace_kind::edge_down: return 0x22;
        case trace_kind::churn_kill: return 0x33;
        case trace_kind::loss_kill: return 0x44;
        case trace_kind::crash: return 0x55;
        case trace_kind::sleep: return 0x66;
        case trace_kind::leave: return 0x77;
        case trace_kind::join: return 0x88;
        case trace_kind::adaptive_kill: return 0x99;
        case trace_kind::cut_kill: return 0xAA;
        case trace_kind::adaptive_crash: return 0xBB;
        case trace_kind::window_reset: return 0;  // boundary marker, not an event
    }
    return 0;
}

}  // namespace

void dynamics_state::emit(std::uint64_t round, trace_kind kind, std::uint64_t a,
                          std::uint64_t b) {
    if (kind != trace_kind::window_reset) note(note_base(kind) + a);
    if (writer_) writer_->record(round, kind, a, b);
}

bool dynamics_state::replay_take(std::uint64_t round, trace_kind kind,
                                 trace_event& out) {
    const trace_event* ev = replay_peek();
    if (ev == nullptr || ev->round != round || ev->kind != kind) return false;
    out = *ev;
    ++cursor_;
    emit(round, kind, out.a, out.b);
    return true;
}

const std::vector<std::pair<std::uint32_t, std::uint32_t>>& dynamics_state::plan_rewire(
    std::uint64_t round, const std::vector<char>& halted,
    const std::vector<char>& present) {
    moves_.clear();
    rewired_.clear();
    if (replay_) {
        // Any event left over from an earlier round was never applicable
        // in its phase: the trace does not describe this run.
        if (const trace_event* stale = replay_peek();
            stale != nullptr && stale->round < round) {
            throw error(std::string("trace: recorded event '") + to_string(stale->kind) +
                        " " + std::to_string(stale->a) + "' at round " +
                        std::to_string(stale->round) +
                        " was never applied — the trace does not match this run "
                        "(hand-edited, reordered, or recorded on a different setup?)");
        }
        trace_event ev;
        while (replay_take(round, trace_kind::rewire, ev)) {
            const auto u = static_cast<node_id>(ev.a);
            require(rewired_.empty() || rewired_.back() < u,
                    "trace: rewire events must be in ascending node order");
            rewired_.push_back(u);
        }
    } else {
        if (spec_.rewire_prob <= 0 && spec_.rewire_period == 0) return moves_;
        const bool periodic =
            spec_.rewire_period > 0 && round % spec_.rewire_period == 0;
        const std::size_t n = g_.num_nodes();
        for (node_id u = 0; u < n; ++u) {
            if (halted[u] || !present[u]) continue;
            if (periodic ||
                detail::hash_bernoulli(seed_, round, u, 0x5E11, spec_.rewire_prob)) {
                rewired_.push_back(u);
                emit(round, trace_kind::rewire, u);
            }
        }
    }
    if (rewired_.empty()) return moves_;
    apply_port_rewire(g_, owner_, peer_, rewired_, rewire_seed(round), moves_);
    // Auxiliary per-slot tables relocate along with the payload.
    if (!slot_edge_.empty()) {
        static thread_local std::vector<std::uint32_t> scratch;
        scratch.clear();
        for (const auto& [src, dst] : moves_) scratch.push_back(slot_edge_[src]);
        for (std::size_t i = 0; i < moves_.size(); ++i) {
            slot_edge_[moves_[i].second] = scratch[i];
        }
    }
    stats_.rewired_nodes += rewired_.size();
    return moves_;
}

void dynamics_state::release_slot_range(node_id u, std::uint32_t mark,
                                        std::vector<std::uint32_t>& cur_stamp) {
    const std::size_t lo = g_.offset(u);
    const std::size_t hi = lo + g_.degree(u);
    for (std::size_t s = lo; s < hi; ++s) {
        if (cur_stamp[s] == mark) ++stats_.released_messages;
        cur_stamp[s] = 0;  // 0 never matches a delivery mark
    }
}

const std::vector<membership_event>& dynamics_state::plan_membership(
    std::uint64_t round, std::uint32_t mark, const std::vector<char>& halted,
    const std::vector<char>& present, std::vector<std::uint32_t>& cur_stamp) {
    membership_.clear();
    if (replay_) {
        while (const trace_event* ev = replay_peek()) {
            if (ev->round != round ||
                (ev->kind != trace_kind::leave && ev->kind != trace_kind::join)) {
                break;
            }
            const trace_event e = *ev;
            ++cursor_;
            emit(e.round, e.kind, e.a, e.b);
            const auto u = static_cast<node_id>(e.a);
            if (e.kind == trace_kind::leave) {
                release_slot_range(u, mark, cur_stamp);
                ++stats_.leaves;
                membership_.push_back({u, false});
            } else {
                ++stats_.joins;
                membership_.push_back({u, true});
            }
        }
        return membership_;
    }
    if (spec_.leave_prob <= 0 && spec_.join_prob <= 0) return membership_;
    const std::size_t n = g_.num_nodes();
    for (node_id u = 0; u < n; ++u) {
        if (present[u] && !halted[u]) {
            if (detail::hash_bernoulli(seed_, round, u, 0x1EAF, spec_.leave_prob)) {
                emit(round, trace_kind::leave, u);
                release_slot_range(u, mark, cur_stamp);
                ++stats_.leaves;
                membership_.push_back({u, false});
            }
        } else if (!present[u]) {
            if (detail::hash_bernoulli(seed_, round, u, 0x701, spec_.join_prob)) {
                emit(round, trace_kind::join, u);
                ++stats_.joins;
                membership_.push_back({u, true});
            }
        }
    }
    return membership_;
}

const std::vector<node_id>& dynamics_state::plan_adaptive(
    std::uint64_t round, std::uint32_t mark, std::vector<std::uint32_t>& cur_stamp,
    const std::vector<char>& halted, const std::vector<char>& present,
    const std::vector<char>& decided, const std::vector<char>& leader) {
    adaptive_crashed_.clear();
    if (replay_) {
        while (const trace_event* ev = replay_peek()) {
            if (ev->round != round || (ev->kind != trace_kind::adaptive_crash &&
                                       ev->kind != trace_kind::adaptive_kill &&
                                       ev->kind != trace_kind::cut_kill)) {
                break;
            }
            const trace_event e = *ev;
            ++cursor_;
            emit(e.round, e.kind, e.a, e.b);
            if (e.kind == trace_kind::adaptive_crash) {
                adaptive_crashed_.push_back(static_cast<node_id>(e.a));
                ++stats_.assassinations;
            } else {
                cur_stamp[static_cast<std::size_t>(e.a)] = 0;
                if (e.kind == trace_kind::adaptive_kill) {
                    ++stats_.targeted_losses;
                } else {
                    ++stats_.cut_losses;
                }
            }
        }
        return adaptive_crashed_;
    }
    const auto flag = [](const std::vector<char>& v, node_id u) noexcept {
        return u < v.size() && v[u] != 0;
    };
    switch (spec_.strategy) {
        case adaptive_kind::none:
            break;
        case adaptive_kind::target_frontier_loss:
            // Kill traffic out of the active frontier: live senders that
            // have not decided yet are the ones still moving the
            // computation (max-id waves, walk tokens, recruitment).
            for (std::uint32_t s = 0; s < cur_stamp.size(); ++s) {
                if (cur_stamp[s] != mark) continue;
                const node_id u = owner_[s];
                if (halted[u] || !present[u] || flag(decided, u)) continue;
                if (detail::hash_bernoulli(seed_, round, s, 0xF057,
                                           spec_.strategy_intensity)) {
                    cur_stamp[s] = 0;
                    ++stats_.targeted_losses;
                    emit(round, trace_kind::adaptive_kill, s);
                }
            }
            break;
        case adaptive_kind::cut_churn:
            // Kill messages crossing the decision boundary — the cut
            // between settled territory and nodes still undecided.
            for (std::uint32_t s = 0; s < cur_stamp.size(); ++s) {
                if (cur_stamp[s] != mark) continue;
                const node_id u = owner_[s];
                const node_id v = owner_[peer_[s]];
                if (flag(decided, u) == flag(decided, v)) continue;
                if (detail::hash_bernoulli(seed_, round, s, 0xC07,
                                           spec_.strategy_intensity)) {
                    cur_stamp[s] = 0;
                    ++stats_.cut_losses;
                    emit(round, trace_kind::cut_kill, s);
                }
            }
            break;
        case adaptive_kind::leader_assassin: {
            const std::size_t n = g_.num_nodes();
            for (node_id u = 0; u < n; ++u) {
                if (halted[u] || !present[u] || !flag(leader, u)) {
                    leader_seen_[u] = 0;
                    continue;
                }
                if (leader_seen_[u] == 0) {
                    leader_seen_[u] = round + 1;  // first observation
                    continue;
                }
                // Observed age in rounds; grace = 1 crashes the leader
                // the round after it was first seen holding the flag.
                if (kills_ < spec_.strategy_max_kills &&
                    round + 1 - leader_seen_[u] >= spec_.strategy_grace) {
                    adaptive_crashed_.push_back(u);
                    leader_seen_[u] = 0;
                    ++kills_;
                    ++stats_.assassinations;
                    emit(round, trace_kind::adaptive_crash, u);
                }
            }
            break;
        }
    }
    return adaptive_crashed_;
}

void dynamics_state::apply_message_faults(std::uint64_t round, std::uint32_t mark,
                                          std::vector<std::uint32_t>& cur_stamp) {
    // Gated by the *recorded* spec under replay (the ctor swapped it in),
    // so the delivery count and down-window bookkeeping match the
    // original run exactly.
    const bool churn = spec_.edge_down_prob > 0;
    const bool loss = spec_.loss_prob > 0;
    if (!churn && !loss) return;
    if (churn) {
        const std::uint64_t window = round / spec_.churn_interval;
        if (window != window_) {
            window_ = window;
            down_count_ = 0;
            std::fill(edge_down_.begin(), edge_down_.end(), 0);
            if (replay_) {
                trace_event ev;
                require(replay_take(round, trace_kind::window_reset, ev),
                        "trace: missing window_reset at a churn window boundary — "
                        "the trace does not match this run");
                while (replay_take(round, trace_kind::edge_down, ev)) {
                    edge_down_[static_cast<std::size_t>(ev.a)] = 1;
                    ++down_count_;
                }
            } else {
                emit(round, trace_kind::window_reset, 0);
                for (std::size_t e = 0; e < edge_down_.size(); ++e) {
                    if (!backbone_[e] &&
                        detail::hash_bernoulli(seed_, window, e, 0xC5A2,
                                               spec_.edge_down_prob)) {
                        edge_down_[e] = 1;
                        ++down_count_;
                        emit(round, trace_kind::edge_down, e);
                    }
                }
            }
        }
        stats_.edge_down_rounds += down_count_;
    }
    for (std::uint32_t s = 0; s < cur_stamp.size(); ++s) {
        if (cur_stamp[s] != mark) continue;
        ++stats_.deliveries;
        if (replay_) {
            // Kills were recorded in this same ascending-slot scan, so a
            // sequential cursor suffices; a kill naming a slot that is
            // not live here stays unconsumed and trips the stale-event
            // check at the next round boundary.
            const trace_event* ev = replay_peek();
            if (ev != nullptr && ev->round == round && ev->a == s &&
                (ev->kind == trace_kind::churn_kill ||
                 ev->kind == trace_kind::loss_kill)) {
                const trace_event e = *ev;
                ++cursor_;
                emit(e.round, e.kind, e.a, e.b);
                cur_stamp[s] = 0;  // 0 never matches a delivery mark
                if (e.kind == trace_kind::churn_kill) {
                    ++stats_.churned_messages;
                } else {
                    ++stats_.lost_messages;
                }
            }
        } else if (churn && edge_down_[slot_edge_[s]]) {
            cur_stamp[s] = 0;  // 0 never matches a delivery mark
            ++stats_.churned_messages;
            emit(round, trace_kind::churn_kill, s);
        } else if (loss &&
                   detail::hash_bernoulli(seed_, round, s, 0x1055, spec_.loss_prob)) {
            cur_stamp[s] = 0;
            ++stats_.lost_messages;
            emit(round, trace_kind::loss_kill, s);
        }
    }
}

const std::vector<node_id>& dynamics_state::plan_node_faults(
    std::uint64_t round, const std::vector<char>& halted,
    const std::vector<char>& present) {
    crashed_.clear();
    const std::size_t n = g_.num_nodes();
    if (replay_) {
        // Crash trials are a rate denominator, not events — recompute
        // them from the live set (identical to the recording run's scan)
        // before applying this round's recorded faults.
        if (spec_.crash_prob > 0) {
            for (node_id u = 0; u < n; ++u) {
                if (halted[u] || !present[u] || asleep(u, round)) continue;
                ++stats_.crash_trials;
            }
        }
        trace_event ev;
        while (true) {
            if (replay_take(round, trace_kind::crash, ev)) {
                crashed_.push_back(static_cast<node_id>(ev.a));
                ++stats_.crashes;
            } else if (replay_take(round, trace_kind::sleep, ev)) {
                require(!sleep_until_.empty(),
                        "trace: sleep event but the recorded spec has no sleep model");
                sleep_until_[static_cast<node_id>(ev.a)] = ev.b;
                ++stats_.sleep_events;
            } else {
                break;
            }
        }
        return crashed_;
    }
    if (spec_.crash_prob <= 0 && spec_.sleep_prob <= 0) return crashed_;
    for (node_id u = 0; u < n; ++u) {
        if (halted[u] || !present[u]) continue;
        if (asleep(u, round)) continue;
        if (spec_.crash_prob > 0) {
            ++stats_.crash_trials;
            if (detail::hash_bernoulli(seed_, round, u, 0xC8A5, spec_.crash_prob)) {
                crashed_.push_back(u);
                ++stats_.crashes;
                emit(round, trace_kind::crash, u);
                continue;
            }
        }
        if (spec_.sleep_prob > 0 &&
            detail::hash_bernoulli(seed_, round, u, 0x51EE, spec_.sleep_prob)) {
            sleep_until_[u] = round + spec_.sleep_rounds;
            ++stats_.sleep_events;
            emit(round, trace_kind::sleep, u, sleep_until_[u]);
        }
    }
    return crashed_;
}

// --- parsing -----------------------------------------------------------------

std::pair<std::string, dynamics_spec> dynamics_from_json(const json_value& v) {
    std::string name;
    dynamics_spec d;
    bool any_knob = false;
    for (const auto& [key, val] : v.as_object()) {
        if (key == "name") {
            name = val.as_string();
            continue;
        }
        any_knob = true;
        if (key == "rewire_prob") {
            d.rewire_prob = val.as_number();
        } else if (key == "rewire_period") {
            d.rewire_period = val.as_uint();
        } else if (key == "edge_down_prob") {
            d.edge_down_prob = val.as_number();
        } else if (key == "churn_interval") {
            d.churn_interval = val.as_uint();
        } else if (key == "protect_backbone") {
            d.protect_backbone = val.as_bool();
        } else if (key == "loss_prob") {
            d.loss_prob = val.as_number();
        } else if (key == "crash_prob") {
            d.crash_prob = val.as_number();
        } else if (key == "sleep_prob") {
            d.sleep_prob = val.as_number();
        } else if (key == "sleep_rounds") {
            d.sleep_rounds = val.as_uint();
        } else if (key == "strategy") {
            const auto k = adaptive_from_string(val.as_string());
            require(k.has_value(),
                    "dynamics spec: unknown strategy '" + val.as_string() + "'");
            d.strategy = *k;
        } else if (key == "strategy_intensity") {
            d.strategy_intensity = val.as_number();
        } else if (key == "strategy_grace") {
            d.strategy_grace = val.as_uint();
        } else if (key == "strategy_max_kills") {
            d.strategy_max_kills = val.as_uint();
        } else if (key == "leave_prob") {
            d.leave_prob = val.as_number();
        } else if (key == "join_prob") {
            d.join_prob = val.as_number();
        } else if (key == "trace_record") {
            d.trace_record = val.as_string();
        } else if (key == "trace_replay") {
            d.trace_replay = val.as_string();
        } else if (key == "seed") {
            d.seed = val.as_uint();
        } else {
            throw error("dynamics spec: unknown key '" + key + "'");
        }
    }
    require(!name.empty() || any_knob, "dynamics spec: entry needs a name or knobs");
    if (!any_knob) {
        const auto preset = dynamics_preset(name);
        require(preset.has_value(), "dynamics spec: unknown preset '" + name + "'");
        d = *preset;
    }
    if (name.empty()) name = d.summary();
    d.validate();
    return {std::move(name), d};
}

}  // namespace anole
