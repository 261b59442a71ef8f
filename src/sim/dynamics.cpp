#include "sim/dynamics.h"

#include <algorithm>
#include <iomanip>
#include <queue>
#include <sstream>
#include <type_traits>
#include <variant>

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

namespace {

// Every knob once, in to_json's key order: the JSON key and the member it
// reads and writes. to_json, dynamics_from_json and validate all walk it.
using knob_member =
    std::variant<double dynamics_spec::*, std::uint64_t dynamics_spec::*,
                 bool dynamics_spec::*, adaptive_kind dynamics_spec::*,
                 std::string dynamics_spec::*>;
constexpr std::pair<const char*, knob_member> knobs[] = {
    {"rewire_prob", &dynamics_spec::rewire_prob},
    {"rewire_period", &dynamics_spec::rewire_period},
    {"edge_down_prob", &dynamics_spec::edge_down_prob},
    {"churn_interval", &dynamics_spec::churn_interval},
    {"protect_backbone", &dynamics_spec::protect_backbone},
    {"loss_prob", &dynamics_spec::loss_prob},
    {"crash_prob", &dynamics_spec::crash_prob},
    {"sleep_prob", &dynamics_spec::sleep_prob},
    {"sleep_rounds", &dynamics_spec::sleep_rounds},
    {"strategy", &dynamics_spec::strategy},
    {"strategy_intensity", &dynamics_spec::strategy_intensity},
    {"strategy_grace", &dynamics_spec::strategy_grace},
    {"strategy_max_kills", &dynamics_spec::strategy_max_kills},
    {"leave_prob", &dynamics_spec::leave_prob},
    {"join_prob", &dynamics_spec::join_prob},
    {"trace_record", &dynamics_spec::trace_record},
    {"trace_replay", &dynamics_spec::trace_replay},
    {"seed", &dynamics_spec::seed},
};

}  // namespace

void dynamics_spec::validate() const {
    for (const auto& [key, member] : knobs) {
        if (const auto* p = std::get_if<double dynamics_spec::*>(&member)) {
            require(this->**p >= 0 && this->**p <= 1,
                    std::string("dynamics: ") + key + " must be in [0, 1]");
        }
    }
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
    os << std::setprecision(17) << std::boolalpha;
    char sep = '{';
    for (const auto& [key, member] : knobs) {
        std::visit(
            [&](auto ptr) {
                const auto& value = this->*ptr;
                using T = std::decay_t<decltype(value)>;
                if constexpr (std::is_same_v<T, std::string>) {
                    if (value.empty()) return;  // unset paths are omitted
                    os << sep << '"' << key << "\":\"" << json_escape(value) << '"';
                } else if constexpr (std::is_same_v<T, adaptive_kind>) {
                    os << sep << '"' << key << "\":\"" << to_string(value) << '"';
                } else {
                    os << sep << '"' << key << "\":" << value;
                }
                sep = ',';
            },
            member);
    }
    os << '}';
    return os.str();
}

// Every preset once; dynamics_preset looks names up here.
std::vector<std::pair<std::string, dynamics_spec>> all_dynamics_presets() {
    return {
        {"static", {}},
        // The full anonymity adversary, every round.
        {"rewire", {.rewire_period = 1}},
        // T-interval-connected churn, T = 8.
        {"churn", {.edge_down_prob = 0.25, .churn_interval = 8}},
        {"loss", {.loss_prob = 0.05}},
        {"crash", {.crash_prob = 0.001}},
        {"sleep", {.sleep_prob = 0.01, .sleep_rounds = 8}},
        // Everything at once, mildly.
        {"storm",
         {.rewire_prob = 0.1, .edge_down_prob = 0.15, .churn_interval = 4,
          .loss_prob = 0.02, .sleep_prob = 0.005, .sleep_rounds = 4}},
        // Adaptive: kill undecided senders' traffic.
        {"frontier",
         {.strategy = adaptive_kind::target_frontier_loss, .strategy_intensity = 0.5}},
        // Adaptive: crash the leader right after it decides.
        {"assassin",
         {.strategy = adaptive_kind::leader_assassin, .strategy_grace = 1,
          .strategy_max_kills = 1}},
        // Adaptive: churn the decision boundary.
        {"cutchurn", {.strategy = adaptive_kind::cut_churn, .strategy_intensity = 0.6}},
        // Membership churn: nodes leave and rejoin.
        {"member", {.leave_prob = 0.01, .join_prob = 0.05}},
    };
}

std::optional<dynamics_spec> dynamics_preset(std::string_view name) {
    for (auto& [preset, spec] : all_dynamics_presets()) {
        if (preset == name) return std::move(spec);
    }
    return std::nullopt;
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
        dynamics_spec recorded = dynamics_from_json(replay_->spec).second;
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

void dynamics_state::realize(const round_view& v, trace_kind kind, std::uint64_t a,
                             std::uint64_t b) {
    if (writer_) writer_->record(v.round, kind, a, b);
    // Each kind notes the digest at its own offset, so the schedule
    // digest separates event types.
    const auto u = static_cast<node_id>(a);
    switch (kind) {
        case trace_kind::rewire:
            note(0x11 + a);
            rewired_.push_back(u);
            ++stats_.rewired_nodes;
            break;
        case trace_kind::edge_down:
            note(0x22 + a);
            edge_down_[a] = 1;
            ++down_count_;
            break;
        case trace_kind::churn_kill:
            note(0x33 + a);
            v.stamp[a] = 0;
            ++stats_.churned_messages;
            break;
        case trace_kind::loss_kill:
            note(0x44 + a);
            v.stamp[a] = 0;
            ++stats_.lost_messages;
            break;
        case trace_kind::crash:
            note(0x55 + a);
            crashed_.push_back(u);
            ++stats_.crashes;
            break;
        case trace_kind::sleep:
            note(0x66 + a);
            sleep_until_[u] = b;
            ++stats_.sleep_events;
            break;
        case trace_kind::leave:
            note(0x77 + a);
            release_slot_range(u, v);
            membership_.push_back({u, false});
            ++stats_.leaves;
            break;
        case trace_kind::join:
            note(0x88 + a);
            membership_.push_back({u, true});
            ++stats_.joins;
            break;
        case trace_kind::adaptive_kill:
            note(0x99 + a);
            v.stamp[a] = 0;
            ++stats_.targeted_losses;
            break;
        case trace_kind::cut_kill:
            note(0xAA + a);
            v.stamp[a] = 0;
            ++stats_.cut_losses;
            break;
        case trace_kind::adaptive_crash:
            note(0xBB + a);
            adaptive_crashed_.push_back(u);
            ++stats_.assassinations;
            break;
        case trace_kind::window_reset:  // boundary marker, not an event
            std::fill(edge_down_.begin(), edge_down_.end(), 0);
            down_count_ = 0;
            break;
    }
}

void dynamics_state::replay(const round_view& v,
                            std::initializer_list<trace_kind> kinds) {
    for (; replay_ && cursor_ < replay_->events.size(); ++cursor_) {
        const trace_event& ev = replay_->events[cursor_];
        // Any event left over from an earlier round was never applicable
        // in its phase: the trace does not describe this run.
        if (ev.round < v.round) {
            throw error(std::string("trace: recorded event '") + to_string(ev.kind) +
                        " " + std::to_string(ev.a) + "' at round " +
                        std::to_string(ev.round) +
                        " was never applied — the trace does not match this run "
                        "(hand-edited, reordered, or recorded on a different setup?)");
        }
        if (ev.round != v.round ||
            std::find(kinds.begin(), kinds.end(), ev.kind) == kinds.end()) {
            return;
        }
        switch (ev.kind) {
            case trace_kind::rewire:
                require(rewired_.empty() || rewired_.back() < ev.a,
                        "trace: rewire events must be in ascending node order");
                break;
            case trace_kind::churn_kill:
            case trace_kind::loss_kill:
            case trace_kind::adaptive_kill:
            case trace_kind::cut_kill:
                if (v.stamp[ev.a] != v.mark) {
                    throw error("trace: recorded kill of slot " + std::to_string(ev.a) +
                                " at round " + std::to_string(ev.round) +
                                " hits no live message — the trace does not match "
                                "this run");
                }
                break;
            case trace_kind::sleep:
                require(!sleep_until_.empty(),
                        "trace: sleep event but the recorded spec has no sleep model");
                break;
            default:
                break;
        }
        realize(v, ev.kind, ev.a, ev.b);
    }
}

const std::vector<std::pair<std::uint32_t, std::uint32_t>>& dynamics_state::plan_rewire(
    const round_view& v) {
    moves_.clear();
    rewired_.clear();
    if (replay_) {
        replay(v, {trace_kind::rewire});
    } else if (spec_.rewire_prob > 0 || spec_.rewire_period > 0) {
        const bool periodic =
            spec_.rewire_period > 0 && v.round % spec_.rewire_period == 0;
        for (node_id u = 0; u < g_.num_nodes(); ++u) {
            if (v.halted[u] || !v.present[u]) continue;
            if (periodic ||
                detail::hash_bernoulli(seed_, v.round, u, 0x5E11, spec_.rewire_prob)) {
                realize(v, trace_kind::rewire, u);
            }
        }
    }
    if (rewired_.empty()) return moves_;
    apply_port_rewire(g_, owner_, peer_, rewired_, rewire_seed(v.round), moves_);
    // Auxiliary per-slot tables relocate along with the payload.
    if (!slot_edge_.empty()) {
        static thread_local std::vector<std::uint32_t> scratch;
        scratch.clear();
        for (const auto& [src, dst] : moves_) scratch.push_back(slot_edge_[src]);
        for (std::size_t i = 0; i < moves_.size(); ++i) {
            slot_edge_[moves_[i].second] = scratch[i];
        }
    }
    return moves_;
}

void dynamics_state::release_slot_range(node_id u, const round_view& v) {
    const std::size_t lo = g_.offset(u);
    const std::size_t hi = lo + g_.degree(u);
    for (std::size_t s = lo; s < hi; ++s) {
        if (v.stamp[s] == v.mark) ++stats_.released_messages;
        v.stamp[s] = 0;
    }
}

const std::vector<membership_event>& dynamics_state::plan_membership(
    const round_view& v) {
    membership_.clear();
    if (replay_) {
        replay(v, {trace_kind::leave, trace_kind::join});
        return membership_;
    }
    if (spec_.leave_prob <= 0 && spec_.join_prob <= 0) return membership_;
    for (node_id u = 0; u < g_.num_nodes(); ++u) {
        if (v.present[u] && !v.halted[u]) {
            if (detail::hash_bernoulli(seed_, v.round, u, 0x1EAF, spec_.leave_prob)) {
                realize(v, trace_kind::leave, u);
            }
        } else if (!v.present[u]) {
            if (detail::hash_bernoulli(seed_, v.round, u, 0x701, spec_.join_prob)) {
                realize(v, trace_kind::join, u);
            }
        }
    }
    return membership_;
}

const std::vector<node_id>& dynamics_state::plan_adaptive(
    const round_view& v, const std::vector<char>& decided,
    const std::vector<char>& leader) {
    adaptive_crashed_.clear();
    if (replay_) {
        replay(v, {trace_kind::adaptive_crash, trace_kind::adaptive_kill,
                   trace_kind::cut_kill});
        return adaptive_crashed_;
    }
    const auto flag = [](const std::vector<char>& f, node_id u) noexcept {
        return u < f.size() && f[u] != 0;
    };
    switch (spec_.strategy) {
        case adaptive_kind::none:
            break;
        case adaptive_kind::target_frontier_loss:
            // Kill traffic out of the active frontier: live senders that
            // have not decided yet are the ones still moving the
            // computation (max-id waves, walk tokens, recruitment).
            for (std::uint32_t s = 0; s < v.stamp.size(); ++s) {
                if (v.stamp[s] != v.mark) continue;
                const node_id u = owner_[s];
                if (v.halted[u] || !v.present[u] || flag(decided, u)) continue;
                if (detail::hash_bernoulli(seed_, v.round, s, 0xF057,
                                           spec_.strategy_intensity)) {
                    realize(v, trace_kind::adaptive_kill, s);
                }
            }
            break;
        case adaptive_kind::cut_churn:
            // Kill messages crossing the decision boundary — the cut
            // between settled territory and nodes still undecided.
            for (std::uint32_t s = 0; s < v.stamp.size(); ++s) {
                if (v.stamp[s] != v.mark) continue;
                if (flag(decided, owner_[s]) == flag(decided, owner_[peer_[s]])) continue;
                if (detail::hash_bernoulli(seed_, v.round, s, 0xC07,
                                           spec_.strategy_intensity)) {
                    realize(v, trace_kind::cut_kill, s);
                }
            }
            break;
        case adaptive_kind::leader_assassin:
            for (node_id u = 0; u < g_.num_nodes(); ++u) {
                if (v.halted[u] || !v.present[u] || !flag(leader, u)) {
                    leader_seen_[u] = 0;
                    continue;
                }
                if (leader_seen_[u] == 0) {
                    leader_seen_[u] = v.round + 1;  // first observation
                    continue;
                }
                // Observed age in rounds; grace = 1 crashes the leader
                // the round after it was first seen holding the flag.
                if (kills_ < spec_.strategy_max_kills &&
                    v.round + 1 - leader_seen_[u] >= spec_.strategy_grace) {
                    leader_seen_[u] = 0;
                    ++kills_;
                    realize(v, trace_kind::adaptive_crash, u);
                }
            }
            break;
    }
    return adaptive_crashed_;
}

void dynamics_state::apply_message_faults(const round_view& v) {
    // Gated by the *recorded* spec under replay (the ctor swapped it in),
    // so the delivery count and down-window bookkeeping match the
    // original run exactly.
    const bool churn = spec_.edge_down_prob > 0;
    const bool loss = spec_.loss_prob > 0;
    if (!churn && !loss) return;
    if (churn) {
        const std::uint64_t window = v.round / spec_.churn_interval;
        if (window != window_) {
            window_ = window;
            if (replay_) {
                require(cursor_ < replay_->events.size() &&
                            replay_->events[cursor_].round == v.round &&
                            replay_->events[cursor_].kind == trace_kind::window_reset,
                        "trace: missing window_reset at a churn window boundary — "
                        "the trace does not match this run");
                replay(v, {trace_kind::window_reset, trace_kind::edge_down});
            } else {
                realize(v, trace_kind::window_reset, 0);
                for (std::size_t e = 0; e < edge_down_.size(); ++e) {
                    if (!backbone_[e] &&
                        detail::hash_bernoulli(seed_, window, e, 0xC5A2,
                                               spec_.edge_down_prob)) {
                        realize(v, trace_kind::edge_down, e);
                    }
                }
            }
        }
        stats_.edge_down_rounds += down_count_;
    }
    for (std::uint32_t s = 0; s < v.stamp.size(); ++s) {
        if (v.stamp[s] != v.mark) continue;
        ++stats_.deliveries;
        if (replay_) continue;
        if (churn && edge_down_[slot_edge_[s]]) {
            realize(v, trace_kind::churn_kill, s);
        } else if (loss &&
                   detail::hash_bernoulli(seed_, v.round, s, 0x1055, spec_.loss_prob)) {
            realize(v, trace_kind::loss_kill, s);
        }
    }
    replay(v, {trace_kind::churn_kill, trace_kind::loss_kill});
}

const std::vector<node_id>& dynamics_state::plan_node_faults(const round_view& v) {
    crashed_.clear();
    // Crash trials are a rate denominator, not events, so replay counts
    // them too (the same scan as the recording run's).
    if (spec_.crash_prob > 0 || spec_.sleep_prob > 0) {
        for (node_id u = 0; u < g_.num_nodes(); ++u) {
            if (v.halted[u] || !v.present[u] || asleep(u, v.round)) continue;
            if (spec_.crash_prob > 0) {
                ++stats_.crash_trials;
                if (!replay_ && detail::hash_bernoulli(seed_, v.round, u, 0xC8A5,
                                                       spec_.crash_prob)) {
                    realize(v, trace_kind::crash, u);
                    continue;
                }
            }
            if (!replay_ && spec_.sleep_prob > 0 &&
                detail::hash_bernoulli(seed_, v.round, u, 0x51EE, spec_.sleep_prob)) {
                realize(v, trace_kind::sleep, u, v.round + spec_.sleep_rounds);
            }
        }
    }
    replay(v, {trace_kind::crash, trace_kind::sleep});
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
        const auto* knob = std::find_if(std::begin(knobs), std::end(knobs),
                                        [&](const auto& k) { return key == k.first; });
        if (knob == std::end(knobs)) {
            throw error("dynamics spec: unknown key '" + key + "'");
        }
        any_knob = true;
        std::visit(
            [&](auto ptr) {
                auto& field = d.*ptr;
                using T = std::decay_t<decltype(field)>;
                if constexpr (std::is_same_v<T, double>) {
                    field = val.as_number();
                } else if constexpr (std::is_same_v<T, std::uint64_t>) {
                    field = val.as_uint();
                } else if constexpr (std::is_same_v<T, bool>) {
                    field = val.as_bool();
                } else if constexpr (std::is_same_v<T, std::string>) {
                    field = val.as_string();
                } else {
                    const auto k = adaptive_from_string(val.as_string());
                    require(k.has_value(),
                            "dynamics spec: unknown strategy '" + val.as_string() + "'");
                    field = *k;
                }
            },
            knob->second);
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
