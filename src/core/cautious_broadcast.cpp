#include "core/cautious_broadcast.h"

namespace anole {

void cb_exec::process_receptions(const cb_config& cfg) {
    for (const pending_msg& pm : pending_) {
        mark_used(pm.port);
        switch (pm.kind) {
            case cb_kind::source:
                if (!in_tree_) {
                    in_tree_ = true;
                    adopted_this_round_ = true;
                    parent_ = pm.port;
                    source_id_ = pm.value;
                    // Prose mode: a fresh node holds no *permit* — it may
                    // not extend until its parent confirms the adoption
                    // was within budget (the "only nodes in less
                    // populated branches are given permit to extend"
                    // discipline). Without this gate the frontier races
                    // ahead of the confirmed counts and the territory cap
                    // cannot bind. The literal printed pseudocode starts
                    // adopted nodes active instead (Algorithm 3 line 15).
                    status_ = cfg.report_every_round ? cb_status::active
                                                     : cb_status::passive;
                }
                // Already in the tree (or the root): the link is consumed
                // for extension purposes but the invitation is ignored.
                break;
            case cb_kind::confirm:
                // Prose mode: the adoption ack doubles as a report — the
                // child awaits the parent's activate (its permit).
                // Robustness: a node outside the tree has no children, and
                // the parent port can never be a child; such messages are
                // not protocol-reachable and are dropped.
                if (!in_tree_ || (parent_ && *parent_ == pm.port)) break;
                upsert_child(pm.port, pm.value,
                             /*reporter=*/!cfg.report_every_round);
                break;
            case cb_kind::size:
                // In the literal every-round mode size messages are plain
                // refreshes, not threshold reports; the reporter flag (and
                // the passivation it implies) applies only to prose-mode
                // crossing reports, which arrive at most once per
                // threshold change.
                if (!in_tree_ || (parent_ && *parent_ == pm.port)) break;
                upsert_child(pm.port, pm.value,
                             /*reporter=*/!cfg.report_every_round);
                break;
            case cb_kind::refresh:
                if (!in_tree_ || (parent_ && *parent_ == pm.port)) break;
                upsert_child(pm.port, pm.value, /*reporter=*/false);
                break;
            case cb_kind::activate:
                // Waves are a parent-to-child protocol; anything else is
                // not protocol-reachable and is dropped (the flags must
                // not latch while outside the tree, and at most one wave
                // per round can arrive on the single parent port).
                if (status_ != cb_status::stopped && in_tree_ && !is_root_ &&
                    parent_ && *parent_ == pm.port) {
                    status_ = cb_status::active;
                    got_activate_ = true;
                    got_deactivate_ = false;
                }
                break;
            case cb_kind::deactivate:
                if (status_ != cb_status::stopped && in_tree_ && !is_root_ &&
                    parent_ && *parent_ == pm.port) {
                    status_ = cb_status::passive;
                    got_deactivate_ = true;
                    got_activate_ = false;
                }
                break;
            case cb_kind::stop:
                status_ = cb_status::stopped;
                stop_from_.push_back(pm.port);
                break;
        }
    }
    pending_.clear();
}

void cb_exec::upsert_child(port_id p, std::uint64_t sz, bool reporter) {
    got_child_update_ = true;
    const std::size_t i = child_index(p);
    if (i == children_.size()) {
        children_.push_back(p);
        child_size_.push_back(sz);
        child_passive_.push_back(0);
        child_stop_told_.push_back(0);
    } else {
        child_size_[i] = sz;
    }
    if (reporter) {
        const std::size_t j = child_index(p);
        child_passive_[j] = 1;  // reporters pause awaiting confirmation
        reporters_.push_back(p);
    }
}

bool cb_exec::idle(const cb_config& cfg) const noexcept {
    // Literal mode reports every round.
    if (cfg.report_every_round || !pending_.empty()) return false;
    if (!in_tree_) return true;
    if (adopted_this_round_ || got_activate_ || got_deactivate_ || got_child_update_ ||
        !reporters_.empty()) {
        return false;
    }
    if (status_ == cb_status::stopped) {
        return stop_told_ && std::all_of(child_stop_told_.begin(), child_stop_told_.end(),
                                         [](char told) { return told != 0; });
    }
    // Pending cap stop or threshold crossing, or an extension to make.
    if (confirmed_ >= cfg.cap || (!cfg.naive && confirmed_ > report_next_)) return false;
    return status_ != cb_status::active || used_.size() >= degree_;
}

std::optional<port_id> cb_exec::random_avail_port(xoshiro256ss& rng) {
    if (used_.size() >= degree_) return std::nullopt;
    // Rejection sampling against the sorted used_ list; expected O(1)
    // tries while used_ <= degree_/2, exact fallback otherwise.
    if (used_.size() * 2 <= degree_) {
        for (int tries = 0; tries < 64; ++tries) {
            const auto p = static_cast<port_id>(rng.below(degree_));
            if (!std::binary_search(used_.begin(), used_.end(), p)) return p;
        }
    }
    // Exact: pick the j-th unused port.
    const std::size_t unused = degree_ - used_.size();
    std::size_t j = rng.below(unused);
    std::size_t ui = 0;
    for (port_id p = 0; p < degree_; ++p) {
        if (ui < used_.size() && used_[ui] == p) {
            ++ui;
            continue;
        }
        if (j == 0) return p;
        --j;
    }
    return std::nullopt;  // unreachable
}

cb_result run_cautious(const graph& g, const cb_config& cfg, std::uint64_t rounds,
                       std::uint64_t seed, congest_budget budget,
                       const dynamics_spec& dynamics) {
    // The source's ID; its bit width enters every source message's cost.
    constexpr std::uint64_t source_id = 4242;
    return run_protocol<cautious_broadcast_node, cb_result>(
        g, seed, budget, dynamics,
        [&](std::size_t u) {
            return cautious_broadcast_node(g.degree(static_cast<node_id>(u)), u == 0,
                                           source_id, cfg, rounds);
        },
        [&](engine<cautious_broadcast_node>& eng) {
            eng.run_until_halted(rounds + 2);
            return oracle_options{.round_cap = rounds + 2};
        },
        [&](const engine<cautious_broadcast_node>& eng, cb_result& out) {
            for (std::size_t u = 0; u < eng.num_nodes(); ++u) {
                if (!eng.node_present(u) || eng.node_crashed(u)) continue;
                if (eng.node(u).exec().in_tree()) ++out.territory;
            }
            // Trivially true on a 1-node graph.
            out.success = out.territory >= 2 || g.num_nodes() == 1;
        });
}

}  // namespace anole
