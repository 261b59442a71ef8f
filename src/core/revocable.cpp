#include "core/revocable.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace anole {

void revocable_node::on_round(node_ctx<rev_msg>& ctx, inbox_view<rev_msg> inbox) {
    quiet_ = false;
    if (!started_) {
        started_ = true;
        start_estimate();
        start_iteration(ctx);
        broadcast(ctx, /*with_potential=*/true);
        round_in_phase_ = 1;
        return;
    }

    const observed before = observe();
    if (phase_ == phase::diffuse) {
        apply_exchange(inbox, /*diffusion_update=*/true);
        if (round_in_phase_ < r_k_) {
            broadcast(ctx, /*with_potential=*/true);
            ++round_in_phase_;
            quiet_ = observe() == before;
        } else {
            // Final diffusion exchange applied: threshold alarm
            // (Algorithm 7 line 13), then the dissemination phase opens.
            if (!q_low_ && potential_above_tau()) {
                q_low_ = true;
                pot_d_ = 1.0;
                pot_x_ = dyadic::one();
            }
            phase_ = phase::disseminate;
            round_in_phase_ = 1;
            broadcast(ctx, /*with_potential=*/false);
        }
        return;
    }

    // Dissemination phase.
    apply_exchange(inbox, /*diffusion_update=*/false);
    if (round_in_phase_ < d_k_) {
        broadcast(ctx, /*with_potential=*/false);
        ++round_in_phase_;
        quiet_ = observe() == before;
        return;
    }

    // Iteration complete (Algorithm 6 lines 12-13).
    end_iteration();
    if (iter_ < f_k_) {
        start_iteration(ctx);
        broadcast(ctx, /*with_potential=*/true);
        round_in_phase_ = 1;
        return;
    }

    // Estimate complete: decision phase (Algorithm 6 lines 14-17), then
    // the next estimate begins immediately.
    decide(ctx);
    start_estimate();
    start_iteration(ctx);
    broadcast(ctx, /*with_potential=*/true);
    round_in_phase_ = 1;
}

std::uint64_t revocable_node::quiet_horizon() const noexcept {
    if (!quiet_ || p_->exact_potentials) return 0;
    return (phase_ == phase::diffuse ? r_k_ : d_k_) - round_in_phase_;
}

bit_charge revocable_node::quiet_charge() const noexcept {
    if (phase_ == phase::disseminate) return {header_bits(), 0};
    return {header_bits() + charged_potential_bits(round_in_phase_ + 1, share_log2_),
            share_log2_};
}

revocable_node::observed revocable_node::observe() const noexcept {
    return {std::bit_cast<std::uint64_t>(pot_d_), idldr_, kldr_, q_low_, c_white_,
            leader_, phase_};
}

std::size_t revocable_node::header_bits() const noexcept {
    return 2 + gamma0_bits(idldr_) + gamma0_bits(kldr_);
}

void revocable_node::start_estimate() {
    k_ *= 2;
    f_k_ = p_->certification_iterations(k_);
    r_k_ = p_->diffusion_rounds(k_);
    d_k_ = p_->dissemination_rounds(k_);
    share_d_ = p_->share_denominator(k_);
    share_log2_ = p_->share_denominator_log2(k_);
    iter_ = 0;
    empty_count_ = 0;
    probing_count_ = 0;
}

void revocable_node::start_iteration(node_ctx<rev_msg>& ctx) {
    white_ = ctx.rng().bernoulli(p_->p_white(k_));
    q_low_ = false;
    c_white_ = white_;  // Algorithm 7 line 2
    if (white_) {
        pot_d_ = 0.0;
        pot_x_ = dyadic::zero();
    } else {
        pot_d_ = 1.0;
        pot_x_ = dyadic::one();
    }
    phase_ = phase::diffuse;
    round_in_phase_ = 0;
}

void revocable_node::apply_exchange(inbox_view<rev_msg> inbox, bool diffusion_update) {
    if (diffusion_update) {
        // Algorithm 7 lines 7-9: probe only while nobody alarms.
        bool all_probing = !q_low_ && degree_ <= p_->degree_bound(k_);
        if (all_probing) {
            for (const auto& [port, msg] : inbox) {
                (void)port;
                if (msg.q_low) {
                    all_probing = false;
                    break;
                }
            }
        }
        if (all_probing) {
            if (p_->exact_potentials) {
                std::vector<dyadic> in;
                in.reserve(inbox.size());
                for (const auto& [port, msg] : inbox) {
                    (void)port;
                    in.push_back(msg.pot_x);
                }
                pot_x_ = diffuse_exact(pot_x_, in, share_d_, share_log2_);
            } else {
                std::vector<double> in;
                in.reserve(inbox.size());
                for (const auto& [port, msg] : inbox) {
                    (void)port;
                    in.push_back(msg.pot_d);
                }
                pot_d_ = diffuse_approx(pot_d_, in, share_d_);
            }
        } else {
            q_low_ = true;
            pot_d_ = 1.0;
            pot_x_ = dyadic::one();
        }
    } else {
        // Dissemination (Algorithm 7 lines 16-18).
        for (const auto& [port, msg] : inbox) {
            (void)port;
            if (msg.q_low) q_low_ = true;
            if (msg.c_white) c_white_ = true;
        }
    }
    // Leader-view updates run in both phases (lines 10-12 and 19-21).
    for (const auto& [port, msg] : inbox) {
        (void)port;
        if (msg.idldr != 0) consider_leader(msg.idldr, msg.kldr);
    }
}

void revocable_node::broadcast(node_ctx<rev_msg>& ctx, bool with_potential) {
    rev_msg m;
    m.has_potential = with_potential;
    m.q_low = q_low_;
    m.c_white = c_white_;
    m.idldr = idldr_;
    m.kldr = kldr_;
    std::size_t bits = header_bits();
    if (with_potential) {
        if (p_->exact_potentials) {
            m.pot_x = pot_x_;
            bits += m.pot_x.wire_bits();
        } else {
            m.pot_d = pot_d_;
            bits += charged_potential_bits(round_in_phase_ + 1, share_log2_);
        }
    }
    m.charged = bits;
    for (port_id p = 0; p < degree_; ++p) ctx.send(p, m);
}

void revocable_node::end_iteration() {
    ++iter_;
    if (!c_white_) ++empty_count_;    // empty[i] = ¬c
    if (!q_low_) ++probing_count_;    // status[i] = q == probing
}

void revocable_node::decide(node_ctx<rev_msg>& ctx) {
    auto& tr = traces_[k_];
    tr.empty_iterations = empty_count_;
    tr.probing_iterations = probing_count_;
    tr.iterations = f_k_;
    // Algorithm 6 line 14: strict majority of white-free iterations, and
    // at least one probing iteration.
    if (id_ == 0 && 2 * empty_count_ > f_k_ && probing_count_ > 0) {
        id_ = ctx.rng().range(1, p_->id_range(k_));
        cert_ = k_;
        tr.chose_here = true;
        consider_leader(id_, cert_);
    }
    leader_ = id_ != 0 && idldr_ == id_ && kldr_ == cert_;  // line 17
}

void revocable_node::consider_leader(std::uint64_t cand_id, std::uint64_t cand_k) {
    const bool adopt =
        idldr_ == 0 || cand_k > kldr_ || (cand_k == kldr_ && cand_id < idldr_);
    if (!adopt) return;
    if (idldr_ != 0 && (idldr_ != cand_id || kldr_ != cand_k)) ++revocations_;
    idldr_ = cand_id;
    kldr_ = cand_k;
    leader_ = id_ != 0 && idldr_ == id_ && kldr_ == cert_;
}

bool revocable_node::potential_above_tau() const {
    const auto tau = p_->tau(k_);
    if (tau.num == 0) return !p_->exact_potentials ? pot_d_ > 0 : !pot_x_.is_zero();
    if (!p_->exact_potentials) {
        return pot_d_ > static_cast<double>(tau.num) / static_cast<double>(tau.den);
    }
    // pot > num/den  <=>  mant * den > num * 2^exp   (exact).
    bigint lhs = pot_x_.mantissa();
    lhs.mul_small(tau.den);
    bigint rhs(tau.num);
    rhs <<= pot_x_.exponent();
    return lhs > rhs;
}

// ---------------------------------------------------------------------------

namespace {

using rev_engine = engine<revocable_node>;
using leader_view = std::pair<std::uint64_t, std::uint64_t>;  // (id, certificate)

// All convergence predicates quantify over *live* nodes only: a crashed
// node's frozen view, or a departed node's slot, must not block the
// survivors from reaching agreement (re-election after an assassination
// is measured through exactly this).
bool live(const rev_engine& eng, std::size_t u) {
    return eng.node_present(u) && !eng.node_crashed(u);
}

bool views_consistent(const rev_engine& eng) {
    bool any = false;
    leader_view v{0, 0};
    for (std::size_t u = 0; u < eng.num_nodes(); ++u) {
        if (!live(eng, u)) continue;
        const auto& nd = eng.node(u);
        if (nd.id() == 0 || nd.leader_id() == 0) return false;
        const leader_view mine{nd.leader_id(), nd.leader_certificate()};
        if (!any) {
            any = true;
            v = mine;
        } else if (mine != v) {
            return false;
        }
    }
    return any;
}

bool past_cap(const rev_engine& eng, std::uint64_t k_cap) {
    if (k_cap == 0) return false;
    for (std::size_t u = 0; u < eng.num_nodes(); ++u) {
        if (live(eng, u) && eng.node(u).estimate() <= k_cap) return false;
    }
    return true;
}

leader_view first_live_view(const rev_engine& eng) {
    for (std::size_t u = 0; u < eng.num_nodes(); ++u) {
        if (!live(eng, u)) continue;
        return {eng.node(u).leader_id(), eng.node(u).leader_certificate()};
    }
    return {0, 0};
}

}  // namespace

revocable_result run_revocable(const graph& g, const revocable_params& params,
                               std::uint64_t seed, std::uint64_t max_rounds,
                               congest_budget budget, const dynamics_spec& dynamics) {
    params.validate();

    bool reached = false;
    std::uint64_t stable_round = 0;
    leader_view view{0, 0};  // the agreed view when first reached
    return run_protocol<revocable_node, revocable_result>(
        g, seed, budget, dynamics,
        [&](std::size_t u) {
            return revocable_node(g.degree(static_cast<node_id>(u)), params);
        },
        [&](rev_engine& eng) {
            try {
                eng.run_until(
                    [&] { return views_consistent(eng) || past_cap(eng, params.k_cap); },
                    max_rounds);
                reached = views_consistent(eng);
            } catch (const error&) {
                reached = false;  // max_rounds exhausted: report what we have
            }
            stable_round = eng.round();
            if (reached) {
                view = first_live_view(eng);
                // Revocability check: once every node has chosen an ID and
                // all views agree, no undominated (ID, certificate) pair can
                // still be in flight, so views are provably final; we
                // nevertheless run a bounded verification window and assert
                // they did not move. (A full extra estimate would be the
                // airtight check, but its cost grows ~k^{4(2+ε)} in blind
                // mode — the window is the documented substitution.)
                eng.run_rounds(
                    std::min<std::uint64_t>(stable_round / 2 + 1000, 200'000));
            }
            return oracle_options{.check_views = reached};
        },
        [&](const rev_engine& eng, revocable_result& res) {
            res.stable_round = stable_round;
            const leader_view final_view = first_live_view(eng);
            bool all_same = true;
            std::size_t live_nodes = 0;
            for (std::size_t u = 0; u < eng.num_nodes(); ++u) {
                const auto& nd = eng.node(u);
                // Cost/trace aggregates cover every incarnation that ran,
                // including crashed nodes; correctness quantifiers below
                // are live-only.
                res.total_revocations += nd.revocations();
                res.final_estimate = std::max(res.final_estimate, nd.estimate());
                for (const auto& [k, tr] : nd.traces()) {
                    auto& agg = res.traces[k];
                    agg.empty_iterations += tr.empty_iterations;
                    agg.probing_iterations += tr.probing_iterations;
                    agg.iterations += tr.iterations;
                    agg.chose_here = agg.chose_here || tr.chose_here;
                }
                if (!live(eng, u)) continue;
                ++live_nodes;
                if (nd.id() != 0) ++res.nodes_chose;
                if (leader_view{nd.leader_id(), nd.leader_certificate()} != final_view) {
                    all_same = false;
                }
            }
            if (res.num_leaders > 0) {
                res.leader_certificate = eng.node(res.leader_node).certificate();
            }
            res.success = reached && all_same && res.num_leaders == 1 &&
                          res.nodes_chose == live_nodes && live_nodes > 0 &&
                          final_view == view;
        });
}

}  // namespace anole
