// anole — Revocable Leader Election, "Blind Leader Election with
// Certificates via Diffusion with Thresholds" (paper §5.2, Algorithms
// 6–7, Theorem 3 / Corollary 1).
//
// No node knows anything about the network (in blind mode, not even a
// bound on its size). Nodes iterate estimates k = 2, 4, 8, …; for each
// estimate they run f(k) *certification* iterations, each consisting of:
//
//   * coloring — each node is white w.p. p(k) = ln2/k^{1+ε}, else black;
//   * diffusion (r(k) rounds) — potentials (black 1, white 0) are
//     averaged with share denominator D(k) (core/diffusion.h); alarms set
//     the node's status q to `low` if its degree exceeds k^{1+ε}, if any
//     neighbor reports `low`, or — at phase end — if its potential stays
//     above τ(k) = 1 − 1/(k^{1+ε}−1) (Lemma 5: once k^{1+ε} ≥ 2n+1 and a
//     white node exists, every potential falls below τ);
//   * dissemination (k^{1+ε} rounds) — status, white-sighting flag and the
//     best (ID, certificate) pair are flooded.
//
// In the decision phase a node that never chose an ID, saw whites in
// fewer than half the iterations, and had at least one probing iteration,
// draws an ID uniform in [1..k^{4(1+ε)}·log⁴(4k)] *certified by k*. The
// leader, from any node's perspective, is the smallest ID among those
// carrying the largest certificate; the flag is revocable — hearing a
// better certificate later dethrones a leader (the impossibility theorem
// shows some revocation risk is unavoidable without knowing n).
//
// Pseudocode reconciliation: Algorithm 6 line 16 as printed overwrites
// (idldr, Kldr) with the node's own fresh choice unconditionally, which
// would discard an already-heard better certificate and break the
// monotone "largest certificate, then smallest ID" convergence that the
// analysis describes ("updating it as soon as x receives a larger
// certificate or the same certificate with a smaller ID", §5.2). We apply
// the same dominance rule to the node's own choice instead.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/diffusion.h"
#include "core/params.h"
#include "graph/graph.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "util/bit_codec.h"

namespace anole {

// Broadcast payload for both diffusion and dissemination rounds. The
// potential is a double charged the paper's bit-by-bit size
// (core/diffusion.h charged_potential_bits), not its sizeof.
struct rev_msg {
    double pot_d = 0;  // read in diffusion rounds only
    bool q_low = false;
    bool c_white = false;
    std::uint64_t idldr = 0;  // 0 = nil
    std::uint64_t kldr = 0;   // 0 = nil
    std::uint64_t charged = 0;

    [[nodiscard]] std::size_t bit_size() const noexcept { return charged; }
};

class revocable_node {
public:
    using message_type = rev_msg;

    revocable_node(std::size_t degree, const revocable_params& params)
        : degree_(degree), p_(&params) {}

    void on_round(node_ctx<rev_msg>& ctx, inbox_view<rev_msg> inbox);

    // --- quiet-round fast-forward hooks (sim/engine.h) ---
    // Plain rounds left in the current phase when the last round was
    // plain and changed no observable field; 0 otherwise.
    [[nodiscard]] std::uint64_t quiet_horizon() const noexcept;
    // What broadcast charges per message in the next plain round, growing
    // by share_log2 bits a round while diffusing.
    [[nodiscard]] bit_charge quiet_charge() const noexcept;
    void fast_forward(std::uint64_t rounds) noexcept { round_in_phase_ += rounds; }

    // --- observers ---
    [[nodiscard]] std::uint64_t estimate() const noexcept { return k_; }
    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
    [[nodiscard]] std::uint64_t certificate() const noexcept { return cert_; }
    [[nodiscard]] std::uint64_t leader_id() const noexcept { return idldr_; }
    [[nodiscard]] std::uint64_t leader_certificate() const noexcept { return kldr_; }
    [[nodiscard]] bool leader() const noexcept { return leader_; }
    [[nodiscard]] std::uint64_t revocations() const noexcept { return revocations_; }
    [[nodiscard]] node_status status() const noexcept {
        node_status st;
        st.decided = id_ != 0;
        st.leader = leader_;
        st.own_id = id_;
        st.own_cert = cert_;
        st.view_id = idldr_;
        st.view_cert = kldr_;
        return st;
    }
    // Per-estimate trace for the Lemma 6-8 experiments (E10).
    struct estimate_trace {
        std::uint64_t empty_iterations = 0;    // no white detected
        std::uint64_t probing_iterations = 0;  // ended with q = probing
        std::uint64_t iterations = 0;
        bool chose_here = false;
    };
    [[nodiscard]] const std::map<std::uint64_t, estimate_trace>& traces() const noexcept {
        return traces_;
    }

private:
    enum class phase : std::uint8_t { diffuse, disseminate };

    // Everything a neighbour or an observer can see; a plain round that
    // leaves it unchanged is quiet.
    struct observed {
        std::uint64_t pot_bits;  // pot_d_, bitwise
        std::uint64_t idldr, kldr;
        bool q_low, c_white, leader;
        phase ph;
        friend bool operator==(const observed&, const observed&) = default;
    };
    [[nodiscard]] observed observe() const noexcept;
    [[nodiscard]] std::size_t header_bits() const noexcept;

    void start_estimate();
    void start_iteration(node_ctx<rev_msg>& ctx);
    void apply_exchange(inbox_view<rev_msg> inbox, bool diffusion_update);
    void broadcast(node_ctx<rev_msg>& ctx, bool with_potential);
    void end_iteration();
    void decide(node_ctx<rev_msg>& ctx);
    void consider_leader(std::uint64_t cand_id, std::uint64_t cand_k);
    [[nodiscard]] bool potential_above_tau() const;

    std::size_t degree_;
    const revocable_params* p_;

    bool started_ = false;

    // Estimate loop.
    std::uint64_t k_ = 1;  // doubled on entry, so first estimate is 2
    std::uint64_t f_k_ = 0, r_k_ = 0, d_k_ = 0;
    std::uint64_t share_d_ = 0;
    std::size_t share_log2_ = 0;
    std::uint64_t iter_ = 0;
    std::uint64_t empty_count_ = 0, probing_count_ = 0;

    // Iteration state.
    phase phase_ = phase::diffuse;
    std::uint64_t round_in_phase_ = 0;
    bool quiet_ = false;  // last round was plain and changed nothing observed
    bool white_ = false;
    bool q_low_ = false;
    bool c_white_ = false;
    double pot_d_ = 1.0;

    // Decision state.
    std::uint64_t id_ = 0, cert_ = 0;      // own (ID, certificate); 0 = nil
    std::uint64_t idldr_ = 0, kldr_ = 0;   // current leader view
    bool leader_ = false;
    std::uint64_t revocations_ = 0;

    std::map<std::uint64_t, estimate_trace> traces_;
};

// --- experiment driver -------------------------------------------------------

// Rows D/E's CONGEST budget: fragmenting 16·⌈log2 n⌉ bits per link and
// round, which charges the bit-by-bit potential transmission per Theorem
// 3's accounting.
inline constexpr congest_budget revocable_budget = congest_budget::fragmenting(16);

// `success` additionally demands that every live node chose an ID and
// all live views agree, before and after the verification window;
// totals.congest_rounds is the bit-by-bit charged time.
struct revocable_result : run_outcome {
    std::uint64_t leader_certificate = 0;
    std::uint64_t final_estimate = 0;          // k when stopped
    std::uint64_t stable_round = 0;            // first round views were final
    std::uint64_t total_revocations = 0;       // leader-view changes after adoption
    std::size_t nodes_chose = 0;               // live nodes with an ID
    // Aggregated per-estimate traces (summed over nodes), for E10.
    std::map<std::uint64_t, revocable_node::estimate_trace> traces;
};

// Runs until every node chose an ID, all leader views agree, and the view
// survives one further full estimate unchanged (revocability quiescence),
// or until params.k_cap / max_rounds.
[[nodiscard]] revocable_result run_revocable(const graph& g,
                                             const revocable_params& params,
                                             std::uint64_t seed,
                                             std::uint64_t max_rounds = 500'000'000,
                                             congest_budget budget = revocable_budget,
                                             const dynamics_spec& dynamics = {});

}  // namespace anole
