// anole — synchronous CONGEST round engine.
//
// Executes one protocol instance per node of a graph under the model of
// the paper (§2): globally synchronous rounds; per round each node may
// send at most one message per incident link direction; delivery happens
// at the start of the next round; local computation is free.
//
// Anonymity is enforced by construction: protocol code receives a
// `node_ctx` exposing *only* the local degree, port-indexed send, a
// private RNG stream, the round number and a halt switch. Node indices
// exist solely on the engine side for bookkeeping. Tests additionally run
// protocols under randomly permuted port labelings (graph::
// with_permuted_ports) to catch accidental label dependence.
//
// The engine is a class template over the protocol type P, which must
// provide:
//     using message_type = ...;   // copyable, default-constructible,
//                                 // with bit_size() -> size_t, and
//                                 // owning no heap memory (see below)
//     void on_round(node_ctx<message_type>& ctx,
//                   inbox_view<message_type> inbox);
//
// The inbox is the list of (arrival port, message) pairs delivered this
// round, in a deterministic but protocol-unobservable order. on_round is
// called every round for every non-halted node. A node that calls
// ctx.halt() is never stepped again and sends nothing.
//
// --- message transport: flat single-writer slots ---
//
// The CONGEST invariant — at most one message per (node, port) per round
// — means the whole network's in-flight traffic fits in exactly 2m
// slots, one per directed edge, laid out CSR-style and indexed by the
// *sender*:
//
//     slot(u, p) = g.offset(u) + p          (p = out-port at u)
//
//     cur_msg_   [ u0.p0 | u0.p1 | u1.p0 | u1.p1 | u1.p2 | ... ]  2m slots
//     cur_stamp_ [   7   |   -   |   -   |   7   |   7   | ... ]  parallel
//
// A slot holds a live message iff its stamp equals the current round's
// delivery mark (round + 1; stamps only ever grow, so nothing is ever
// cleared). Sender-major order makes the expensive half of transport —
// the writes — perfectly dense: staging a send is two stores into the
// node's own contiguous slot ranges (a double send is caught as a
// repeated stamp right there), and a whole round's staging is a single
// sequential pass over the buffers. Delivery is the cheap half: node v's
// inbox gathers through the precomputed peer-slot table
// (peer[slot(v, q)] = slot(u, p), an involution, built by peer_slots in
// sim/dynamics.h) — scattered *reads*, which dirty no cache lines and
// land in the compact stamp/message arrays rather than padded structs.
// The graph's CSR offsets are the only slot base and this is the only
// peer table: the rewire adversary edits it in place. End of round, the
// cur/nxt buffers swap in O(1). Compared to per-node inbox vectors this
// removes all per-message heap traffic, the per-send engine round-trip
// and metrics work, the scattered delivery stores, and the O(n)
// per-round clear. "No per-message heap traffic" holds only while the
// message type owns no heap memory: a send moves the payload into its
// slot and frees whatever the slot held, so a payload with a std::vector
// pays an allocation and a free per send. Variable-length payloads keep
// their common case inline (util/inline_vec.h, as gl_msg does) and move,
// not copy, into send().
//
// Because every slot has a unique writer and every node draws from a
// private RNG stream, rounds can also be sharded across a thread pool
// with results bitwise-identical to serial execution — see
// scoped_engine_parallelism below ("--node-jobs" in the benches).
// Per-shard cost counters are reduced deterministically after the
// barrier.
//
// Cost accounting (sim/metrics.h): every send tallies one message and its
// exact bit size; budget policies (sim/budget.h) reject or fragment
// messages exceeding the per-link CONGEST budget. In fragment mode a
// round's time cost is the worst ⌈bits/budget⌉ over its messages — the
// synchronous network advances at the slowest link's pace, matching the
// paper's own accounting of bit-by-bit potential transmission.
//
// CONGEST-guard checks (port range, double send) are hard errors in
// Debug builds and compiled out in Release — the tier-1 test suite runs
// Debug, so protocol violations are still caught where it matters, while
// the measured hot path carries no per-send branch for them. Budget
// violations are *model semantics*, not guards, and throw in every
// configuration.
//
// --- quiet-round fast-forward ---
//
// A protocol may opt in to having runs of *quiet* rounds skipped in
// closed form by providing three hooks (detected by `quiet_hooks<P>`;
// protocols without them compile the skip away):
//
//     std::uint64_t quiet_horizon() const;  // see below
//     bit_charge    quiet_charge() const;   // {base, slope} bits per message
//     void          fast_forward(std::uint64_t s);
//
// quiet_horizon() returns 0 unless the node's last on_round was *plain*
// (no RNG draw, no counter-driven transition) and changed nothing a
// neighbour or an observer can see; otherwise it returns how many more
// plain rounds follow before the node's next counter-driven transition.
// In a plain round the node must send the same ports as in the round
// before, with payloads that are a function of its observable state only
// (bit sizes may grow linearly: every message of skipped round i, 0-based,
// costs base + i·slope bits). A node that sent nothing stays silent, so
// the charge is per live out-slot, not per port: a node pays for the
// ports it sent on in the last stepped round, and a silent node pays
// nothing. fast_forward(s) advances the node's round counters as s plain
// rounds would.
//
// Why a skip is exact: if no node changed in plain round R and round R+1
// is also plain for every node, each node receives in R+1 exactly the
// payloads it received in R and applies the same deterministic update, so
// again nothing changes — by induction up to the smallest horizon. Silent
// rounds are the special case with nothing in flight: every inbox stays
// empty, and a node whose step on an empty inbox is a no-op stays as it
// is. The engine then charges messages, bits and congest_rounds for the
// skipped rounds as stepping would (a silent round costs one congest
// round and nothing else), restamps the live slots and advances round().
// It skips only on a static network (no dynamics, which also covers trace
// record/replay, adaptive strategies, churn and sleep), after round 0,
// with no node halted, and with equal slopes; the skip never crosses a
// strict-budget throw, the stamp limit, or the run_until / run_rounds cap.
//
// Contract for hook protocols: run_until predicates read node state only,
// never round() — a predicate is not evaluated inside a skipped run.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "sim/budget.h"
#include "sim/dynamics.h"
#include "sim/metrics.h"
#include "sim/thread_pool.h"
#include "util/error.h"
#include "util/rng.h"

namespace anole {

template <class M>
concept congest_message = std::copyable<M> && std::default_initializable<M> &&
                          requires(const M& m) {
    { m.bit_size() } -> std::convertible_to<std::size_t>;
};

// Bits charged per message in a run of skipped quiet rounds: every
// message sent in skipped round i (0-based) costs base + i·slope.
struct bit_charge {
    std::uint64_t base = 0;
    std::uint64_t slope = 0;
};

// The fast-forward hooks (see the header comment).
template <class P>
concept quiet_hooks = requires(P& p, const P& cp, std::uint64_t s) {
    { cp.quiet_horizon() } -> std::convertible_to<std::uint64_t>;
    { cp.quiet_charge() } -> std::same_as<bit_charge>;
    p.fast_forward(s);
};

// Σ_{i<n} ⌊(a·i + b)/m⌋ in O(log m) steps (the Euclid-like floor sum),
// with 128-bit intermediates; m > 0.
[[nodiscard]] inline unsigned __int128 floor_sum(std::uint64_t n, std::uint64_t m,
                                                 std::uint64_t a, std::uint64_t b) {
    using u128 = unsigned __int128;
    u128 nn = n, mm = m, aa = a, bb = b, sum = 0;
    while (nn != 0) {
        if (aa >= mm) {
            sum += (nn * (nn - 1) / 2) * (aa / mm);
            aa %= mm;
        }
        if (bb >= mm) {
            sum += nn * (bb / mm);
            bb %= mm;
        }
        const u128 y_max = aa * nn + bb;
        if (y_max < mm) break;
        nn = y_max / mm;
        bb = y_max % mm;
        std::swap(mm, aa);
    }
    return sum;
}

// True when the engine validates protocol behaviour (port range, one send
// per port per round) with throwing checks. Debug only; Release trusts
// protocol code and compiles the guards out (tests that provoke
// violations must skip themselves when this is false).
#ifndef NDEBUG
inline constexpr bool congest_guard_checks = true;
#else
inline constexpr bool congest_guard_checks = false;
#endif

// Messages delivered to a node this round, as (arrival port, payload)
// pairs. A lightweight view over the node's arrival ports: port q's
// message, if any, sits in the *sender's* staging slot (located via the
// precomputed peer-slot table) and is live iff its stamp matches this
// round's delivery mark. Stamps and payloads live in separate dense
// arrays so the stamp gathers touch a small array that stays cached.
// Iteration order is ascending port — deterministic, but protocols must
// not (and cannot) attribute meaning to it beyond the port labels.
template <congest_message Msg>
class inbox_view {
public:
    class iterator {
    public:
        using value_type = std::pair<port_id, const Msg&>;

        value_type operator*() const noexcept {
            return {pos_, view_->msgs_[view_->peer_[pos_]]};
        }
        iterator& operator++() noexcept {
            ++pos_;
            skip();
            return *this;
        }
        [[nodiscard]] bool operator==(const iterator& o) const noexcept {
            return pos_ == o.pos_;
        }
        [[nodiscard]] bool operator!=(const iterator& o) const noexcept {
            return pos_ != o.pos_;
        }

    private:
        friend class inbox_view;
        iterator(const inbox_view* view, port_id pos) noexcept : view_(view), pos_(pos) {
            skip();
        }
        void skip() noexcept {
            while (pos_ < view_->degree_ &&
                   view_->stamps_[view_->peer_[pos_]] != view_->mark_) {
                ++pos_;
            }
        }
        const inbox_view* view_;
        port_id pos_;
    };

    inbox_view() noexcept = default;  // empty
    inbox_view(const Msg* msgs, const std::uint32_t* stamps, const std::uint32_t* peer,
               std::uint32_t mark, port_id degree) noexcept
        : msgs_(msgs), stamps_(stamps), peer_(peer), mark_(mark), degree_(degree) {}

    [[nodiscard]] iterator begin() const noexcept { return iterator(this, 0); }
    [[nodiscard]] iterator end() const noexcept { return iterator(this, degree_); }

    // Number of delivered messages. O(degree) stamp gather on first call,
    // cached afterwards (iteration is O(degree) anyway).
    [[nodiscard]] std::size_t size() const noexcept {
        if (count_ == unknown) {
            std::uint32_t c = 0;
            for (port_id p = 0; p < degree_; ++p) {
                c += stamps_[peer_[p]] == mark_ ? 1 : 0;
            }
            count_ = c;
        }
        return count_;
    }
    [[nodiscard]] bool empty() const noexcept {
        if (count_ != unknown) return count_ == 0;
        for (port_id p = 0; p < degree_; ++p) {
            if (stamps_[peer_[p]] == mark_) return false;
        }
        count_ = 0;
        return true;
    }

private:
    static constexpr std::uint32_t unknown = 0xffffffffu;

    const Msg* msgs_ = nullptr;
    const std::uint32_t* stamps_ = nullptr;
    const std::uint32_t* peer_ = nullptr;
    std::uint32_t mark_ = 0;
    port_id degree_ = 0;
    mutable std::uint32_t count_ = unknown;
};

// --- intra-instance parallelism ---------------------------------------------
//
// engine<P>::step() can shard its node loop over a thread pool. The
// single-writer slot layout plus per-node RNG streams make the sharded
// round bitwise-identical to the serial one, so this is purely a
// wall-clock knob for large instances — orthogonal to the runner's
// repetition-level `--jobs`. The setting is ambient (thread-local), set
// only through scoped_engine_parallelism and read once by each engine's
// constructor. That lets the ScenarioRunner plumb `--node-jobs` to engines
// constructed deep inside the algorithm drivers without threading a
// parameter through every one.

struct engine_parallelism {
    thread_pool* pool = nullptr;  // borrowed; nullptr => engine owns workers
    std::size_t node_jobs = 1;    // shard count; <= 1 means serial
};

[[nodiscard]] inline engine_parallelism& ambient_engine_parallelism() noexcept {
    thread_local engine_parallelism cfg;
    return cfg;
}

// RAII: sets the ambient default for engines constructed in this scope
// (on this thread), restoring the previous value on exit.
class scoped_engine_parallelism {
public:
    explicit scoped_engine_parallelism(engine_parallelism next) noexcept
        : prev_(ambient_engine_parallelism()) {
        ambient_engine_parallelism() = next;
    }
    ~scoped_engine_parallelism() { ambient_engine_parallelism() = prev_; }
    scoped_engine_parallelism(const scoped_engine_parallelism&) = delete;
    scoped_engine_parallelism& operator=(const scoped_engine_parallelism&) = delete;

private:
    engine_parallelism prev_;
};

namespace detail {
// Per-round (per-shard when rounds are sharded) cost accumulator; the
// engine flushes it into sim_metrics once per round so the send hot path
// never touches the phase map.
struct engine_round_acc {
    std::uint64_t messages = 0;
    std::uint64_t bits = 0;
    std::uint64_t max_frag = 1;
    std::size_t newly_halted = 0;
    std::exception_ptr error;
};
}  // namespace detail

template <congest_message Msg>
class node_ctx {
public:
    [[nodiscard]] std::size_t degree() const noexcept { return degree_; }
    [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
    [[nodiscard]] xoshiro256ss& rng() noexcept { return *rng_; }

    // Sends `m` through local port `p` (0-based). At most one send per
    // port per round (CONGEST); violations throw anole::error in Debug
    // builds and are undefined in Release (see congest_guard_checks).
    //
    // Fully inline: a send is a stamp store plus a message store into the
    // node's own contiguous out-slots — no engine round-trip, no table
    // lookup, no scattered write — with cost counters kept right here in
    // the (stack-hot) context and folded into the round totals after
    // on_round returns. An rvalue is moved into its slot once; an lvalue
    // is copied, then moved.
    void send(port_id p, const Msg& m) { send(p, Msg(m)); }
    void send(port_id p, Msg&& m) {
        if constexpr (congest_guard_checks) {
            require(p < degree_, "node_ctx::send: port out of range");
        }
        if constexpr (congest_guard_checks) {
            require(out_stamp_[p] != stamp_, "CONGEST violation: double send on port");
        }
        const std::size_t bits = m.bit_size();
        if (bits > budget_bits_) [[unlikely]] {
            // Oversize: reject (strict) or charge fragmentation rounds.
            // Fitting messages — the designed-for case — skip the division.
            if (budget_mode_ == budget_mode::strict) {
                require(false, "CONGEST violation: message of " +
                                   std::to_string(bits) +
                                   " bits exceeds per-round budget of " +
                                   std::to_string(budget_bits_));
            }
            if (budget_mode_ == budget_mode::fragment) {
                const std::uint64_t frag = (bits + budget_bits_ - 1) / budget_bits_;
                if (frag > max_frag_) max_frag_ = frag;
            }
        }
        ++messages_;
        bits_ += bits;
        out_stamp_[p] = stamp_;
        out_msg_[p] = std::move(m);
    }

    // Messages this node has sent so far this round.
    [[nodiscard]] std::uint64_t sent() const noexcept { return messages_; }

    // Marks this node permanently finished; it is never stepped again.
    void halt() noexcept { halted_flag_ = true; }
    [[nodiscard]] bool halted() const noexcept { return halted_flag_; }

private:
    template <class P>
    friend class engine;

    std::size_t degree_ = 0;
    std::uint64_t round_ = 0;
    xoshiro256ss* rng_ = nullptr;
    // Staging: this node's contiguous out-slot ranges in the next round's
    // flat buffers (see the engine's transport comment).
    std::uint32_t* out_stamp_ = nullptr;
    Msg* out_msg_ = nullptr;
    std::uint32_t stamp_ = 0;
    std::uint64_t budget_bits_ = 0;
    budget_mode budget_mode_ = budget_mode::count_only;
    // Per-node cost counters, folded into the round accumulator by the
    // engine after on_round.
    std::uint64_t messages_ = 0;
    std::uint64_t bits_ = 0;
    std::uint64_t max_frag_ = 1;
    bool halted_flag_ = false;
};

// Hides P's fast-forward hooks, so an engine over always_step<P> steps
// every round: the reference the fast-forward exactness checks run against.
template <class P>
class always_step {
public:
    using message_type = typename P::message_type;

    template <class... Args>
    explicit always_step(Args&&... args) : inner_(std::forward<Args>(args)...) {}

    void on_round(node_ctx<message_type>& ctx, inbox_view<message_type> inbox) {
        inner_.on_round(ctx, inbox);
    }
    [[nodiscard]] const P& inner() const noexcept { return inner_; }

private:
    P inner_;
};

template <class P>
class engine {
    using round_acc = detail::engine_round_acc;

public:
    using message_type = typename P::message_type;
    static_assert(congest_message<message_type>);

    // The engine references (not copies) the graph; keep it alive.
    engine(const graph& g, std::uint64_t seed, congest_budget budget = {})
        : g_(g), budget_(budget), budget_bits_(budget.resolve(g.num_nodes())),
          par_(ambient_engine_parallelism()), peer_slot_(peer_slots(g)) {
        const std::size_t n = g_.num_nodes();
        const std::size_t slots = peer_slot_.size();
        cur_msg_.resize(slots);
        nxt_msg_.resize(slots);
        cur_stamp_.assign(slots, 0);
        nxt_stamp_.assign(slots, 0);
        rngs_.reserve(n);
        for (node_id u = 0; u < n; ++u) rngs_.emplace_back(derive_seed(seed, u, 0xA0CE));
        halted_.assign(n, 0);
        present_.assign(n, 1);
        crashed_.assign(n, 0);
        present_count_ = n;
    }

    engine(const engine&) = delete;
    engine& operator=(const engine&) = delete;

    // Attaches the dynamic-network adversary (sim/dynamics.h). Must be
    // called before the first step(); the whole event schedule is a pure
    // function of (spec, run_seed), applied in a serial pre-round pass so
    // sharded rounds stay bitwise-identical to serial ones.
    void set_dynamics(const dynamics_spec& spec, std::uint64_t run_seed) {
        require(round_ == 0, "engine::set_dynamics: call before the first round");
        if (spec.enabled()) {
            dyn_ = std::make_unique<dynamics_state>(g_, peer_slot_, spec, run_seed);
        } else {
            dyn_.reset();
        }
    }
    [[nodiscard]] const dynamics_state* dynamics() const noexcept { return dyn_.get(); }

    // Constructs the per-node protocol instances: factory(node_index) -> P.
    // The index is for construction-time parameters only; conforming
    // protocols never branch on identity (see the permuted-port tests).
    // The factory is retained: membership churn respawns a fresh instance
    // when a departed node rejoins.
    template <class Factory>
    void spawn(Factory&& factory) {
        require(procs_.empty(), "engine::spawn: already spawned");
        factory_ = std::function<P(std::size_t)>(std::forward<Factory>(factory));
        procs_.reserve(g_.num_nodes());
        for (node_id u = 0; u < g_.num_nodes(); ++u) {
            procs_.push_back(factory_(static_cast<std::size_t>(u)));
        }
    }

    // Installs the per-node protocol-status probe the adaptive adversary
    // (and the recovery oracles) observe. Drivers translate their own
    // observers into node_status; the probe is only consulted in the
    // serial pre-round pass, never from sharded rounds.
    void set_status_probe(std::function<node_status(std::size_t)> probe) {
        probe_ = std::move(probe);
    }

    // --- running ---

    void run_rounds(std::uint64_t k) {
        for (std::uint64_t done = 0; done < k;) {
            const std::uint64_t skipped = quiet_skip(k - done);
            if (skipped > 0) {
                done += skipped;
            } else {
                step();
                ++done;
            }
        }
    }

    // Runs until every present node halted; returns rounds executed.
    // Throws if max_rounds is exceeded, or with a `no_live_nodes` verdict
    // if the whole membership departed.
    std::uint64_t run_until_halted(std::uint64_t max_rounds) {
        return run_until(
            [this] { return present_count_ > 0 && halted_count_ == present_count_; },
            max_rounds);
    }

    // Runs until pred() (checked before each round); returns rounds run.
    template <class Pred>
    std::uint64_t run_until(Pred&& pred, std::uint64_t max_rounds) {
        std::uint64_t done = 0;
        while (!pred()) {
            require(done < max_rounds, "engine::run_until: exceeded max_rounds");
            // Once no live node remains (every present node halted —
            // protocol halts plus crashes — or everyone left), protocol
            // state is frozen: further rounds can never satisfy the
            // predicate. Fail now instead of spinning to max_rounds —
            // under crash/leave faults this is what turns a dead network
            // into a bounded verdict instead of a multi-million-round
            // spin.
            require(live_count() > 0,
                    "engine::run_until: no_live_nodes — every node halted, crashed "
                    "or left without satisfying the predicate");
            const std::uint64_t skipped = quiet_skip(max_rounds - done);
            if (skipped > 0) {
                done += skipped;
                continue;
            }
            step();
            ++done;
        }
        return done;
    }

    // One synchronous round.
    void step() {
        require(!procs_.empty(), "engine::step: spawn first");
        // 32-bit stamps bound the round count; generous next to the
        // largest budget in the tree (revocable's 3e7) but cheap to keep
        // honest.
        require(round_ < 0xfffffffdull, "engine::step: stamp space exhausted");
        if (dyn_) apply_dynamics();
        const std::size_t n = g_.num_nodes();
        const std::size_t shards =
            par_.node_jobs <= 1 ? 1 : std::min(par_.node_jobs, n);

        round_acc total;
        try {
            run_shards(n, shards, total);
        } catch (...) {
            // Mid-round failure (e.g. a strict-budget violation): nodes
            // that halted earlier this round already have their flag set
            // but their deferred count update never ran. Recount (among
            // present nodes — halted_count_'s domain) so it stays
            // consistent for callers that inspect the engine after
            // catching the error.
            std::size_t halted = 0;
            for (node_id u = 0; u < g_.num_nodes(); ++u) {
                if (present_[u] && halted_[u]) ++halted;
            }
            halted_count_ = halted;
            throw;
        }

        halted_count_ += total.newly_halted;
        std::swap(cur_msg_, nxt_msg_);
        std::swap(cur_stamp_, nxt_stamp_);
        metrics_.count_messages(total.messages, total.bits);
        metrics_.count_round(total.max_frag);
        ++round_;
    }

private:
    // Quiet-round fast-forward (see the header comment): skips up to
    // `limit` rounds in which provably no node changes, charging them in
    // closed form. Returns the rounds skipped; 0 means step normally.
    std::uint64_t quiet_skip(std::uint64_t limit) {
        if constexpr (!quiet_hooks<P>) {
            (void)limit;
            return 0;
        } else {
            if (dyn_ || round_ == 0 || halted_count_ != 0 || procs_.empty()) return 0;
            std::uint64_t s = std::min<std::uint64_t>(limit, 0xfffffffdull - round_);
            const std::size_t n = g_.num_nodes();
            for (node_id u = 0; u < n && s > 0; ++u) {
                s = std::min<std::uint64_t>(s, procs_[u].quiet_horizon());
            }
            if (s == 0) return 0;

            // A plain round resends the ports of the round before, so each
            // node is charged for its live out-slots. Round i's largest
            // message is max_base + i·slope bits: per-node bases, one
            // common slope.
            using u128 = unsigned __int128;
            const auto mark = static_cast<std::uint32_t>(round_ + 1);
            const std::uint64_t slope = procs_[0].quiet_charge().slope;
            std::uint64_t max_base = 0;
            std::uint64_t sent_sum = 0;
            u128 sent_base_sum = 0;
            for (node_id u = 0; u < n; ++u) {
                const bit_charge c = procs_[u].quiet_charge();
                if (c.slope != slope) return 0;
                const std::size_t base = g_.offset(u);
                std::uint64_t sent = 0;
                for (std::size_t i = base; i < base + g_.degree(u); ++i) {
                    sent += cur_stamp_[i] == mark ? 1 : 0;
                }
                if (sent == 0) continue;
                max_base = std::max(max_base, c.base);
                sent_sum += sent;
                sent_base_sum += static_cast<u128>(sent) * c.base;
            }
            const bool sends = sent_sum > 0;
            const std::uint64_t budget = budget_bits_;
            if (sends && budget_.mode == budget_mode::strict) {
                // Stop before the first round a message would throw.
                if (max_base > budget) return 0;
                if (slope > 0) s = std::min(s, (budget - max_base) / slope + 1);
            }

            // Round i costs max(1, ⌈(max_base + i·slope)/B⌉) when fragmenting.
            u128 congest = s;
            if (sends && budget_.mode == budget_mode::fragment) {
                congest = floor_sum(s, budget, slope, max_base + budget - 1);
                if (max_base == 0) congest += slope == 0 ? s : 1;
            }
            const u128 ss = s;
            const u128 bits = ss * sent_base_sum +
                              static_cast<u128>(slope) * (ss * (ss - 1) / 2) * sent_sum;
            metrics_.count_messages(static_cast<std::uint64_t>(ss * sent_sum),
                                    static_cast<std::uint64_t>(bits));
            metrics_.count_rounds(s, static_cast<std::uint64_t>(congest));

            const auto next_mark = static_cast<std::uint32_t>(round_ + 1 + s);
            for (std::uint32_t& stamp : cur_stamp_) {
                if (stamp == mark) stamp = next_mark;
            }
            round_ += s;
            skipped_rounds_ += s;
            for (P& p : procs_) p.fast_forward(s);
            return s;
        }
    }

    // The serial pre-round adversary pass (see sim/dynamics.h), in the
    // fixed phase order trace record/replay relies on: re-wires ports
    // (relocating in-flight payloads alongside their slots, so the
    // peer_slot_ involution and physical delivery stay exact), applies
    // membership churn, runs the adaptive strategy against a fresh status
    // snapshot, kills messages on down/lossy edges, and folds crashes
    // into the halted set. Runs before shards fork; nothing here touches
    // node RNG streams.
    void apply_dynamics() {
        const dynamics_state::round_view v{round_, static_cast<std::uint32_t>(round_ + 1),
                                           cur_stamp_, halted_, present_};
        const auto& moves = dyn_->plan_rewire(v);
        if (!moves.empty()) {
            // Gather payloads at old slots, then scatter to new ones —
            // cycles in the slot permutation make in-place moves unsafe.
            move_msg_.clear();
            move_stamp_.clear();
            for (const auto& [src, dst] : moves) {
                move_msg_.push_back(std::move(cur_msg_[src]));
                move_stamp_.push_back(cur_stamp_[src]);
            }
            for (std::size_t i = 0; i < moves.size(); ++i) {
                cur_msg_[moves[i].second] = std::move(move_msg_[i]);
                cur_stamp_[moves[i].second] = move_stamp_[i];
            }
        }
        for (const membership_event& ev : dyn_->plan_membership(v)) {
            if (ev.join) {
                // The node reattaches on its footprint edges with a fresh
                // protocol instance; its halted contribution was already
                // removed at departure, so only the flags reset here.
                present_[ev.u] = 1;
                ++present_count_;
                halted_[ev.u] = 0;
                crashed_[ev.u] = 0;
                respawn(ev.u);
            } else {
                present_[ev.u] = 0;
                --present_count_;
                if (halted_[ev.u]) --halted_count_;
            }
        }
        if (dyn_->wants_status()) {
            const std::size_t n = g_.num_nodes();
            decided_flags_.assign(n, 0);
            leader_flags_.assign(n, 0);
            if (probe_) {
                for (node_id u = 0; u < n; ++u) {
                    if (!present_[u]) continue;
                    const node_status st = probe_(static_cast<std::size_t>(u));
                    decided_flags_[u] = st.decided ? 1 : 0;
                    leader_flags_[u] = st.leader ? 1 : 0;
                }
            }
        }
        // Crashed nodes, assassinated or i.i.d., are permanently silent and
        // count as halted.
        const auto crash = [this](const std::vector<node_id>& nodes) {
            for (const node_id u : nodes) {
                halted_[u] = crashed_[u] = 1;
                ++halted_count_;
            }
        };
        crash(dyn_->plan_adaptive(v, decided_flags_, leader_flags_));
        dyn_->apply_message_faults(v);
        crash(dyn_->plan_node_faults(v));
    }

    // Replaces u's protocol instance with a freshly constructed one (its
    // RNG stream continues — streams are per node index, not per
    // incarnation, so determinism is unaffected).
    void respawn(node_id u) {
        if constexpr (std::is_move_assignable_v<P>) {
            procs_[u] = factory_(static_cast<std::size_t>(u));
        } else {
            std::destroy_at(&procs_[u]);
            std::construct_at(&procs_[u], factory_(static_cast<std::size_t>(u)));
        }
    }

    // The body of one round: process every shard and reduce its costs
    // into `total`; throws propagate (first shard wins in sharded mode).
    void run_shards(std::size_t n, std::size_t shards, round_acc& total) {
        if (shards <= 1) {
            process_range(0, static_cast<node_id>(n), total);
        } else {
            accs_.clear();
            accs_.resize(shards);
            thread_pool& pool = shard_pool();
            pool.parallel_for(shards, [&](std::size_t s) {
                const node_id lo = static_cast<node_id>(n * s / shards);
                const node_id hi = static_cast<node_id>(n * (s + 1) / shards);
                // Accumulate on the worker's own stack; adjacent accs_
                // elements share cache lines, so writing them per node
                // would false-share across shards.
                round_acc local;
                try {
                    process_range(lo, hi, local);
                } catch (...) {
                    local.error = std::current_exception();
                }
                accs_[s] = std::move(local);
            });
            // Deterministic reduction in shard order; sums and max are
            // order-free, so this matches the serial totals exactly.
            for (const auto& a : accs_) {
                if (a.error) std::rethrow_exception(a.error);
                total.messages += a.messages;
                total.bits += a.bits;
                total.newly_halted += a.newly_halted;
                if (a.max_frag > total.max_frag) total.max_frag = a.max_frag;
            }
        }
    }

public:
    // --- observation ---

    [[nodiscard]] P& node(std::size_t i) {
        require(i < procs_.size(), "engine::node: out of range");
        return procs_[i];
    }
    [[nodiscard]] const P& node(std::size_t i) const {
        require(i < procs_.size(), "engine::node: out of range");
        return procs_[i];
    }
    [[nodiscard]] std::size_t num_nodes() const noexcept { return g_.num_nodes(); }
    [[nodiscard]] const graph& topology() const noexcept { return g_; }
    [[nodiscard]] sim_metrics& metrics() noexcept { return metrics_; }
    [[nodiscard]] const sim_metrics& metrics() const noexcept { return metrics_; }
    [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
    // Rounds of round() that were fast-forwarded rather than stepped.
    [[nodiscard]] std::uint64_t skipped_rounds() const noexcept { return skipped_rounds_; }
    // Halted among *present* nodes (protocol halts plus crashes).
    [[nodiscard]] std::size_t halted_count() const noexcept { return halted_count_; }
    // Membership view: present = currently part of the network; live =
    // present and not halted; crashed = silenced by a fault (still
    // present — a crashed node occupies its place, a departed one does
    // not).
    [[nodiscard]] std::size_t present_count() const noexcept { return present_count_; }
    [[nodiscard]] std::size_t live_count() const noexcept {
        return present_count_ - halted_count_;
    }
    [[nodiscard]] bool node_present(std::size_t u) const noexcept {
        return present_[u] != 0;
    }
    [[nodiscard]] bool node_crashed(std::size_t u) const noexcept {
        return crashed_[u] != 0;
    }

    void set_phase(const std::string& name) { metrics_.begin_phase(name); }

private:
    // Runs on_round for every live node in [lo, hi), staging sends and
    // accumulating costs into `acc`. In sharded rounds each shard owns a
    // disjoint range; all cross-shard writes land in slots owned by
    // exactly one (sender, port) pair, so ranges never contend.
    void process_range(node_id lo, node_id hi, round_acc& acc) {
        const auto mark = static_cast<std::uint32_t>(round_ + 1);
        const auto stamp = static_cast<std::uint32_t>(round_ + 2);
        for (node_id u = lo; u < hi; ++u) {
            if (halted_[u] || !present_[u]) continue;
            // Sleeping nodes skip the round entirely; messages delivered
            // to them this round expire unread (stamps only grow).
            // asleep() is read-only, so the shard stays race-free.
            if (dyn_ && dyn_->asleep(u, round_)) continue;
            const std::size_t base = g_.offset(u);
            node_ctx<message_type> ctx;
            ctx.degree_ = g_.degree(u);
            ctx.round_ = round_;
            ctx.rng_ = &rngs_[u];
            ctx.out_stamp_ = nxt_stamp_.data() + base;
            ctx.out_msg_ = nxt_msg_.data() + base;
            ctx.stamp_ = stamp;
            ctx.budget_bits_ = budget_bits_;
            ctx.budget_mode_ = budget_.mode;
            procs_[u].on_round(
                ctx, inbox_view<message_type>{cur_msg_.data(), cur_stamp_.data(),
                                              peer_slot_.data() + base, mark,
                                              static_cast<port_id>(ctx.degree_)});
            acc.messages += ctx.messages_;
            acc.bits += ctx.bits_;
            if (ctx.max_frag_ > acc.max_frag) acc.max_frag = ctx.max_frag_;
            if (ctx.halted_flag_) {
                halted_[u] = 1;
                ++acc.newly_halted;
            }
        }
    }

    // The pool rounds are sharded over: the configured one, else an
    // engine-owned pool created on first parallel step.
    [[nodiscard]] thread_pool& shard_pool() {
        if (par_.pool != nullptr) return *par_.pool;
        if (!owned_pool_) owned_pool_ = std::make_unique<thread_pool>(par_.node_jobs);
        return *owned_pool_;
    }

    const graph& g_;
    congest_budget budget_;
    std::uint64_t budget_bits_;
    const engine_parallelism par_;  // the ambient value at construction
    std::unique_ptr<thread_pool> owned_pool_;
    // The reverse directed edge's slot: where the other end of (u, p)
    // stages its messages, so inbox gathers are one table load. The
    // dynamics adversary rewires this table in place.
    std::vector<std::uint32_t> peer_slot_;
    // Flat slot transport: one message + one stamp per directed edge,
    // double-buffered and swapped each round. A slot is live iff its
    // stamp == round + 1.
    std::vector<message_type> cur_msg_, nxt_msg_;
    std::vector<std::uint32_t> cur_stamp_, nxt_stamp_;
    std::vector<xoshiro256ss> rngs_;
    std::vector<P> procs_;
    std::function<P(std::size_t)> factory_;  // retained for membership respawns
    std::vector<char> halted_;
    std::vector<char> present_;  // 0 = departed (left the network)
    std::vector<char> crashed_;  // 1 = silenced by a crash fault
    // Status snapshot for the adaptive adversary, refreshed serially
    // pre-round when a strategy wants it (empty otherwise).
    std::function<node_status(std::size_t)> probe_;
    std::vector<char> decided_flags_, leader_flags_;
    std::vector<round_acc> accs_;  // reused shard accumulators
    std::unique_ptr<dynamics_state> dyn_;  // nullptr = static network
    // Reused gather buffers for relocating in-flight payloads on rewire.
    std::vector<message_type> move_msg_;
    std::vector<std::uint32_t> move_stamp_;
    std::size_t halted_count_ = 0;
    std::size_t present_count_ = 0;
    std::uint64_t round_ = 0;
    std::uint64_t skipped_rounds_ = 0;
    sim_metrics metrics_;
};

}  // namespace anole
