// Tests for the engine's quiet-round fast-forward (sim/engine.h): a run
// that skips quiet rounds in closed form must be bitwise-identical to one
// that steps every round. Two stepping references are used:
//   * run_revocable with a trace recorder attached — attaching dynamics
//     turns the skip off, so the whole driver steps;
//   * engine<always_step<revocable_node>> — the hooks are hidden, so the
//     engine steps, and every round(), metric and node observer can be
//     compared at arbitrary stopping points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/cautious_broadcast.h"
#include "core/irrevocable.h"
#include "core/revocable.h"
#include "graph/generators.h"
#include "graph/spectral.h"
#include "sim/engine.h"
#include "sim/thread_pool.h"
#include "util/rng.h"

namespace anole {
namespace {

static_assert(quiet_hooks<revocable_node>);
static_assert(quiet_hooks<irrevocable_node>);
static_assert(quiet_hooks<cautious_broadcast_node>);
static_assert(!quiet_hooks<always_step<revocable_node>>);

revocable_params scaled_params() {
    return revocable_params::scaled(std::nullopt, 0.02, 0.12);
}

graph ba8() { return make_family(graph_family::barabasi_albert, 8, 1); }
graph torus4x4() { return make_torus(4, 4); }

void expect_same_result(const revocable_result& a, const revocable_result& b) {
    EXPECT_EQ(a.success, b.success);
    EXPECT_EQ(a.num_leaders, b.num_leaders);
    EXPECT_EQ(a.leader_id, b.leader_id);
    EXPECT_EQ(a.leader_node, b.leader_node);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.totals, b.totals);
    EXPECT_EQ(a.oracle.evaluated, b.oracle.evaluated);
    EXPECT_EQ(a.oracle.present_nodes, b.oracle.present_nodes);
    EXPECT_EQ(a.oracle.live_nodes, b.oracle.live_nodes);
    EXPECT_EQ(a.oracle.live_leaders, b.oracle.live_leaders);
    EXPECT_EQ(a.oracle.crashed_nodes, b.oracle.crashed_nodes);
    EXPECT_EQ(a.oracle.crashed_leaders, b.oracle.crashed_leaders);
    EXPECT_EQ(a.oracle.summary(), b.oracle.summary());
    EXPECT_EQ(a.leader_certificate, b.leader_certificate);
    EXPECT_EQ(a.final_estimate, b.final_estimate);
    EXPECT_EQ(a.stable_round, b.stable_round);
    EXPECT_EQ(a.total_revocations, b.total_revocations);
    EXPECT_EQ(a.nodes_chose, b.nodes_chose);
    ASSERT_EQ(a.traces.size(), b.traces.size());
    for (const auto& [k, tr] : a.traces) {
        ASSERT_TRUE(b.traces.count(k)) << k;
        const auto& other = b.traces.at(k);
        EXPECT_EQ(tr.empty_iterations, other.empty_iterations) << k;
        EXPECT_EQ(tr.probing_iterations, other.probing_iterations) << k;
        EXPECT_EQ(tr.iterations, other.iterations) << k;
        EXPECT_EQ(tr.chose_here, other.chose_here) << k;
    }
}

// --- driver level: skipping vs the traced (stepping) driver ------------------

struct driver_case {
    const char* name;
    graph (*make)();
    std::uint64_t seed;
};

// Keeps the ctest names free of the struct's pointer bytes.
void PrintTo(const driver_case& c, std::ostream* os) { *os << c.name; }

class FastForwardDriver : public ::testing::TestWithParam<driver_case> {};

// The cap keeps the stepping side short: ba(8) and torus seed 17 elect
// and run the verification window well inside it, while torus seeds 18
// and 21 (about 2.5e6 rounds to elect) exhaust it, which covers the
// driver's max_rounds path.
TEST_P(FastForwardDriver, MatchesTracedStepping) {
    const driver_case c = GetParam();
    const graph g = c.make();
    const revocable_params p = scaled_params();
    const std::uint64_t max_rounds = 250'000;
    dynamics_spec traced;
    traced.trace_record = testing::TempDir() + "anole_ff_" + c.name + ".jsonl";
    const revocable_result fast = run_revocable(g, p, c.seed, max_rounds);
    const revocable_result stepped = run_revocable(
        g, p, c.seed, max_rounds, congest_budget::fragmenting(16), traced);
    std::remove(traced.trace_record.c_str());
    EXPECT_GT(fast.rounds, 8'000u);
    expect_same_result(fast, stepped);
}

INSTANTIATE_TEST_SUITE_P(
    Runs, FastForwardDriver,
    ::testing::Values(driver_case{"ba8_seed17", ba8, 17}, driver_case{"ba8_seed18", ba8, 18},
                      driver_case{"ba8_seed21", ba8, 21},
                      driver_case{"torus4x4_seed17", torus4x4, 17},
                      driver_case{"torus4x4_seed18", torus4x4, 18},
                      driver_case{"torus4x4_seed21", torus4x4, 21}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(FastForward, NodeJobsDoNotChangeResults) {
    const graph g = make_torus(4, 4);
    const auto run = [&](std::size_t node_jobs) {
        scoped_engine_parallelism par(engine_parallelism{nullptr, node_jobs});
        return run_revocable(g, scaled_params(), 18, 30'000'000);
    };
    expect_same_result(run(1), run(4));
}

// --- engine level: the hook-hiding adapter as the stepping reference ---------

struct node_digest {
    std::uint64_t estimate, id, certificate, leader_id, leader_certificate, revocations;
    bool leader;
    std::vector<std::uint64_t> traces;  // flattened per-estimate traces

    bool operator==(const node_digest&) const = default;
};

node_digest digest(const revocable_node& nd) {
    node_digest d{nd.estimate(), nd.id(), nd.certificate(), nd.leader_id(),
                  nd.leader_certificate(), nd.revocations(), nd.leader(), {}};
    for (const auto& [k, tr] : nd.traces()) {
        d.traces.insert(d.traces.end(), {k, tr.empty_iterations, tr.probing_iterations,
                                         tr.iterations, tr.chose_here ? 1u : 0u});
    }
    return d;
}
node_digest digest(const always_step<revocable_node>& nd) { return digest(nd.inner()); }

// The skipping engine and its stepping twin, built identically.
struct twin {
    twin(const graph& g, const revocable_params& p, std::uint64_t seed,
         congest_budget budget)
        : fast(g, seed, budget), stepped(g, seed, budget) {
        fast.spawn([&](std::size_t u) {
            return revocable_node(g.degree(static_cast<node_id>(u)), p);
        });
        stepped.spawn([&](std::size_t u) {
            return always_step<revocable_node>(g.degree(static_cast<node_id>(u)), p);
        });
    }

    void expect_same() const {
        EXPECT_EQ(fast.round(), stepped.round());
        EXPECT_EQ(fast.metrics().total(), stepped.metrics().total());
        EXPECT_EQ(fast.metrics().phases(), stepped.metrics().phases());
        for (std::size_t u = 0; u < fast.num_nodes(); ++u) {
            EXPECT_EQ(digest(fast.node(u)), digest(stepped.node(u))) << "node " << u;
        }
    }

    engine<revocable_node> fast;
    engine<always_step<revocable_node>> stepped;
};

// Advances both engines by the same pseudo-random chunk sizes, so most
// chunks end in the middle of a quiet run, and compares after each one.
void expect_chunked_identity(congest_budget budget, std::uint64_t total_rounds) {
    const graph g = ba8();
    const revocable_params p = scaled_params();
    twin t(g, p, 17, budget);
    xoshiro256ss chunks(99);
    std::uint64_t done = 0;
    while (done < total_rounds) {
        const std::uint64_t k = 1 + chunks.below(done < 2'000 ? 50 : 20'000);
        t.fast.run_rounds(k);
        t.stepped.run_rounds(k);
        done += k;
        t.expect_same();
        if (testing::Test::HasFailure()) return;
    }
    EXPECT_GT(t.fast.skipped_rounds(), done / 2);
    EXPECT_EQ(t.stepped.skipped_rounds(), 0u);
}

TEST(FastForward, RunRoundsMatchesSteppingCountOnly) {
    expect_chunked_identity(congest_budget::unlimited(), 200'000);
}

TEST(FastForward, RunRoundsMatchesSteppingFragmenting) {
    expect_chunked_identity(congest_budget::fragmenting(16), 200'000);
    congest_budget tight = congest_budget::fragmenting();
    tight.bits_per_round = 7;  // every message fragments, by a growing factor
    expect_chunked_identity(tight, 200'000);
}

// A strict budget throws in the first round a message outgrows it; a skip
// must stop right before that round, so both engines throw at the same
// round with the same partial state.
TEST(FastForward, StrictBudgetThrowsAtTheSameRound) {
    const graph g = ba8();
    const revocable_params p = scaled_params();
    bool skipped_before_throw = false;
    // 20 and 5000 throw inside quiet runs; the others before any skip ends.
    for (const std::uint64_t bits : {20, 40, 100, 400, 1000, 5000}) {
        SCOPED_TRACE("budget " + std::to_string(bits));
        congest_budget budget = congest_budget::strict_log();
        budget.bits_per_round = bits;
        twin t(g, p, 21, budget);
        EXPECT_THROW(t.fast.run_rounds(5'000'000), error);
        EXPECT_THROW(t.stepped.run_rounds(5'000'000), error);
        t.expect_same();
        skipped_before_throw = skipped_before_throw || t.fast.skipped_rounds() > 0;
    }
    EXPECT_TRUE(skipped_before_throw);
}

TEST(FastForward, RunUntilExhaustsMaxRoundsAtTheSameRound) {
    const graph g = make_torus(4, 4);
    const revocable_params p = scaled_params();
    for (const std::uint64_t cap : {1, 2, 1'000, 37'777, 123'457}) {
        SCOPED_TRACE("max_rounds " + std::to_string(cap));
        twin t(g, p, 18, congest_budget::fragmenting(16));
        const auto never = [] { return false; };
        EXPECT_THROW((void)t.fast.run_until(never, cap), error);
        EXPECT_THROW((void)t.stepped.run_until(never, cap), error);
        EXPECT_EQ(t.fast.round(), cap);
        t.expect_same();
    }
}

// --- engine level: a toy hook protocol that notices lost deliveries ----------

struct max_msg {
    std::uint64_t value = 0;
    std::uint64_t bits = 0;
    [[nodiscard]] std::size_t bit_size() const noexcept { return bits; }
};

// Flood-max with a counter-driven bump: every `period` rounds a node adds
// an RNG draw to its value (a boundary round); in between it floods its
// value, keeps the max, and its messages cost head + slope·(rounds since
// the bump) bits.
// Plain rounds with an empty inbox are counted, so a skip that failed to
// keep the last payloads deliverable shows up in the node state.
class bumping_max {
public:
    using message_type = max_msg;

    bumping_max(std::size_t degree, std::uint64_t period, std::uint64_t head,
                std::uint64_t slope)
        : degree_(degree), period_(period), head_(head), slope_(slope) {}

    void on_round(node_ctx<max_msg>& ctx, inbox_view<max_msg> inbox) {
        quiet_ = false;
        const std::uint64_t before = value_;
        for (const auto& [port, m] : inbox) {
            (void)port;
            value_ = std::max(value_, m.value);
        }
        if (counter_ >= period_) {
            value_ += ctx.rng().below(1'000);
            counter_ = 0;
        } else {
            const bool starved = ctx.round() > 0 && inbox.empty();
            if (starved) ++starved_;
            quiet_ = !starved && value_ == before;
        }
        for (port_id p = 0; p < degree_; ++p) {
            ctx.send(p, max_msg{value_, head_ + counter_ * slope_});
        }
        ++counter_;
    }

    [[nodiscard]] std::uint64_t quiet_horizon() const noexcept {
        return quiet_ ? period_ - counter_ : 0;
    }
    [[nodiscard]] bit_charge quiet_charge() const noexcept {
        return {head_ + counter_ * slope_, slope_};
    }
    void fast_forward(std::uint64_t rounds) noexcept { counter_ += rounds; }

    [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> state() const noexcept {
        return {value_, starved_};
    }

private:
    std::size_t degree_;
    std::uint64_t period_, head_, slope_;
    std::uint64_t counter_ = 0, value_ = 0, starved_ = 0;
    bool quiet_ = false;
};

TEST(FastForward, ToyProtocolMatchesSteppingUnderEveryBudget) {
    const graph g = make_cycle(12);
    congest_budget fragment = congest_budget::fragmenting();
    fragment.bits_per_round = 16;
    congest_budget strict = congest_budget::strict_log();
    strict.bits_per_round = 700;  // outgrown 692 rounds into a period
    struct toy_case {
        congest_budget budget;
        std::uint64_t head, slope;
    };
    // The last case sends zero-bit messages, which still cost a round.
    for (const toy_case& c : {toy_case{congest_budget::unlimited(), 8, 1},
                              toy_case{fragment, 8, 1}, toy_case{strict, 8, 1},
                              toy_case{fragment, 0, 0}}) {
        SCOPED_TRACE("budget mode " + std::to_string(static_cast<int>(c.budget.mode)) +
                     ", head " + std::to_string(c.head));
        engine<bumping_max> fast(g, 5, c.budget);
        engine<always_step<bumping_max>> stepped(g, 5, c.budget);
        fast.spawn([&](std::size_t) { return bumping_max(2, 1'000, c.head, c.slope); });
        stepped.spawn([&](std::size_t) {
            return always_step<bumping_max>(2, 1'000, c.head, c.slope);
        });
        const auto throws = [](auto& eng, std::uint64_t k) {
            try {
                eng.run_rounds(k);
            } catch (const error&) {
                return true;
            }
            return false;
        };
        xoshiro256ss chunks(7);
        bool threw = false;
        for (std::uint64_t done = 0; done < 20'000 && !threw;) {
            const std::uint64_t k = 1 + chunks.below(900);
            threw = throws(fast, k);
            EXPECT_EQ(threw, throws(stepped, k));
            done += k;
            ASSERT_EQ(fast.round(), stepped.round());
            ASSERT_EQ(fast.metrics().total(), stepped.metrics().total());
            for (std::size_t u = 0; u < g.num_nodes(); ++u) {
                ASSERT_EQ(fast.node(u).state(), stepped.node(u).inner().state()) << u;
            }
        }
        EXPECT_EQ(threw, c.budget.mode == budget_mode::strict);
        EXPECT_GT(fast.skipped_rounds(), 0u);
    }
}

// --- engine level: the charge follows the ports actually sent on --------------

// Flood-max over port 0 only: every `period` rounds a node adds an RNG
// draw to its value and sends it on every port (a boundary round); in the
// plain rounds between, a talkative node resends its value on port 0 and
// a silent one sends nothing. A skip that charged every port of every
// node would overcount both.
class port0_max {
public:
    using message_type = max_msg;

    port0_max(std::size_t degree, bool talkative, std::uint64_t period, std::uint64_t head,
              std::uint64_t slope)
        : degree_(degree), talkative_(talkative), period_(period), head_(head),
          slope_(slope) {}

    void on_round(node_ctx<max_msg>& ctx, inbox_view<max_msg> inbox) {
        quiet_ = false;
        const std::uint64_t before = value_;
        for (const auto& [port, m] : inbox) {
            (void)port;
            value_ = std::max(value_, m.value);
        }
        if (counter_ >= period_) {
            value_ += ctx.rng().below(1'000);
            counter_ = 0;
            for (port_id p = 0; p < degree_; ++p) ctx.send(p, max_msg{value_, head_});
        } else {
            // The round after a boundary sends fewer ports than the
            // boundary did, so it is not plain.
            quiet_ = value_ == before && counter_ > 1;
            if (talkative_) ctx.send(0, max_msg{value_, head_ + counter_ * slope_});
        }
        ++counter_;
    }

    [[nodiscard]] std::uint64_t quiet_horizon() const noexcept {
        return quiet_ ? period_ - counter_ : 0;
    }
    [[nodiscard]] bit_charge quiet_charge() const noexcept {
        return {head_ + counter_ * slope_, slope_};
    }
    void fast_forward(std::uint64_t rounds) noexcept { counter_ += rounds; }

    [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

private:
    std::size_t degree_;
    bool talkative_;
    std::uint64_t period_, head_, slope_;
    std::uint64_t counter_ = 0, value_ = 0;
    bool quiet_ = false;
};

// Runs k rounds; true if the engine threw (a strict-budget violation).
template <class Engine>
bool run_throws(Engine& eng, std::uint64_t k) {
    try {
        eng.run_rounds(k);
    } catch (const error&) {
        return true;
    }
    return false;
}

TEST(FastForward, ChargesOnlyThePortsSentOn) {
    const graph g = make_family(graph_family::barabasi_albert, 12, 1);
    congest_budget fragment = congest_budget::fragmenting();
    fragment.bits_per_round = 16;
    congest_budget strict = congest_budget::strict_log();
    strict.bits_per_round = 700;  // outgrown 692 rounds into a period
    for (const congest_budget& budget : {congest_budget::unlimited(), fragment, strict}) {
        SCOPED_TRACE("budget mode " + std::to_string(static_cast<int>(budget.mode)));
        engine<port0_max> fast(g, 5, budget);
        engine<always_step<port0_max>> stepped(g, 5, budget);
        const auto make = [&](std::size_t u) {
            return port0_max(g.degree(static_cast<node_id>(u)), u % 3 != 0, 1'000, 8, 1);
        };
        fast.spawn(make);
        stepped.spawn([&](std::size_t u) { return always_step<port0_max>(make(u)); });
        xoshiro256ss chunks(11);
        bool threw = false;
        for (std::uint64_t done = 0; done < 20'000 && !threw;) {
            const std::uint64_t k = 1 + chunks.below(900);
            threw = run_throws(fast, k);
            EXPECT_EQ(threw, run_throws(stepped, k));
            done += k;
            ASSERT_EQ(fast.round(), stepped.round());
            ASSERT_EQ(fast.metrics().total(), stepped.metrics().total());
            for (std::size_t u = 0; u < g.num_nodes(); ++u) {
                ASSERT_EQ(fast.node(u).value(), stepped.node(u).inner().value()) << u;
            }
        }
        EXPECT_EQ(threw, budget.mode == budget_mode::strict);
        EXPECT_GT(fast.skipped_rounds(), 0u);
    }
}

// --- every hook protocol against its stepping twin ---------------------------

// Per protocol: how to build one instance per node of a graph, how many
// rounds a twin run covers, and a digest of everything its observers show.
template <class P>
struct hook_protocol;

template <>
struct hook_protocol<revocable_node> {
    explicit hook_protocol(const graph&) : params(scaled_params()) {}
    [[nodiscard]] revocable_node make(const graph& g, std::size_t u) const {
        return revocable_node(g.degree(static_cast<node_id>(u)), params);
    }
    [[nodiscard]] std::uint64_t rounds() const { return 4'000; }
    [[nodiscard]] static node_digest digest(const revocable_node& nd) {
        return anole::digest(nd);
    }
    revocable_params params;
};

void append_exec(std::vector<std::uint64_t>& out, const cb_exec& e) {
    out.insert(out.end(), {e.in_tree() ? 1u : 0u, e.is_root() ? 1u : 0u,
                           static_cast<std::uint64_t>(e.status()), e.source_id(),
                           e.parent() ? *e.parent() + 1u : 0u, e.confirmed(),
                           e.report_threshold(), e.children().size()});
    out.insert(out.end(), e.children().begin(), e.children().end());
}

template <>
struct hook_protocol<irrevocable_node> {
    explicit hook_protocol(const graph& g) {
        const graph_profile prof = profile(g);
        params.n = g.num_nodes();
        params.tmix = std::max<std::uint64_t>(prof.mixing_time, 1);
        params.phi = prof.conductance;
    }
    [[nodiscard]] irrevocable_node make(const graph& g, std::size_t u) const {
        return irrevocable_node(g.degree(static_cast<node_id>(u)), params);
    }
    // Ends right after the decide round, so a skip that swallowed it shows.
    [[nodiscard]] std::uint64_t rounds() const { return params.total_rounds() + 1; }
    [[nodiscard]] static std::vector<std::uint64_t> digest(const irrevocable_node& nd) {
        const node_status st = nd.status();
        std::vector<std::uint64_t> out = {nd.is_candidate() ? 1u : 0u, nd.id(),
                                          st.decided ? 1u : 0u, st.leader ? 1u : 0u,
                                          nd.slot_overflows()};
        for (const auto& [exec_id, e] : nd.executions()) {
            out.push_back(exec_id);
            append_exec(out, e);
        }
        return out;
    }
    irrevocable_params params;
};

// One source with a small cap, so stop waves run too.
template <>
struct hook_protocol<cautious_broadcast_node> {
    explicit hook_protocol(const graph& g) : cfg{.cap = 2 + g.num_nodes() / 3} {}
    [[nodiscard]] cautious_broadcast_node make(const graph& g, std::size_t u) const {
        return cautious_broadcast_node(g.degree(static_cast<node_id>(u)), u == 0, 12345,
                                       cfg, 600);
    }
    // Ends right after the halt round.
    [[nodiscard]] std::uint64_t rounds() const { return 601; }
    [[nodiscard]] static std::vector<std::uint64_t> digest(
        const cautious_broadcast_node& nd) {
        std::vector<std::uint64_t> out = {nd.status().decided ? 1u : 0u};
        append_exec(out, nd.exec());
        return out;
    }
    cb_config cfg;
};

template <class P>
class FastForwardTwin : public ::testing::Test {
protected:
    // Runs every family at n = 16 through a skipping engine and its
    // stepping twin in pseudo-random chunks, so most chunks end inside a
    // quiet run, and compares the two after each chunk (and after a
    // strict-budget throw, which both must hit in the same round). The
    // last chunk ends exactly at the protocol's run length.
    static void expect_identical(congest_budget budget) {
        thread_pool pool(4);
        std::uint64_t skipped = 0;
        for (const graph_family f : all_families()) {
            const graph g = make_family(f, 16, 3);
            const hook_protocol<P> proto(g);
            for (const std::size_t node_jobs : {1, 4}) {
                SCOPED_TRACE(std::string(to_string(f)) + ", node_jobs " +
                             std::to_string(node_jobs));
                scoped_engine_parallelism par(engine_parallelism{&pool, node_jobs});
                engine<P> fast(g, 7, budget);
                engine<always_step<P>> stepped(g, 7, budget);
                fast.spawn([&](std::size_t u) { return proto.make(g, u); });
                stepped.spawn(
                    [&](std::size_t u) { return always_step<P>(proto.make(g, u)); });
                xoshiro256ss chunks(static_cast<std::uint64_t>(f) + 1);
                bool threw = false;
                for (std::uint64_t chunk = 0; !threw && fast.round() < proto.rounds();
                     ++chunk) {
                    const std::uint64_t k =
                        std::min(1 + chunks.below(fast.round() < 200 ? 20 : 400),
                                 proto.rounds() - fast.round());
                    const std::string phase = "chunk" + std::to_string(chunk % 3);
                    fast.set_phase(phase);
                    stepped.set_phase(phase);
                    threw = run_throws(fast, k);
                    EXPECT_EQ(threw, run_throws(stepped, k));
                    ASSERT_EQ(fast.round(), stepped.round());
                    ASSERT_EQ(fast.halted_count(), stepped.halted_count());
                    ASSERT_EQ(fast.metrics().total(), stepped.metrics().total());
                    ASSERT_EQ(fast.metrics().phases(), stepped.metrics().phases());
                    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
                        ASSERT_EQ(hook_protocol<P>::digest(fast.node(u)),
                                  hook_protocol<P>::digest(stepped.node(u).inner()))
                            << "node " << u << " after round " << fast.round();
                    }
                }
                EXPECT_EQ(stepped.skipped_rounds(), 0u);
                skipped += fast.skipped_rounds();
            }
        }
        EXPECT_GT(skipped, 0u);
    }
};

using hook_protocols =
    ::testing::Types<revocable_node, irrevocable_node, cautious_broadcast_node>;
TYPED_TEST_SUITE(FastForwardTwin, hook_protocols);

TYPED_TEST(FastForwardTwin, CountOnly) {
    TestFixture::expect_identical(congest_budget::unlimited());
}

TYPED_TEST(FastForwardTwin, StrictLog16) {
    TestFixture::expect_identical(congest_budget::strict_log(16));
}

TYPED_TEST(FastForwardTwin, Fragmenting) {
    TestFixture::expect_identical(congest_budget::fragmenting(16));
}

// --- the closed-form fragmentation charge ------------------------------------

unsigned __int128 floor_sum_brute(std::uint64_t n, std::uint64_t m, std::uint64_t a,
                                  std::uint64_t b) {
    unsigned __int128 sum = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        sum += (static_cast<unsigned __int128>(a) * i + b) / m;
    }
    return sum;
}

TEST(FastForward, FloorSumMatchesBruteForce) {
    xoshiro256ss rng(2024);
    for (int trial = 0; trial < 2'000; ++trial) {
        const std::uint64_t n = rng.below(300);
        const std::uint64_t m = 1 + rng.below(trial % 2 == 0 ? 50 : 1'000'000);
        const std::uint64_t a = rng.below(trial % 3 == 0 ? 100 : 1'000'000'000);
        const std::uint64_t b = rng.below(1'000'000'000);
        EXPECT_TRUE(floor_sum(n, m, a, b) == floor_sum_brute(n, m, a, b))
            << n << " " << m << " " << a << " " << b;
    }
    // a·n beyond 2^64: the intermediates must not wrap.
    for (int trial = 0; trial < 200; ++trial) {
        const std::uint64_t n = 1'000 + rng.below(4'000);
        const std::uint64_t m = 1 + rng.below(trial % 2 == 0 ? 7 : 1ull << 40);
        const std::uint64_t a = (1ull << 62) + rng.below(1ull << 61);
        const std::uint64_t b = rng();
        EXPECT_TRUE(floor_sum(n, m, a, b) == floor_sum_brute(n, m, a, b))
            << n << " " << m << " " << a << " " << b;
    }
    EXPECT_TRUE(floor_sum(0, 5, 3, 4) == 0);
}

}  // namespace
}  // namespace anole
