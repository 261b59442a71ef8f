// Engine microbenchmark + perf-regression gate.
//
// Measures the engine's hot paths against their predecessors, which are
// replicated here so the before/after is measured, not recalled, and
// checks that each fast path ends bitwise-identical to its reference:
//
//   1. round dispatch — flat single-writer slot transport vs the legacy
//      vector-inbox engine (per-node vector<pair> inboxes cleared every
//      round, per-sender stamp array, per-send metrics map lookup);
//   2. parallel identity — sharded rounds must be bitwise-identical to
//      serial on every topology family in the zoo;
//   3. quiet-round fast-forward — the revocable and irrevocable protocols
//      with the engine skipping quiet rounds vs the same engine stepping
//      every round (hooks hidden by always_step), which must end
//      bitwise-identical;
//   4. gilbert walk batches — the Gilbert baseline's heap-free node (flat
//      per-candidate records, inline batches, moved sends) vs the frozen
//      map-and-vector replica in bench/gilbert_replica.h, on elect-known-n's
//      gilbert units; both must end bitwise-identical.
//
// Output follows the BENCH_*.json trajectory schema (docs/BENCHMARKS.md);
// the committed baseline lives at BENCH_ENGINE.json in the repo root and
// CI regenerates + gates against it (see --check below).
//
// Flags:
//   --quick          tiny sizes (smoke only; numbers not baseline-comparable)
//   --csv / --json   machine-readable output after each table
//   --json-out FILE  write the JSON objects (one per line) to FILE
//   --check FILE     gate against a baseline produced by --json-out
//                    (bench/gate.h): speedups may not fall below
//                    baseline/3 and the identity column must stay "yes".
//                    Exits 1 on regression; not allowed with --quick.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "baseline/gilbert_le.h"
#include "bench/gate.h"
#include "bench/gilbert_replica.h"
#include "core/irrevocable.h"
#include "core/random_walk.h"
#include "core/revocable.h"
#include "graph/generators.h"
#include "sim/engine.h"
#include "sim/runner.h"
#include "util/table.h"

namespace anole {
namespace {

// --- the round-dispatch workload ---------------------------------------------

struct micro_msg {
    std::uint8_t x = 0;
    [[nodiscard]] std::size_t bit_size() const noexcept { return 8; }
};

// One message per port per round: the delivery-dominated regime where
// transport cost is everything.
class all_ports_proc {
public:
    using message_type = micro_msg;
    explicit all_ports_proc(std::size_t degree) : degree_(degree) {}
    void on_round(node_ctx<micro_msg>& ctx, inbox_view<micro_msg> inbox) {
        for (const auto& [port, msg] : inbox) acc_ += msg.x + port;
        for (port_id p = 0; p < degree_; ++p) ctx.send(p, micro_msg{});
    }
    std::uint64_t acc_ = 0;

private:
    std::size_t degree_;
};

// --- legacy engine replica ---------------------------------------------------
//
// The pre-flat-slot hot path, replicated faithfully from the seed
// engine: per-node vector<pair> inboxes cleared n-at-a-time every round,
// a per-sender stamp array for the double-send check, the per-send
// fragmentation division, a sim_metrics::count_message call (phase-map
// lookup) on every send, and — as in the original — every send funnelled
// through a type-erased trampoline (function pointer), so none of it can
// inline into the protocol.

class legacy_engine {
public:
    struct legacy_ctx {
        using send_hook = void (*)(void*, port_id, micro_msg&&);
        std::size_t degree = 0;
        send_hook fn = nullptr;
        void* env = nullptr;
        void send(port_id p, micro_msg m) {
            if (p >= degree) {
                std::fprintf(stderr, "legacy replica: port out of range\n");
                std::exit(2);
            }
            fn(env, p, std::move(m));
        }
    };

    legacy_engine(const graph& g, std::uint64_t seed)
        : g_(g), budget_bits_(congest_budget{}.resolve(g.num_nodes())) {
        const std::size_t n = g_.num_nodes();
        slot_base_.resize(n + 1, 0);
        for (node_id u = 0; u < n; ++u) slot_base_[u + 1] = slot_base_[u] + g_.degree(u);
        sent_stamp_.assign(slot_base_[n], 0);
        cur_in_.resize(n);
        nxt_in_.resize(n);
        acc_.assign(n, 0);
        (void)seed;
    }

    void step() {
        const std::size_t n = g_.num_nodes();
        for (node_id u = 0; u < n; ++u) {
            for (const auto& [port, msg] : cur_in_[u]) acc_[u] += msg.x + port;
            send_env env{this, u};
            legacy_ctx ctx{g_.degree(u), &legacy_engine::trampoline, &env};
            const auto deg = static_cast<port_id>(ctx.degree);
            for (port_id p = 0; p < deg; ++p) ctx.send(p, micro_msg{});
        }
        for (node_id u = 0; u < n; ++u) cur_in_[u].clear();
        std::swap(cur_in_, nxt_in_);
        metrics_.count_round(1);
        ++round_;
    }

    void run_rounds(std::uint64_t k) {
        for (std::uint64_t i = 0; i < k; ++i) step();
    }

    [[nodiscard]] const sim_metrics& metrics() const noexcept { return metrics_; }

private:
    struct send_env {
        legacy_engine* self;
        node_id sender;
    };

    static void trampoline(void* env_ptr, port_id p, micro_msg&& m) {
        auto* env = static_cast<send_env*>(env_ptr);
        env->self->do_send(env->sender, p, std::move(m));
    }

    void do_send(node_id u, port_id p, micro_msg&& m) {
        auto& stamp = sent_stamp_[slot_base_[u] + p];
        if (stamp == round_ + 1) {
            std::fprintf(stderr, "legacy replica: double send\n");
            std::exit(2);
        }
        stamp = round_ + 1;
        const std::size_t bits = m.bit_size();
        const std::uint64_t frag =
            bits == 0 ? 1 : (bits + budget_bits_ - 1) / budget_bits_;
        if (frag > round_max_frag_) round_max_frag_ = frag;
        metrics_.count_message(bits);
        const node_id v = g_.neighbor(u, p);
        const port_id q = g_.reverse_port(u, p);
        nxt_in_[v].emplace_back(q, std::move(m));
    }

    const graph& g_;
    std::uint64_t budget_bits_;
    std::vector<std::size_t> slot_base_;
    std::vector<std::uint64_t> sent_stamp_;
    std::vector<std::vector<std::pair<port_id, micro_msg>>> cur_in_, nxt_in_;
    std::vector<std::uint64_t> acc_;
    std::uint64_t round_ = 0;
    std::uint64_t round_max_frag_ = 1;
    sim_metrics metrics_;
};

// --- measurement helpers -----------------------------------------------------

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

struct round_throughput {
    double flat_mmsg_s = 0;
    double legacy_mmsg_s = 0;
    std::uint64_t rounds = 0;
};

// Best-of-5 measured segments after a warmup, flat and legacy segments
// interleaved so shared-runner drift hits both sides alike and cancels
// out of the speedup ratio.
round_throughput measure_rounds(const graph& g, std::uint64_t rounds) {
    round_throughput out;
    out.rounds = rounds;
    const double msgs_per_round = static_cast<double>(2 * g.num_edges());
    engine<all_ports_proc> flat(g, 1);
    flat.spawn([&](std::size_t u) {
        return all_ports_proc(g.degree(static_cast<node_id>(u)));
    });
    legacy_engine legacy(g, 1);
    flat.run_rounds(rounds / 10 + 1);    // warmup (caches settle)
    legacy.run_rounds(rounds / 10 + 1);  // warmup (vectors reach capacity)
    const auto throughput = [&](auto& eng) {
        const auto t0 = std::chrono::steady_clock::now();
        eng.run_rounds(rounds);
        return msgs_per_round * static_cast<double>(rounds) / seconds_since(t0) / 1e6;
    };
    for (int rep = 0; rep < 5; ++rep) {
        out.flat_mmsg_s = std::max(out.flat_mmsg_s, throughput(flat));
        out.legacy_mmsg_s = std::max(out.legacy_mmsg_s, throughput(legacy));
    }
    return out;
}

// Sharded-vs-serial identity on one family: walk ensemble digest match.
bool parallel_identical(graph_family f, std::size_t n, std::uint64_t seed) {
    const graph g = make_family(f, n, seed);
    auto run = [&](std::size_t node_jobs) {
        scoped_engine_parallelism par(engine_parallelism{nullptr, node_jobs});
        return run_walk_ensemble(g, 0, 2000, 32, seed + 1);
    };
    const walk_ensemble_result a = run(1);
    const walk_ensemble_result b = run(2);
    return a.resident == b.resident && a.totals.messages == b.totals.messages &&
           a.totals.bits == b.totals.bits;
}

// Engine-side result of a hook protocol's run: everything the fast-forward
// must reproduce bit for bit.
struct ff_state {
    std::uint64_t round = 0;
    phase_counters totals;
    std::vector<std::uint64_t> nodes;  // per-node observer digests

    bool operator==(const ff_state&) const = default;
};

template <class P>
const P& unwrap(const P& nd) {
    return nd;
}
template <class P>
const P& unwrap(const always_step<P>& nd) {
    return nd.inner();
}

void append_digest(std::vector<std::uint64_t>& out, const revocable_node& nd) {
    out.insert(out.end(), {nd.estimate(), nd.id(), nd.leader_id(), nd.leader_certificate(),
                           nd.revocations()});
}

void append_digest(std::vector<std::uint64_t>& out, const irrevocable_node& nd) {
    out.insert(out.end(), {nd.id(), nd.is_candidate() ? 1u : 0u, nd.is_leader() ? 1u : 0u,
                           nd.status().decided ? 1u : 0u});
    for (const auto& [exec_id, e] : nd.executions()) {
        out.insert(out.end(), {exec_id, e.in_tree() ? 1u : 0u,
                               e.parent() ? *e.parent() + 1u : 0u, e.confirmed()});
    }
}

// Runs `rounds` rounds of Node(degree, params) — the hook protocol itself,
// or always_step<> around it to step every round.
template <class Node, class Params>
ff_state run_hook_rounds(const graph& g, const Params& p, std::uint64_t seed,
                         congest_budget budget, std::uint64_t rounds, double* seconds) {
    const auto t0 = std::chrono::steady_clock::now();
    engine<Node> eng(g, seed, budget);
    eng.spawn([&](std::size_t u) { return Node(g.degree(static_cast<node_id>(u)), p); });
    eng.run_rounds(rounds);
    *seconds = seconds_since(t0);
    ff_state st{eng.round(), eng.metrics().total(), {}};
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        append_digest(st.nodes, unwrap(eng.node(u)));
    }
    return st;
}

// One fast-forward table row: a stepped run, then the best of five
// skipping runs. Returns whether every skipping run matched the stepped one.
template <class Node, class Params>
bool ff_row(text_table& t, const std::string& name, const graph& g, const Params& params,
            congest_budget budget, std::uint64_t seed, std::uint64_t rounds) {
    double stepped_s = 0;
    const ff_state stepped =
        run_hook_rounds<always_step<Node>>(g, params, seed, budget, rounds, &stepped_s);
    double fast_s = 1e300;
    bool same = true;
    for (int rep = 0; rep < 5; ++rep) {
        double s = 0;
        same = same && run_hook_rounds<Node>(g, params, seed, budget, rounds, &s) == stepped;
        fast_s = std::min(fast_s, s);
    }
    t.add_row({name, fmt_count(rounds), fmt_fixed(stepped_s, 3), fmt_fixed(fast_s, 4),
               fmt_ratio(stepped_s / fast_s), same ? "yes" : "NO"});
    return same;
}

// Runs a whole Gilbert election of Node (the current node or the frozen
// replica) on the engine, as run_gilbert schedules it.
template <class Node>
ff_state run_gilbert_rounds(const graph& g, const gilbert_params& p, std::uint64_t seed,
                            double* seconds) {
    const auto t0 = std::chrono::steady_clock::now();
    engine<Node> eng(g, seed, congest_budget::fragmenting(16));
    eng.spawn([&](std::size_t u) { return Node(g.degree(static_cast<node_id>(u)), p); });
    eng.set_phase("gilbert");
    eng.run_rounds(p.total_rounds() + 1);
    *seconds = seconds_since(t0);
    ff_state st{eng.round(), eng.metrics().total(), {}};
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        const Node& nd = eng.node(u);
        const node_status ns = nd.status();
        st.nodes.insert(st.nodes.end(), {ns.decided ? 1u : 0u, ns.leader ? 1u : 0u,
                                         ns.own_id, nd.marks()});
    }
    return st;
}

int run(const bench::gate_options& opt) {
    bench::gate_run gate(opt);

    // --- 1. round dispatch: flat slots vs legacy vector inboxes ---
    struct workload {
        const char* name;
        graph g;
        std::uint64_t rounds;
    };
    std::vector<workload> workloads;
    const std::uint64_t r_mult = opt.quick ? 1 : 10;
    workloads.push_back({"clique(256)", make_complete(256), 30 * r_mult});
    workloads.push_back({"torus(32x32)", make_torus(32, 32), 300 * r_mult});
    workloads.push_back({"dumbbell(128)", make_family(graph_family::dumbbell, 128, 1),
                         200 * r_mult});
    workloads.push_back({"ba(1024)", make_family(graph_family::barabasi_albert, 1024, 1),
                         100 * r_mult});

    text_table t1({"workload", "n", "m", "rounds", "flat Mmsg/s", "legacy Mmsg/s",
                   "speedup"});
    for (auto& w : workloads) {
        const round_throughput r = measure_rounds(w.g, w.rounds);
        t1.add_row({w.name, fmt_count(w.g.num_nodes()), fmt_count(w.g.num_edges()),
                    fmt_count(r.rounds), fmt_fixed(r.flat_mmsg_s, 2),
                    fmt_fixed(r.legacy_mmsg_s, 2),
                    fmt_ratio(r.flat_mmsg_s / r.legacy_mmsg_s)});
    }
    gate.emit("engine round throughput", t1);

    // --- 2. sharded rounds identical to serial, across the whole zoo ---
    text_table t3({"family", "n", "identical"});
    const std::size_t ident_n = opt.quick ? 24 : 64;
    bool all_identical = true;
    for (graph_family f : all_families()) {
        const bool ok = parallel_identical(f, ident_n, 3);
        all_identical = all_identical && ok;
        t3.add_row({to_string(f), fmt_count(ident_n), ok ? "yes" : "NO"});
    }
    gate.emit("parallel step identity", t3);
    if (!all_identical) {
        std::fprintf(stderr, "parallel step diverged from serial — engine bug\n");
        return 2;
    }

    // --- 3. quiet-round fast-forward vs stepping every round ---
    // The campaign policy for revocable units (sim/campaign.cpp); seed 18
    // is elect-unknown-n's long unit on ba(8).
    revocable_params rp = revocable_params::scaled(std::nullopt, 0.008, 0.05);
    rp.k_cap = 16;
    struct ff_case {
        const char* name;
        graph g;
    };
    std::vector<ff_case> ff;
    ff.push_back({"ba(8)", make_family(graph_family::barabasi_albert, 8, 1)});
    ff.push_back({"torus(4x4)", make_torus(4, 4)});
    text_table t4({"workload", "rounds", "stepped s", "fast-forward s", "speedup",
                   "identical"});
    bool ff_identical = true;
    for (auto& c : ff) {
        std::uint64_t rounds = run_revocable(c.g, rp, 18).rounds;
        if (opt.quick) rounds /= 10;
        ff_identical &= ff_row<revocable_node>(t4, c.name, c.g, rp,
                                               congest_budget::fragmenting(16), 18, rounds);
    }
    // elect-known-n's irrevocable units (bench_e2e): profile-filled
    // parameters and run_irrevocable's strict budget, through the decide round.
    scenario_runner runner(1);
    for (const graph_family f : {graph_family::hypercube, graph_family::torus}) {
        const graph& g = runner.materialize(family_spec{f, 128, 1});
        const irrevocable_params ip =
            scenario_runner::fill(irrevocable_params{}, runner.profile_for(g));
        ff_identical &= ff_row<irrevocable_node>(
            t4, "irrevocable " + std::string(to_string(f)) + "(128)", g, ip,
            congest_budget::strict_log(16), 1, ip.total_rounds() + 1);
    }
    gate.emit("quiet-round fast-forward", t4);
    if (!ff_identical) {
        std::fprintf(stderr, "fast-forward diverged from stepping — engine bug\n");
        return 2;
    }

    // --- 4. gilbert walk batches: heap-free node vs the frozen replica ---
    // elect-known-n's gilbert units (bench_e2e): profile-filled parameters
    // and run_gilbert's fragmenting budget; best of five runs per side.
    text_table t5({"workload", "replica s", "new s", "speedup", "identical"});
    bool gl_identical = true;
    for (const graph_family f : {graph_family::hypercube, graph_family::torus}) {
        const graph& g = runner.materialize(family_spec{f, 128, 1});
        gilbert_params gp = scenario_runner::fill(gilbert_params{}, runner.profile_for(g));
        if (opt.quick) gp.c = 0.1;
        for (std::uint64_t seed = 1; seed <= 2; ++seed) {
            double replica_s = 1e300, new_s = 1e300;
            bool same = true;
            for (int rep = 0; rep < 5; ++rep) {
                double s = 0;
                const ff_state ref = run_gilbert_rounds<replica::gilbert_node>(g, gp, seed, &s);
                replica_s = std::min(replica_s, s);
                same = same && run_gilbert_rounds<gilbert_node>(g, gp, seed, &s) == ref;
                new_s = std::min(new_s, s);
            }
            gl_identical &= same;
            t5.add_row({std::string(to_string(f)) + "(128) seed " + std::to_string(seed),
                        fmt_fixed(replica_s, 4), fmt_fixed(new_s, 4),
                        fmt_ratio(replica_s / new_s), same ? "yes" : "NO"});
        }
    }
    gate.emit("gilbert walk batches", t5);
    if (!gl_identical) {
        std::fprintf(stderr, "gilbert node diverged from its frozen replica\n");
        return 2;
    }

    // Gate the *speedup* columns, not absolute throughput: both sides of
    // each ratio run on the same machine in the same process, so the gate
    // is machine-independent — a slower CI runner shifts flat and legacy
    // alike and the ratio survives.
    return gate.finish({
        {"engine round throughput", "workload", "speedup", false},
        {"parallel step identity", "family", "identical", true},
        {"quiet-round fast-forward", "workload", "speedup", false},
        {"quiet-round fast-forward", "workload", "identical", true},
        {"gilbert walk batches", "workload", "speedup", false},
        {"gilbert walk batches", "workload", "identical", true},
    });
}

}  // namespace
}  // namespace anole

int main(int argc, char** argv) {
    return anole::run(anole::bench::gate_options::parse(argc, argv, false));
}
