// Dynamics degradation bench — how the five algorithms hold up when the
// network stops being static (sim/dynamics.h; docs/DYNAMICS.md).
//
//   ./bench_dynamics                 # cycle/dumbbell/torus x presets
//   ./bench_dynamics --full          # adds the slow-mixing corners
//   ./bench_dynamics --dynamics churn,storm --seeds 8
//
// Each table row is one (topology, algorithm, dynamics model) cell:
// election rate, verdict split (unique / multi / none / error — a run
// that exhausts its round or budget cap counts as a bounded failure,
// never a hang), rounds and messages. The "static" preset is always
// swept first as the baseline the degradation is read against.
#include "bench/common.h"
#include "sim/campaign.h"
#include "sim/dynamics.h"

using namespace anole;
using namespace anole::bench;

int main(int argc, char** argv) {
    // One extra flag on top of the shared options: --dynamics d1,d2,...
    auto dynamics = all_dynamics_presets();
    const options opt = options::parse(argc, argv, [&](const std::string& a, int& i) {
        if (a != "--dynamics") return false;
        dynamics = parse_presets(flag_value(argc, argv, i, "--dynamics"), "--dynamics");
        return true;
    });

    const std::size_t n = opt.quick ? 32 : 64;
    const std::size_t seeds = opt.seeds_or(opt.quick ? 2 : 4);

    std::vector<family_spec> topologies = {
        {graph_family::cycle, n, 1},
        {graph_family::dumbbell, n, 1},
        {graph_family::torus, n, 1},
    };
    if (opt.full) {
        topologies.push_back({graph_family::barbell, n, 1});
        topologies.push_back({graph_family::connected_caveman, n, 1});
    }

    // The campaign's bounded default configs: hopeless cells (e.g.
    // revocable on a crashed network) fail in bounded time, never stall.
    // Revocable's campaign cap (up to 2M rounds per hopeless cell) is
    // pulled in much further here: under adversarial presets most of its
    // cells ARE hopeless, and this bench reads the verdict split, not
    // how long the round ladder ground on before giving up.
    algo_config revocable = campaign_default_config(algo_kind::revocable, n);
    std::get<revocable_cfg>(revocable).max_rounds = opt.quick ? 5'000 : 25'000;
    const std::vector<std::pair<std::string, algo_config>> algos = {
        {"flood_max", campaign_default_config(algo_kind::flood_max, n)},
        {"gilbert", campaign_default_config(algo_kind::gilbert, n)},
        {"irrevocable", campaign_default_config(algo_kind::irrevocable, n)},
        {"revocable", std::move(revocable)},
        {"cautious", campaign_default_config(algo_kind::cautious_broadcast, n)},
    };

    scenario_runner runner = opt.make_runner();

    std::vector<scenario> batch;
    for (const auto& topo : topologies) {
        for (const auto& [aname, cfg] : algos) {
            for (const auto& [dname, dspec] : dynamics) {
                scenario s;
                s.label = std::string(to_string(topo.family)) + "/" + aname + "@" +
                          dname;
                s.topology = topo;
                s.algo = cfg;
                s.seed = 2100;
                s.repetitions = seeds;
                s.dynamics = dspec;
                batch.push_back(std::move(s));
            }
        }
    }

    const std::vector<scenario_result> results = runner.run_batch(batch);

    text_table t({"cell", "elected", "multi", "none", "error", "rounds",
                  "messages"});
    for (const auto& res : results) {
        const outcome_counts c = count_outcomes(res);
        t.add_row({res.label,
                   std::to_string(c.unique) + "/" + std::to_string(res.runs.size()),
                   std::to_string(c.multi), std::to_string(c.none),
                   std::to_string(c.errors), fmt_mean_sd(res.rounds()),
                   fmt_mean_sd(res.messages())});
    }
    emit(t, opt, "DYNAMICS: verdicts under per-round adversaries");
    warn_errors(results);

    // --- adaptive vs oblivious: does *aiming* the same fault budget hurt
    // more? The leader_assassin crashes exactly the standing leader; the
    // i.i.d. crash preset kills uniformly at random. Revocable is the one
    // algorithm that can re-elect after losing a leader, so its cells
    // carry a "recovered" column: runs where the oracle saw a crashed
    // leader AND a live one at exit (assassination absorbed, new epoch
    // won). Flood rides along as the no-recovery contrast row.
    dynamics_spec assassin = *dynamics_preset("assassin");
    const std::vector<std::pair<std::string, dynamics_spec>> duel = {
        {"static", dynamics_spec{}},
        {"crash", *dynamics_preset("crash")},  // oblivious i.i.d.
        {"assassin", std::move(assassin)},     // adaptive, same budget class
    };
    const std::vector<std::pair<std::string, algo_config>> duel_algos = {
        {"flood_max", campaign_default_config(algo_kind::flood_max, n)},
        {"revocable", algos[3].second},
    };
    std::vector<scenario> duel_batch;
    for (const auto& topo : topologies) {
        for (const auto& [aname, cfg] : duel_algos) {
            for (const auto& [dname, dspec] : duel) {
                scenario s;
                s.label = std::string(to_string(topo.family)) + "/" + aname + "@" +
                          dname;
                s.topology = topo;
                s.algo = cfg;
                s.seed = 4700;
                s.repetitions = seeds;
                s.dynamics = dspec;
                duel_batch.push_back(std::move(s));
            }
        }
    }
    const std::vector<scenario_result> duels = runner.run_batch(duel_batch);

    text_table duel_t({"cell", "elected", "leader_killed", "recovered", "safe",
                       "rounds", "messages"});
    for (const auto& res : duels) {
        const outcome_counts c = count_outcomes(res);
        std::size_t killed = 0, recovered = 0, safe = 0;
        for (const auto& run : res.runs) {
            if (!run.ok) continue;
            const oracle_report orc = run.oracle();
            if (orc.pass()) ++safe;
            if (orc.crashed_leaders > 0) {
                ++killed;
                if (orc.live_leaders >= 1) ++recovered;
            }
        }
        duel_t.add_row({res.label,
                        std::to_string(c.unique) + "/" +
                            std::to_string(res.runs.size()),
                        std::to_string(killed), std::to_string(recovered),
                        std::to_string(safe), fmt_mean_sd(res.rounds()),
                        fmt_mean_sd(res.messages())});
    }
    emit(duel_t, opt, "DYNAMICS: adaptive (assassin) vs oblivious (crash)");
    warn_errors(duels);
    return 0;
}
