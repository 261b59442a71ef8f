// Tests for sim/claims.h on planted campaign records (no protocol runs):
// each claim passes on paper-shaped cells and fails when its bound
// breaks; a claim is left out when its cells are missing, have no ok
// runs or carry a dynamics name; the report gets a claims section only
// when a claim applies; and the aggregation the claims share with
// campaign_table keeps that table's bytes.
#include "sim/claims.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/params.h"
#include "sim/report.h"

namespace anole {
namespace {

constexpr std::uint64_t kTmix = 20;
constexpr double kPhi = 0.25;

campaign_record planted(graph_family f, std::size_t n, algo_kind v, std::uint64_t seed,
                        std::uint64_t messages, std::uint64_t rounds) {
    campaign_record r;
    r.unit = {f, n, 1, v, seed};
    r.nodes = n;
    r.edges = 2 * n;
    r.phi = kPhi;
    r.tmix = kTmix;
    r.ok = true;
    r.success = true;
    r.leaders = 1;
    r.messages = messages;
    r.rounds = rounds;
    return r;
}

irrevocable_params planted_params(std::size_t n) {
    irrevocable_params p;
    p.n = n;
    p.tmix = kTmix;
    p.phi = kPhi;
    return p;
}

// The rounds a real irrevocable run records on the planted profile: its
// closed-form schedule plus the decide round.
std::uint64_t schedule_rounds(std::size_t n) { return planted_params(n).total_rounds() + 1; }

// Two seeds each of irrevocable and gilbert at one (family, n) with the
// given message counts; irrevocable's rounds are its schedule times
// `time_scale`.
void add_coordinate(std::vector<campaign_record>& out, graph_family f, std::size_t n,
                    double irrevocable_msgs, double gilbert_msgs,
                    double time_scale = 1.0) {
    const auto rounds = static_cast<std::uint64_t>(
        static_cast<double>(schedule_rounds(n)) * time_scale);
    for (const std::uint64_t seed : {1, 2}) {
        out.push_back(planted(f, n, algo_kind::irrevocable, seed,
                              static_cast<std::uint64_t>(irrevocable_msgs), rounds));
    }
    for (const std::uint64_t seed : {1, 2}) {
        out.push_back(planted(f, n, algo_kind::gilbert, seed,
                              static_cast<std::uint64_t>(gilbert_msgs), 100));
    }
}

// The paper's shapes on three sizes whose territories stop inside half
// the graph: irrevocable ~ n, gilbert ~ n^1.5 and 5x above it,
// irrevocable's rounds on its schedule.
std::vector<campaign_record> paper_shaped() {
    std::vector<campaign_record> out;
    for (const std::size_t n : {256, 512, 1024}) {
        const double s = static_cast<double>(n) / 256;
        add_coordinate(out, graph_family::hypercube, n, 1000 * s,
                       5000 * std::pow(s, 1.5));
    }
    return out;
}

std::vector<std::string> names(const std::vector<claim_result>& claims) {
    std::vector<std::string> out;
    for (const claim_result& c : claims) out.push_back(c.name);
    return out;
}

using name_list = std::vector<std::string>;

TEST(Claims, EveryClaimPassesOnPaperShapedCells) {
    const std::vector<claim_result> claims = evaluate_claims(paper_shaped());
    EXPECT_EQ(names(claims),
              (name_list{"table1.B<C", "theorem1.exponent", "theorem1.time"}));
    EXPECT_TRUE(failed_claims(claims).empty());
    ASSERT_EQ(claims.size(), 3u);
    // One row per coordinate, per family, per cell plus the fit.
    EXPECT_EQ(claims[0].rows.size(), 3u);
    EXPECT_EQ(claims[1].rows.size(), 1u);
    EXPECT_EQ(claims[2].rows.size(), 4u);
    EXPECT_EQ(claims[0].rows[0].cell, "hypercube/256");
    EXPECT_EQ(claims[0].rows[0].measured, "5.00x");
    EXPECT_EQ(claims[1].rows[0].cell, "hypercube");
    EXPECT_EQ(claims[1].rows[0].evidence,
              "gilbert n^1.50, irrevocable n^1.00 over 3 sizes, 0 left out (2*cap > n)");
    EXPECT_EQ(claims[2].rows.back().cell, "fit");
    EXPECT_EQ(claims[2].rows.back().measured.rfind("a = ", 0), 0u);

    const text_table t = claims_table(claims);
    EXPECT_EQ(t.header(), (name_list{"claim", "cell", "measured", "bound", "verdict",
                                     "evidence"}));
    EXPECT_EQ(t.row_count(), 8u);
    for (const auto& row : t.rows()) EXPECT_EQ(row[4], "pass");
}

TEST(Claims, Table1FailsWhenIrrevocableSendsMoreThanGilbert) {
    std::vector<campaign_record> records;
    add_coordinate(records, graph_family::torus, 64, 9000, 3000);
    const std::vector<claim_result> claims = evaluate_claims(records);
    EXPECT_EQ(names(claims), (name_list{"table1.B<C", "theorem1.time"}));
    EXPECT_EQ(failed_claims(claims), (name_list{"table1.B<C"}));
    EXPECT_EQ(claims[0].rows[0].measured, "0.33x");
}

TEST(Claims, Table1EvidenceCarriesEveryRowsMsgPerClaimConstant) {
    std::vector<campaign_record> records;
    add_coordinate(records, graph_family::torus, 64, 1000, 8000);
    const std::vector<claim_result> without_flood = evaluate_claims(records);
    EXPECT_EQ(without_flood[0].rows[0].evidence.find(" A "), std::string::npos);

    // Row A's form is m = 128 edges: 512 messages make the constant 4.
    records.push_back(planted(graph_family::torus, 64, algo_kind::flood_max, 1, 512, 9));
    const claim_row row = evaluate_claims(records)[0].rows[0];
    EXPECT_NE(row.evidence.find("msg/claim A 4.00 B "), std::string::npos);
    EXPECT_NE(row.evidence.find("sqrt(tmix*phi) 2.24"), std::string::npos);
    EXPECT_TRUE(row.pass);
}

TEST(Claims, ExponentFailsWhenGilbertScalesSlower) {
    // Gilbert stays above irrevocable at every size (row B < row C), but
    // grows as n^1 against irrevocable's n^1.5.
    std::vector<campaign_record> records;
    for (const std::size_t n : {256, 512, 1024}) {
        const double s = static_cast<double>(n) / 256;
        add_coordinate(records, graph_family::random_regular, n, 1000 * std::pow(s, 1.5),
                       20000 * s);
    }
    const std::vector<claim_result> claims = evaluate_claims(records);
    EXPECT_EQ(failed_claims(claims), (name_list{"theorem1.exponent"}));
    EXPECT_EQ(claims[1].rows[0].measured, "-0.50");
}

TEST(Claims, ExponentLeavesOutSizesWhoseTerritoryPassesHalfTheGraph) {
    // On the planted profile (T = 20, Φ = 0.25) the cap x·T·Φ is above n/2
    // at n = 64 and 128 and below it from n = 256 on.
    for (const std::size_t n : {64, 128}) {
        EXPECT_GT(2 * planted_params(n).territory_cap(), n) << n;
    }
    for (const std::size_t n : {256, 512, 1024}) {
        EXPECT_LE(2 * planted_params(n).territory_cap(), n) << n;
    }
    // Outside the regime irrevocable grows far faster than gilbert (20 ->
    // 1000 messages against 2000 -> 5000 over 64–256), which would fail
    // the claim; with one size in the regime there is no row.
    std::vector<campaign_record> records;
    add_coordinate(records, graph_family::hypercube, 64, 20, 2000);
    add_coordinate(records, graph_family::hypercube, 128, 100, 3500);
    add_coordinate(records, graph_family::hypercube, 256, 1000, 5000);
    EXPECT_EQ(names(evaluate_claims(records)), (name_list{"table1.B<C", "theorem1.time"}));

    // 512 and 1024 on the paper's shape give 3 sizes in the regime; the
    // two outside it are counted and kept out of the fit, so it passes.
    const std::vector<campaign_record> shaped = paper_shaped();
    records.insert(records.end(), shaped.begin() + 4, shaped.end());
    const claim_result exponent = evaluate_claims(records)[1];
    ASSERT_EQ(exponent.name, "theorem1.exponent");
    ASSERT_EQ(exponent.rows.size(), 1u);
    EXPECT_EQ(exponent.rows[0].evidence,
              "gilbert n^1.50, irrevocable n^1.00 over 3 sizes, 2 left out (2*cap > n)");
    EXPECT_TRUE(exponent.rows[0].pass);
}

TEST(Claims, TimeFailsOutsideTheScheduleBand) {
    for (const double scale : {1.5, 0.8}) {
        std::vector<campaign_record> records;
        add_coordinate(records, graph_family::torus, 64, 1000, 5000, scale);
        add_coordinate(records, graph_family::torus, 144, 2000, 9000);
        const std::vector<claim_result> claims = evaluate_claims(records);
        EXPECT_EQ(failed_claims(claims), (name_list{"theorem1.time"})) << scale;
        const std::vector<claim_row>& rows = claims.back().rows;
        ASSERT_EQ(rows.size(), 3u);
        EXPECT_FALSE(rows[0].pass) << scale;
        EXPECT_TRUE(rows[1].pass) << scale;
    }
}

TEST(Claims, OmittedWhenTheirCellsAreMissing) {
    EXPECT_TRUE(evaluate_claims({}).empty());
    // Flood alone feeds no claim.
    EXPECT_TRUE(evaluate_claims({planted(graph_family::cycle, 16, algo_kind::flood_max,
                                         1, 40, 8)})
                    .empty());
    // Irrevocable alone: only the time claim.
    const std::vector<campaign_record> irrevocable_only = {planted(
        graph_family::cycle, 16, algo_kind::irrevocable, 1, 900, schedule_rounds(16))};
    EXPECT_EQ(names(evaluate_claims(irrevocable_only)), (name_list{"theorem1.time"}));
    // Two sizes are too few for an exponent.
    std::vector<campaign_record> two_sizes = paper_shaped();
    std::erase_if(two_sizes, [](const campaign_record& r) { return r.unit.n == 1024; });
    EXPECT_EQ(names(evaluate_claims(two_sizes)),
              (name_list{"table1.B<C", "theorem1.time"}));
}

TEST(Claims, OmittedWhenTheirCellsHaveNoOkRuns) {
    std::vector<campaign_record> records = paper_shaped();
    for (campaign_record& r : records) {
        if (r.unit.variant == algo_kind::gilbert) r.ok = false;
    }
    EXPECT_EQ(names(evaluate_claims(records)), (name_list{"theorem1.time"}));
    for (campaign_record& r : records) r.ok = false;
    EXPECT_TRUE(evaluate_claims(records).empty());
}

TEST(Claims, DynamicsCellsAreNeverRead) {
    // Cells that would fail every claim, all under an adversary.
    std::vector<campaign_record> adversarial;
    for (const std::size_t n : {64, 128, 256}) {
        add_coordinate(adversarial, graph_family::hypercube, n, 9000, 10, 3.0);
    }
    for (campaign_record& r : adversarial) r.unit.dynamics_name = "churn";
    EXPECT_TRUE(evaluate_claims(adversarial).empty());

    std::vector<campaign_record> mixed = paper_shaped();
    mixed.insert(mixed.end(), adversarial.begin(), adversarial.end());
    const std::vector<claim_result> claims = evaluate_claims(mixed);
    EXPECT_EQ(claims.size(), 3u);
    EXPECT_TRUE(failed_claims(claims).empty());
    EXPECT_EQ(claims[0].rows.size(), 3u);
}

TEST(Claims, ReportHasAClaimsSectionOnlyWhenAClaimApplies) {
    const std::string with = render_campaign_report(paper_shaped());
    EXPECT_NE(with.find("<h2>claims</h2>"), std::string::npos);
    EXPECT_NE(with.find("theorem1.exponent"), std::string::npos);
    EXPECT_NE(with.find("applicable claim(s) hold"), std::string::npos);

    std::vector<campaign_record> failing;
    add_coordinate(failing, graph_family::torus, 64, 9000, 3000);
    const std::string red = render_campaign_report(failing);
    EXPECT_NE(red.find("failed: <code>table1.B&lt;C</code>"), std::string::npos);

    const std::string without = render_campaign_report(
        {planted(graph_family::cycle, 16, algo_kind::flood_max, 1, 40, 8)});
    EXPECT_EQ(without.find("<h2>claims</h2>"), std::string::npos);
}

TEST(Claims, SharedCellsKeepTheCampaignTableBytes) {
    // One cell per shape the table renders: a mixed ok/failed cell, an
    // all-failed cell, an oracle violation with two leaders, a dynamics
    // cell, and a second family appearing between cells of the first.
    std::vector<campaign_record> records;
    records.push_back(planted(graph_family::cycle, 16, algo_kind::flood_max, 1, 40, 8));
    records.push_back(planted(graph_family::cycle, 16, algo_kind::irrevocable, 1, 901,
                              1234));
    records.push_back(planted(graph_family::wheel, 12, algo_kind::gilbert, 1, 5000, 77));
    records.push_back(planted(graph_family::cycle, 16, algo_kind::flood_max, 2, 47, 9));
    records.back().ok = false;
    records.back().error = "round limit";
    records.push_back(planted(graph_family::cycle, 16, algo_kind::irrevocable, 2, 1100,
                              1234));
    records.back().leaders = 2;
    records.back().oracle_ok = false;
    records.push_back(planted(graph_family::cycle, 16, algo_kind::revocable, 1, 10, 10));
    records.back().ok = false;
    records.push_back(planted(graph_family::cycle, 16, algo_kind::flood_max, 1, 60, 12));
    records.back().unit.dynamics_name = "churn";
    records.back().phi = 0.123456;

    std::ostringstream os;
    campaign_table(records).print_csv(os);
    EXPECT_EQ(os.str(),
              "family,n,variant,runs,ok,elected,safe,phi,tmix,messages,rounds\n"
              "cycle,16,flood_max,2,1/2,1/1,1/1,0.25000,20,40,8\n"
              "cycle,16,irrevocable,2,2/2,1/2,1/2,0.25000,20,\"1,000\",\"1,234\"\n"
              "wheel,12,gilbert,1,1/1,1/1,1/1,0.25000,20,\"5,000\",77\n"
              "cycle,16,revocable,1,0/1,0/0,0/0,0.25000,20,-,-\n"
              "cycle,16,flood_max@churn,1,1/1,1/1,1/1,0.12346,20,60,12\n");
}

}  // namespace
}  // namespace anole
