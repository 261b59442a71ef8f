// Tests for sim/report.h: the HTML report is self-contained (no external
// references), carries every section the ledger feeds it, themes for
// light+dark, and surfaces safety violations.
#include "sim/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "graph/generators.h"
#include "graph/layout.h"
#include "sim/runner.h"

namespace anole {
namespace {

std::vector<campaign_record> run_tiny_campaign() {
    campaign_spec spec;
    spec.families = {graph_family::wheel, graph_family::connected_caveman};
    spec.sizes = {16, 24};
    spec.variants = {algo_kind::flood_max, algo_kind::irrevocable};
    spec.seeds = 2;
    spec.base_seed = 10;
    scenario_runner runner(2);
    return run_campaign(spec, runner).records;
}

TEST(Report, RendersEverySectionSelfContained) {
    const std::vector<campaign_record> records = run_tiny_campaign();
    ASSERT_EQ(records.size(), 16u);

    report_options opt;
    opt.expected_units = 16;
    const std::string html = render_campaign_report(records, opt);

    // Document shell and the declared sections.
    EXPECT_EQ(html.rfind("<!DOCTYPE html>", 0), 0u);
    EXPECT_NE(html.find("<title>anole campaign report</title>"), std::string::npos);
    EXPECT_NE(html.find("units recorded"), std::string::npos);
    EXPECT_NE(html.find("16 / 16"), std::string::npos);  // expected_units tile
    EXPECT_NE(html.find("mean messages vs n"), std::string::npos);
    EXPECT_NE(html.find("mean rounds vs n"), std::string::npos);
    EXPECT_NE(html.find("aggregate table"), std::string::npos);
    EXPECT_NE(html.find("topology gallery"), std::string::npos);
    EXPECT_NE(html.find("<svg"), std::string::npos);
    EXPECT_NE(html.find("<table>"), std::string::npos);

    // Family and variant names appear (charts, table, gallery captions).
    EXPECT_NE(html.find("wheel"), std::string::npos);
    EXPECT_NE(html.find("connected_caveman"), std::string::npos);
    EXPECT_NE(html.find("flood_max"), std::string::npos);
    EXPECT_NE(html.find("irrevocable"), std::string::npos);

    // Two variants → a legend is mandatory; markers carry native
    // tooltips; dark mode is a first-class stylesheet block.
    EXPECT_NE(html.find("class=\"legend\""), std::string::npos);
    EXPECT_NE(html.find("<title>flood_max"), std::string::npos);
    EXPECT_NE(html.find("prefers-color-scheme: dark"), std::string::npos);

    // Self-contained: no scripts, no external fetches. The only URL-like
    // string allowed is the SVG xmlns namespace identifier.
    EXPECT_EQ(html.find("<script"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);
    EXPECT_EQ(html.find("<link"), std::string::npos);
    EXPECT_EQ(html.find("@import"), std::string::npos);
    EXPECT_EQ(html.find("url("), std::string::npos);
    std::size_t at = html.find("http://");
    while (at != std::string::npos) {
        EXPECT_EQ(html.compare(at, 27, "http://www.w3.org/2000/svg\""), 0)
            << "unexpected URL at offset " << at;
        at = html.find("http://", at + 1);
    }

    // Clean campaign: the safety section reports green, never red.
    EXPECT_NE(html.find("status-good"), std::string::npos);
    EXPECT_EQ(html.find("oracle violation"), std::string::npos);
}

TEST(Report, SurfacesViolationsAndFailures) {
    std::vector<campaign_record> records = run_tiny_campaign();
    records[0].oracle_ok = false;
    records[0].oracle_summary = "VIOLATION multi_leader: 2 leaders";
    records[1].ok = false;
    records[1].error = "engine exploded <dramatically>";

    const std::string html = render_campaign_report(records);
    EXPECT_NE(html.find("1 oracle violation(s)"), std::string::npos);
    EXPECT_NE(html.find(records[0].unit.key()), std::string::npos);
    EXPECT_NE(html.find("VIOLATION multi_leader: 2 leaders"), std::string::npos);
    EXPECT_NE(html.find("1 failed unit(s)"), std::string::npos);
    // HTML-escaped, not injected.
    EXPECT_NE(html.find("engine exploded &lt;dramatically&gt;"), std::string::npos);
    EXPECT_EQ(html.find("<dramatically>"), std::string::npos);
    // The gallery is always drawn, next to the safety section.
    EXPECT_NE(html.find("topology gallery"), std::string::npos);
}

TEST(Report, EmptyLedgerStillRendersADocument) {
    const std::string html = render_campaign_report({});
    EXPECT_EQ(html.rfind("<!DOCTYPE html>", 0), 0u);
    EXPECT_NE(html.find("0"), std::string::npos);
    EXPECT_EQ(html.find("<svg"), std::string::npos);  // nothing to chart
}

TEST(Report, WritesFileAndThrowsOnBadPath) {
    const std::string path = ::testing::TempDir() + "anole_report_test.html";
    std::remove(path.c_str());
    const std::vector<campaign_record> records = run_tiny_campaign();
    write_campaign_report(path, records);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), render_campaign_report(records));
    std::remove(path.c_str());

    EXPECT_THROW(
        write_campaign_report("/nonexistent_dir_anole/report.html", records),
        error);
}

TEST(Report, GalleryBytesIdenticalAcrossJobs) {
    // Thumbnails are laid out concurrently, one pool job per family, and
    // each force pass shards over the same pool. The document must not
    // depend on that scheduling: same bytes for every pool size. One
    // family at n = 1024 makes its layout shard across several blocks.
    struct fam {
        graph_family family;
        std::size_t n;
    };
    const std::vector<fam> fams = {{graph_family::wheel, 32},
                                   {graph_family::erdos_renyi, 1024},
                                   {graph_family::cycle, 48},
                                   {graph_family::connected_caveman, 60},
                                   {graph_family::watts_strogatz, 64},
                                   {graph_family::star, 40}};
    std::vector<campaign_record> records;
    for (std::size_t i = 0; i < fams.size(); ++i) {
        campaign_record r;
        r.unit.family = fams[i].family;
        r.unit.n = fams[i].n;
        r.unit.topology_seed = 3;
        r.unit.variant = algo_kind::flood_max;
        r.unit.seed = 1;
        r.nodes = fams[i].n;
        r.ok = true;
        r.success = true;
        r.leaders = 1;
        r.rounds = 10 + i;
        r.messages = 100 * (i + 1);
        records.push_back(r);
    }

    report_options opt;
    opt.jobs = 1;
    const std::string base = render_campaign_report(records, opt);
    std::size_t figures = 0;
    for (std::size_t at = base.find("<figure"); at != std::string::npos;
         at = base.find("<figure", at + 1)) {
        ++figures;
    }
    EXPECT_EQ(figures, fams.size());
    // Captions appear in first-appearance order, not completion order.
    EXPECT_LT(base.find("wheel · n=32"), base.find("erdos_renyi · n=1024"));
    EXPECT_LT(base.find("erdos_renyi · n=1024"), base.find("star · n=40"));
    for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
        opt.jobs = jobs;
        EXPECT_EQ(render_campaign_report(records, opt), base) << "jobs=" << jobs;
    }
}

TEST(Report, GalleryFigureIsTheLayoutSvgOfTheTopology) {
    // The thumbnail is layout_svg of force_layout on the campaign's own
    // topology seed, the bytes examples/topology_gallery prints for the
    // same (family, n, seed). The report's pool changes none of them.
    campaign_record r;
    r.unit.family = graph_family::wheel;
    r.unit.n = 24;
    r.unit.topology_seed = 5;
    r.unit.variant = algo_kind::flood_max;
    r.ok = true;
    const graph g = make_family(graph_family::wheel, 24, 5);
    const std::string figure = "<figure class=\"thumb\">" +
                               layout_svg(g, force_layout(g, {.seed = 5})) +
                               "<figcaption>wheel · n=24</figcaption></figure>";
    report_options opt;
    opt.jobs = 4;
    EXPECT_NE(render_campaign_report({r}, opt).find(figure), std::string::npos);
}

TEST(Report, GalleryFailureSurfacesAsError) {
    // A thumbnail whose graph cannot be built fails inside its pool job;
    // the failure must surface from render_campaign_report as the error
    // make_family threw, not terminate a worker thread.
    std::vector<campaign_record> records(3);
    records[0].unit.family = graph_family::star;
    records[0].unit.n = 16;
    records[1].unit.family = graph_family::path;
    records[1].unit.n = 0;  // make_family needs n >= 1
    records[2].unit.family = graph_family::wheel;
    records[2].unit.n = 0;
    for (campaign_record& r : records) r.unit.variant = algo_kind::flood_max;

    report_options opt;
    opt.jobs = 4;
    try {
        (void)render_campaign_report(records, opt);
        ADD_FAILURE() << "expected anole::error";
    } catch (const error& e) {
        EXPECT_NE(std::string(e.what()).find("make_family: n >= 1"), std::string::npos)
            << e.what();
    }
}

}  // namespace
}  // namespace anole
