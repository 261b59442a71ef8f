// anole — self-contained HTML campaign report.
//
// `bench_campaign --report out.html` renders one ledger into a single
// HTML file with ZERO external references — no scripts, no fonts, no
// fetches; inline SVG and CSS only — so it can be archived as a CI
// artifact, attached to a mail, or opened from a USB stick years later
// and still render. Sections:
//
//   * stat tiles: units recorded / ok / single-leader / oracle-clean;
//   * per-family small multiples: mean message and round complexity vs n
//     (log-log), one colored series per algorithm variant (fixed slot
//     order — identity, never rank), dashed per dynamics model, with
//     native <title> tooltips on every marker;
//   * the full aggregate table (the same grouping campaign_table
//     prints) — the accessible fallback for every chart above it;
//   * a claims section (sim/claims.h), only when a claim applies: the
//     verdict line and the claims table bench_campaign prints;
//   * a safety section listing oracle violations and failed units;
//   * a topology gallery: one force-directed thumbnail per family at the
//     largest recorded size, laid out by graph/layout.h (multilevel
//     Barnes–Hut force layout, so n = 10⁵ thumbnails are fine) on the
//     campaign's own topology seed; a family past report.cpp's node cap
//     gets a note instead. Each thumbnail costs one graph build and one
//     layout.
//
// Light and dark mode are both first-class: colors are CSS custom
// properties with a prefers-color-scheme override, and the SVG marks
// reference them by class.
#pragma once

#include <string>
#include <vector>

#include "sim/campaign.h"

namespace anole {

struct report_options {
    // When nonzero, the coverage tile shows recorded/expected (the merge
    // path knows the expansion size; a bare ledger does not).
    std::size_t expected_units = 0;
    // Worker threads for the gallery; 0 = hardware concurrency. One pool
    // serves both levels: families lay out concurrently (one job per
    // thumbnail), and each thumbnail's force pass shards over the same
    // threads. The bytes are identical for every value.
    std::size_t jobs = 0;
};

// The full HTML document.
[[nodiscard]] std::string render_campaign_report(
    const std::vector<campaign_record>& records, const report_options& opt = {});

// Renders and atomically replaces `path` (throws anole::error on I/O failure).
void write_campaign_report(const std::string& path,
                           const std::vector<campaign_record>& records,
                           const report_options& opt = {});

}  // namespace anole
