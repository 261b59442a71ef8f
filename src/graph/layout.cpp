#include "graph/layout.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>

#include "graph/properties.h"
#include "sim/thread_pool.h"
#include "util/rng.h"

namespace anole {

// --- quadtree ---------------------------------------------------------------

void bh_quadtree::build(std::span<const layout_point> pts) {
    pts_ = pts;
    cells_.clear();
    if (pts.empty()) return;

    double minx = std::numeric_limits<double>::infinity(), maxx = -minx;
    double miny = minx, maxy = maxx;
    for (const layout_point& p : pts) {
        minx = std::min(minx, p.x);
        maxx = std::max(maxx, p.x);
        miny = std::min(miny, p.y);
        maxy = std::max(maxy, p.y);
    }
    cell root;
    root.cx = (minx + maxx) / 2;
    root.cy = (miny + maxy) / 2;
    // Square root cell; the epsilon keeps boundary points strictly inside
    // so the quadrant test never oscillates.
    root.half = std::max({maxx - minx, maxy - miny, 1e-12}) / 2 * (1 + 1e-9);
    cells_.reserve(pts.size() * 2 + 16);
    cells_.push_back(root);
    for (std::size_t i = 0; i < pts.size(); ++i) {
        insert_into(0, static_cast<std::int32_t>(i), 0);
    }
}

void bh_quadtree::insert_into(std::int32_t c, std::int32_t i, int depth) {
    cells_[c].mass += 1;
    cells_[c].mx += pts_[static_cast<std::size_t>(i)].x;
    cells_[c].my += pts_[static_cast<std::size_t>(i)].y;
    if (cells_[c].mass == 1) {  // first body in a fresh cell
        cells_[c].body = i;
        return;
    }
    if (cells_[c].body == kAggregate) return;  // depth-capped pile-up
    if (cells_[c].body >= 0) {
        if (depth >= kMaxDepth) {
            // Coincident (or near-coincident beyond double resolution)
            // bodies: fold into an aggregate leaf instead of splitting.
            cells_[c].body = kAggregate;
            return;
        }
        // Occupied leaf becomes internal: push the resident body down one
        // level (its mass is already counted in this cell).
        const std::int32_t other = cells_[c].body;
        cells_[c].body = -1;
        descend(c, other, depth);
    }
    descend(c, i, depth);
}

void bh_quadtree::descend(std::int32_t c, std::int32_t i, int depth) {
    const layout_point& p = pts_[static_cast<std::size_t>(i)];
    const int q = (p.x >= cells_[c].cx ? 1 : 0) | (p.y >= cells_[c].cy ? 2 : 0);
    std::int32_t ch = cells_[c].child[q];
    if (ch < 0) {
        ch = static_cast<std::int32_t>(cells_.size());
        cell child;
        const double h = cells_[c].half / 2;
        child.cx = cells_[c].cx + ((q & 1) != 0 ? h : -h);
        child.cy = cells_[c].cy + ((q & 2) != 0 ? h : -h);
        child.half = h;
        cells_.push_back(child);  // may reallocate: re-index below
        cells_[c].child[q] = ch;
    }
    insert_into(ch, i, depth + 1);
}

double bh_quadtree::total_mass() const noexcept {
    return cells_.empty() ? 0.0 : cells_[0].mass;
}

layout_point bh_quadtree::centroid() const {
    if (cells_.empty() || cells_[0].mass == 0) return {0, 0};
    return {cells_[0].mx / cells_[0].mass, cells_[0].my / cells_[0].mass};
}

layout_point bh_quadtree::repulsion(layout_point p, std::size_t self, double k,
                                    double theta,
                                    std::vector<std::int32_t>& scratch) const {
    layout_point f{0, 0};
    if (cells_.empty()) return f;
    const double k2 = k * k;
    scratch.clear();
    scratch.push_back(0);
    while (!scratch.empty()) {
        const cell& c = cells_[static_cast<std::size_t>(scratch.back())];
        scratch.pop_back();
        if (c.mass <= 0) continue;
        double mass = c.mass;
        double comx = c.mx / c.mass, comy = c.my / c.mass;
        if (c.body >= 0) {  // single-body leaf
            if (static_cast<std::size_t>(c.body) == self) continue;
        } else if (c.body != kAggregate) {  // internal: maybe open
            const double dx0 = p.x - comx, dy0 = p.y - comy;
            const double d2 = dx0 * dx0 + dy0 * dy0;
            const double width = 2 * c.half;
            if (width * width > theta * theta * d2) {
                for (const std::int32_t ch : c.child) {
                    if (ch >= 0) scratch.push_back(ch);
                }
                continue;
            }
        } else if (self != npos) {
            // Aggregate leaf that may contain the probe body itself (it
            // cannot be opened): subtract the self contribution so the
            // remainder acts as a point mass.
            const layout_point& sp = pts_[self];
            if (std::abs(sp.x - c.cx) <= c.half && std::abs(sp.y - c.cy) <= c.half) {
                mass -= 1;
                if (mass <= 0) continue;
                comx = (c.mx - sp.x) / mass;
                comy = (c.my - sp.y) / mass;
            }
        }
        const double dx = p.x - comx, dy = p.y - comy;
        // Softened so exactly coincident survivors produce a large-but-
        // finite kick (the temperature cap bounds it anyway).
        const double d2 = std::max(dx * dx + dy * dy, 1e-12);
        const double scale = k2 * mass / d2;  // (k²/d)·(1/d) per unit delta
        f.x += dx * scale;
        f.y += dy * scale;
    }
    return f;
}

layout_point bh_quadtree::repulsion(layout_point p, std::size_t self, double k,
                                    double theta) const {
    std::vector<std::int32_t> scratch;
    scratch.reserve(64);
    return repulsion(p, self, k, theta, scratch);
}

// --- force_layout -----------------------------------------------------------

namespace {

constexpr std::uint64_t kLayoutTag = 0x6c61796f75743264ULL;  // "layout2d"
constexpr std::uint64_t kJitterTag = 0x6a69747465723033ULL;  // "jitter03"
constexpr std::uint64_t kStressTag = 0x7374726573733438ULL;  // "stress48"

constexpr node_id kNone = std::numeric_limits<node_id>::max();
// Coarsening stops at a level this small, or when a level keeps more
// than kStallRatio of its parent's nodes (the matching has stalled).
constexpr std::size_t kCoarsestNodes = 64;
constexpr double kStallRatio = 0.85;
// Refinement starts cool: the interpolated drawing is already untangled,
// and a hot start would shake it back into a random one.
constexpr double kRefineTemperature = 0.05;
// A second child starts up to this many k from its parent on each axis,
// at a seeded offset, so siblings never coincide.
constexpr double kJitter = 0.3;

std::size_t auto_iterations(std::size_t n) {
    if (n <= 2048) return 100;
    if (n <= 32768) return 50;
    return 30;
}

// Passes per finer level: a few relax the interpolated drawing; fewer at
// scale, where each one costs more, as auto_iterations does.
std::size_t refine_iterations(std::size_t n) {
    if (n <= 2048) return 15;
    if (n <= 32768) return 8;
    return 5;
}

// One level of the hierarchy, as a weighted CSR. Level 0 is the input
// graph in port order with every weight 1; a coarse edge weighs the
// number of input edges it stands for. `pull` scales the edge's
// attraction: √weight, because the full weight collapses clique-derived
// clusters (caveman) and weight 1 loses lattice shape (torus).
struct level {
    std::vector<std::size_t> offsets{0};
    std::vector<node_id> nbr;
    std::vector<double> weight;
    std::vector<double> pull;

    [[nodiscard]] std::size_t size() const noexcept { return offsets.size() - 1; }
};

level input_level(const graph& g) {
    level lv;
    lv.offsets.reserve(g.num_nodes() + 1);
    lv.nbr.reserve(2 * g.num_edges());
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
        for (const node_id v : g.neighbors(static_cast<node_id>(u))) lv.nbr.push_back(v);
        lv.offsets.push_back(lv.nbr.size());
    }
    lv.weight.assign(lv.nbr.size(), 1.0);
    lv.pull = lv.weight;
    return lv;
}

// Coarsens `fine` by one level and sets parent[u] to the coarse node of
// each fine node u. Serial and in index order, so the hierarchy depends
// on the graph alone:
//   1. heavy-edge matching: each unmatched node takes its heaviest
//      unmatched neighbour (the first in port order on ties);
//   2. around each node, its still-unmatched neighbours pair up in port
//      order, so stars, wheels and hubs shrink too;
//   3. coarse nodes are numbered by their lowest member, and parallel
//      coarse edges merge, summing their weights.
level coarsen(const level& fine, std::vector<node_id>& parent) {
    const std::size_t n = fine.size();
    std::vector<node_id> mate(n, kNone);
    for (std::size_t u = 0; u < n; ++u) {
        if (mate[u] != kNone) continue;
        node_id best = kNone;
        double best_w = 0;
        for (std::size_t e = fine.offsets[u]; e < fine.offsets[u + 1]; ++e) {
            const node_id v = fine.nbr[e];
            if (mate[v] == kNone && fine.weight[e] > best_w) {
                best = v;
                best_w = fine.weight[e];
            }
        }
        if (best != kNone) {
            mate[u] = best;
            mate[best] = static_cast<node_id>(u);
        }
    }
    for (std::size_t x = 0; x < n; ++x) {
        node_id pending = kNone;
        for (std::size_t e = fine.offsets[x]; e < fine.offsets[x + 1]; ++e) {
            const node_id v = fine.nbr[e];
            if (mate[v] != kNone) continue;
            if (pending == kNone) {
                pending = v;
            } else {
                mate[pending] = v;
                mate[v] = pending;
                pending = kNone;
            }
        }
    }

    parent.assign(n, kNone);
    std::vector<node_id> first;  // lowest member of each coarse node
    for (std::size_t u = 0; u < n; ++u) {
        if (parent[u] != kNone) continue;
        const auto c = static_cast<node_id>(first.size());
        parent[u] = c;
        if (mate[u] != kNone) parent[mate[u]] = c;
        first.push_back(static_cast<node_id>(u));
    }

    level coarse;
    coarse.offsets.reserve(first.size() + 1);
    // at[c]: where coarse neighbour c sits in the row being built; entries
    // left over from earlier rows point before the row's start.
    std::vector<std::size_t> at(first.size(), static_cast<std::size_t>(-1));
    for (std::size_t c = 0; c < first.size(); ++c) {
        const std::size_t row = coarse.nbr.size();
        for (const node_id u : {first[c], mate[first[c]]}) {
            if (u == kNone) continue;
            for (std::size_t e = fine.offsets[u]; e < fine.offsets[u + 1]; ++e) {
                const node_id cv = parent[fine.nbr[e]];
                if (cv == c) continue;
                if (at[cv] != static_cast<std::size_t>(-1) && at[cv] >= row) {
                    coarse.weight[at[cv]] += fine.weight[e];
                } else {
                    at[cv] = coarse.nbr.size();
                    coarse.nbr.push_back(cv);
                    coarse.weight.push_back(fine.weight[e]);
                }
            }
        }
        coarse.offsets.push_back(coarse.nbr.size());
    }
    coarse.pull.reserve(coarse.weight.size());
    for (const double w : coarse.weight) coarse.pull.push_back(std::sqrt(w));
    return coarse;
}

// Every child starts at its parent's position; the second child of a
// pair moves by a seeded offset of up to kJitter·k per axis, derived from
// (seed, depth, node index) alone.
std::vector<layout_point> interpolate(const std::vector<layout_point>& coarse,
                                      const std::vector<node_id>& parent, double k,
                                      std::uint64_t seed, std::size_t depth) {
    std::vector<layout_point> pts(parent.size());
    std::vector<bool> placed(coarse.size(), false);
    for (std::size_t u = 0; u < parent.size(); ++u) {
        const node_id c = parent[u];
        pts[u] = coarse[c];
        if (!placed[c]) {
            placed[c] = true;
            continue;
        }
        xoshiro256ss rng(derive_seed(seed, u, kJitterTag + depth));
        pts[u].x += (2 * rng.uniform01() - 1) * kJitter * k;
        pts[u].y += (2 * rng.uniform01() - 1) * kJitter * k;
    }
    return pts;
}

// `iters` Fruchterman–Reingold iterations on one level: Barnes–Hut
// repulsion, weighted CSR attraction, and linear cooling from t0 to a
// floor that still lets late iterations untangle local crossings.
void relax(const level& lv, std::vector<layout_point>& pts, std::size_t iters, double t0,
           const layout_options& opt) {
    const std::size_t n = lv.size();
    const double k = std::sqrt(1.0 / static_cast<double>(n));
    std::vector<layout_point> disp(n);
    bh_quadtree tree;

    // Small enough that a 1024-node thumbnail spreads over a 4-thread
    // pool; 256 tree walks per block still dwarf one job's queueing cost.
    constexpr std::size_t kBlock = 256;
    // Barnes–Hut opening angle; larger = faster/coarser, 0 = exact.
    constexpr double kTheta = 0.85;
    const std::size_t blocks = (n + kBlock - 1) / kBlock;

    for (std::size_t it = 0; it < iters; ++it) {
        tree.build(pts);
        const double t =
            std::max(t0 * (1.0 - static_cast<double>(it) / static_cast<double>(iters)),
                     1e-3);
        const auto do_block = [&](std::size_t b) {
            std::vector<std::int32_t> scratch;
            scratch.reserve(128);
            const std::size_t lo = b * kBlock, hi = std::min(lo + kBlock, n);
            for (std::size_t u = lo; u < hi; ++u) {
                layout_point f = tree.repulsion(pts[u], u, k, kTheta, scratch);
                for (std::size_t e = lv.offsets[u]; e < lv.offsets[u + 1]; ++e) {
                    const node_id v = lv.nbr[e];
                    const double dx = pts[u].x - pts[v].x;
                    const double dy = pts[u].y - pts[v].y;
                    const double d = std::sqrt(dx * dx + dy * dy);
                    // Attraction p·d²/k along the edge: displacement
                    // −p·Δ·d/k (p = 1 leaves the product's bits alone).
                    f.x -= lv.pull[e] * dx * d / k;
                    f.y -= lv.pull[e] * dy * d / k;
                }
                const double len = std::sqrt(f.x * f.x + f.y * f.y);
                if (len > t) {
                    f.x *= t / len;
                    f.y *= t / len;
                }
                disp[u] = f;
            }
        };
        if (opt.pool != nullptr && opt.pool->size() > 1 && blocks > 1) {
            opt.pool->parallel_for(blocks, do_block);
        } else {
            for (std::size_t b = 0; b < blocks; ++b) do_block(b);
        }
        for (std::size_t u = 0; u < n; ++u) {
            pts[u].x += disp[u].x;
            pts[u].y += disp[u].y;
        }
    }
}

}  // namespace

std::vector<layout_point> force_layout(const graph& g, const layout_options& opt) {
    const std::size_t n = g.num_nodes();
    if (n == 0) return {};
    if (n == 1) return {layout_point{0.5, 0.5}};

    std::vector<level> levels;
    levels.push_back(input_level(g));
    std::vector<std::vector<node_id>> parents;  // parents[l]: level l -> l + 1
    while (levels.back().size() > kCoarsestNodes) {
        std::vector<node_id> parent;
        level coarse = coarsen(levels.back(), parent);
        if (static_cast<double>(coarse.size()) >
            kStallRatio * static_cast<double>(levels.back().size())) {
            break;
        }
        levels.push_back(std::move(coarse));
        parents.push_back(std::move(parent));
    }

    // The coarsest level starts from positions that depend on (seed, node
    // index) only — stable under any iteration sharding — and cools from
    // a tenth of the frame. A graph that never coarsens runs this one
    // pass on itself.
    const level& top = levels.back();
    std::vector<layout_point> pts(top.size());
    for (std::size_t u = 0; u < top.size(); ++u) {
        xoshiro256ss rng(derive_seed(opt.seed, u, kLayoutTag));
        pts[u] = {rng.uniform01(), rng.uniform01()};
    }
    relax(top, pts, auto_iterations(top.size()), 0.1, opt);
    for (std::size_t l = levels.size() - 1; l-- > 0;) {
        const double k = std::sqrt(1.0 / static_cast<double>(levels[l].size()));
        pts = interpolate(pts, parents[l], k, opt.seed, l);
        relax(levels[l], pts, refine_iterations(levels[l].size()), kRefineTemperature, opt);
    }

    // Normalize into [0, 1]² for renderers.
    double minx = pts[0].x, maxx = pts[0].x, miny = pts[0].y, maxy = pts[0].y;
    for (const layout_point& p : pts) {
        minx = std::min(minx, p.x);
        maxx = std::max(maxx, p.x);
        miny = std::min(miny, p.y);
        maxy = std::max(maxy, p.y);
    }
    const double span = std::max({maxx - minx, maxy - miny, 1e-12});
    for (layout_point& p : pts) {
        p.x = (p.x - minx) / span;
        p.y = (p.y - miny) / span;
    }
    return pts;
}

// --- layout_stress ----------------------------------------------------------

double layout_stress(const graph& g, std::span<const layout_point> pts,
                     std::uint64_t seed) {
    require(pts.size() == g.num_nodes(), "layout_stress: pts/graph size mismatch");
    constexpr std::size_t kSources = 48;
    const std::size_t n = g.num_nodes();
    std::vector<node_id> sources;
    if (n <= kSources) {
        for (std::size_t u = 0; u < n; ++u) sources.push_back(static_cast<node_id>(u));
    } else {
        // Distinct sources, drawn by rejection from one seeded stream.
        std::vector<bool> taken(n, false);
        xoshiro256ss rng(derive_seed(seed, n, kStressTag));
        while (sources.size() < kSources) {
            const auto u = static_cast<node_id>(rng.below(n));
            if (taken[u]) continue;
            taken[u] = true;
            sources.push_back(u);
        }
    }
    double pairs = 0, sum_r = 0, sum_r2 = 0;
    for (const node_id s : sources) {
        const std::vector<std::uint32_t> dist = bfs_distances(g, s);
        for (std::size_t v = 0; v < n; ++v) {
            if (v == s || dist[v] == std::numeric_limits<std::uint32_t>::max()) continue;
            const double r = std::hypot(pts[s].x - pts[v].x, pts[s].y - pts[v].y) /
                             static_cast<double>(dist[v]);
            pairs += 1;
            sum_r += r;
            sum_r2 += r * r;
        }
    }
    if (pairs == 0 || sum_r2 == 0) return pairs == 0 ? 0.0 : 1.0;
    return 1.0 - sum_r * sum_r / (pairs * sum_r2);
}

// --- SVG --------------------------------------------------------------------

namespace {

// The thumbnail frame and caps that layout.h documents. Drawing 10⁵
// nodes / 10⁶ edges as DOM elements would defeat the point of a fast
// layout, so past the caps a stride sample is drawn.
constexpr double kSvgWidth = 320;
constexpr double kSvgHeight = 240;
constexpr double kSvgMargin = 10;
constexpr std::size_t kSvgMaxEdges = 4000;
constexpr std::size_t kSvgMaxNodes = 20000;

// Every stride-th of `count` items, stride = ⌈count/cap⌉, is at most `cap`
// items.
std::size_t sample_stride(std::size_t count, std::size_t cap) {
    return std::max<std::size_t>(1, (count + cap - 1) / cap);
}

// Appends `name="v"` with v printed as snprintf's "%.1f" prints it;
// to_chars is exact too and ~5x faster, and thumbnails print thousands.
void append_attr(std::string& out, const char* name, double v) {
    // Sign, 309 integer digits of DBL_MAX, the point and one decimal.
    char buf[320];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, 1);
    out += name;
    out += "=\"";
    out.append(buf, r.ptr);
    out += '"';
}

}  // namespace

std::string layout_svg(const graph& g, std::span<const layout_point> pts) {
    require(pts.size() == g.num_nodes(), "layout_svg: pts/graph size mismatch");
    const auto sx = [](double x) { return kSvgMargin + x * (kSvgWidth - 2 * kSvgMargin); };
    const auto sy = [](double y) { return kSvgMargin + y * (kSvgHeight - 2 * kSvgMargin); };

    std::string out;
    out.reserve(1 << 16);
    out += "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"0 0 320 240\" "
           "width=\"320\" height=\"240\" role=\"img\">";

    const auto edges = g.edge_list();
    const std::size_t estride = sample_stride(edges.size(), kSvgMaxEdges);
    // Presentation attributes; the report's stylesheet overrides them via
    // the "ge"/"gn" classes so thumbnails follow light/dark mode.
    out += "<g class=\"ge\" stroke=\"#c3c2b7\" stroke-width=\"0.7\" "
           "stroke-opacity=\"0.55\">";
    for (std::size_t i = 0; i < edges.size(); i += estride) {
        const auto [u, v] = edges[i];
        out += "<line";
        append_attr(out, " x1", sx(pts[u].x));
        append_attr(out, " y1", sy(pts[u].y));
        append_attr(out, " x2", sx(pts[v].x));
        append_attr(out, " y2", sy(pts[v].y));
        out += "/>";
    }
    out += "</g>";

    const std::size_t nstride = sample_stride(pts.size(), kSvgMaxNodes);
    out += "<g class=\"gn\" fill=\"#2a78d6\">";
    for (std::size_t u = 0; u < pts.size(); u += nstride) {
        out += "<circle";
        append_attr(out, " cx", sx(pts[u].x));
        append_attr(out, " cy", sy(pts[u].y));
        out += " r=\"1.6\"/>";
    }
    out += "</g></svg>";
    return out;
}

}  // namespace anole
