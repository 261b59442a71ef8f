// Frozen replica of the Gilbert baseline node as it stood before its walk
// batches went heap-free (baseline/gilbert_le.h): two std::map state
// tables, std::vector walk and kill batches, and a copy into every send.
// It is kept verbatim so that the current node can be checked against it
// bit for bit (tests/baseline/gilbert_twin_test.cpp) and timed against it
// (bench_engine_micro's "gilbert walk batches" table). Do not edit it to
// follow later changes of the real node.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "baseline/gilbert_le.h"
#include "sim/engine.h"
#include "util/bit_codec.h"

namespace anole::replica {

struct gilbert_msg {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> walks;
    std::vector<std::uint64_t> kills;

    [[nodiscard]] std::size_t bit_size() const noexcept {
        std::size_t bits = 2;
        for (const auto& [id, cnt] : walks) bits += gamma0_bits(id) + gamma0_bits(cnt);
        for (std::uint64_t id : kills) bits += gamma0_bits(id);
        return bits;
    }
};

class gilbert_node {
public:
    using message_type = gilbert_msg;

    gilbert_node(std::size_t degree, const gilbert_params& params)
        : degree_(degree), p_(&params) {}

    void on_round(node_ctx<gilbert_msg>& ctx, inbox_view<gilbert_msg> inbox) {
        if (!inited_) {
            inited_ = true;
            candidate_ = ctx.rng().bernoulli(p_->cand_prob());
            if (candidate_) {
                id_ = ctx.rng().range(1, p_->id_space());
                mark_max_ = id_;
                tokens_[id_] = p_->tokens();
                crumbs_[id_] = {0, true};
            }
            out_.resize(degree_);
            out_used_.assign(degree_, 0);
        }

        const std::uint64_t r = ctx.round();
        if (r >= p_->total_rounds()) {
            leader_ = candidate_ && !killed_ && mark_max_ == id_;
            ctx.halt();
            return;
        }
        if (inbox.empty() && tokens_.empty()) return;

        for (auto& m : out_) {
            m.walks.clear();
            m.kills.clear();
        }
        std::fill(out_used_.begin(), out_used_.end(), 0);

        for (const auto& [port, msg] : inbox) {
            for (const auto& [wid, cnt] : msg.walks) {
                crumbs_.try_emplace(wid, crumb{port, false});
                if (wid > mark_max_) {
                    mark_max_ = wid;
                    for (const auto& [cid, cr] : crumbs_) {
                        (void)cr;
                        if (cid < wid) queue_kill(cid);
                    }
                } else if (wid < mark_max_) {
                    queue_kill(wid);
                }
                tokens_[wid] += cnt;
            }
            for (std::uint64_t kid : msg.kills) {
                if (candidate_ && kid == id_) {
                    killed_ = true;
                } else {
                    queue_kill(kid);
                }
            }
        }
        if (candidate_ && mark_max_ > id_) killed_ = true;

        if (r < p_->walk_len()) {
            for (auto& [wid, cnt] : tokens_) {
                std::uint64_t staying = 0;
                for (std::uint64_t t = 0; t < cnt; ++t) {
                    if (ctx.rng().bit()) {
                        const auto p = static_cast<port_id>(ctx.rng().below(degree_));
                        bool found = false;
                        for (auto& w : out_[p].walks) {
                            if (w.first == wid) {
                                ++w.second;
                                found = true;
                                break;
                            }
                        }
                        if (!found) out_[p].walks.emplace_back(wid, 1);
                        out_used_[p] = 1;
                    } else {
                        ++staying;
                    }
                }
                cnt = staying;
            }
            for (auto it = tokens_.begin(); it != tokens_.end();) {
                it = it->second == 0 ? tokens_.erase(it) : std::next(it);
            }
        } else {
            tokens_.clear();
        }

        for (port_id p = 0; p < degree_; ++p) {
            if (out_used_[p]) ctx.send(p, out_[p]);
        }
    }

    [[nodiscard]] bool is_candidate() const noexcept { return candidate_; }
    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
    [[nodiscard]] bool is_leader() const noexcept { return leader_; }
    [[nodiscard]] std::size_t marks() const noexcept { return crumbs_.size(); }
    [[nodiscard]] node_status status() const noexcept {
        node_status st;
        st.decided = leader_ || killed_;
        st.leader = leader_;
        st.own_id = id_;
        return st;
    }

private:
    struct crumb {
        port_id from;
        bool kill_sent;
    };

    void queue_kill(std::uint64_t id) {
        auto it = crumbs_.find(id);
        if (it == crumbs_.end() || it->second.kill_sent) return;
        it->second.kill_sent = true;
        const port_id p = it->second.from;
        out_[p].kills.push_back(id);
        out_used_[p] = 1;
    }

    std::size_t degree_;
    const gilbert_params* p_;

    bool inited_ = false;
    bool candidate_ = false;
    bool killed_ = false;
    bool leader_ = false;
    std::uint64_t id_ = 0;
    std::uint64_t mark_max_ = 0;

    std::map<std::uint64_t, crumb> crumbs_;
    std::map<std::uint64_t, std::uint64_t> tokens_;
    std::vector<gilbert_msg> out_;
    std::vector<char> out_used_;
};

}  // namespace anole::replica
