#include "sim/profile_cache.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "util/atomic_file.h"
#include "util/json.h"

namespace anole {

namespace {

// Strict parse of one cached profile payload; throws on any mismatch so
// the caller can skip the whole line.
graph_profile profile_from_json(const json_value& v) {
    graph_profile p;
    p.n = static_cast<std::size_t>(v.at("n").as_uint());
    p.m = static_cast<std::size_t>(v.at("m").as_uint());
    p.diameter = static_cast<std::uint32_t>(v.at("diameter").as_uint());
    p.conductance = v.at("conductance").as_number();
    p.isoperimetric = v.at("isoperimetric").as_number();
    p.mixing_time = v.at("mixing_time").as_uint();
    p.lambda2 = v.at("lambda2").as_number();
    p.diameter_method = profile_method_from_string(v.at("diameter_method").as_string());
    p.conductance_method =
        profile_method_from_string(v.at("conductance_method").as_string());
    p.isoperimetric_method =
        profile_method_from_string(v.at("isoperimetric_method").as_string());
    p.mixing_method = profile_method_from_string(v.at("mixing_method").as_string());
    p.lambda2_converged = v.at("lambda2_converged").as_bool();
    return p;
}

// Every valid entry of a cache file, later lines winning. Missing file =
// empty; torn/garbage/wrong-version lines skipped (recomputed instead of
// trusted).
std::map<std::string, graph_profile> load_entries(const std::string& path) {
    std::map<std::string, graph_profile> entries;
    std::ifstream in(path);
    if (!in) return entries;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        try {
            const json_value v = json_parse(line);
            if (v.at("version").as_uint() != profile_cache_version) continue;
            entries.insert_or_assign(v.at("key").as_string(),
                                     profile_from_json(v.at("profile")));
        } catch (const error&) {
            // Torn tail line, hand-edited garbage, or an entry written by
            // an incompatible build: recompute instead of trusting it.
        }
    }
    return entries;
}

std::string entry_line(const std::string& key, const graph_profile& p) {
    return "{\"key\":\"" + json_escape(key) +
           "\",\"version\":" + std::to_string(profile_cache_version) +
           ",\"profile\":" + p.to_json() + "}";
}

// Create-exclusive sibling lock file; held for the duration of one
// rewrite. Locks older than kStaleAfter are assumed to belong to a
// crashed writer and are broken (a live rewrite takes milliseconds).
class cache_file_lock {
public:
    explicit cache_file_lock(const std::string& cache_path)
        : lock_path_(cache_path + ".lock") {
        using clock = std::chrono::steady_clock;
        constexpr auto kStaleAfter = std::chrono::seconds(30);
        constexpr auto kTimeout = std::chrono::seconds(30);
        const auto deadline = clock::now() + kTimeout;
        for (;;) {
            if (std::FILE* f = std::fopen(lock_path_.c_str(), "wx")) {
                std::fclose(f);
                return;
            }
            if (errno != EEXIST) {
                throw error("profile_cache: cannot open " + lock_path_);
            }
            std::error_code ec;
            const auto mtime = std::filesystem::last_write_time(lock_path_, ec);
            if (!ec) {
                const auto age = std::filesystem::file_time_type::clock::now() - mtime;
                if (age > kStaleAfter) {
                    std::remove(lock_path_.c_str());
                    continue;  // retry the exclusive create immediately
                }
            }
            if (clock::now() >= deadline) {
                throw error("profile_cache: timed out waiting for lock " +
                            lock_path_);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    }
    ~cache_file_lock() { std::remove(lock_path_.c_str()); }
    cache_file_lock(const cache_file_lock&) = delete;
    cache_file_lock& operator=(const cache_file_lock&) = delete;

private:
    std::string lock_path_;
};

}  // namespace

profile_cache::profile_cache(std::string path) : path_(std::move(path)) {
    entries_ = load_entries(path_);
}

std::optional<graph_profile> profile_cache::lookup(const std::string& key) const {
    std::unique_lock<std::mutex> lk(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
}

void profile_cache::store(const std::string& key, const graph_profile& p) {
    std::unique_lock<std::mutex> lk(mu_);
    entries_.insert_or_assign(key, p);

    const cache_file_lock lock(path_);
    // Merge entries other processes landed while we weren't looking; our
    // own entries win ties (profiles are deterministic, so ties are
    // byte-identical anyway — this also heals any corrupt tail the old
    // append path may have left behind).
    std::map<std::string, graph_profile> merged = load_entries(path_);
    for (const auto& [k, prof] : entries_) merged.insert_or_assign(k, prof);

    std::string bytes;
    for (const auto& [k, prof] : merged) bytes.append(entry_line(k, prof)) += '\n';
    replace_file(path_, bytes);  // readers see the old whole file or the new
    entries_ = std::move(merged);
}

std::size_t profile_cache::size() const {
    std::unique_lock<std::mutex> lk(mu_);
    return entries_.size();
}

}  // namespace anole
