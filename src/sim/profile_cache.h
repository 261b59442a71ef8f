// anole — persistent on-disk profile cache.
//
// Profiling a topology (graph/spectral.h profile()) is the expensive
// prologue of every campaign; the measured values depend only on
// (family, n, generator seed, profiler version), so they are perfectly
// cacheable across processes. This is a JSONL file: one object per line,
//
//   {"key":"dumbbell/4096/s7/v2","version":2,"profile":{...}}
//
// where the profile payload is graph_profile::to_json() (doubles printed
// %.17g, parsed back via std::from_chars — cache hits are bitwise
// identical to cold computes, test-enforced). Corrupt lines, unknown
// fields' types and entries from a different profiler version are
// silently skipped at load: the entry is simply recomputed and the file
// re-written, so a stale cache can never poison results. Later lines win
// over earlier ones on load (the rule campaign resume uses too), which
// keeps append-only files from older builds readable.
//
// scenario_runner layers this *under* its in-memory map (see
// set_profile_cache): lookup order is memory → disk → compute-and-store.
// docs/PROFILES.md covers the key scheme and invalidation story.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "graph/spectral.h"

namespace anole {

// Participates in every cache key; bump whenever profile() semantics
// change (new method policy, changed estimator) to invalidate old files.
inline constexpr int profile_cache_version = 2;

class profile_cache {
public:
    // Loads every valid entry from `path` (missing file = empty cache).
    explicit profile_cache(std::string path);

    [[nodiscard]] std::optional<graph_profile> lookup(const std::string& key) const;

    // Upserts in memory and on disk. Thread-safe AND cross-process safe
    // (fleet workers share one cache file): the writer takes a sibling
    // ".lock" file (create-exclusive; stale locks from crashed writers
    // are broken after ~30 s), re-reads the file under the lock to merge
    // entries other processes added, rewrites everything to a ".tmp"
    // sibling and atomically renames it over the cache — readers never
    // observe a torn line. Write failures throw anole::error (a cache
    // that silently drops writes would defeat the second-run-is-free
    // contract).
    void store(const std::string& key, const graph_profile& p);

    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] const std::string& path() const noexcept { return path_; }

private:
    std::string path_;
    mutable std::mutex mu_;
    std::map<std::string, graph_profile> entries_;
};

}  // namespace anole
