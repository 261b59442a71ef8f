#include "util/atomic_file.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <random>

#include "util/error.h"

namespace anole {

namespace {

// Claims a fresh temp next to `path`, writes `bytes` into it and returns
// its name; throws, leaving no temp, on failure. A forked child inherits
// token and counter: O_EXCL turns a clash with its parent into a retry.
std::string write_temp(const std::string& path, std::string_view bytes) {
    static const std::string token = [] {
        std::random_device rd;
        return std::to_string((std::uint64_t{rd()} << 32) | rd());
    }();
    static std::atomic<std::uint64_t> counter{0};
    for (;;) {
        const std::string tmp = path + ".tmp-" + token + "-" + std::to_string(counter++);
        std::FILE* f = std::fopen(tmp.c_str(), "wx");
        if (f == nullptr && errno == EEXIST) continue;
        require(f != nullptr, "atomic_file: cannot create " + tmp);
        std::setvbuf(f, nullptr, _IONBF, 0);  // one write(2), not 4 KiB chunks
        const std::size_t wrote = std::fwrite(bytes.data(), 1, bytes.size(), f);
        if (std::fclose(f) == 0 && wrote == bytes.size()) return tmp;
        std::remove(tmp.c_str());
        throw error("atomic_file: write failed for " + tmp);
    }
}

}  // namespace

void replace_file(const std::string& path, std::string_view bytes) {
    const std::string tmp = write_temp(path, bytes);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw error("atomic_file: cannot replace " + path);
    }
}

bool create_file(const std::string& path, std::string_view bytes) {
    const std::string tmp = write_temp(path, bytes);
    const bool linked = ::link(tmp.c_str(), path.c_str()) == 0;
    const int err = errno;
    std::remove(tmp.c_str());
    require(linked || err == EEXIST, "atomic_file: cannot create " + path);
    return linked;
}

std::ofstream append_jsonl(const std::string& path, const std::string& header) {
    std::ifstream probe(path, std::ios::binary | std::ios::ate);
    const bool empty = !probe || probe.tellg() <= 0;
    char last = '\n';
    if (!empty) probe.seekg(-1, std::ios::end).get(last);
    std::ofstream out(path, std::ios::app);
    require(out.good(), "atomic_file: cannot open " + path);
    if (last != '\n') out << "\n";  // readers skip the blank line this may add
    if (empty) out << header << "\n";
    return out;
}

}  // namespace anole
