// Tests for util/atomic_file.h: a writer SIGKILLed at any instant leaves
// one whole body, racing exclusive creates have exactly one complete
// winner, ledger appends heal torn tails and stamp headers only into
// fresh files, and failed writes leave no temp behind.
#include "util/atomic_file.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/error.h"

namespace anole {
namespace {

namespace fs = std::filesystem;

// An empty directory of this test's own.
fs::path fresh_dir(const std::string& tag) {
    const fs::path dir = fs::path(::testing::TempDir()) / ("anole_atomic_file_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::vector<std::string> names_in(const fs::path& dir) {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir)) {
        names.push_back(entry.path().filename().string());
    }
    return names;
}

TEST(AtomicFile, KilledWriterLeavesOneWholeBody) {
    const fs::path dir = fresh_dir("kill");
    const std::string path = (dir / "target").string();
    const std::string body_a(std::size_t{1} << 20, 'a');
    const std::string body_b(std::size_t{1} << 20, 'b');
    replace_file(path, body_a);

    constexpr int kRuns = 50;
    for (int run = 0; run < kRuns; ++run) {
        const pid_t child = ::fork();
        ASSERT_GE(child, 0);
        if (child == 0) {
            for (std::size_t i = 0;; ++i) replace_file(path, i % 2 == 0 ? body_b : body_a);
        }
        // 0.1 ms to 5 ms: the kill lands in the first write, in a rename,
        // or anywhere later in the loop.
        std::this_thread::sleep_for(std::chrono::microseconds(100 + 100 * run));
        ASSERT_EQ(::kill(child, SIGKILL), 0);
        int status = 0;
        ASSERT_EQ(::waitpid(child, &status, 0), child);
        // Any other end means the writer failed on its own before the kill.
        ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) << "run " << run;

        const std::string got = slurp(path);
        ASSERT_TRUE(got == body_a || got == body_b)
            << "run " << run << ": torn target of " << got.size() << " bytes";
        // The child shares this process's temp names; the next write must
        // step past whatever it left.
        replace_file(path, body_a);
        ASSERT_EQ(slurp(path), body_a) << "run " << run;
    }
    for (const std::string& name : names_in(dir)) {
        EXPECT_TRUE(name == "target" || name.rfind("target.tmp-", 0) == 0) << name;
    }
}

TEST(AtomicFile, CreateFileRaceHasOneWholeWinner) {
    const fs::path dir = fresh_dir("race");
    const std::string path = (dir / "lease").string();
    constexpr int kThreads = 8;
    std::vector<std::string> bodies;
    for (int t = 0; t < kThreads; ++t) {
        bodies.emplace_back(std::size_t{64} << 10, static_cast<char>('a' + t));
    }

    for (int round = 0; round < 20; ++round) {
        fs::remove(path);
        std::atomic<bool> go{false};
        std::vector<char> won(kThreads, 0);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                while (!go.load()) std::this_thread::yield();
                won[static_cast<std::size_t>(t)] =
                    create_file(path, bodies[static_cast<std::size_t>(t)]) ? 1 : 0;
            });
        }
        go.store(true);
        for (std::thread& th : threads) th.join();

        int winners = 0;
        int winner = -1;
        for (int t = 0; t < kThreads; ++t) {
            if (won[static_cast<std::size_t>(t)] != 0) {
                ++winners;
                winner = t;
            }
        }
        ASSERT_EQ(winners, 1) << "round " << round;
        EXPECT_EQ(slurp(path), bodies[static_cast<std::size_t>(winner)]);
        EXPECT_EQ(names_in(dir), std::vector<std::string>{"lease"}) << "round " << round;
    }
}

TEST(AtomicFile, AppendJsonlHealsTornTailAndStampsOnlyFreshFiles) {
    const fs::path dir = fresh_dir("append");
    const auto append = [](const fs::path& path) {
        std::ofstream out = append_jsonl(path.string(), "H");
        out << "{\"r\":1}\n";
    };
    const auto seed = [](const fs::path& path, const std::string& bytes) {
        std::ofstream(path, std::ios::binary) << bytes;
    };

    // Missing file: header first.
    append(dir / "missing");
    EXPECT_EQ(slurp(dir / "missing"), "H\n{\"r\":1}\n");

    // Empty file (a writer killed before its first byte): header first.
    seed(dir / "empty", "");
    append(dir / "empty");
    EXPECT_EQ(slurp(dir / "empty"), "H\n{\"r\":1}\n");

    // Torn last line: ended before the next record, no second header.
    seed(dir / "torn", "H\n{\"r\":0}\n{\"r\"");
    append(dir / "torn");
    EXPECT_EQ(slurp(dir / "torn"), "H\n{\"r\":0}\n{\"r\"\n{\"r\":1}\n");

    // Legacy headerless ledger: stays headerless.
    seed(dir / "legacy", "{\"r\":0}\n");
    append(dir / "legacy");
    EXPECT_EQ(slurp(dir / "legacy"), "{\"r\":0}\n{\"r\":1}\n");
}

TEST(AtomicFile, FailedReplaceThrowsAndLeavesNoTemp) {
    const fs::path dir = fresh_dir("fail");

    // The temp cannot even be created.
    EXPECT_THROW(replace_file((dir / "absent" / "target").string(), "x"), error);
    EXPECT_THROW((void)create_file((dir / "absent" / "target").string(), "x"), error);
    EXPECT_TRUE(names_in(dir).empty());

    // The temp is written, but the rename over a non-empty directory fails.
    fs::create_directories(dir / "occupied" / "child");
    EXPECT_THROW(replace_file((dir / "occupied").string(), "x"), error);
    EXPECT_EQ(names_in(dir), std::vector<std::string>{"occupied"});
}

}  // namespace
}  // namespace anole
