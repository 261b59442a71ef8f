// anole — crash-safe file writes. A writer killed at any instant leaves
// readers the old bytes or the new, never a mix. Whole-file writes stage
// their bytes in `<path>.tmp-<per-process random token>-<counter>`,
// claimed with O_EXCL so no two threads, processes or hosts share one; a
// killed writer leaves at most that one temp, which no reader opens.
// Nothing is fsync'd: this covers process death, not power loss.
#pragma once

#include <fstream>
#include <string>
#include <string_view>

namespace anole {

// Writes `bytes` to a temp, then rename(2)s it over `path`. Throws
// anole::error, leaving no temp behind, when either step fails.
void replace_file(const std::string& path, std::string_view bytes);

// Writes `bytes` to a temp, then link(2)s it to `path`: an exclusive
// create whose content is complete from the first instant. False when
// `path` already exists; throws on any other failure.
[[nodiscard]] bool create_file(const std::string& path, std::string_view bytes);

// Opens `path` for appending JSONL records. A torn last line (a writer
// killed mid-record) is ended with a newline first; a missing or empty
// file gets `header` as its first line, a non-empty one keeps whatever
// it starts with. Throws when the file cannot be opened.
[[nodiscard]] std::ofstream append_jsonl(const std::string& path,
                                         const std::string& header);

}  // namespace anole
