// anole — common error type.
//
// Per C++ Core Guidelines E.14: use purpose-designed exception types.
// `anole::error` signals precondition/configuration violations (bugs in the
// caller or impossible experiment setups). Protocol-level "failure" events
// (e.g. zero candidates were selected) are *data*, never exceptions: they
// are whp-bounded outcomes that the harness measures.
#pragma once

#include <stdexcept>
#include <string>

namespace anole {

class error : public std::runtime_error {
public:
    explicit error(const std::string& what) : std::runtime_error(what) {}
};

// Throws anole::error with `msg` when `cond` is false.
// Used for checking preconditions on public API boundaries; internal
// invariants use assert().
inline void require(bool cond, const std::string& msg) {
    if (!cond) throw error(msg);
}

// Literal messages take this overload, so a passing check allocates no
// std::string (hot per-field checks such as json_value::as_string).
inline void require(bool cond, const char* msg) {
    if (!cond) throw error(msg);
}

}  // namespace anole
