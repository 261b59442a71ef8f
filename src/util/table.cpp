#include "util/table.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <iomanip>
#include <sstream>

#include "util/json.h"

namespace anole {

namespace {

bool looks_numeric(const std::string& s) {
    if (s.empty()) return false;
    bool digit = false;
    for (char ch : s) {
        if (std::isdigit(static_cast<unsigned char>(ch)) != 0) {
            digit = true;
        } else if (ch != '.' && ch != '-' && ch != '+' && ch != 'e' && ch != 'E' &&
                   ch != ',' && ch != 'x' && ch != '%') {
            return false;
        }
    }
    return digit;
}

std::string pad(const std::string& s, std::size_t width, bool right_align) {
    if (s.size() >= width) return s;
    const std::string fill(width - s.size(), ' ');
    return right_align ? fill + s : s + fill;
}

}  // namespace

void text_table::print(std::ostream& os) const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }
    auto rule = [&] {
        os << '+';
        for (std::size_t w : widths) os << std::string(w + 2, '-') << '+';
        os << '\n';
    };
    rule();
    os << '|';
    for (std::size_t c = 0; c < headers_.size(); ++c) {
        os << ' ' << pad(headers_[c], widths[c], false) << " |";
    }
    os << '\n';
    rule();
    for (const auto& row : rows_) {
        os << '|';
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << ' ' << pad(row[c], widths[c], looks_numeric(row[c])) << " |";
        }
        os << '\n';
    }
    rule();
}

void text_table::print_csv(std::ostream& os) const {
    auto emit = [&os](const std::vector<std::string>& cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            const std::string& s = cells[c];
            const bool quote =
                s.find_first_of(",\"\n") != std::string::npos;
            if (c) os << ',';
            if (quote) {
                os << '"';
                for (char ch : s) {
                    if (ch == '"') os << '"';
                    os << ch;
                }
                os << '"';
            } else {
                os << s;
            }
        }
        os << '\n';
    };
    emit(headers_);
    for (const auto& row : rows_) emit(row);
}

void text_table::print_json(std::ostream& os, const std::string& title) const {
    auto quote = [&os](const std::string& s) { os << '"' << json_escape(s) << '"'; };
    os << "{\"title\": ";
    quote(title);
    os << ", \"rows\": [";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
        os << (r ? ", " : "") << '{';
        for (std::size_t c = 0; c < headers_.size(); ++c) {
            if (c) os << ", ";
            quote(headers_[c]);
            os << ": ";
            quote(rows_[r][c]);
        }
        os << '}';
    }
    os << "]}\n";
}

std::string fmt_fixed(double v, int decimals) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(decimals) << v;
    return os.str();
}

std::string fmt_count(std::uint64_t v) {
    std::string raw = std::to_string(v);
    std::string out;
    out.reserve(raw.size() + raw.size() / 3);
    std::size_t lead = raw.size() % 3 == 0 ? 3 : raw.size() % 3;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        if (i != 0 && (i + 3 - lead) % 3 == 0) out.push_back(',');
        out.push_back(raw[i]);
    }
    return out;
}

std::string fmt_sci(double v, int sig) {
    std::ostringstream os;
    os << std::scientific << std::setprecision(sig - 1) << v;
    return os.str();
}

std::string fmt_ratio(double v) { return fmt_fixed(v, 2) + "x"; }

}  // namespace anole
