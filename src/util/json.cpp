#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace anole {

bool json_value::as_bool() const {
    require(is_bool(), "json: not a boolean");
    return std::get<bool>(v_);
}

double json_value::as_number() const {
    require(is_number(), "json: not a number");
    return std::get<double>(v_);
}

std::uint64_t json_value::as_uint() const {
    const double d = as_number();
    require(d >= 0 && d == std::floor(d), "json: not a non-negative integer");
    return static_cast<std::uint64_t>(d);
}

const std::string& json_value::as_string() const {
    require(is_string(), "json: not a string");
    return std::get<std::string>(v_);
}

const json_value::array& json_value::as_array() const {
    require(is_array(), "json: not an array");
    return std::get<array>(v_);
}

const json_value::object& json_value::as_object() const {
    require(is_object(), "json: not an object");
    return std::get<object>(v_);
}

bool json_value::contains(const std::string& key) const {
    return is_object() && as_object().count(key) > 0;
}

const json_value& json_value::at(const std::string& key) const {
    const auto& o = as_object();
    auto it = o.find(key);
    if (it == o.end()) throw error("json: missing key '" + key + "'");
    return it->second;
}

namespace {

class parser {
public:
    explicit parser(std::string_view text) : text_(text) {}

    json_value parse() {
        json_value v = value();
        skip_ws();
        check(pos_ == text_.size(), "trailing content after JSON value");
        return v;
    }

private:
    // Messages are built only on the throw path: the checks below run on
    // every byte of every ledger line a campaign reads back.
    [[nodiscard]] std::string err(std::string_view what) const {
        std::string msg = "json parse error at byte " + std::to_string(pos_) + ": ";
        msg += what;
        return msg;
    }

    void check(bool ok, const char* what) const {
        if (!ok) throw error(err(what));
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
                text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    [[nodiscard]] char peek() {
        check(pos_ < text_.size(), "unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) throw error(err(std::string("expected '") + c + "'"));
        ++pos_;
    }

    bool consume_literal(std::string_view lit) {
        if (text_.substr(pos_, lit.size()) != lit) return false;
        pos_ += lit.size();
        return true;
    }

    json_value value() {
        check(depth_ < 256, "nesting too deep");
        skip_ws();
        const char c = peek();
        if (c == '{') return object();
        if (c == '[') return array();
        if (c == '"') return json_value(string());
        if (c == 't') {
            check(consume_literal("true"), "bad literal");
            return json_value(true);
        }
        if (c == 'f') {
            check(consume_literal("false"), "bad literal");
            return json_value(false);
        }
        if (c == 'n') {
            check(consume_literal("null"), "bad literal");
            return json_value(nullptr);
        }
        return number();
    }

    json_value object() {
        ++depth_;
        expect('{');
        json_value::object o;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            --depth_;
            return json_value(std::move(o));
        }
        while (true) {
            skip_ws();
            std::string key = string();
            skip_ws();
            expect(':');
            o.emplace(std::move(key), value());
            skip_ws();
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            break;
        }
        --depth_;
        return json_value(std::move(o));
    }

    json_value array() {
        ++depth_;
        expect('[');
        json_value::array a;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            --depth_;
            return json_value(std::move(a));
        }
        while (true) {
            a.push_back(value());
            skip_ws();
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            break;
        }
        --depth_;
        return json_value(std::move(a));
    }

    std::string string() {
        expect('"');
        std::string out;
        while (true) {
            check(pos_ < text_.size(), "unterminated string");
            const char c = text_[pos_++];
            if (c == '"') break;
            if (c != '\\') {
                check(static_cast<unsigned char>(c) >= 0x20,
                      "raw control character in string");
                out.push_back(c);
                continue;
            }
            check(pos_ < text_.size(), "unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': append_codepoint(out); break;
                default: throw error(err("bad escape character"));
            }
        }
        return out;
    }

    [[nodiscard]] unsigned hex4() {
        check(pos_ + 4 <= text_.size(), "truncated \\u escape");
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_++];
            v <<= 4;
            if (c >= '0' && c <= '9') {
                v |= static_cast<unsigned>(c - '0');
            } else if (c >= 'a' && c <= 'f') {
                v |= static_cast<unsigned>(c - 'a' + 10);
            } else if (c >= 'A' && c <= 'F') {
                v |= static_cast<unsigned>(c - 'A' + 10);
            } else {
                throw error(err("bad hex digit in \\u escape"));
            }
        }
        return v;
    }

    void append_codepoint(std::string& out) {
        unsigned cp = hex4();
        if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: need a pair
            check(consume_literal("\\u"), "unpaired surrogate");
            const unsigned lo = hex4();
            check(lo >= 0xDC00 && lo <= 0xDFFF, "bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
        }
        // UTF-8 encode.
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    json_value number() {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
                text_[pos_] == '+' || text_[pos_] == '-')) {
            ++pos_;
        }
        double d = 0;
        const auto [ptr, ec] =
            std::from_chars(text_.data() + start, text_.data() + pos_, d);
        check(ec == std::errc{} && ptr == text_.data() + pos_ && pos_ > start,
              "bad number");
        return json_value(d);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
};

}  // namespace

json_value json_parse(std::string_view text) { return parser(text).parse(); }

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out.push_back(c);
                }
        }
    }
    return out;
}

}  // namespace anole
