#include "telemetry/json.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace act::telemetry
{

namespace
{

constexpr int kMaxDepth = 64;

class Parser
{
  public:
    explicit Parser(const std::string &input) : input_(input) {}

    std::unique_ptr<JsonValue> parse(std::string *error)
    {
        auto root = std::make_unique<JsonValue>();
        if (!parseValue(*root, 0)) {
            if (error != nullptr)
                *error = error_;
            return nullptr;
        }
        skipSpace();
        if (pos_ != input_.size()) {
            if (error != nullptr)
                *error = at("trailing characters after JSON value");
            return nullptr;
        }
        return root;
    }

  private:
    std::string at(const std::string &what)
    {
        std::ostringstream out;
        out << what << " at offset " << pos_;
        return out.str();
    }

    bool fail(const std::string &what)
    {
        if (error_.empty())
            error_ = at(what);
        return false;
    }

    void skipSpace()
    {
        while (pos_ < input_.size() &&
               (input_[pos_] == ' ' || input_[pos_] == '\t' ||
                input_[pos_] == '\n' || input_[pos_] == '\r'))
            ++pos_;
    }

    bool consume(char c)
    {
        skipSpace();
        if (pos_ < input_.size() && input_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (input_.compare(pos_, n, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos_ += n;
        return true;
    }

    bool parseValue(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipSpace();
        if (pos_ >= input_.size())
            return fail("unexpected end of input");
        switch (input_[pos_]) {
          case '{': return parseObject(out, depth);
          case '[': return parseArray(out, depth);
          case '"':
            out.type = JsonValue::Type::kString;
            return parseString(out.text);
          case 't':
            out.type = JsonValue::Type::kBool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.type = JsonValue::Type::kBool;
            out.boolean = false;
            return literal("false");
          case 'n':
            out.type = JsonValue::Type::kNull;
            return literal("null");
          default: return parseNumber(out);
        }
    }

    bool parseObject(JsonValue &out, int depth)
    {
        out.type = JsonValue::Type::kObject;
        ++pos_; // '{'
        if (consume('}'))
            return true;
        while (true) {
            skipSpace();
            if (pos_ >= input_.size() || input_[pos_] != '"')
                return fail("expected object key string");
            std::string key;
            if (!parseString(key))
                return false;
            if (!consume(':'))
                return fail("expected ':' after object key");
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            out.object.emplace_back(std::move(key), std::move(value));
            if (consume(','))
                continue;
            if (consume('}'))
                return true;
            return fail("expected ',' or '}' in object");
        }
    }

    bool parseArray(JsonValue &out, int depth)
    {
        out.type = JsonValue::Type::kArray;
        ++pos_; // '['
        if (consume(']'))
            return true;
        while (true) {
            JsonValue value;
            if (!parseValue(value, depth + 1))
                return false;
            out.array.push_back(std::move(value));
            if (consume(','))
                continue;
            if (consume(']'))
                return true;
            return fail("expected ',' or ']' in array");
        }
    }

    bool parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (pos_ < input_.size()) {
            const char c = input_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= input_.size())
                break;
            const char esc = input_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > input_.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = input_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad hex digit in \\u escape");
                }
                // UTF-8 encode (surrogate pairs are passed through as
                // two 3-byte sequences — good enough for a validator).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default: return fail("bad escape character in string");
            }
        }
        return fail("unterminated string");
    }

    bool parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < input_.size() && input_[pos_] == '-')
            ++pos_;
        const auto digits = [this] {
            std::size_t n = 0;
            while (pos_ < input_.size() &&
                   std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
                ++pos_;
                ++n;
            }
            return n;
        };
        if (digits() == 0)
            return fail("expected digits in number");
        if (pos_ < input_.size() && input_[pos_] == '.') {
            ++pos_;
            if (digits() == 0)
                return fail("expected digits after '.'");
        }
        if (pos_ < input_.size() &&
            (input_[pos_] == 'e' || input_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < input_.size() &&
                (input_[pos_] == '+' || input_[pos_] == '-'))
                ++pos_;
            if (digits() == 0)
                return fail("expected digits in exponent");
        }
        out.type = JsonValue::Type::kNumber;
        out.number =
            std::strtod(input_.substr(start, pos_ - start).c_str(),
                        nullptr);
        return true;
    }

    const std::string &input_;
    std::size_t pos_ = 0;
    std::string error_;
};

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (type != Type::kObject)
        return nullptr;
    for (const auto &[name, value] : object) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

std::uint64_t
JsonValue::asU64() const
{
    if (type != Type::kNumber || number < 0)
        return 0;
    return static_cast<std::uint64_t>(number);
}

std::unique_ptr<JsonValue>
parseJson(const std::string &input, std::string *error)
{
    Parser parser(input);
    return parser.parse(error);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
formatDouble(double v)
{
    char buf[64];
    // The range test comes first: converting NaN or a value outside
    // long long's range is undefined behaviour.
    if (v > -1e15 && v < 1e15 &&
        v == static_cast<double>(static_cast<long long>(v))) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    // Otherwise try increasing precision until the representation
    // round-trips; 0.18 stays "0.18" rather than
    // "0.18000000000000001". Deterministic for identical inputs.
    for (int precision = 1; precision <= 17; ++precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

} // namespace act::telemetry
