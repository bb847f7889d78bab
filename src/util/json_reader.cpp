#include "util/json_reader.hpp"

#include "util/logging.hpp"
#include "util/parse_number.hpp"

namespace mrp::json {

namespace {

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    bool
    parse(Value* out)
    {
        if (!parseValue(out))
            return false;
        skipWs();
        return pos_ == text_.size();
    }

    std::size_t pos() const { return pos_; }
    bool tooDeep() const { return tooDeep_; }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool
    parseValue(Value* out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
        case '{':
        case '[': {
            // Containers recurse; bound the depth so hostile input
            // fails instead of exhausting the stack.
            if (depth_ == kMaxDepth) {
                tooDeep_ = true;
                return false;
            }
            ++depth_;
            const bool ok = text_[pos_] == '{' ? parseObject(out)
                                               : parseArray(out);
            --depth_;
            return ok;
        }
        case '"':
            out->type = Value::Type::String;
            return parseString(&out->string);
        case 't':
            out->type = Value::Type::Bool;
            out->boolean = true;
            return literal("true");
        case 'f':
            out->type = Value::Type::Bool;
            out->boolean = false;
            return literal("false");
        case 'n':
            out->type = Value::Type::Null;
            return literal("null");
        default: return parseNumber(out);
        }
    }

    bool
    parseObject(Value* out)
    {
        out->type = Value::Type::Object;
        if (!consume('{'))
            return false;
        skipWs();
        if (consume('}'))
            return true;
        for (;;) {
            skipWs();
            std::string key;
            if (!parseString(&key))
                return false;
            skipWs();
            if (!consume(':'))
                return false;
            Value v;
            if (!parseValue(&v))
                return false;
            out->members.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (consume('}'))
                return true;
            if (!consume(','))
                return false;
        }
    }

    bool
    parseArray(Value* out)
    {
        out->type = Value::Type::Array;
        if (!consume('['))
            return false;
        skipWs();
        if (consume(']'))
            return true;
        for (;;) {
            Value v;
            if (!parseValue(&v))
                return false;
            out->array.push_back(std::move(v));
            skipWs();
            if (consume(']'))
                return true;
            if (!consume(','))
                return false;
        }
    }

    bool
    parseString(std::string* out)
    {
        if (!consume('"'))
            return false;
        out->clear();
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c != '\\') {
                *out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return false;
            const char esc = text_[pos_++];
            switch (esc) {
            case '"': *out += '"'; break;
            case '\\': *out += '\\'; break;
            case '/': *out += '/'; break;
            case 'n': *out += '\n'; break;
            case 'r': *out += '\r'; break;
            case 't': *out += '\t'; break;
            case 'b': *out += '\b'; break;
            case 'f': *out += '\f'; break;
            case 'u': {
                if (text_.size() - pos_ < 4)
                    return false;
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return false;
                }
                // Our writers only emit \u00XX control escapes; pass
                // anything in the BMP through as UTF-8.
                if (code < 0x80) {
                    *out += static_cast<char>(code);
                } else if (code < 0x800) {
                    *out += static_cast<char>(0xC0 | (code >> 6));
                    *out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    *out += static_cast<char>(0xE0 | (code >> 12));
                    *out += static_cast<char>(0x80 |
                                              ((code >> 6) & 0x3F));
                    *out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default: return false;
            }
        }
        return consume('"');
    }

    bool
    parseNumber(Value* out)
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (text_[pos_] == '+' || text_[pos_] == '-' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' ||
                (text_[pos_] >= '0' && text_[pos_] <= '9')))
            ++pos_;
        if (pos_ == start)
            return false;
        const std::string_view tok = text_.substr(start, pos_ - start);
        const auto d = parseDouble(tok);
        if (!d)
            return false;
        out->type = Value::Type::Number;
        out->number = *d;
        // An integer literal also keeps its exact value.
        const bool minus = tok.front() == '-';
        if (const auto mag = parseU64(tok.substr(minus ? 1 : 0))) {
            out->integral = true;
            out->negative = minus && *mag != 0;
            out->magnitude = *mag;
        }
        return true;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
    bool tooDeep_ = false;
};

const char*
typeName(Value::Type t)
{
    switch (t) {
    case Value::Type::Null: return "null";
    case Value::Type::Bool: return "bool";
    case Value::Type::Number: return "number";
    case Value::Type::String: return "string";
    case Value::Type::Array: return "array";
    case Value::Type::Object: return "object";
    }
    return "?";
}

} // namespace

const Value*
Value::get(std::string_view key) const
{
    for (const auto& [k, v] : members)
        if (k == key)
            return &v;
    return nullptr;
}

const Value&
Value::require(std::string_view key, Type t,
               const std::string& what) const
{
    const Value* v = get(key);
    if (v == nullptr || v->type != t)
        fatal(ErrorCode::CorruptInput,
              what + ": member \"" + std::string(key) +
                  (v ? "\" is not a " : "\" is missing, want a ") +
                  typeName(t));
    return *v;
}

double
Value::asReal(const std::string& what) const
{
    if (!isNumber())
        fatal(ErrorCode::CorruptInput,
              what + ": expected a number, got a " + typeName(type));
    return number;
}

double
Value::real(std::string_view key, const std::string& what) const
{
    return require(key, Type::Number, what).number;
}

bool
Value::flag(std::string_view key, const std::string& what) const
{
    return require(key, Type::Bool, what).boolean;
}

const std::string&
Value::str(std::string_view key, const std::string& what) const
{
    return require(key, Type::String, what).string;
}

void
Value::checkInteger(std::uint64_t max, std::uint64_t max_negative,
                    const std::string& what, std::string_view key) const
{
    if (integral && magnitude <= (negative ? max_negative : max))
        return;
    std::string msg = what;
    if (!key.empty())
        msg += ": member \"" + std::string(key) + "\"";
    msg += " is not an integer in [" +
           (max_negative ? "-" + std::to_string(max_negative) : "0") +
           ", " + std::to_string(max) + "]";
    fatal(ErrorCode::CorruptInput, msg);
}

Value
parseJson(std::string_view text, const std::string& what)
{
    Parser p(text);
    Value out;
    if (!p.parse(&out))
        fatal(ErrorCode::CorruptInput,
              what + (p.tooDeep()
                          ? ": JSON nested deeper than " +
                                std::to_string(kMaxDepth) +
                                " levels near byte "
                          : ": malformed JSON near byte ") +
                  std::to_string(p.pos()));
    return out;
}

bool
tryParseJson(std::string_view text, Value* out)
{
    *out = Value{};
    return Parser(text).parse(out);
}

} // namespace mrp::json
