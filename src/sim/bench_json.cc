#include "bench_json.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

namespace bfree::sim {

BenchJson::Section *
BenchJson::find(const std::string &section)
{
    for (auto &entry : doc)
        if (entry.first == section)
            return &entry.second;
    return nullptr;
}

const BenchJson::Section *
BenchJson::find(const std::string &section) const
{
    for (const auto &entry : doc)
        if (entry.first == section)
            return &entry.second;
    return nullptr;
}

void
BenchJson::set(const std::string &section, const std::string &key,
               double value)
{
    Section *s = find(section);
    if (!s) {
        doc.emplace_back(section, Section{});
        s = &doc.back().second;
    }
    for (auto &kv : *s) {
        if (kv.first == key) {
            kv.second = value;
            return;
        }
    }
    s->emplace_back(key, value);
}

bool
BenchJson::has(const std::string &section, const std::string &key) const
{
    const Section *s = find(section);
    if (!s)
        return false;
    for (const auto &kv : *s)
        if (kv.first == key)
            return true;
    return false;
}

double
BenchJson::get(const std::string &section, const std::string &key,
               double fallback) const
{
    const Section *s = find(section);
    if (!s)
        return fallback;
    for (const auto &kv : *s)
        if (kv.first == key)
            return kv.second;
    return fallback;
}

std::vector<std::string>
BenchJson::sections() const
{
    std::vector<std::string> names;
    names.reserve(doc.size());
    for (const auto &entry : doc)
        names.push_back(entry.first);
    return names;
}

std::vector<std::string>
BenchJson::keys(const std::string &section) const
{
    std::vector<std::string> names;
    if (const Section *s = find(section)) {
        names.reserve(s->size());
        for (const auto &kv : *s)
            names.push_back(kv.first);
    }
    return names;
}

std::string
BenchJson::str() const
{
    std::ostringstream os;
    os << "{\n";
    for (std::size_t i = 0; i < doc.size(); ++i) {
        os << "  \"" << doc[i].first << "\": {\n";
        const Section &s = doc[i].second;
        for (std::size_t j = 0; j < s.size(); ++j) {
            char num[64];
            std::snprintf(num, sizeof(num), "%.17g", s[j].second);
            os << "    \"" << s[j].first << "\": " << num
               << (j + 1 < s.size() ? "," : "") << "\n";
        }
        os << "  }" << (i + 1 < doc.size() ? "," : "") << "\n";
    }
    os << "}\n";
    return os.str();
}

bool
BenchJson::save(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << str();
    return static_cast<bool>(out);
}

namespace {

/** Cursor over the JSON text; methods skip leading whitespace. */
struct Cursor
{
    const std::string &text;
    std::size_t pos = 0;

    void
    skipWs()
    {
        while (pos < text.size()
               && std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    eat(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    peek(char c)
    {
        skipWs();
        return pos < text.size() && text[pos] == c;
    }

    /** Quoted string without escapes (the emitter never needs them). */
    bool
    string(std::string &out)
    {
        if (!eat('"'))
            return false;
        const std::size_t start = pos;
        while (pos < text.size() && text[pos] != '"') {
            if (text[pos] == '\\')
                return false;
            ++pos;
        }
        if (pos >= text.size())
            return false;
        out = text.substr(start, pos - start);
        ++pos;
        return true;
    }

    bool
    number(double &out)
    {
        skipWs();
        const char *begin = text.c_str() + pos;
        char *end = nullptr;
        out = std::strtod(begin, &end);
        if (end == begin)
            return false;
        pos += static_cast<std::size_t>(end - begin);
        return true;
    }
};

} // namespace

bool
BenchJson::parse(const std::string &text)
{
    doc.clear();
    Cursor c{text};
    if (!c.eat('{'))
        return false;
    if (!c.peek('}')) {
        do {
            std::string section;
            if (!c.string(section) || !c.eat(':') || !c.eat('{'))
                return false;
            doc.emplace_back(section, Section{});
            Section &s = doc.back().second;
            if (!c.peek('}')) {
                do {
                    std::string key;
                    double value = 0.0;
                    if (!c.string(key) || !c.eat(':')
                        || !c.number(value))
                        return false;
                    s.emplace_back(key, value);
                } while (c.eat(','));
            }
            if (!c.eat('}'))
                return false;
        } while (c.eat(','));
    }
    if (!c.eat('}'))
        return false;
    c.skipWs();
    return c.pos == text.size();
}

bool
BenchJson::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse(buffer.str());
}

bool
parse_bench_flags(int argc, char **argv,
                  std::initializer_list<BenchFlag> flags)
{
    for (int i = 1; i < argc; ++i) {
        const BenchFlag *flag = nullptr;
        for (const BenchFlag &f : flags)
            if (!std::strcmp(argv[i], f.name))
                flag = &f;
        if (!flag) {
            std::cerr << "unknown option '" << argv[i] << "'\n";
            return false;
        }
        if (!flag->value) {
            *flag->on = true;
            continue;
        }
        if (i + 1 >= argc || argv[i + 1][0] == '\0') {
            std::cerr << argv[i] << " needs a value\n";
            return false;
        }
        *flag->value = argv[++i];
    }
    return true;
}

} // namespace bfree::sim
