#include "bench/report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

#include "veal/support/logging.h"
#include "veal/support/table.h"

namespace veal::bench {

namespace {

std::string
quoted(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

}  // namespace

JsonBlock&
JsonBlock::addToken(const std::string& name, std::string token)
{
    fields_.emplace_back(name, std::move(token));
    return *this;
}

JsonBlock&
JsonBlock::add(const std::string& name, double value)
{
    return addToken(name, TextTable::formatDouble(value, 3));
}

JsonBlock&
JsonBlock::add(const std::string& name, const std::string& value)
{
    return addToken(name, quoted(value));
}

JsonBlock&
JsonBlock::add(const std::string& name, const JsonBlock& value)
{
    return addToken(name, value.render());
}

JsonBlock&
JsonBlock::add(const std::string& name, const std::vector<JsonBlock>& rows)
{
    std::string token = "[";
    for (std::size_t i = 0; i < rows.size(); ++i)
        token += (i == 0 ? "\n  " : ",\n  ") + rows[i].renderLine();
    return addToken(name, token + (rows.empty() ? "]" : "\n]"));
}

std::string
JsonBlock::value(const std::string& name) const
{
    for (const auto& [field, token] : fields_) {
        if (field == name)
            return token;
    }
    return "";
}

std::string
JsonBlock::render() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        out += (i == 0 ? "\n  " : ",\n  ") + quoted(fields_[i].first) +
               ": ";
        // A nested value's lines move in one level with its field.
        for (const char c : fields_[i].second) {
            out += c;
            if (c == '\n')
                out += "  ";
        }
    }
    return out + "\n}";
}

std::string
JsonBlock::renderLine() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        out += (i == 0 ? "" : ", ") + quoted(fields_[i].first) + ": " +
               fields_[i].second;
    }
    return out + "}";
}

double
p50(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    return samples[(samples.size() - 1) / 2];
}

std::string
hex(std::uint64_t value)
{
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

void
writeEnvelope(const ModeOptions& options, const ModeReport& report)
{
    JsonBlock envelope;
    envelope.add("schema", std::string("veal-bench-v2"))
        .add("mode", options.mode)
        .add("commit", options.commit)
        .add("build_type", std::string(VEAL_BUILD_TYPE))
        .add("compiler", std::string(__VERSION__))
        .add("threads", options.threads)
        .add("cores", std::thread::hardware_concurrency())
        .add("runs", options.runs)
        .add("batch", options.batch)
        .add("modeled", report.modeled)
        .add("wall", report.wall);
    std::ofstream out(options.json_path);
    out << envelope.render() << "\n";
    out.close();
    if (!out)
        fatal("cannot write bench envelope to ", options.json_path);
}

}  // namespace veal::bench
