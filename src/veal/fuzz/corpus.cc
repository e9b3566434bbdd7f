#include "veal/fuzz/corpus.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "veal/fuzz/driver.h"
#include "veal/ir/loop_parser.h"
#include "veal/support/parse.h"

namespace veal {
namespace {

/** The oracle outcomes by their toString() names. */
std::optional<OracleOutcome>
outcomeByName(const std::string& name)
{
    for (const auto outcome :
         {OracleOutcome::kPass, OracleOutcome::kTranslatorReject,
          OracleOutcome::kValidatorReject, OracleOutcome::kDivergence,
          OracleOutcome::kCrashGuard, OracleOutcome::kFaultRecovered}) {
        if (name == toString(outcome))
            return outcome;
    }
    return std::nullopt;
}

bool
parseU64(const std::string& text, std::uint64_t* out)
{
    // Strict (digits only, exact overflow check): a corpus seed of
    // 18446744073709551616 is an error, not a saturated UINT64_MAX.
    const auto parsed = parseU64Strict(text);
    if (!parsed.has_value())
        return false;
    *out = *parsed;
    return true;
}

bool
parseI64(const std::string& text, std::int64_t* out)
{
    std::istringstream is(text);
    is >> *out;
    return !is.fail() && is.eof();
}

bool
parseInt(const std::string& text, int* out)
{
    std::int64_t wide = 0;
    if (!parseI64(text, &wide))
        return false;
    *out = static_cast<int>(wide);
    return true;
}

}  // namespace

std::string
encodeLaConfig(const LaConfig& config)
{
    std::ostringstream os;
    os << "name=" << config.name
       << " int_units=" << config.num_int_units
       << " fp_units=" << config.num_fp_units
       << " cca_units=" << config.num_cca_units
       << " cca=" << (config.cca.has_value() ? "classic" : "none")
       << " int_regs=" << config.num_int_registers
       << " fp_regs=" << config.num_fp_registers
       << " load_streams=" << config.num_load_streams
       << " store_streams=" << config.num_store_streams
       << " load_gens=" << config.num_load_addr_gens
       << " store_gens=" << config.num_store_addr_gens
       << " ports=" << config.num_memory_ports
       << " max_ii=" << config.max_ii
       << " bus=" << config.bus_latency;
    return os.str();
}

std::variant<LaConfig, std::string>
decodeLaConfig(const std::string& text)
{
    LaConfig config;
    std::istringstream is(text);
    std::string token;
    while (is >> token) {
        const auto equals = token.find('=');
        if (equals == std::string::npos)
            return "config token without '=': '" + token + "'";
        const std::string key = token.substr(0, equals);
        const std::string value = token.substr(equals + 1);
        bool ok = true;
        if (key == "name") {
            config.name = value;
        } else if (key == "int_units") {
            ok = parseInt(value, &config.num_int_units);
        } else if (key == "fp_units") {
            ok = parseInt(value, &config.num_fp_units);
        } else if (key == "cca_units") {
            ok = parseInt(value, &config.num_cca_units);
        } else if (key == "cca") {
            if (value == "classic")
                config.cca = CcaSpec::classic();
            else if (value == "none")
                config.cca.reset();
            else
                ok = false;
        } else if (key == "int_regs") {
            ok = parseInt(value, &config.num_int_registers);
        } else if (key == "fp_regs") {
            ok = parseInt(value, &config.num_fp_registers);
        } else if (key == "load_streams") {
            ok = parseInt(value, &config.num_load_streams);
        } else if (key == "store_streams") {
            ok = parseInt(value, &config.num_store_streams);
        } else if (key == "load_gens") {
            ok = parseInt(value, &config.num_load_addr_gens);
        } else if (key == "store_gens") {
            ok = parseInt(value, &config.num_store_addr_gens);
        } else if (key == "ports") {
            ok = parseInt(value, &config.num_memory_ports);
        } else if (key == "max_ii") {
            ok = parseInt(value, &config.max_ii);
        } else if (key == "bus") {
            ok = parseInt(value, &config.bus_latency);
        } else {
            return "unknown config key '" + key + "'";
        }
        if (!ok)
            return "bad config value '" + token + "'";
    }
    return config;
}

std::string
formatCorpusCase(const CorpusCase& repro)
{
    std::ostringstream os;
    os << "#! veal-fuzz repro\n";
    os << "#! config " << encodeLaConfig(repro.config) << "\n";
    os << "#! mode " << toString(repro.mode) << "\n";
    os << "#! seed " << repro.seed << "\n";
    os << "#! iterations " << repro.iterations << "\n";
    os << "#! expect " << toString(repro.expect) << "\n";
    if (repro.service)
        os << "#! service\n";
    if (repro.fault_plan_seed.has_value())
        os << "#! fault-seed " << *repro.fault_plan_seed << "\n";
    if (!repro.note.empty())
        os << "#! note " << repro.note << "\n";
    os << printLoop(repro.loop);
    return os.str();
}

CorpusParseResult
parseCorpusCase(const std::string& text)
{
    CorpusCase repro;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("#!", 0) != 0)
            continue;
        std::istringstream is(line.substr(2));
        std::string directive;
        is >> directive;
        std::string rest;
        std::getline(is, rest);
        if (!rest.empty() && rest.front() == ' ')
            rest.erase(0, 1);
        if (directive == "veal-fuzz") {
            continue;  // File marker.
        } else if (directive == "config") {
            auto decoded = decodeLaConfig(rest);
            if (auto* error = std::get_if<std::string>(&decoded))
                return *error;
            repro.config = std::get<LaConfig>(decoded);
        } else if (directive == "mode") {
            const auto mode = translationModeByName(rest);
            if (!mode.has_value())
                return "unknown mode '" + rest + "'";
            repro.mode = *mode;
        } else if (directive == "seed") {
            if (!parseU64(rest, &repro.seed))
                return "bad seed '" + rest + "'";
        } else if (directive == "iterations") {
            if (!parseI64(rest, &repro.iterations) ||
                repro.iterations < 1)
                return "bad iterations '" + rest + "'";
        } else if (directive == "expect") {
            const auto outcome = outcomeByName(rest);
            if (!outcome.has_value())
                return "unknown outcome '" + rest + "'";
            repro.expect = *outcome;
        } else if (directive == "service") {
            if (!rest.empty())
                return "'#! service' takes no arguments";
            repro.service = true;
        } else if (directive == "fault-seed") {
            std::uint64_t plan_seed = 0;
            if (!parseU64(rest, &plan_seed))
                return "bad fault-seed '" + rest + "'";
            repro.fault_plan_seed = plan_seed;
        } else if (directive == "note") {
            repro.note = rest;
        } else {
            return "unknown directive '#! " + directive + "'";
        }
    }

    ParseResult parsed = parseLoop(text);
    if (auto* error = std::get_if<ParseError>(&parsed)) {
        return "loop parse error at line " +
               std::to_string(error->line) + ": " + error->message;
    }
    repro.loop = std::move(std::get<Loop>(parsed));
    return repro;
}

std::vector<std::string>
listCorpusFiles(const std::string& directory)
{
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(directory, ec)) {
        if (entry.path().extension() == ".veal")
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

CorpusParseResult
loadCorpusFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        return CorpusParseResult("cannot open '" + path + "'");
    std::ostringstream contents;
    contents << in.rdbuf();
    return parseCorpusCase(contents.str());
}

std::string
saveCorpusCase(const std::string& directory, const std::string& name,
               const CorpusCase& repro)
{
    std::filesystem::create_directories(directory);
    const std::string path =
        (std::filesystem::path(directory) / (name + ".veal")).string();
    std::ofstream out(path);
    out << formatCorpusCase(repro);
    return path;
}

std::vector<ReplayResult>
replayCorpus(const std::string& directory)
{
    std::vector<ReplayResult> results;
    for (const auto& path : listCorpusFiles(directory)) {
        ReplayResult result;
        result.path = path;
        auto loaded = loadCorpusFile(path);
        if (auto* error = std::get_if<std::string>(&loaded)) {
            result.error = *error;
            results.push_back(std::move(result));
            continue;
        }
        const CorpusCase& repro = std::get<CorpusCase>(loaded);
        result.expect = repro.expect;
        if (repro.service) {
            result.actual = runServiceCase(repro.loop, repro.config,
                                           repro.mode,
                                           repro.fault_plan_seed);
            results.push_back(std::move(result));
            continue;
        }
        OracleOptions options;
        options.mode = repro.mode;
        options.iterations = repro.iterations;
        if (repro.fault_plan_seed.has_value())
            options.fault_plan = FaultPlan::sample(*repro.fault_plan_seed);
        result.actual =
            runOracle(repro.loop, repro.config, repro.seed, options);
        results.push_back(std::move(result));
    }
    return results;
}

}  // namespace veal
