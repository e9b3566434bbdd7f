#ifndef VEAL_BENCH_REPORT_H_
#define VEAL_BENCH_REPORT_H_

/**
 * @file
 * veal-bench's one output path: the options every mode reads, the
 * ordered JSON block each mode renders its fields into, and the
 * veal-bench-v2 envelope.
 *
 * A mode returns two blocks.  The modeled block is a pure function of
 * the work, byte-identical for any --threads, --batch and --runs.  It
 * is veal-bench's whole stdout, the envelope's "modeled" value and the
 * mode's block in tests/golden/bench_modes.golden.  The wall block
 * holds wall-clock numbers; it goes to stderr and the envelope only.
 */

#include <concepts>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace veal::bench {

/** Knobs for one veal-bench invocation. */
struct ModeOptions {
    /** simulation, persist or fleet. */
    std::string mode;

    /** Timed passes of the mode's work. */
    int runs = 5;

    /** Pool width (the tool defaults it to all hardware threads). */
    int threads = 1;

    /** Lanes per batch-engine call in simulation mode; never affects
        modeled output. */
    int batch = 64;

    /** Recorded verbatim in the envelope. */
    std::string commit = "unknown";

    /** When non-empty, write the veal-bench-v2 envelope here. */
    std::string json_path;
};

/**
 * An ordered JSON object: fields keep insertion order, and each value
 * is rendered to its JSON text once, when it is added.
 */
class JsonBlock {
  public:
    template <std::integral T>
    JsonBlock&
    add(const std::string& name, T value)
    {
        return addToken(name, std::to_string(value));
    }
    /** Three decimals, like every wall-clock number veal-bench prints. */
    JsonBlock& add(const std::string& name, double value);
    JsonBlock& add(const std::string& name, const std::string& value);
    JsonBlock& add(const std::string& name, const JsonBlock& value);
    /** An array of flat rows, one row per line. */
    JsonBlock& add(const std::string& name,
                   const std::vector<JsonBlock>& rows);

    /** The rendered JSON text of field @p name ("" when absent). */
    std::string value(const std::string& name) const;

    /** One field per line, nested values indented, so a diff of two
        renderings names the field that moved.  No trailing newline. */
    std::string render() const;

    /** Every field on one line (for flat blocks). */
    std::string renderLine() const;

  private:
    JsonBlock& addToken(const std::string& name, std::string token);

    std::vector<std::pair<std::string, std::string>> fields_;
};

/** What one veal-bench mode measured. */
struct ModeReport {
    JsonBlock modeled;
    JsonBlock wall;
};

/** The median of @p samples, the lower middle one for an even count
    (0 when empty). */
double p50(std::vector<double> samples);

/** @p value as "0x" and 16 lowercase hex digits. */
std::string hex(std::uint64_t value);

/**
 * Write @p report inside the veal-bench-v2 envelope (schema, mode,
 * commit, build type, compiler, threads, cores, runs, batch, modeled,
 * wall) to options.json_path.  Fatal when the file cannot be written.
 */
void writeEnvelope(const ModeOptions& options, const ModeReport& report);

}  // namespace veal::bench

#endif  // VEAL_BENCH_REPORT_H_
