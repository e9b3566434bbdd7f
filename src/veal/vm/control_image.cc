#include "veal/vm/control_image.h"

#include <map>

#include "veal/support/assert.h"

namespace veal {

namespace {

constexpr std::uint32_t kMagic = 0x5645414c;  // "VEAL"

std::uint32_t
low32(std::int64_t value)
{
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(value));
}

std::uint32_t
high32(std::int64_t value)
{
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(value) >>
                                      32);
}

/** Operand routing kinds, including the loop-control broadcast. */
enum OperandKind : std::uint32_t {
    kSrcRegister = 0,
    kSrcBypass = 1,
    kSrcFifo = 2,
    kSrcLiteral = 3,
    kSrcControl = 4,  ///< Induction value broadcast by loop control.
};

std::uint32_t
rotl32(std::uint32_t value, unsigned amount)
{
    amount %= 32;
    if (amount == 0)
        return value;
    return (value << amount) | (value >> (32 - amount));
}

}  // namespace

ControlImage
ControlImage::fromWords(std::vector<std::uint32_t> words)
{
    ControlImage image;
    image.words_ = std::move(words);
    return image;
}

std::uint32_t
ControlImage::checksum() const
{
    std::uint32_t sum = 0x9e3779b9u;
    for (std::size_t i = 0; i < words_.size(); ++i)
        sum ^= rotl32(words_[i], static_cast<unsigned>(i % 32)) + 1;
    return sum;
}

void
ControlImage::flipBit(std::size_t bit_index)
{
    VEAL_ASSERT(bit_index < words_.size() * 32,
                "flip beyond the image: bit ", bit_index);
    words_[bit_index / 32] ^= 1u << (bit_index % 32);
}

ControlImage
ControlImage::encode(const Loop& loop, const TranslationResult& translation)
{
    VEAL_ASSERT(translation.ok, "encoding a rejected translation of ",
                loop.name());
    VEAL_ASSERT(translation.graph != nullptr);
    const SchedGraph& graph = *translation.graph;
    const Schedule& schedule = translation.schedule;
    const LoopAnalysis& analysis = translation.analysis;
    const RegisterAssignment& registers = translation.registers;

    ControlImage image;
    auto& words = image.words_;

    // Literal pool (deduped constants), filled on demand.
    std::vector<std::int64_t> literals;
    std::map<std::int64_t, std::uint32_t> literal_index;
    auto intern_literal = [&](std::int64_t value) {
        const auto it = literal_index.find(value);
        if (it != literal_index.end())
            return it->second;
        const auto index = static_cast<std::uint32_t>(literals.size());
        literals.push_back(value);
        literal_index.emplace(value, index);
        return index;
    };

    /** Routing descriptor for one operand. */
    auto encode_operand = [&](const Operand& operand) -> std::uint32_t {
        const Operation& producer = loop.op(operand.producer);
        std::uint32_t kind = kSrcControl;
        std::uint32_t index = 0;
        if (producer.opcode == Opcode::kConst) {
            kind = kSrcLiteral;
            index = intern_literal(producer.immediate);
        } else if (producer.opcode == Opcode::kLiveIn) {
            kind = kSrcRegister;
            const int reg = registers.reg_of_source_op[
                static_cast<std::size_t>(producer.id)];
            index = reg >= 0 ? static_cast<std::uint32_t>(reg) : 0xfff;
        } else if (producer.opcode == Opcode::kLoad) {
            kind = kSrcFifo;
            index = static_cast<std::uint32_t>(
                analysis.stream_of_op[static_cast<std::size_t>(
                    producer.id)]);
        } else if (producer.is_induction) {
            kind = kSrcControl;
            index = static_cast<std::uint32_t>(producer.id) & 0xfff;
        } else {
            const int unit = graph.unitOf(producer.id);
            VEAL_ASSERT(unit >= 0, "operand from unscheduled op ",
                        producer.id);
            const int reg =
                registers.reg_of_unit[static_cast<std::size_t>(unit)];
            if (reg >= 0) {
                kind = kSrcRegister;
                index = static_cast<std::uint32_t>(reg);
            } else {
                kind = kSrcBypass;
                index = static_cast<std::uint32_t>(unit);
            }
        }
        return kind | (index & 0xfff) << 8 |
               (static_cast<std::uint32_t>(operand.distance) & 0xff)
                   << 24;
    };

    // --- Control store entries (built before the header so counts are
    // known; spliced after).
    std::vector<std::uint32_t> body;
    std::uint32_t num_entries = 0;
    for (const auto& unit : graph.units()) {
        if (unit.fu == FuClass::kNone)
            continue;
        ++num_entries;
        const auto u = static_cast<std::size_t>(unit.id);
        const int reg = registers.reg_of_unit[u];
        body.push_back(static_cast<std::uint32_t>(unit.fu) |
                       static_cast<std::uint32_t>(
                           schedule.fu_instance[u] & 0xff)
                           << 4 |
                       static_cast<std::uint32_t>(schedule.cycleOf(
                           unit.id)) << 12 |
                       static_cast<std::uint32_t>(schedule.stageOf(
                           unit.id) & 0xf)
                           << 20 |
                       static_cast<std::uint32_t>(unit.ops.size() & 0xff)
                           << 24);
        body.push_back(reg >= 0 ? static_cast<std::uint32_t>(reg) : 0xff);
        for (const OpId member : unit.ops) {
            const Operation& op = loop.op(member);
            body.push_back(static_cast<std::uint32_t>(op.opcode) |
                           static_cast<std::uint32_t>(op.inputs.size())
                               << 8);
            for (const auto& operand : op.inputs)
                body.push_back(encode_operand(operand));
        }
    }

    // --- Stream configurations.
    std::vector<std::uint32_t> stream_words;
    auto encode_stream = [&](const StreamDescriptor& stream) {
        stream_words.push_back(low32(stream.offset));
        stream_words.push_back(high32(stream.offset));
        stream_words.push_back(low32(stream.stride));
        stream_words.push_back(high32(stream.stride));
        stream_words.push_back(
            static_cast<std::uint32_t>(stream.base_terms.size()));
        for (const auto& [symbol, coeff] : stream.base_terms) {
            const Operation& op = loop.op(symbol);
            std::uint32_t reg = 0xff;
            if (op.opcode == Opcode::kLiveIn) {
                const int index = registers.reg_of_source_op[
                    static_cast<std::size_t>(symbol)];
                if (index >= 0)
                    reg = static_cast<std::uint32_t>(index);
            }
            stream_words.push_back(
                reg | (static_cast<std::uint32_t>(coeff) & 0xffff) << 16);
        }
    };
    for (const auto& stream : analysis.load_streams)
        encode_stream(stream);
    for (const auto& stream : analysis.store_streams)
        encode_stream(stream);

    // --- Register initialisation map (live-ins and constants).
    std::vector<std::uint32_t> init_words;
    std::uint32_t num_inits = 0;
    for (const auto& op : loop.operations()) {
        if (!op.isValueSource())
            continue;
        const int reg =
            registers.reg_of_source_op[static_cast<std::size_t>(op.id)];
        if (reg < 0)
            continue;
        ++num_inits;
        const bool is_literal = op.opcode == Opcode::kConst;
        const std::uint32_t payload =
            is_literal ? intern_literal(op.immediate)
                       : static_cast<std::uint32_t>(op.id);
        init_words.push_back(static_cast<std::uint32_t>(reg) |
                             (is_literal ? 1u : 0u) << 8 | payload << 16);
    }

    // --- Assemble: header, literal pool, entries, streams, inits.
    words.push_back(kMagic);
    words.push_back(static_cast<std::uint32_t>(schedule.ii) |
                    static_cast<std::uint32_t>(schedule.stage_count) << 8 |
                    num_entries << 16);
    words.push_back(
        static_cast<std::uint32_t>(analysis.load_streams.size()) |
        static_cast<std::uint32_t>(analysis.store_streams.size()) << 8 |
        num_inits << 16 |
        static_cast<std::uint32_t>(literals.size()) << 24);
    for (const std::int64_t literal : literals) {
        words.push_back(low32(literal));
        words.push_back(high32(literal));
    }
    words.insert(words.end(), body.begin(), body.end());
    words.insert(words.end(), stream_words.begin(), stream_words.end());
    words.insert(words.end(), init_words.begin(), init_words.end());
    return image;
}

DecodedControlImage
ControlImage::decode() const
{
    DecodedControlImage decoded;
    VEAL_ASSERT(words_.size() >= 3 && words_[0] == kMagic,
                "bad control image header");
    decoded.ii = static_cast<int>(words_[1] & 0xff);
    decoded.stage_count = static_cast<int>((words_[1] >> 8) & 0xff);
    const auto num_entries = (words_[1] >> 16) & 0xffff;
    decoded.num_load_streams = static_cast<int>(words_[2] & 0xff);
    decoded.num_store_streams = static_cast<int>((words_[2] >> 8) & 0xff);
    decoded.num_register_inits =
        static_cast<int>((words_[2] >> 16) & 0xff);
    decoded.num_literals = static_cast<int>((words_[2] >> 24) & 0xff);

    std::size_t cursor = 3 + 2 * static_cast<std::size_t>(
                                     decoded.num_literals);
    for (std::uint32_t e = 0; e < num_entries; ++e) {
        VEAL_ASSERT(cursor + 1 < words_.size(), "truncated control image");
        const std::uint32_t head = words_[cursor++];
        ControlEntry entry;
        entry.fu_class = static_cast<std::uint8_t>(head & 0xf);
        entry.fu_instance = static_cast<std::uint8_t>((head >> 4) & 0xff);
        entry.slot = static_cast<std::uint8_t>((head >> 12) & 0xff);
        entry.stage = static_cast<std::uint8_t>((head >> 20) & 0xf);
        entry.num_ops = static_cast<std::uint8_t>((head >> 24) & 0xff);
        entry.dest_register =
            static_cast<std::uint8_t>(words_[cursor++] & 0xff);
        for (int op = 0; op < entry.num_ops; ++op) {
            VEAL_ASSERT(cursor < words_.size(), "truncated entry");
            const std::uint32_t op_word = words_[cursor++];
            cursor += (op_word >> 8) & 0xff;  // Skip operand words.
        }
        decoded.entries.push_back(entry);
    }
    VEAL_ASSERT(cursor <= words_.size(), "truncated control image");
    return decoded;
}

}  // namespace veal
