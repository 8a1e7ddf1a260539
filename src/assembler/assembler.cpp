#include "src/assembler/assembler.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "src/common/bits.hpp"
#include "src/common/logging.hpp"

namespace dise {

namespace {

constexpr size_t npos = std::string_view::npos;

[[noreturn]] void
asmError(int line, const std::string &msg)
{
    fatal(strFormat("asm line %d: %s", line, msg.c_str()));
}

/** isspace() of the "C" locale. */
bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

std::string_view
trim(std::string_view s)
{
    while (!s.empty() && isSpace(s.front()))
        s.remove_prefix(1);
    while (!s.empty() && isSpace(s.back()))
        s.remove_suffix(1);
    return s;
}

/** Strip comments, honouring string literals. */
std::string_view
stripComment(std::string_view line)
{
    bool inStr = false;
    for (size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (c == '"')
            inStr = !inStr;
        if (inStr)
            continue;
        if (c == ';' ||
            (c == '/' && i + 1 < line.size() && line[i + 1] == '/')) {
            return line.substr(0, i);
        }
    }
    return line;
}

/**
 * Split operand text on commas at depth 0 (parens), appending each
 * operand, trimmed, to @p ops; an empty last operand is dropped.
 */
void
splitOperands(std::string_view text, std::vector<std::string_view> &ops)
{
    int depth = 0;
    size_t start = 0;
    for (size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '(')
            ++depth;
        if (c == ')')
            --depth;
        if (c == ',' && depth == 0) {
            ops.push_back(trim(text.substr(start, i - start)));
            start = i + 1;
        }
    }
    const std::string_view last = trim(text.substr(start));
    if (!last.empty())
        ops.push_back(last);
}

/**
 * Decode a C-style escaped string literal, appending its bytes to
 * @p out when given. Returns the decoded length.
 */
size_t
decodeString(int line, std::string_view text, std::vector<uint8_t> *out)
{
    const std::string_view t = trim(text);
    if (t.size() < 2 || t.front() != '"' || t.back() != '"')
        asmError(line, "expected string literal");
    size_t length = 0;
    for (size_t i = 1; i + 1 < t.size(); ++i, ++length) {
        char c = t[i];
        if (c == '\\' && i + 2 < t.size()) {
            ++i;
            switch (t[i]) {
              case 'n': c = '\n'; break;
              case 't': c = '\t'; break;
              case '0': c = '\0'; break;
              case '\\': c = '\\'; break;
              case '"': c = '"'; break;
              default: asmError(line, "bad escape in string");
            }
        }
        if (out)
            out->push_back(static_cast<uint8_t>(c));
    }
    return length;
}

/**
 * Parse a decimal or 0x-hex integer with optional '#' and sign. Empty
 * when @p text is not a number; an asm error when it is one whose
 * magnitude does not fit in 64 bits.
 */
std::optional<int64_t>
parseNumber(int line, std::string_view text)
{
    std::string_view t = trim(text);
    if (!t.empty() && t[0] == '#')
        t.remove_prefix(1);
    if (t.empty())
        return std::nullopt;
    const bool neg = t[0] == '-';
    if (neg || t[0] == '+')
        t.remove_prefix(1);
    uint64_t base = 10;
    if (t.size() > 1 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X')) {
        base = 16;
        t.remove_prefix(2);
    }
    if (t.empty())
        return std::nullopt;
    constexpr uint64_t kMax = ~uint64_t(0);
    const uint64_t maxScalable = base == 16 ? kMax / 16 : kMax / 10;
    uint64_t value = 0;
    bool overflow = false;
    for (const char c : t) {
        uint64_t digit;
        if (c >= '0' && c <= '9')
            digit = uint64_t(c - '0');
        else if (base == 16 && c >= 'a' && c <= 'f')
            digit = uint64_t(c - 'a' + 10);
        else if (base == 16 && c >= 'A' && c <= 'F')
            digit = uint64_t(c - 'A' + 10);
        else
            return std::nullopt;
        overflow |= value > maxScalable || value * base > kMax - digit;
        value = value * base + digit;
    }
    if (overflow) {
        asmError(line, "integer literal out of range: " +
                           std::string(trim(text)));
    }
    return static_cast<int64_t>(neg ? 0 - value : value);
}

/**
 * Label addresses keyed by views into the source: open addressing with
 * linear probing, sized once from the scan's label count.
 */
class SymbolTable
{
  public:
    void
    reserve(size_t labels)
    {
        size_t slots = 16;
        while (slots < 2 * labels)
            slots *= 2;
        slots_.assign(slots, Slot{});
    }

    /** Define @p name; false when it is already defined. */
    bool
    insert(std::string_view name, Addr addr)
    {
        Slot &slot = slots_[slotOf(name)];
        if (!slot.name.empty())
            return false;
        slot = {name, addr};
        return true;
    }

    const Addr *
    find(std::string_view name) const
    {
        const Slot &slot = slots_[slotOf(name)];
        return slot.name.empty() ? nullptr : &slot.addr;
    }

    void
    copyTo(std::map<std::string, Addr> &symbols) const
    {
        for (const Slot &slot : slots_)
            if (!slot.name.empty())
                symbols.emplace(slot.name, slot.addr);
    }

  private:
    /** Labels are never empty, so an empty name marks a free slot. */
    struct Slot
    {
        std::string_view name;
        Addr addr = 0;
    };

    /** The slot holding @p name, or the free slot it would take. */
    size_t
    slotOf(std::string_view name) const
    {
        const size_t mask = slots_.size() - 1;
        size_t i = std::hash<std::string_view>{}(name) & mask;
        while (!slots_[i].name.empty() && slots_[i].name != name)
            i = (i + 1) & mask;
        return i;
    }

    std::vector<Slot> slots_;
};

/** One statement: a label, or a mnemonic and its operands. */
struct Stmt
{
    std::string_view head; ///< the label, or the mnemonic
    int line = 0;
    bool isLabel = false;
    /** operands_[firstOp, firstOp + numOps); a string directive has its
     *  literal as the one operand. */
    uint32_t firstOp = 0;
    uint32_t numOps = 0;
};

/**
 * The assembler proper: a scan into statements viewing the source, then
 * a layout pass and an emit pass over them.
 */
class Assembler
{
  public:
    explicit Assembler(const AsmOptions &opts) : opts_(opts) {}

    Program
    run(std::string_view source)
    {
        scan(source);
        layoutPass();
        emitPass();
        prog_.textBase = opts_.textBase;
        prog_.dataBase = opts_.dataBase;
        symbols_.copyTo(prog_.symbols);
        const Addr *main = symbols_.find("main");
        prog_.entry = main ? *main : opts_.textBase;
        return std::move(prog_);
    }

  private:
    enum class Section { Text, Data };

    void
    scan(std::string_view source)
    {
        stmts_.reserve(std::count(source.begin(), source.end(), '\n') + 1);
        int number = 0;
        for (size_t pos = 0; pos < source.size();) {
            const size_t eol = std::min(source.find('\n', pos), source.size());
            std::string_view line =
                trim(stripComment(source.substr(pos, eol - pos)));
            pos = eol + 1;
            ++number;
            // Peel off any leading labels (several may share a line).
            for (size_t colon; (colon = line.find(':')) != npos;) {
                const std::string_view head = trim(line.substr(0, colon));
                if (head.empty() || head.find(' ') != npos ||
                    head.find('"') != npos) {
                    break;
                }
                stmts_.push_back({head, number, true});
                ++labels_;
                line = trim(line.substr(colon + 1));
            }
            if (line.empty())
                continue;
            // The mnemonic ends at the first space or tab.
            size_t sp = 0;
            while (sp < line.size() && line[sp] != ' ' && line[sp] != '\t')
                ++sp;
            const std::string_view mnemonic = line.substr(0, sp);
            const std::string_view rest = trim(line.substr(sp));
            const size_t firstOp = operands_.size();
            if (mnemonic == ".ascii" || mnemonic == ".asciiz") {
                decodeString(number, rest, nullptr);
                operands_.push_back(rest);
            } else {
                splitOperands(rest, operands_);
            }
            stmts_.push_back({mnemonic, number, false, uint32_t(firstOp),
                              uint32_t(operands_.size() - firstOp)});
        }
    }

    std::span<const std::string_view>
    operandsOf(const Stmt &st) const
    {
        return {operands_.data() + st.firstOp, st.numOps};
    }

    /** Instruction word count, fixed per mnemonic so labels resolve. */
    static uint32_t
    instWords(std::string_view mnemonic)
    {
        return mnemonic == "li" || mnemonic == "laq" ? 2 : 1;
    }

    void
    layoutPass()
    {
        symbols_.reserve(labels_);
        Section section = Section::Text;
        uint64_t textOff = 0;
        uint64_t dataOff = 0;
        for (const Stmt &st : stmts_) {
            if (st.isLabel) {
                const Addr addr = (section == Section::Text)
                                      ? opts_.textBase + textOff
                                      : opts_.dataBase + dataOff;
                if (!symbols_.insert(st.head, addr)) {
                    asmError(st.line,
                             "duplicate label " + std::string(st.head));
                }
                continue;
            }
            if (st.head == ".text") {
                section = Section::Text;
            } else if (st.head == ".data") {
                section = Section::Data;
            } else if (st.head[0] == '.') {
                if (section != Section::Data)
                    asmError(st.line, "data directive outside .data");
                ops_ = operandsOf(st);
                const uint64_t size = directiveSize(st, dataOff);
                if (size > kStackOffset - dataOff) {
                    asmError(st.line,
                             strFormat("data section exceeds %llu bytes",
                                       (unsigned long long)kStackOffset));
                }
                dataOff += size;
            } else {
                if (section != Section::Text)
                    asmError(st.line, "instruction outside .text");
                textOff += instWords(st.head) * 4ull;
            }
        }
        prog_.text.reserve(textOff / 4);
        prog_.data.reserve(dataOff);
    }

    uint64_t
    directiveSize(const Stmt &st, uint64_t dataOff) const
    {
        const std::string_view m = st.head;
        if (m == ".ascii" || m == ".asciiz")
            return decodeString(st.line, ops_[0], nullptr) + (m == ".asciiz");
        if (m == ".quad")
            return ops_.size() * 8ull;
        if (m == ".long")
            return ops_.size() * 4ull;
        if (m == ".byte")
            return ops_.size();
        if (m == ".space") {
            const auto n =
                ops_.empty() ? std::nullopt : parseNumber(st.line, ops_[0]);
            if (!n || *n < 0)
                asmError(st.line, "bad .space size");
            return static_cast<uint64_t>(*n);
        }
        if (m == ".align") {
            const auto n =
                ops_.empty() ? std::nullopt : parseNumber(st.line, ops_[0]);
            if (!n || *n <= 0 || !isPow2(static_cast<uint64_t>(*n)))
                asmError(st.line, "bad .align");
            const uint64_t a = static_cast<uint64_t>(*n);
            return (a - (dataOff % a)) % a;
        }
        asmError(st.line, "unknown directive " + std::string(m));
    }

    /** Resolve 'label', 'label+N', 'label-N', or a bare number. */
    int64_t
    resolveValue(int line, std::string_view text) const
    {
        if (const auto num = parseNumber(line, text))
            return *num;
        std::string_view name = trim(text);
        uint64_t offset = 0;
        const size_t sign = name.find_last_of("+-");
        if (sign != npos && sign > 0) {
            if (const auto off = parseNumber(line, name.substr(sign))) {
                offset = static_cast<uint64_t>(*off);
                name = trim(name.substr(0, sign));
            }
        }
        const Addr *addr = symbols_.find(name);
        if (!addr)
            asmError(line, "unknown symbol " + std::string(name));
        return static_cast<int64_t>(*addr + offset);
    }

    RegIndex
    parseReg(int line, std::string_view text) const
    {
        const auto r = regFromName(trim(text));
        if (!r)
            asmError(line, "bad register " + std::string(text));
        if (!isArchReg(*r)) {
            asmError(line, "dedicated register " + std::string(text) +
                               " is not encodable in application code");
        }
        return *r;
    }

    /** Parse 'disp(rb)' memory operands. */
    std::pair<int64_t, RegIndex>
    parseMemOperand(int line, std::string_view text) const
    {
        const size_t open = text.find('(');
        const size_t close = text.rfind(')');
        if (open == npos || close == npos || close < open)
            asmError(line, "bad memory operand " + std::string(text));
        const std::string_view dispText = trim(text.substr(0, open));
        int64_t disp = 0;
        if (!dispText.empty()) {
            const auto n = parseNumber(line, dispText);
            if (!n)
                asmError(line, "bad displacement " + std::string(dispText));
            disp = *n;
        }
        const RegIndex rb =
            parseReg(line, text.substr(open + 1, close - open - 1));
        if (!fitsSigned(disp, 16)) {
            asmError(line,
                     "displacement out of range: " + std::string(dispText));
        }
        return {disp, rb};
    }

    void
    expectOperands(const Stmt &st, size_t n) const
    {
        if (ops_.size() != n) {
            asmError(st.line, strFormat("%.*s expects %zu operands, got %zu",
                                        int(st.head.size()), st.head.data(),
                                        n, ops_.size()));
        }
    }

    void
    emitPass()
    {
        for (const Stmt &st : stmts_) {
            if (st.isLabel || st.head == ".text" || st.head == ".data")
                continue;
            ops_ = operandsOf(st);
            if (st.head[0] == '.')
                emitDirective(st);
            else
                emitInstruction(st);
        }
    }

    void
    emitDirective(const Stmt &st)
    {
        auto &data = prog_.data;
        const std::string_view m = st.head;
        if (m == ".ascii" || m == ".asciiz") {
            decodeString(st.line, ops_[0], &data);
            if (m == ".asciiz")
                data.push_back(0);
        } else if (m == ".space") {
            data.resize(data.size() + *parseNumber(st.line, ops_[0]));
        } else if (m == ".align") {
            const uint64_t a =
                static_cast<uint64_t>(*parseNumber(st.line, ops_[0]));
            while (data.size() % a != 0)
                data.push_back(0);
        } else {
            const unsigned width = m == ".quad" ? 8 : m == ".long" ? 4 : 1;
            for (const std::string_view op : ops_) {
                const uint64_t value =
                    static_cast<uint64_t>(resolveValue(st.line, op));
                uint8_t bytes[8]; // little-endian
                for (unsigned i = 0; i < width; ++i)
                    bytes[i] = static_cast<uint8_t>(value >> (8 * i));
                data.insert(data.end(), bytes, bytes + width);
            }
        }
    }

    /** Emit the ldah/lda pair that materializes a 32-bit constant. */
    void
    emitLoadImmediate(const Stmt &st, int64_t value, RegIndex rd)
    {
        // Unsigned arithmetic, so hostile values cannot overflow.
        const uint64_t raw = static_cast<uint64_t>(value);
        const int64_t lo = signExtend(raw, 16);
        const int64_t hi = static_cast<int64_t>(raw - lo) >> 16;
        if (!fitsSigned(hi, 16)) {
            asmError(st.line, strFormat("%.*s immediate out of range: %lld",
                                        int(st.head.size()), st.head.data(),
                                        (long long)value));
        }
        // ldah rd, hi(zero); lda rd, lo(rd)  =>  rd = (hi << 16) + lo.
        prog_.text.push_back(makeMemory(Opcode::LDAH, rd, kZeroReg, hi));
        prog_.text.push_back(makeMemory(Opcode::LDA, rd, rd, lo));
    }

    /** Emit a branch @p disp words past the next instruction. */
    void
    emitBranch(int line, Opcode op, RegIndex ra, int64_t disp)
    {
        if (!fitsSigned(disp, 21)) {
            asmError(line, strFormat("branch displacement out of range: %lld",
                                     (long long)disp));
        }
        prog_.text.push_back(makeBranch(op, ra, disp));
    }

    void
    emitInstruction(const Stmt &st)
    {
        const Addr pc = opts_.textBase + prog_.text.size() * 4ull;
        const std::string_view m = st.head;
        // Word displacement from the next instruction to @p target
        // (unsigned arithmetic, so hostile targets cannot overflow).
        auto wordDisp = [pc](int64_t target) {
            return static_cast<int64_t>(target - pc - 4) / 4;
        };

        // Pseudo-instructions first.
        if (m == "mov") {
            expectOperands(st, 2);
            const RegIndex rs = parseReg(st.line, ops_[0]);
            const RegIndex rd = parseReg(st.line, ops_[1]);
            prog_.text.push_back(makeOperate(Opcode::OR, rs, kZeroReg, rd));
            return;
        }
        if (m == "li" || m == "laq") {
            expectOperands(st, 2);
            const int64_t value = resolveValue(st.line, ops_[0]);
            const RegIndex rd = parseReg(st.line, ops_[1]);
            emitLoadImmediate(st, value, rd);
            return;
        }
        if (m == "call") {
            expectOperands(st, 1);
            const int64_t target = resolveValue(st.line, ops_[0]);
            emitBranch(st.line, Opcode::BSR, kRaReg, wordDisp(target));
            return;
        }
        if (m == "ret" && ops_.empty()) {
            prog_.text.push_back(makeJump(Opcode::RET, kZeroReg, kRaReg));
            return;
        }

        const auto opc = opFromName(m);
        if (!opc)
            asmError(st.line, "unknown mnemonic " + std::string(m));
        const OpInfo &info = opInfo(*opc);
        if (info.cls == OpClass::DiseBranch) {
            asmError(st.line,
                     std::string(m) +
                         " is a DISE-internal branch; it may only appear "
                         "in replacement sequences");
        }
        switch (info.format) {
          case InstFormat::Nop:
            prog_.text.push_back(makeNop());
            break;
          case InstFormat::Syscall:
            prog_.text.push_back(makeSyscall());
            break;
          case InstFormat::Memory: {
            expectOperands(st, 2);
            const RegIndex ra = parseReg(st.line, ops_[0]);
            const auto [disp, rb] = parseMemOperand(st.line, ops_[1]);
            prog_.text.push_back(makeMemory(*opc, ra, rb, disp));
            break;
          }
          case InstFormat::Branch: {
            expectOperands(st, 2);
            const RegIndex ra = parseReg(st.line, ops_[0]);
            const std::string_view t = ops_[1];
            int64_t disp;
            if (t.size() > 2 && t[0] == '.' && (t[1] == '+' || t[1] == '-')) {
                const auto n = parseNumber(st.line, t.substr(1));
                if (!n)
                    asmError(st.line, "bad relative target " + std::string(t));
                disp = *n;
            } else {
                const int64_t target = resolveValue(st.line, t);
                if ((target & 3) != 0)
                    asmError(st.line, "misaligned branch target");
                disp = wordDisp(target);
            }
            emitBranch(st.line, *opc, ra, disp);
            break;
          }
          case InstFormat::Jump: {
            expectOperands(st, 2);
            const RegIndex ra = parseReg(st.line, ops_[0]);
            std::string_view rbText = trim(ops_[1]);
            if (rbText.size() >= 2 && rbText.front() == '(' &&
                rbText.back() == ')') {
                rbText = rbText.substr(1, rbText.size() - 2);
            }
            const RegIndex rb = parseReg(st.line, rbText);
            prog_.text.push_back(makeJump(*opc, ra, rb));
            break;
          }
          case InstFormat::Operate: {
            expectOperands(st, 3);
            const RegIndex ra = parseReg(st.line, ops_[0]);
            const RegIndex rc = parseReg(st.line, ops_[2]);
            const std::string_view src2 = ops_[1];
            if (regFromName(trim(src2))) {
                prog_.text.push_back(
                    makeOperate(*opc, ra, parseReg(st.line, src2), rc));
            } else {
                const auto lit = parseNumber(st.line, src2);
                if (!lit || *lit < 0 || *lit > 255) {
                    asmError(st.line, "operate literal must be 0..255: " +
                                          std::string(src2));
                }
                prog_.text.push_back(makeOperateImm(
                    *opc, ra, static_cast<uint8_t>(*lit), rc));
            }
            break;
          }
          case InstFormat::Codeword: {
            expectOperands(st, 4);
            std::optional<int64_t> fields[4];
            for (size_t i = 0; i < 4; ++i)
                fields[i] = parseNumber(st.line, ops_[i]);
            for (const auto &field : fields)
                if (!field)
                    asmError(st.line, "bad codeword fields");
            if (*fields[0] < 0 || *fields[0] > kMaxCodewordTag) {
                asmError(st.line,
                         "codeword tag out of range: " + std::string(ops_[0]));
            }
            for (size_t i = 1; i < 4; ++i) {
                if (*fields[i] < 0 || *fields[i] > 31) {
                    asmError(st.line, "codeword parameter out of range: " +
                                          std::string(ops_[i]));
                }
            }
            prog_.text.push_back(makeCodeword(
                *opc, static_cast<uint16_t>(*fields[0]),
                static_cast<uint8_t>(*fields[1]),
                static_cast<uint8_t>(*fields[2]),
                static_cast<uint8_t>(*fields[3])));
            break;
          }
        }
    }

    AsmOptions opts_;
    std::vector<Stmt> stmts_;
    std::vector<std::string_view> operands_;
    size_t labels_ = 0;
    SymbolTable symbols_;
    /** The operands of the statement being laid out or emitted. */
    std::span<const std::string_view> ops_;
    Program prog_;
};

} // namespace

Program
assemble(std::string_view source, const AsmOptions &opts)
{
    Assembler assembler(opts);
    return assembler.run(source);
}

} // namespace dise
