#include "src/dise/parser.hpp"

#include <cctype>
#include <limits>
#include <optional>
#include <sstream>
#include <vector>

#include "src/common/logging.hpp"

namespace dise {

namespace {

[[noreturn]] void
parseError(int line, const std::string &msg)
{
    fatal(strFormat("productions line %d: %s", line, msg.c_str()));
    abort(); // unreachable
}

std::string
trim(const std::string &s)
{
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::string
stripComment(const std::string &line)
{
    for (size_t i = 0; i < line.size(); ++i) {
        if (line[i] == ';')
            return line.substr(0, i);
        if (line[i] == '/' && i + 1 < line.size() && line[i + 1] == '/')
            return line.substr(0, i);
    }
    return line;
}

std::optional<int64_t>
parseNumber(std::string t)
{
    t = trim(t);
    if (!t.empty() && t[0] == '#')
        t = t.substr(1);
    if (t.empty())
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(t.c_str(), &end, 0);
    if (end != t.c_str() + t.size() || errno != 0)
        return std::nullopt;
    return static_cast<int64_t>(v);
}

std::vector<std::string>
splitOperands(const std::string &text)
{
    std::vector<std::string> ops;
    int depth = 0;
    std::string cur;
    for (const char c : text) {
        if (c == '(')
            ++depth;
        if (c == ')')
            --depth;
        if (c == ',' && depth == 0) {
            ops.push_back(trim(cur));
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!trim(cur).empty())
        ops.push_back(trim(cur));
    return ops;
}

/** Parse a register position: T.* directive or a literal register. */
std::pair<RegDirective, RegIndex>
parseRegField(int line, const std::string &text)
{
    const std::string t = trim(text);
    if (t == "T.RS")
        return {RegDirective::TriggerRS, 0};
    if (t == "T.RT")
        return {RegDirective::TriggerRT, 0};
    if (t == "T.RD")
        return {RegDirective::TriggerRD, 0};
    if (t == "T.P1")
        return {RegDirective::Param1, 0};
    if (t == "T.P2")
        return {RegDirective::Param2, 0};
    if (t == "T.P3")
        return {RegDirective::Param3, 0};
    const auto r = regFromName(t);
    if (!r)
        parseError(line, "bad register field: " + text);
    return {RegDirective::Literal, *r};
}

/** Parse an immediate position. Returns (directive, literal value). */
std::pair<ImmDirective, int64_t>
parseImmField(int line, const std::string &text,
              const std::map<std::string, Addr> &symbols)
{
    std::string t = trim(text);
    if (!t.empty() && t[0] == '#')
        t = trim(t.substr(1)); // optional literal marker
    if (t == "T.IMM")
        return {ImmDirective::TriggerImm, 0};
    if (t == "T.PC")
        return {ImmDirective::TriggerPC, 0};
    if (t == "T.PIMM")
        return {ImmDirective::ParamImm, 0};
    if (t == "T.P1")
        return {ImmDirective::Param1, 0};
    if (t == "T.P2")
        return {ImmDirective::Param2, 0};
    if (t == "T.P3")
        return {ImmDirective::Param3, 0};
    if (!t.empty() && t[0] == '@') {
        const std::string target = t.substr(1);
        if (const auto n = parseNumber(target))
            return {ImmDirective::AbsTarget, *n};
        const auto it = symbols.find(target);
        if (it == symbols.end())
            parseError(line, "unknown target symbol: " + target);
        return {ImmDirective::AbsTarget,
                static_cast<int64_t>(it->second)};
    }
    if (const auto n = parseNumber(t))
        return {ImmDirective::Literal, *n};
    parseError(line, "bad immediate field: " + text);
}

ReplacementInst
parseInstLine(int line, const std::string &text,
              const std::map<std::string, Addr> &symbols)
{
    const std::string t = trim(text);
    if (t == "T.INSN")
        return rTriggerInsn();

    ReplacementInst rinst;
    const size_t sp = t.find_first_of(" \t");
    const std::string mnem = (sp == std::string::npos) ? t
                                                       : t.substr(0, sp);
    const std::string rest =
        (sp == std::string::npos) ? "" : trim(t.substr(sp + 1));
    const auto opc = opFromName(mnem);
    if (!opc)
        parseError(line, "unknown mnemonic: " + mnem);
    const OpInfo &info = opInfo(*opc);
    rinst.templ.op = *opc;
    rinst.templ.cls = info.cls;
    const auto operands = splitOperands(rest);

    auto expectOperands = [&](size_t n) {
        if (operands.size() != n) {
            parseError(line, strFormat("%s expects %zu operands, got %zu",
                                       mnem.c_str(), n, operands.size()));
        }
    };

    switch (info.format) {
      case InstFormat::Nop:
      case InstFormat::Syscall:
        expectOperands(0);
        break;
      case InstFormat::Memory: {
        expectOperands(2);
        std::tie(rinst.raDir, rinst.templ.ra) =
            parseRegField(line, operands[0]);
        // disp(rb) with either part carrying a directive.
        const std::string &memOp = operands[1];
        const size_t open = memOp.find('(');
        const size_t close = memOp.rfind(')');
        if (open == std::string::npos || close == std::string::npos)
            parseError(line, "bad memory operand: " + memOp);
        const std::string dispText = trim(memOp.substr(0, open));
        if (!dispText.empty()) {
            std::tie(rinst.immDir, rinst.templ.imm) =
                parseImmField(line, dispText, symbols);
        }
        std::tie(rinst.rbDir, rinst.templ.rb) = parseRegField(
            line, memOp.substr(open + 1, close - open - 1));
        break;
      }
      case InstFormat::Branch: {
        expectOperands(2);
        std::tie(rinst.raDir, rinst.templ.ra) =
            parseRegField(line, operands[0]);
        if (info.cls == OpClass::DiseBranch) {
            // Slot-relative displacement, always a literal.
            const auto n = parseNumber(operands[1]);
            if (!n)
                parseError(line, "bad DISE branch displacement");
            rinst.templ.imm = *n;
        } else {
            std::tie(rinst.immDir, rinst.templ.imm) =
                parseImmField(line, operands[1], symbols);
            if (rinst.immDir == ImmDirective::Literal ||
                rinst.immDir == ImmDirective::TriggerPC) {
                // A raw-number target makes no sense for an application
                // branch whose PC is the trigger's; require @abs, T.IMM
                // (re-expanding a branch trigger) or parameters.
                if (rinst.immDir == ImmDirective::Literal)
                    parseError(line,
                               "application branch targets in sequences "
                               "must be @absolute, T.IMM or T.P*");
            }
        }
        break;
      }
      case InstFormat::Jump: {
        expectOperands(2);
        std::tie(rinst.raDir, rinst.templ.ra) =
            parseRegField(line, operands[0]);
        std::string rbText = trim(operands[1]);
        if (rbText.size() >= 2 && rbText.front() == '(' &&
            rbText.back() == ')') {
            rbText = rbText.substr(1, rbText.size() - 2);
        }
        std::tie(rinst.rbDir, rinst.templ.rb) =
            parseRegField(line, rbText);
        break;
      }
      case InstFormat::Operate: {
        expectOperands(3);
        std::tie(rinst.raDir, rinst.templ.ra) =
            parseRegField(line, operands[0]);
        std::tie(rinst.rcDir, rinst.templ.rc) =
            parseRegField(line, operands[2]);
        // Second source: a register or a role directive, else an
        // immediate (parameters T.P* in src2 are immediates).
        const std::string &src2 = trim(operands[1]);
        if (src2 == "T.RS" || src2 == "T.RT" || src2 == "T.RD" ||
            regFromName(src2).has_value()) {
            std::tie(rinst.rbDir, rinst.templ.rb) =
                parseRegField(line, src2);
        } else {
            rinst.templ.useLit = true;
            std::tie(rinst.immDir, rinst.templ.imm) =
                parseImmField(line, src2, symbols);
        }
        break;
      }
      case InstFormat::Codeword:
        parseError(line, "codewords cannot appear in replacement "
                         "sequences (no recursive expansion)");
    }
    return rinst;
}

std::optional<OpClass>
classFromName(const std::string &name)
{
    for (unsigned i = 0; i <= static_cast<unsigned>(OpClass::Invalid);
         ++i) {
        const OpClass cls = static_cast<OpClass>(i);
        if (name == opClassName(cls))
            return cls;
    }
    return std::nullopt;
}

PatternSpec
parsePattern(int line, const std::string &text)
{
    PatternSpec spec;
    std::string rest = text;
    while (!rest.empty()) {
        const size_t amp = rest.find("&&");
        const std::string cond =
            trim(amp == std::string::npos ? rest : rest.substr(0, amp));
        rest = amp == std::string::npos ? "" : trim(rest.substr(amp + 2));
        if (cond.empty())
            continue;
        if (cond == "any")
            continue;
        // imm sign forms.
        if (cond == "imm < 0") {
            spec.immSign = SignConstraint::Negative;
            continue;
        }
        if (cond == "imm >= 0") {
            spec.immSign = SignConstraint::NonNegative;
            continue;
        }
        const size_t eq = cond.find("==");
        if (eq == std::string::npos)
            parseError(line, "bad pattern condition: " + cond);
        const std::string lhs = trim(cond.substr(0, eq));
        const std::string rhs = trim(cond.substr(eq + 2));
        if (lhs == "op" || lhs == "opcode" || lhs == "T.OP") {
            const auto op = opFromName(rhs);
            if (!op)
                parseError(line, "unknown opcode: " + rhs);
            spec.opcode = *op;
        } else if (lhs == "class" || lhs == "opclass" ||
                   lhs == "T.OPCLASS") {
            const auto cls = classFromName(rhs);
            if (!cls)
                parseError(line, "unknown opcode class: " + rhs);
            spec.opclass = *cls;
        } else if (lhs == "rs" || lhs == "T.RS") {
            const auto r = regFromName(rhs);
            if (!r)
                parseError(line, "unknown register: " + rhs);
            spec.rs = *r;
        } else if (lhs == "rt" || lhs == "T.RT") {
            const auto r = regFromName(rhs);
            if (!r)
                parseError(line, "unknown register: " + rhs);
            spec.rt = *r;
        } else if (lhs == "rd" || lhs == "T.RD") {
            const auto r = regFromName(rhs);
            if (!r)
                parseError(line, "unknown register: " + rhs);
            spec.rd = *r;
        } else if (lhs == "imm" || lhs == "T.IMM") {
            const auto n = parseNumber(rhs);
            if (!n)
                parseError(line, "bad immediate: " + rhs);
            spec.immValue = *n;
        } else {
            parseError(line, "unknown pattern field: " + lhs);
        }
    }
    return spec;
}

} // namespace

ReplacementInst
parseReplacementInst(const std::string &line,
                     const std::map<std::string, Addr> &symbols)
{
    return parseInstLine(0, line, symbols);
}

ProductionSet
parseProductions(const std::string &source,
                 const std::map<std::string, Addr> &symbols)
{
    struct PendingPattern
    {
        int line;
        PatternSpec spec;
        std::string target; ///< sequence name, "tag", or "tag+N"
    };

    std::vector<PendingPattern> patterns;
    std::map<std::string, ReplacementSeq> seqs;
    std::vector<std::string> seqOrder;
    std::string currentSeq;

    std::istringstream is(source);
    std::string raw;
    int number = 0;
    while (std::getline(is, raw)) {
        ++number;
        std::string line = trim(stripComment(raw));
        if (line.empty())
            continue;
        // A definition header is "NAME:" where NAME has no spaces and the
        // colon precedes any instruction text.
        const size_t colon = line.find(':');
        std::string header;
        if (colon != std::string::npos) {
            const std::string head = trim(line.substr(0, colon));
            if (!head.empty() && head.find(' ') == std::string::npos &&
                head.find('.') == std::string::npos) {
                header = head;
                line = trim(line.substr(colon + 1));
            }
        }
        const bool isPattern = line.find("->") != std::string::npos;
        if (isPattern) {
            const size_t arrow = line.find("->");
            PendingPattern pending;
            pending.line = number;
            pending.spec = parsePattern(number, trim(line.substr(0, arrow)));
            pending.target = trim(line.substr(arrow + 2));
            if (pending.target.empty())
                parseError(number, "missing pattern target");
            patterns.push_back(std::move(pending));
            currentSeq.clear();
            continue;
        }
        if (!header.empty()) {
            if (seqs.count(header))
                parseError(number, "duplicate sequence " + header);
            seqs[header] = ReplacementSeq{};
            seqs[header].name = header;
            seqOrder.push_back(header);
            currentSeq = header;
            if (line.empty())
                continue;
        }
        if (currentSeq.empty())
            parseError(number, "instruction outside a sequence: " + line);
        seqs[currentSeq].insts.push_back(
            parseInstLine(number, line, symbols));
    }

    ProductionSet set;
    std::map<std::string, SeqId> seqIds;
    // "NAME@ID" headers pin the sequence id (used by serialization and
    // by aware dictionaries); register those first so plain sequences'
    // fresh ids cannot collide with them.
    auto explicitId = [](const std::string &name) -> std::optional<SeqId> {
        const size_t at = name.find('@');
        if (at == std::string::npos)
            return std::nullopt;
        const auto id = parseNumber(name.substr(at + 1));
        if (!id || *id < 0 || *id > std::numeric_limits<SeqId>::max())
            fatal("bad explicit sequence id in '" + name + "'");
        return static_cast<SeqId>(*id);
    };
    for (const auto &name : seqOrder) {
        if (seqs[name].insts.empty())
            fatal("empty replacement sequence " + name);
        if (const auto id = explicitId(name)) {
            set.addSequenceWithId(*id, seqs[name]);
            seqIds[name] = *id;
        }
    }
    for (const auto &name : seqOrder) {
        if (!explicitId(name))
            seqIds[name] = set.addSequence(seqs[name]);
    }
    for (const auto &pending : patterns) {
        if (pending.target.rfind("tag", 0) == 0) {
            SeqId base = 0;
            const std::string rest = trim(pending.target.substr(3));
            if (!rest.empty()) {
                const auto n = parseNumber(rest);
                if (!n || *n < 0)
                    parseError(pending.line,
                               "bad tag base: " + pending.target);
                base = static_cast<SeqId>(*n);
            }
            set.addTagPattern(pending.spec, base);
        } else {
            const auto it = seqIds.find(pending.target);
            if (it == seqIds.end())
                parseError(pending.line,
                           "unknown sequence " + pending.target);
            set.addPattern(pending.spec, it->second);
        }
    }
    return set;
}

} // namespace dise
