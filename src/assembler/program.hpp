/**
 * @file
 * Program image: the output of the assembler and the input to the
 * simulators, the binary rewriter and the code compressor.
 *
 * Memory layout (segments are 2^26 bytes, matching the paper's
 * "srl addr, 26" segment-id extraction in Figure 1):
 *
 *   segment 1 (0x0400'0000): text
 *   segment 2 (0x0800'0000): data + heap + stack
 *
 * A module's "legal data segment identifier" (held in $dr2 by the memory
 * fault isolation ACF) is therefore 2 for all programs in this repository
 * unless relocated.
 */

#ifndef DISE_ASSEMBLER_PROGRAM_HPP
#define DISE_ASSEMBLER_PROGRAM_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/isa/inst.hpp"

namespace dise {

/** Right-shift count that turns an address into a segment id. */
constexpr unsigned kSegmentShift = 26;

/** Default segment bases. */
constexpr Addr kDefaultTextBase = Addr(1) << kSegmentShift;
constexpr Addr kDefaultDataBase = Addr(2) << kSegmentShift;

/** The initial stack pointer's offset into the data segment (half a
 *  segment); static data must end below it. */
constexpr Addr kStackOffset = Addr(1) << (kSegmentShift - 1);

/** An assembled (or transformed) executable image. */
struct Program
{
    Addr textBase = kDefaultTextBase;
    std::vector<Word> text;

    Addr dataBase = kDefaultDataBase;
    std::vector<uint8_t> data;

    /** Initial PC. */
    Addr entry = kDefaultTextBase;
    /** Initial stack pointer (grows down, inside the data segment). */
    Addr stackTop = kDefaultDataBase + kStackOffset;

    /** Symbol table (labels from the assembler). */
    std::map<std::string, Addr> symbols;

    /** Text size in bytes. */
    uint64_t textBytes() const { return text.size() * 4; }

    /** Address one past the end of text. */
    Addr textEnd() const { return textBase + textBytes(); }

    /** True if @p addr names an instruction in this image. */
    bool
    inText(Addr addr) const
    {
        return addr >= textBase && addr < textEnd() && (addr & 3) == 0;
    }

    /** Instruction word at @p addr (must be in text). */
    Word fetch(Addr addr) const;

    /** Segment id of the data region. */
    uint64_t dataSegment() const { return dataBase >> kSegmentShift; }

    /** Look up a symbol; fatal() when missing. */
    Addr symbol(const std::string &name) const;
};

/**
 * Basic-block partition of a program's text.
 *
 * Leaders are: the entry point, every text symbol (conservatively treated
 * as a potential indirect-jump/call target), every direct branch target,
 * and every instruction following a control transfer. Used by the code
 * compressor (candidate sequences must not straddle blocks) and by the
 * binary rewriter.
 */
struct BasicBlocks
{
    /** leader[i] is true when text word i starts a basic block. */
    std::vector<bool> leader;

    /** Half-open index ranges [first, last) of each block, in order. */
    std::vector<std::pair<uint32_t, uint32_t>> blocks;
};

/** Compute the basic-block partition of @p prog. */
BasicBlocks analyzeBasicBlocks(const Program &prog);

} // namespace dise

#endif // DISE_ASSEMBLER_PROGRAM_HPP
