/**
 * @file
 * Two-pass assembler for the DISE target ISA.
 *
 * Syntax (Alpha-flavoured; one instruction/directive per line, comments
 * start with ';' or '//'):
 *
 *   .text / .data          switch sections
 *   label:                 define a symbol at the current location
 *   .quad v, ...           64-bit data (numbers or label[+/-off])
 *   .long v, ...           32-bit data
 *   .byte v, ...           8-bit data
 *   .asciiz "s"            NUL-terminated string
 *   .ascii "s"             string without terminator
 *   .space n               n zero bytes
 *   .align n               align to n bytes (data section)
 *
 *   ldq a0, 8(sp)          memory format
 *   addq a0, t1, v0        operate, register form
 *   addq a0, #5, v0        operate, 8-bit literal form ('#' optional)
 *   beq a0, label          branch (label or '.+N' word offset)
 *   jsr ra, (t12)          jump format
 *   res0 17, 1, 2, 3       codeword: tag, p1, p2, p3
 *   syscall / nop
 *
 * Pseudo-instructions (sizes are fixed so pass 1 can lay out labels):
 *   mov  rs, rd            1 inst:  or rs, zero, rd
 *   li   imm, rd           2 insts: ldah+lda (32-bit signed immediates)
 *   laq  label[+off], rd   2 insts: ldah+lda absolute address
 *   call label             1 inst:  bsr ra, label
 *   ret                    1 inst:  ret zero, (ra)
 */

#ifndef DISE_ASSEMBLER_ASSEMBLER_HPP
#define DISE_ASSEMBLER_ASSEMBLER_HPP

#include <string_view>

#include "src/assembler/program.hpp"

namespace dise {

/** Assembler configuration. */
struct AsmOptions
{
    Addr textBase = kDefaultTextBase;
    Addr dataBase = kDefaultDataBase;
};

/**
 * Assemble a complete source string into a program image.
 * Throws FatalError with a line-numbered message on any syntax error or
 * out-of-range field, and only FatalError. The entry point is the
 * 'main' symbol if defined, else the start of text.
 */
Program assemble(std::string_view source, const AsmOptions &opts = {});

} // namespace dise

#endif // DISE_ASSEMBLER_ASSEMBLER_HPP
