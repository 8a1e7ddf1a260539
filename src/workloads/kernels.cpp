#include "src/workloads/kernels.hpp"

#include <charconv>

#include "src/common/logging.hpp"

namespace dise {

namespace {

/** Append @p v in decimal (the kernel data tables' hot path). */
void
appendDecimal(std::string &out, uint32_t v)
{
    char buf[10];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/** Shared epilogue: fold t2 into the checksum cell and return. */
const char *kFold =
    "    laq chk, t9\n"
    "    ldq t10, 0(t9)\n"
    "    xor t10, t2, t10\n"
    "    addq t10, 1, t10\n"
    "    stq t10, 0(t9)\n"
    "    ret\n";

std::string
compressKernel(uint32_t iters)
{
    // bzip2/gzip flavour: byte scan with histogram update and run-length
    // state; load/store heavy with a data-dependent branch.
    return strFormat(
        "kernel:\n"
        "    laq kbuf, t0\n"
        "    laq khist, t1\n"
        "    li %u, t2\n"
        "    mov zero, t3\n"
        "    mov zero, t4\n"
        "    mov t2, t11\n"
        "kc_loop:\n"
        "    ldbu t5, 0(t0)\n"
        "    lda t0, 1(t0)\n"
        "    and t5, 63, t5\n"
        "    sll t5, 3, t6\n"
        "    addq t1, t6, t6\n"
        "    ldq t7, 0(t6)\n"
        "    addq t7, 1, t7\n"
        "    stq t7, 0(t6)\n"
        "    cmpeq t5, t4, t8\n"
        "    beq t8, kc_newrun\n"
        "    addq t3, 1, t3\n"
        "    br zero, kc_next\n"
        "kc_newrun:\n"
        "    addq t2, t3, t2\n"
        "    mov zero, t3\n"
        "    mov t5, t4\n"
        "kc_next:\n"
        "    subq t11, 1, t11\n"
        "    bne t11, kc_loop\n"
        "%s",
        iters, kFold);
}

std::string
chaseKernel(uint32_t iters)
{
    // mcf/vortex flavour: pointer chasing over a shuffled ring with a
    // dependent payload update (cache-hostile, low ILP).
    return strFormat(
        "kernel:\n"
        "    laq kring, t0\n"
        "    li %u, t1\n"
        "    mov zero, t2\n"
        "kh_loop:\n"
        "    ldq t3, 8(t0)\n"
        "    addq t2, t3, t2\n"
        "    stq t2, 8(t0)\n"
        "    ldq t0, 0(t0)\n"
        "    subq t1, 1, t1\n"
        "    bne t1, kh_loop\n"
        "%s",
        iters, kFold);
}

std::string
parseKernel(uint32_t iters)
{
    // parser/perlbmk flavour: byte-driven state machine with
    // hard-to-predict multiway branches.
    return strFormat(
        "kernel:\n"
        "    laq kbuf, t0\n"
        "    li %u, t1\n"
        "    mov zero, t2\n"
        "    mov zero, t3\n"
        "kp_loop:\n"
        "    ldbu t4, 0(t0)\n"
        "    lda t0, 1(t0)\n"
        "    and t4, 63, t5\n"
        "    cmplt t5, 10, t6\n"
        "    bne t6, kp_digit\n"
        "    cmplt t5, 40, t6\n"
        "    bne t6, kp_alpha\n"
        "    addq t3, 1, t3\n"
        "    addq t2, t3, t2\n"
        "    br zero, kp_next\n"
        "kp_digit:\n"
        "    sll t2, 1, t2\n"
        "    addq t2, t4, t2\n"
        "    br zero, kp_next\n"
        "kp_alpha:\n"
        "    xor t2, t4, t2\n"
        "kp_next:\n"
        "    subq t1, 1, t1\n"
        "    bne t1, kp_loop\n"
        "%s",
        iters, kFold);
}

std::string
bitsKernel(uint32_t iters)
{
    // crafty/eon flavour: xorshift bit mixing, table update, multiply.
    return strFormat(
        "kernel:\n"
        "    li %u, t0\n"
        "    li 305419896, t1\n"
        "    laq ktab, t6\n"
        "    mov zero, t2\n"
        "kb_loop:\n"
        "    sll t1, 13, t3\n"
        "    xor t1, t3, t1\n"
        "    srl t1, 7, t3\n"
        "    xor t1, t3, t1\n"
        "    sll t1, 17, t3\n"
        "    xor t1, t3, t1\n"
        "    and t1, 255, t4\n"
        "    sll t4, 3, t4\n"
        "    addq t6, t4, t5\n"
        "    ldq t7, 0(t5)\n"
        "    mulq t1, 37, t8\n"
        "    addq t7, t8, t7\n"
        "    stq t7, 0(t5)\n"
        "    addq t2, t7, t2\n"
        "    subq t0, 1, t0\n"
        "    bne t0, kb_loop\n"
        "%s",
        iters, kFold);
}

std::string
sortKernel(uint32_t iters)
{
    // twolf/vpr flavour: compare-and-swap passes over an array.
    return strFormat(
        "kernel:\n"
        "    li %u, t0\n"
        "    mov zero, t2\n"
        "ks_pass:\n"
        "    laq karr, t1\n"
        "    li 255, t6\n"
        "ks_inner:\n"
        "    ldq t3, 0(t1)\n"
        "    ldq t4, 8(t1)\n"
        "    cmple t3, t4, t5\n"
        "    bne t5, ks_skip\n"
        "    stq t4, 0(t1)\n"
        "    stq t3, 8(t1)\n"
        "    addq t2, 1, t2\n"
        "ks_skip:\n"
        "    lda t1, 8(t1)\n"
        "    subq t6, 1, t6\n"
        "    bne t6, ks_inner\n"
        "    subq t0, 1, t0\n"
        "    bne t0, ks_pass\n"
        "%s",
        iters, kFold);
}

std::string
arithKernel(uint32_t iters)
{
    // gap/gcc flavour: multiply-accumulate recurrence.
    return strFormat(
        "kernel:\n"
        "    li %u, t0\n"
        "    li 3, t1\n"
        "    mov zero, t2\n"
        "ka_loop:\n"
        "    mulq t1, t1, t3\n"
        "    addq t3, 7, t3\n"
        "    and t3, 255, t1\n"
        "    addq t1, 3, t1\n"
        "    mulq t1, 5, t4\n"
        "    addq t2, t4, t2\n"
        "    subq t0, 1, t0\n"
        "    bne t0, ka_loop\n"
        "%s",
        iters, kFold);
}

} // namespace

std::string
kernelText(const std::string &family, uint32_t iters)
{
    if (family == "compress")
        return compressKernel(iters);
    if (family == "chase")
        return chaseKernel(iters);
    if (family == "parse")
        return parseKernel(iters);
    if (family == "bits")
        return bitsKernel(iters);
    if (family == "sort")
        return sortKernel(iters);
    if (family == "arith")
        return arithKernel(iters);
    fatal("unknown kernel family: " + family);
}

std::string
kernelData(const std::string &family, uint32_t ringNodes)
{
    std::string data;
    if (family == "compress" || family == "parse") {
        data += "kbuf:\n    .space 8192\n";
        data += "khist:\n    .space 2048\n";
    } else if (family == "chase") {
        // A shuffled ring: next pointers stride through the nodes with a
        // step coprime to the count, payloads start distinct.
        data += "kring:\n";
        const uint32_t n = ringNodes;
        const uint32_t step = (n / 2) | 1; // odd => coprime with pow2 n
        for (uint32_t i = 0; i < n; ++i) {
            const uint32_t next = (i + step) % n;
            // Payloads stay below the text segment base so nothing in
            // data can be mistaken for (or abused as) a code pointer.
            data += "    .quad kring+";
            appendDecimal(data, next * 16);
            data += ", ";
            appendDecimal(data, (i * 2654435761u) & 0x3ffffffu);
            data += '\n';
        }
    } else if (family == "bits") {
        data += "ktab:\n    .space 2048\n";
    } else if (family == "sort") {
        data += "karr:\n";
        uint32_t x = 123456789;
        for (unsigned i = 0; i < 256; ++i) {
            x = x * 1103515245u + 12345u;
            data += "    .quad ";
            appendDecimal(data, x >> 8);
            data += '\n';
        }
    }
    return data;
}

uint64_t
kernelDynCost(const std::string &family, uint32_t iters)
{
    // Instructions per inner iteration (approximate, from the listings).
    uint64_t perIter = 8;
    if (family == "compress")
        perIter = 13;
    else if (family == "chase")
        perIter = 5;
    else if (family == "parse")
        perIter = 9;
    else if (family == "bits")
        perIter = 15;
    else if (family == "sort")
        perIter = 8 * 255 / 255 + 7; // inner pass ~8/elt
    else if (family == "arith")
        perIter = 8;
    if (family == "sort")
        return uint64_t(iters) * 255 * 8;
    return uint64_t(iters) * perIter;
}

} // namespace dise
