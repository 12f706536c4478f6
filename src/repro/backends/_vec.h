/* The lane abstraction of the compiled kernels (paper Sec. V: one
 * kernel source over a small set of vector building blocks, lowered per
 * instruction set).  Written against the GCC/Clang `vector_size`
 * extension only — no intrinsics — so the same text becomes SSE2, AVX2,
 * AVX-512 or NEON code depending on nothing but the -march flag, and
 * every operation below is one IEEE operation per lane whatever it is
 * lowered to: the result cannot depend on the ISA.
 *
 * Included once per REAL instantiation from _tersoff.c, _sw.c and
 * _neighbor.c, which define REAL, IREAL/UREAL (the signed/unsigned
 * integers of REAL's width), R_SQRT, TSUF, ACC and VLANES, the lane count
 * of the instantiation.  How many lanes a body runs is its scheme's
 * choice: Tersoff's scheme 1b (pairs across rows) and the list build's
 * fill (the candidates of a run of adjacent cells) fill the widest
 * register the build may use (the VEC_LANES_* table in _common.h, a
 * constant per build and REAL); SW's scheme 1a holds the pairs of one
 * row, four to a vector.  The first inclusion also defines what does not
 * depend on REAL: the names (v_sel, ...) the kernels are written in.
 *
 * Only constructs both compilers take in C: operators and comparisons on
 * vector types, subscripts, same-size casts (bit reinterpretation),
 * compound literals and __builtin_convertvector.  No `?:` on vectors, no
 * scalar-vector mixing, no shuffles.
 */

#ifndef REPRO_VEC_H
#define REPRO_VEC_H

#define TFN(name) CAT(name, TSUF)

/* type and function names of the current instantiation */
#define VREAL TFN(vreal_)
#define VMASK TFN(vmask_)
#define VBITS TFN(vbits_)
#define VACC TFN(vacc_)
#define v_set1 TFN(v_set1_)
#define v_load TFN(v_load_)
#define v_store TFN(v_store_)
#define v_sel TFN(v_sel_)
#define v_sqrt TFN(v_sqrt_)
#define v_to_acc TFN(v_to_acc_)
#define v_from_acc TFN(v_from_acc_)
#define vm_set1 TFN(vm_set1_)
#define VI32 TFN(vi32_)
#define vm_load_i32 TFN(vm_load_i32_)
#define vm_sel TFN(vm_sel_)
#define vm_any TFN(vm_any_)
#define vm_count TFN(vm_count_)
#define vb_set1 TFN(vb_set1_)
#define vm_iota TFN(vm_iota_)

/* a mask's bits as 64-bit words, folded in halves down to 16 bytes by
 * copies of the halves (no shuffles): the OR tree vm_any reads */
typedef uint64_t vwords2 __attribute__((vector_size(16)));
typedef uint64_t vwords4 __attribute__((vector_size(32)));
typedef uint64_t vwords8 __attribute__((vector_size(64)));

static inline vwords2 vwords_fold4(const vwords4 v)
{
    vwords2 a, b;
    memcpy(&a, &v, sizeof a);
    memcpy(&b, (const char *)&v + sizeof a, sizeof b);
    return a | b;
}

static inline vwords4 vwords_fold8(const vwords8 v)
{
    vwords4 a, b;
    memcpy(&a, &v, sizeof a);
    memcpy(&b, (const char *)&v + sizeof a, sizeof b);
    return a | b;
}

#endif /* REPRO_VEC_H */

typedef REAL VREAL __attribute__((vector_size(VLANES * sizeof(REAL))));
typedef IREAL VMASK __attribute__((vector_size(VLANES * sizeof(IREAL)))); /* -1 / 0 per lane */
typedef UREAL VBITS __attribute__((vector_size(VLANES * sizeof(UREAL))));
typedef ACC VACC __attribute__((vector_size(VLANES * sizeof(ACC)))); /* accumulator lanes */
typedef int32_t VI32 __attribute__((vector_size(VLANES * sizeof(int32_t)))); /* index lanes */

/* a brace list of VLANES copies of s (a loop would not become one
 * broadcast instruction), and 0 .. VLANES - 1 */
#undef V_REP
#undef V_IOTA
#if VLANES == 2
#define V_REP(s) {s, s}
#define V_IOTA {0, 1}
#elif VLANES == 4
#define V_REP(s) {s, s, s, s}
#define V_IOTA {0, 1, 2, 3}
#elif VLANES == 8
#define V_REP(s) {s, s, s, s, s, s, s, s}
#define V_IOTA {0, 1, 2, 3, 4, 5, 6, 7}
#elif VLANES == 16
#define V_REP(s) {s, s, s, s, s, s, s, s, s, s, s, s, s, s, s, s}
#define V_IOTA {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
#else
#error "VLANES must be 2, 4, 8 or 16"
#endif

static inline VREAL v_set1(const REAL s) { return (VREAL)V_REP(s); }
static inline VMASK vm_set1(const IREAL s) { return (VMASK)V_REP(s); }
static inline VBITS vb_set1(const UREAL s) { return (VBITS)V_REP(s); }
static inline VMASK vm_iota(void) { return (VMASK)V_IOTA; }

static inline VREAL v_load(const REAL *p)
{
    VREAL v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline void v_store(REAL *p, const VREAL v) { memcpy(p, &v, sizeof v); }

/* VLANES int32 indices as integer lanes of the mask's width */
static inline VMASK vm_load_i32(const int32_t *p)
{
    VI32 v;
    memcpy(&v, p, sizeof v);
    return __builtin_convertvector(v, VMASK);
}

/* integer lanes of a where m is set, of b elsewhere */
static inline VMASK vm_sel(const VMASK m, const VMASK a, const VMASK b)
{
    return (m & a) | (~m & b);
}

/* masked select: lane of a where m is set, of b elsewhere — a bitwise
 * blend, so whatever a masked-off lane holds (NaN included) never
 * reaches the result */
static inline VREAL v_sel(const VMASK m, const VREAL a, const VREAL b)
{
    return (VREAL)((m & (VMASK)a) | (~m & (VMASK)b));
}

/* any lane of m set */
static inline int vm_any(const VMASK m)
{
#if VLANES * REAL_BITS == 512
    const vwords2 w = vwords_fold4(vwords_fold8((vwords8)m));
#elif VLANES * REAL_BITS == 256
    const vwords2 w = vwords_fold4((vwords4)m);
#else
    const vwords2 w = (vwords2)m;
#endif
    return (w[0] | w[1]) != 0;
}

/* the set lanes of m */
static inline int vm_count(const VMASK m)
{
    IREAL r = 0;
    int l;
    for (l = 0; l < VLANES; l++) r += m[l];
    return (int)-r;
}

static inline VREAL v_sqrt(const VREAL v)
{
    VREAL r;
    int l;
    for (l = 0; l < VLANES; l++) r[l] = R_SQRT(v[l]);
    return r;
}

/* REAL lanes <-> accumulator lanes (identity for REAL = double) */
static inline VACC v_to_acc(const VREAL v) { return __builtin_convertvector(v, VACC); }
static inline VREAL v_from_acc(const VACC v) { return __builtin_convertvector(v, VREAL); }
