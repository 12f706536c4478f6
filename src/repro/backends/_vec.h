/* The lane abstraction of the compiled kernels (paper Sec. V: one
 * kernel source over a small set of vector building blocks, lowered per
 * instruction set).  Written against the GCC/Clang `vector_size`
 * extension only — no intrinsics — so the same text becomes SSE2, AVX2,
 * AVX-512VL or NEON code depending on nothing but the -march flag, and
 * every operation below is one IEEE operation per lane whatever it is
 * lowered to: the result cannot depend on the ISA.
 *
 * Included once per REAL instantiation from _tersoff.c and _sw.c, which
 * define REAL, IREAL/UREAL (the signed/unsigned integers of REAL's
 * width), R_SQRT and TSUF after _walker.h, which defines ACC, VLANES and
 * the accumulator vector (VLANES x ACC in both instantiations).  VLANES
 * is a property of the algorithm (scheme 1a: the pairs of one atom, four
 * to a vector — a diamond row has four), not of the register width, and
 * is the same for both instantiations.  The first inclusion also defines
 * what does not depend on REAL: the instantiation-neutral names (v_sel,
 * ...) the kernels are written in.
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
#define v_set1 TFN(v_set1_)
#define v_load TFN(v_load_)
#define v_store TFN(v_store_)
#define v_sel TFN(v_sel_)
#define v_sqrt TFN(v_sqrt_)
#define v_to_acc TFN(v_to_acc_)
#define v_from_acc TFN(v_from_acc_)
#define vm_set1 TFN(vm_set1_)
#define vm_load TFN(vm_load_)
#define vm_any TFN(vm_any_)
#define vm_count TFN(vm_count_)
#define vb_set1 TFN(vb_set1_)

#endif /* REPRO_VEC_H */

typedef REAL VREAL __attribute__((vector_size(VLANES * sizeof(REAL))));
typedef IREAL VMASK __attribute__((vector_size(VLANES * sizeof(IREAL)))); /* -1 / 0 per lane */
typedef UREAL VBITS __attribute__((vector_size(VLANES * sizeof(UREAL))));

static inline VREAL v_set1(const REAL s) { return (VREAL){s, s, s, s}; }
static inline VMASK vm_set1(const IREAL s) { return (VMASK){s, s, s, s}; }
static inline VBITS vb_set1(const UREAL s) { return (VBITS){s, s, s, s}; }

static inline VREAL v_load(const REAL *p)
{
    VREAL v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline void v_store(REAL *p, const VREAL v) { memcpy(p, &v, sizeof v); }

static inline VMASK vm_load(const IREAL *p)
{
    VMASK v;
    memcpy(&v, p, sizeof v);
    return v;
}

/* masked select: lane of a where m is set, of b elsewhere — a bitwise
 * blend, so whatever a masked-off lane holds (NaN included) never
 * reaches the result */
static inline VREAL v_sel(const VMASK m, const VREAL a, const VREAL b)
{
    return (VREAL)((m & (VMASK)a) | (~m & (VMASK)b));
}

static inline int vm_any(const VMASK m) { return ((m[0] | m[1]) | (m[2] | m[3])) != 0; }
static inline int vm_count(const VMASK m) { return (int)-((m[0] + m[1]) + (m[2] + m[3])); }

static inline VREAL v_sqrt(const VREAL v)
{
    return (VREAL){R_SQRT(v[0]), R_SQRT(v[1]), R_SQRT(v[2]), R_SQRT(v[3])};
}

/* REAL lanes <-> accumulator lanes (identity for REAL = double) */
static inline vacc v_to_acc(const VREAL v) { return __builtin_convertvector(v, vacc); }
static inline VREAL v_from_acc(const vacc v) { return __builtin_convertvector(v, VREAL); }
