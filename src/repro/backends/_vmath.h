/* exp / log / pow / sin / cos on VLANES lanes, REAL-templated over _vec.h.
 *
 * The kernel calls no libm transcendental: these are branch-free
 * polynomial kernels built from IEEE +, -, *, / and integer bit
 * operations only, so each lane's result is a fixed function of that
 * lane's input — the same bits on every ISA the vector types are
 * lowered to, and nothing a neighbouring lane holds (a padded lane, a
 * NaN) can change it.  Accuracy is measured, not assumed:
 * tests/test_backends.py::TestVectorMath pins the worst error against
 * higher-precision numpy and DESIGN.md §12 states it.
 *
 * Domains (what the kernel feeds them; outside, the result is finite
 * garbage or the stated saturation, never a trap):
 *   vm_exp  any x; 0 below VM_EXP_LO (no subnormal results), +inf above
 *           VM_EXP_HI;
 *   vm_log  positive normal x;
 *   vm_pow  exp(y * log(x)) for positive normal x — b_ij's powers;
 *   vm_sin, vm_cos  |x| <= pi/2 (the cutoff window's clipped argument);
 *           Taylor polynomials, so vm_cos is accurate in absolute terms
 *           (it multiplies a force that vanishes at the window edge).
 *
 * Coefficients are per-instantiation #defines; the double set is
 * fdlibm's (e_log.c, Cody-Waite ln2 split), the float set musl's logf.
 */

#undef VM_LOG2E
#undef VM_LN2_HI
#undef VM_LN2_LO
#undef VM_ROUND_MAGIC
#undef VM_ROUND_MAGIC_BITS
#undef VM_MANT_BITS
#undef VM_MANT_MASK
#undef VM_EXP_BIAS
#undef VM_ONE_BITS
#undef VM_SQRT_HALF_BITS
#undef VM_EXP_LO
#undef VM_EXP_HI
#undef VM_EXP_POLY
#undef VM_LOG_ODD
#undef VM_LOG_EVEN
#undef VM_SIN_POLY
#undef VM_COS_POLY

#define VM_LOG2E 1.4426950408889634

#if REAL_BITS == 64

#define VM_LN2_HI 6.93147180369123816490e-01 /* 32 trailing zero bits: k * hi is exact */
#define VM_LN2_LO 1.90821492927058770002e-10
#define VM_ROUND_MAGIC 6755399441055744.0 /* 1.5 * 2^52: x + magic rounds x to an integer */
#define VM_ROUND_MAGIC_BITS 0x4338000000000000u
#define VM_MANT_BITS 52
#define VM_MANT_MASK 0x000fffffffffffffu
#define VM_EXP_BIAS 1023
#define VM_ONE_BITS 0x3ff0000000000000u
#define VM_SQRT_HALF_BITS 0x3fe6a09e667f3bcdu
#define VM_EXP_LO -708.0 /* exp(lo) is still normal */
#define VM_EXP_HI 709.0
/* 1/n!, n = 0..13: |r| <= ln2/2 leaves r^14/14! < 5e-18 */
#define VM_EXP_POLY                                                                       \
    1.0, 1.0, 1.0 / 2.0, 1.0 / 6.0, 1.0 / 24.0, 1.0 / 120.0, 1.0 / 720.0, 1.0 / 5040.0,  \
        1.0 / 40320.0, 1.0 / 362880.0, 1.0 / 3628800.0, 1.0 / 39916800.0,                 \
        1.0 / 479001600.0, 1.0 / 6227020800.0
#define VM_LOG_ODD                                                                        \
    6.666666666666735130e-01, 2.857142874366239149e-01, 1.818357216161805012e-01,         \
        1.479819860511658591e-01
#define VM_LOG_EVEN 3.999999999940941908e-01, 2.222219843214978396e-01, 1.531383769920937332e-01
/* -1/3! ... -1/21! and -1/2! ... -1/22!: (pi/2)^23/23! < 2e-18 */
#define VM_SIN_POLY                                                                       \
    -1.0 / 6.0, 1.0 / 120.0, -1.0 / 5040.0, 1.0 / 362880.0, -1.0 / 39916800.0,            \
        1.0 / 6227020800.0, -1.0 / 1307674368000.0, 1.0 / 355687428096000.0,              \
        -1.0 / 121645100408832000.0, 1.0 / 51090942171709440000.0
#define VM_COS_POLY                                                                       \
    -1.0 / 2.0, 1.0 / 24.0, -1.0 / 720.0, 1.0 / 40320.0, -1.0 / 3628800.0,                \
        1.0 / 479001600.0, -1.0 / 87178291200.0, 1.0 / 20922789888000.0,                  \
        -1.0 / 6402373705728000.0, 1.0 / 2432902008176640000.0,                           \
        -1.0 / 1124000727777607680000.0

#else /* REAL_BITS == 32 */

#define VM_LN2_HI 6.9313812256e-01 /* 7 trailing zero bits: exact for |k| < 128 */
#define VM_LN2_LO 9.0580006145e-06
#define VM_ROUND_MAGIC 12582912.0 /* 1.5 * 2^23 */
#define VM_ROUND_MAGIC_BITS 0x4b400000u
#define VM_MANT_BITS 23
#define VM_MANT_MASK 0x007fffffu
#define VM_EXP_BIAS 127
#define VM_ONE_BITS 0x3f800000u
#define VM_SQRT_HALF_BITS 0x3f3504f3u
#define VM_EXP_LO -87.0
#define VM_EXP_HI 88.0
#define VM_EXP_POLY 1.0, 1.0, 1.0 / 2.0, 1.0 / 6.0, 1.0 / 24.0, 1.0 / 120.0, 1.0 / 720.0, 1.0 / 5040.0
#define VM_LOG_ODD 0.66666662693, 0.28498786688
#define VM_LOG_EVEN 0.40000972152, 0.24279078841
#define VM_SIN_POLY                                                                       \
    -1.0 / 6.0, 1.0 / 120.0, -1.0 / 5040.0, 1.0 / 362880.0, -1.0 / 39916800.0,            \
        1.0 / 6227020800.0
#define VM_COS_POLY                                                                       \
    -1.0 / 2.0, 1.0 / 24.0, -1.0 / 720.0, 1.0 / 40320.0, -1.0 / 3628800.0,                \
        1.0 / 479001600.0, -1.0 / 87178291200.0

#endif

#define VM_COUNT(a) ((int)(sizeof(a) / sizeof((a)[0])))

/* Horner in z over c[0..n-1]: c[0] + z (c[1] + z (...)) */
static inline VREAL TFN(vm_horner_)(const VREAL z, const REAL *c, const int n)
{
    VREAL p = v_set1(c[n - 1]);
    int t;
    for (t = n - 2; t >= 0; t--) p = p * z + v_set1(c[t]);
    return p;
}

static inline VREAL TFN(vm_exp_)(const VREAL x)
{
    static const REAL c[] = {VM_EXP_POLY};
    const VREAL lo = v_set1((REAL)VM_EXP_LO), hi = v_set1((REAL)VM_EXP_HI);
    const VREAL magic = v_set1((REAL)VM_ROUND_MAGIC);
    VREAL xc = v_sel(x > lo, x, lo);
    xc = v_sel(xc < hi, xc, hi);
    /* x = k ln2 + r, |r| <= ln2/2; k sits in the low mantissa bits of t */
    const VREAL t = xc * v_set1((REAL)VM_LOG2E) + magic;
    const VREAL kd = t - magic;
    const VREAL r = (xc - kd * v_set1((REAL)VM_LN2_HI)) - kd * v_set1((REAL)VM_LN2_LO);
    /* exp(r) = 1 + (r + r^2 q(r)): the last addition rounds once and
     * everything before it is scaled down by |r| <= 0.35.  q runs as two
     * independent Horner chains in r^2 (even and odd powers): the zeta ->
     * pow -> pow -> prefactor dependency is the kernel's latency floor,
     * and two half-length chains are shorter than one */
    const VREAL r2 = r * r;
    VREAL qe = v_set1(c[VM_COUNT(c) - 2]), qo = v_set1(c[VM_COUNT(c) - 1]);
    int q;
    for (q = VM_COUNT(c) - 4; q >= 2; q -= 2) {
        qe = qe * r2 + v_set1(c[q]);
        qo = qo * r2 + v_set1(c[q + 1]);
    }
    VREAL p = v_set1((REAL)1.0) + (r + r2 * (qe + r * qo));
    /* p * 2^k: add k to the exponent field (p in [0.7, 1.42], the clamp
     * keeps the field inside the normal range) */
    p = (VREAL)((VBITS)p + ((VBITS)t << vb_set1(VM_MANT_BITS)));
    p = v_sel(x < lo, v_set1((REAL)0.0), p);
    return v_sel(x > hi, v_set1((REAL)INFINITY), p);
}

static inline VREAL TFN(vm_log_)(const VREAL x)
{
    static const REAL lg_odd[] = {VM_LOG_ODD}, lg_even[] = {VM_LOG_EVEN};
    /* x = 2^k m with m in [sqrt(2)/2, sqrt(2)) */
    VBITS ix = (VBITS)x + vb_set1(VM_ONE_BITS - VM_SQRT_HALF_BITS);
    const VMASK k = (VMASK)(ix >> vb_set1(VM_MANT_BITS)) - vm_set1(VM_EXP_BIAS);
    ix = (ix & vb_set1(VM_MANT_MASK)) + vb_set1(VM_SQRT_HALF_BITS);
    /* k as REAL without an int->float conversion instruction */
    const VREAL dk = (VREAL)((VBITS)k + vb_set1(VM_ROUND_MAGIC_BITS)) - v_set1((REAL)VM_ROUND_MAGIC);
    const VREAL f = (VREAL)ix - v_set1((REAL)1.0);
    const VREAL hfsq = v_set1((REAL)0.5) * f * f;
    const VREAL s = f / (v_set1((REAL)2.0) + f);
    const VREAL z = s * s;
    const VREAL w = z * z;
    const VREAL t1 = w * TFN(vm_horner_)(w, lg_even, VM_COUNT(lg_even));
    const VREAL t2 = z * TFN(vm_horner_)(w, lg_odd, VM_COUNT(lg_odd));
    const VREAL R = t2 + t1;
    return s * (hfsq + R) + dk * v_set1((REAL)VM_LN2_LO) - hfsq + f + dk * v_set1((REAL)VM_LN2_HI);
}

static inline VREAL TFN(vm_pow_)(const VREAL x, const VREAL y)
{
    return TFN(vm_exp_)(y * TFN(vm_log_)(x));
}

static inline VREAL TFN(vm_sin_)(const VREAL x)
{
    static const REAL c[] = {VM_SIN_POLY};
    const VREAL z = x * x;
    return x + x * z * TFN(vm_horner_)(z, c, VM_COUNT(c));
}

static inline VREAL TFN(vm_cos_)(const VREAL x)
{
    static const REAL c[] = {VM_COS_POLY};
    const VREAL z = x * x;
    return v_set1((REAL)1.0) + z * TFN(vm_horner_)(z, c, VM_COUNT(c));
}

/* Test hook (tests/test_backends.py::TestVectorMath): out[q] = f(in[q]
 * [, in2[q]]) through the lanes, VLANES at a time; the tail block is
 * padded with 1.  Defined by the one unit that sets REPRO_VMATH_HOOK. */
#ifdef REPRO_VMATH_HOOK
#ifndef REPRO_VMATH_KINDS
#define REPRO_VMATH_KINDS
enum { VM_EXP, VM_LOG, VM_POW, VM_SIN, VM_COS };
#endif

int TFN(ters_vmath_)(const int64_t kind, const int64_t n, const REAL *in, const REAL *in2,
                     REAL *out)
{
    int64_t q;
    int l;
    if (kind < VM_EXP || kind > VM_COS) return 1;
    for (q = 0; q < n; q += VLANES) {
        const int nl = n - q < VLANES ? (int)(n - q) : VLANES;
        REAL a[VLANES], b[VLANES], o[VLANES];
        for (l = 0; l < VLANES; l++) {
            a[l] = l < nl ? in[q + l] : (REAL)1.0;
            b[l] = l < nl && kind == VM_POW ? in2[q + l] : (REAL)1.0;
        }
        const VREAL va = v_load(a), vb = v_load(b);
        v_store(o, kind == VM_EXP   ? TFN(vm_exp_)(va)
                   : kind == VM_LOG ? TFN(vm_log_)(va)
                   : kind == VM_POW ? TFN(vm_pow_)(va, vb)
                   : kind == VM_SIN ? TFN(vm_sin_)(va)
                                    : TFN(vm_cos_)(va));
        for (l = 0; l < nl; l++) out[q + l] = o[l];
    }
    return 0;
}
#endif
