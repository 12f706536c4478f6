/* Arithmetic shared by every source of the runtime-built extension. */

#ifndef REPRO_COMMON_H
#define REPRO_COMMON_H

/* np.einsum("ij,ij->i") adds a 3-term contraction as (p0 + p2) + p1 (its
 * paired SIMD lanes); every r^2 and cos(theta) formed in C follows it so
 * that it equals the numpy oracle's bit for bit */
#define DOT3_EINSUM(p0, p1, p2) (((p0) + (p2)) + (p1))

#define CAT_(a, b) a##b
#define CAT(a, b) CAT_(a, b)

/* Lanes per REAL of the widest vector register the build targets (512-bit
 * with AVX-512, 256-bit with AVX2, 128-bit otherwise): the Tersoff body's
 * and the list build's.  Part of the build, never of a call: every width
 * returns the same bits (_tersoff_impl.h, _neighbor.c). */
#if defined(__AVX512F__)
#define VEC_LANES_F64 8
#define VEC_LANES_F32 16
#elif defined(__AVX2__)
#define VEC_LANES_F64 4
#define VEC_LANES_F32 8
#else
#define VEC_LANES_F64 2
#define VEC_LANES_F32 4
#endif

#endif
