/* Arithmetic shared by every source of the runtime-built extension. */

#ifndef REPRO_COMMON_H
#define REPRO_COMMON_H

/* np.einsum("ij,ij->i") adds a 3-term contraction as (p0 + p2) + p1 (its
 * paired SIMD lanes); every r^2 and cos(theta) formed in C follows it so
 * that it equals the numpy oracle's bit for bit */
#define DOT3_EINSUM(p0, p1, p2) (((p0) + (p2)) + (p1))

#endif
