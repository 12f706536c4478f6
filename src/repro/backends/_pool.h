/* The thread pool of the compiled kernel: atoms I -> threads (paper Sec.
 * IV-B, the other half of schemes 1a and 1b).  _pool.c holds the
 * mechanism; what is split, in which chunks and how the pieces are
 * reduced belongs to the caller, so that no result can depend on
 * anything in here.
 */

#ifndef REPRO_POOL_H
#define REPRO_POOL_H

#include <stdint.h>

/* most threads one job can have (the caller and 63 helpers) */
#define POOL_MAX_THREADS 64

/* what two threads must not share: claim counters, per-chunk partials
 * and per-thread scratch are padded to it */
#define POOL_CACHE_LINE 64

typedef void (*pool_fn)(void *ctx, int tid);

/* Runs fn(ctx, 0) on the calling thread and fn(ctx, tid), tid in [1,
 * returned value), on however many of `want - 1` persistent helper
 * threads get there before the caller is done — fn must share its work
 * out through atomic claims of its own, so that it is complete when the
 * caller's call returns whoever else showed up.  Returns only after
 * every helper that entered has left.  A caller that finds the pool in
 * use by another thread runs alone (returns 1). */
int pool_run(int want, pool_fn fn, void *ctx);

/* one turn of a spin-wait */
static inline void pool_pause(void)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
    __asm__ volatile("yield");
#endif
}

#endif
