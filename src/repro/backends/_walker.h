/* The neighbor-list walker every potential of the compiled backend runs
 * on (paper Sec. IV-B: one filter/compute split for every kernel).
 *
 * _walker.c owns everything about a call that is not the functional
 * form: the chunks of rows claimed by the threads of _pool.c, per row
 * the scalar *filter* — minimum-image geometry, the non-finite and
 * coincident-atom guards and the Sec. IV-D max-cutoff short list, in
 * double in every precision mode — then the per-entry `partial` forces
 * of the two-sweep force layout (Fan et al., arXiv 1610.03343), the
 * gather of sweep 2 and the chunk-ordered reduction of the virial sums
 * and counters.  A potential contributes one REAL-templated *body* (the
 * computational part: _tersoff_impl.h, _sw_impl.h) that turns the short
 * lists of one chunk of rows into each row's F_i and energy, the force
 * on each slot's entry and the chunk's sums — and a walk_kind that
 * names it.
 */

#ifndef REPRO_WALKER_H
#define REPRO_WALKER_H

#include <stdatomic.h>
#include <stdint.h>
#include <string.h>

#include "_common.h"
#include "_pool.h"

/* The I loop runs in chunks of this many rows, claimed from an atomic
 * counter by whichever thread is free; a body is handed one chunk at a
 * time.  ROWS_PER_CHUNK is part of the result — the virial sums and the
 * counters are kept per chunk and reduced in chunk order, and scheme 1b
 * packs the pairs of one chunk — which is why it is a constant and not a
 * function of the thread count. */
#define ROWS_PER_CHUNK 64

/* accumulator type: f64 in every precision mode (per-atom energy, force
 * and virial sums), the accumulate discipline of the numpy kernels */
#define ACC double

/* return codes; on error info[0], info[1] name the offending atom pair */
#define WALK_OK 0
#define WALK_NONFINITE 1  /* non-finite distance: would be silently filtered */
#define WALK_COINCIDENT 2 /* r == 0 inside the list: 1/r terms undefined     */
#define WALK_BAD_INPUT 3  /* neighbor/type index out of range, row > max_row */
#define WALK_NOMEM 4      /* no memory for the calling thread's row scratch   */

/* geometry block `geo` (8 doubles, packed by CompiledListKernel):
 * [0..2] box lengths, [3..5] half lengths (+inf on non-periodic axes),
 * [6] the short-list cutoff, [7] its square with a relative margin (the
 * sqrt-free prefilter; the exact test is on r itself) */
#define GEO_HALF 3
#define GEO_CUTMAX 6
#define GEO_CUTMAX2 7

#define LINE_DOUBLES (POOL_CACHE_LINE / (int64_t)sizeof(double))

/* The chunk sums are kept in four accumulator lanes and summed
 * (0+2)+(1+3): the order of the scheme-1a kernel the results were first
 * defined by (four pairs of a row to a vector).  Every body replays it,
 * whatever its own width, so no result bit depends on the lanes. */
#define SUM_LANES 4
typedef ACC vacc __attribute__((vector_size(SUM_LANES * sizeof(ACC))));

static inline vacc vacc_set1(const ACC s) { return (vacc){s, s, s, s}; }

static inline vacc vacc_load(const double *p)
{
    vacc v;
    memcpy(&v, p, sizeof v);
    return v;
}

/* the one horizontal sum: fixed order, the cheap one on a 2x2 register */
static inline ACC vacc_hsum(const vacc v) { return (v[0] + v[2]) + (v[1] + v[3]); }

/* What the rows of one chunk add up, zeroed when the chunk starts: two
 * virial tensors summed lane by lane and one summed as scalars (W_ab =
 * sum d_a F_b of the pair, j and k terms; the caller forms pair - j - k),
 * and pairs, triplets in cutoff, vector bodies issued and fast-forward
 * spins (the cursor steps of Sec. IV-C's K loop, 0 for scheme 1a). */
#define WALK_COUNTS 4
typedef struct {
    vacc lane[18];
    ACC k[9];
    int64_t count[WALK_COUNTS];
} walk_acc;

/* One row as the filter leaves it: the short list of atom i — its
 * entries inside the short-list cutoff, in list order, entries
 * at .. at + ns - 1 of the chunk's short lists, which lie back to back —
 * and the forces the body leaves.  The force on slot m's atom goes to
 * f[3 * q[m] + c]: the partial of the row entry the slot came from. */
typedef struct {
    int64_t i, ti, ns, at;
    const double *r, *d[3]; /* distance, minimum-image x_j - x_i per component */
    const int32_t *j, *t;   /* the neighbor and its type                      */
    const int32_t *q;       /* each slot's position in the row                */
    double *f;              /* (len, 3), zeroed: each entry's force        */
    ACC f_i[3], e_i;        /* out: the force on i and the row's energy        */
} walk_row;

/* The arguments of one force call, packed by CompiledListKernel into one
 * block of 8-byte fields in this order (compiled._N_ARGS); the last three
 * are written per call.  The list walked is the inner list (DESIGN.md §12). */
typedef struct {
    int64_t n_atoms;
    const int64_t *offsets;   /* (N+1,) inner list: CSR row offsets         */
    const int32_t *neighbors; /* (l,)  ... CSR columns                      */
    const int64_t *in_off;    /* (N+1,) its transposed index: offsets       */
    const int32_t *in_ent;    /* (l,)   ... and entries                     */
    const int32_t *types;     /* (N,)                                       */
    const double *geo;        /* (8,)  box + short-list cutoff              */
    int64_t ntypes;
    const double *cut;        /* (nt^3,) the body's cutoffs, double         */
    const void *ptab;         /* the body's parameter table, REAL           */
    int64_t max_row;          /* longest inner row (sizes the scratch)      */
    int64_t threads;          /* most threads to split the rows over        */
    double *scratch;          /* walk_scratch_doubles() doubles             */
    double *partial;          /* (l,3)  scratch: the force of each entry    */
    double *stress;           /* (3,3,3) out: pair, j and k virial sums     */
    int64_t *info;            /* (6,) out: pairs, triplets in cutoff, kernel
                                 bodies issued, active lanes in them, threads
                                 the job was opened for, fast-forward spins;
                                 on error the offending atom pair          */
    const int64_t *list_off;  /* (N+1,) the list as stored: offsets         */
    const int32_t *list_nb;   /* (L,)   ... columns, checked on every call  */
    const double *x;          /* (N,3) positions                            */
    double *forces;           /* (N,3)  out                                 */
    double *peratom;          /* (N,)   out                                 */
} walk_args;

typedef struct walk_job walk_job;

/* A potential on the walker: its body, called once per chunk with the
 * chunk's rows, the doubles of scratch the body needs per thread (not
 * zeroed), whether its short list is r < cutoff (strict) or r <= cutoff,
 * and what `repro info` says of it: the mapping scheme and the lanes of
 * its vectors. */
typedef struct {
    void (*body)(const walk_job *job, walk_row *rows, int64_t n_rows, walk_acc *acc,
                 void *scratch);
    int64_t (*scratch)(int64_t max_row, int64_t ntypes);
    int strict;
    int64_t lanes;
    const char *scheme;
} walk_kind;

/* What one chunk of rows leaves behind, on cache lines of its own. */
typedef struct {
    ACC w[27];        /* pair, j and k virial sums over the chunk's rows  */
    int64_t count[WALK_COUNTS]; /* pairs, triplets, bodies, spins      */
    int64_t fail[3];  /* code, i, j of the first error in the chunk       */
} __attribute__((aligned(POOL_CACHE_LINE))) walk_chunk;

/* One thread's range of chunks: how many of its rows and of its atoms
 * have been claimed, on a cache line of their own. */
typedef struct {
    _Atomic int64_t rows, atoms;
} __attribute__((aligned(POOL_CACHE_LINE))) walk_claim;

/* One call, as its threads see it: its arguments and what the walker
 * derives from them, then each thread's claim counters. */
struct walk_job {
    const walk_kind *kind;
    walk_args a;
    int64_t thread_doubles; /* each thread's row scratch (walk_own_scratch) */
    walk_chunk *chunk;
    int64_t n_chunks, teams; /* chunks, and the ranges they are split into  */
    _Alignas(POOL_CACHE_LINE) _Atomic int64_t rows_done; /* chunks of rows done */
    _Atomic int64_t failed;
    walk_claim claim[POOL_MAX_THREADS];
} __attribute__((aligned(POOL_CACHE_LINE)));

/* doubles of scratch one call on `n_atoms` rows needs from its caller, of
 * any kind and threads: the chunk records (a thread's row scratch is its
 * own, _walker.c) */
int64_t walk_scratch_doubles(int64_t n_atoms);

/* One force call of `kind`, see _walker.c. */
int walk_run(const walk_kind *kind, const walk_args *args);

/* the entry point of one potential and precision, forwarding to
 * walk_run, and what it runs: <name>_lanes(), <name>_scheme() */
#define WALK_ENTRY(name, kind)                                                             \
    int64_t CAT(name, _lanes)(void) { return (kind).lanes; }                               \
    const char *CAT(name, _scheme)(void) { return (kind).scheme; }                         \
    int name(const walk_args *args) { return walk_run(&(kind), args); }

#endif
