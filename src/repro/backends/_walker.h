/* The neighbor-list walker every potential of the compiled backend runs
 * on (paper Sec. IV-B: one filter/compute split for every kernel).
 *
 * _walker.c owns everything about a call that is not the functional
 * form: the chunks of rows claimed by the threads of _pool.c, per row
 * the scalar *filter* — minimum-image geometry, the non-finite and
 * coincident-atom guards and the Sec. IV-D max-cutoff short list, in
 * double in every precision mode — then the per-slot `partial`/`where`
 * bookkeeping of the two-sweep force layout (Fan et al., arXiv
 * 1610.03343), the gather of sweep 2 and the chunk-ordered reduction of
 * the virial sums and counters.  A potential contributes one REAL-
 * templated *body* (the computational part: _tersoff_impl.h, _sw_impl.h)
 * that turns one row's short list into F_i, the row's energy, the force
 * on each slot and its share of the chunk's sums — and a walk_kind that
 * names it.
 */

#ifndef REPRO_WALKER_H
#define REPRO_WALKER_H

#include <stdatomic.h>
#include <stdint.h>
#include <string.h>

#include "_common.h"
#include "_pool.h"

#define CAT_(a, b) a##b
#define CAT(a, b) CAT_(a, b)

/* lanes of the computational parts: the pairs of an atom, four to a
 * vector — a property of the algorithm (a diamond row has four), the
 * same for both precisions and every ISA */
#define VLANES 4

/* accumulator type: f64 in every precision mode (per-atom energy, force
 * and virial sums), the accumulate discipline of the numpy kernels */
#define ACC double

/* return codes; on error info[0], info[1] name the offending atom pair */
#define WALK_OK 0
#define WALK_NONFINITE 1  /* non-finite distance: would be silently filtered */
#define WALK_COINCIDENT 2 /* r == 0 inside the list: 1/r terms undefined     */
#define WALK_BAD_INPUT 3  /* neighbor/type index out of range, row > max_row */

/* geometry block `geo` (8 doubles, packed by CompiledListKernel):
 * [0..2] box lengths, [3..5] half lengths (+inf on non-periodic axes),
 * [6] the short-list cutoff, [7] its square with a relative margin (the
 * sqrt-free prefilter; the exact test is on r itself) */
#define GEO_HALF 3
#define GEO_CUTMAX 6
#define GEO_CUTMAX2 7

#define LINE_DOUBLES (POOL_CACHE_LINE / (int64_t)sizeof(double))

/* the accumulator lanes: the chunk sums below are kept in them */
typedef ACC vacc __attribute__((vector_size(VLANES * sizeof(ACC))));

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
 * and pairs, triplets in cutoff and vector bodies issued. */
typedef struct {
    vacc lane[18];
    ACC k[9];
    int64_t count[3];
} walk_acc;

/* One row as the filter leaves it: the short list of atom i — its
 * entries inside the short-list cutoff, in list order — and the forces
 * the body leaves. */
typedef struct {
    int64_t i, ti, ns;
    const double *r, *d[3]; /* distance, minimum-image x_j - x_i per component */
    const int32_t *j, *t;   /* the neighbor and its type                      */
    double *f;              /* (ns, 3), zeroed: the force on each slot's atom  */
    ACC f_i[3], e_i;        /* out: the force on i and the row's energy        */
} walk_row;

typedef struct walk_job walk_job;

/* A potential on the walker: its body, the doubles of scratch the body
 * needs per thread (zeroed when a thread starts a call) and whether its
 * short list is r < cutoff (strict) or r <= cutoff. */
typedef struct {
    void (*row)(const walk_job *job, walk_row *row, walk_acc *acc, void *scratch);
    int64_t (*scratch)(int64_t max_row, int64_t ntypes);
    int strict;
} walk_kind;

/* What one chunk of rows leaves behind, on cache lines of its own. */
typedef struct {
    ACC w[27];        /* pair, j and k virial sums over the chunk's rows  */
    int64_t count[3]; /* pairs, triplets in cutoff, vector bodies issued  */
    int64_t fail[3];  /* code, i, j of the first error in the chunk       */
} __attribute__((aligned(POOL_CACHE_LINE))) walk_chunk;

/* One call, as its threads see it.  The claim counters sit on a cache
 * line the read-only part does not share. */
struct walk_job {
    const walk_kind *kind;
    int64_t n_atoms;
    const int64_t *offsets;
    const int32_t *neighbors;
    const int32_t *types;
    const double *x;
    const double *geo;
    int64_t ntypes;
    const double *cut;      /* the potential's per-type-triple cutoffs      */
    const void *ptab;       /* its parameter table, REAL of the body's kind */
    int64_t max_row;
    const int64_t *in_off;  /* transposed index: the CSR entries that name */
    const int32_t *in_ent;  /* atom a are in_ent[in_off[a] .. in_off[a+1]) */
    double *row_scratch;    /* thread_doubles of it per thread             */
    int64_t thread_doubles;
    walk_chunk *chunk;
    int64_t n_chunks;
    double *partial;        /* (L+1,3) the force of row i on its short-list
                               slot m in slot offsets[i] + m; slot L zero  */
    int32_t *where;         /* (L,) the slot of entry e's force, or L      */
    double *forces;
    double *peratom;
    _Alignas(POOL_CACHE_LINE) _Atomic int64_t next_rows; /* sweep 1 claims */
    _Atomic int64_t rows_done;                           /* ... completed  */
    _Atomic int64_t failed;
    _Atomic int64_t next_gather;                         /* sweep 2 claims */
} __attribute__((aligned(POOL_CACHE_LINE)));

/* doubles of scratch one call of `kind` on `threads` threads needs */
int64_t walk_scratch_doubles(const walk_kind *kind, int64_t max_row, int64_t ntypes,
                             int64_t n_atoms, int64_t threads);

/* One force call of `kind`: the arguments of every <potential>_fused_*
 * entry point, see _walker.c. */
int walk_run(const walk_kind *kind, int64_t n_atoms, const int64_t *offsets,
             const int32_t *neighbors, const int64_t *in_off, const int32_t *in_ent,
             const int32_t *types, const double *x, const double *geo, int64_t ntypes,
             const double *cut, const void *ptab, int64_t max_row, int64_t threads,
             double *scratch, double *partial, int32_t *where, double *forces,
             double *peratom, double *stress, int64_t *info);

/* the entry point of one potential and precision: forwards to walk_run */
#define WALK_ENTRY(name, kind)                                                             \
    int name(const int64_t n_atoms, const int64_t *offsets, const int32_t *neighbors,      \
             const int64_t *in_off, const int32_t *in_ent, const int32_t *types,           \
             const double *x, const double *geo, const int64_t ntypes, const double *cut,  \
             const void *ptab, const int64_t max_row, const int64_t threads,               \
             double *scratch, double *partial, int32_t *where, double *forces,             \
             double *peratom, double *stress, int64_t *info)                               \
    {                                                                                      \
        return walk_run(&(kind), n_atoms, offsets, neighbors, in_off, in_ent, types, x,    \
                        geo, ntypes, cut, ptab, max_row, threads, scratch, partial, where, \
                        forces, peratom, stress, info);                                    \
    }

#endif
