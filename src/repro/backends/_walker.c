/* The list walker of the compiled backend (see _walker.h): chunks of rows
 * on the threads of _pool.c, the scalar filter per row, the body of the
 * potential that runs, then the gather of sweep 2 and the reduction of
 * the chunk records in chunk order.
 *
 * Forces leave in two sweeps (Fan et al., arXiv 1610.03343), so that no
 * two rows ever write one address and the I loop can be split over
 * threads without atomics.  Sweep 1, per row: F_i and the per-atom
 * energy go to atom i, written by nobody else; every neighbor a body
 * puts a force on is a slot of the row's short list, the slots are
 * `partial` entries of the row's own CSR range, and `where` says for
 * every entry of the row which slot holds its force, if any.  Sweep 2,
 * per atom a, after all of sweep 1: F_a += the slots of the entries that
 * name a, in ascending entry order, found through the list's transposed
 * index (_neighbor.c).  Rows are claimed in chunks of ROWS_PER_CHUNK,
 * atoms in chunks of GATHER_ATOMS; virial sums, counters and the first
 * error are kept per chunk of rows and reduced in chunk order.  Chunk
 * size is a constant and the gather order is the list's, so every output
 * is bitwise the same for any number of threads and any assignment of
 * chunks to them; one thread runs the same two sweeps alone.
 */

#include <math.h>

#include "_walker.h"

/* The I loop runs in chunks of this many rows, claimed from an atomic
 * counter by whichever thread is free, and the force gather in chunks of
 * GATHER_ATOMS atoms.  ROWS_PER_CHUNK is part of the result — the virial
 * sums and the counters are kept per chunk and reduced in chunk order —
 * which is why it is a constant and not a function of the thread count. */
#define ROWS_PER_CHUNK 64
#define GATHER_ATOMS 256

/* The gather reads one `where` and one `partial` line per entry, from
 * wherever the entry's row is: past a few thousand atoms sweep 1 has
 * pushed them out of L2 and every read is a miss.  Asking for the
 * `where` line this many entries ahead, and for the `partial` line a
 * quarter of that ahead (its address needs the `where` value), took a
 * one-thread 16 384-atom call from 1.07x the time of a direct scatter
 * into forces to 1.04x (three interleaved runs: 1.02-1.05); it costs
 * nothing at 4096 atoms, where both still sit in L2. */
#define GATHER_AHEAD 512

/* Scratch doubles per entry of the longest row (padded to whole
 * vectors) the walker keeps: the short list's r and d, and its j, type
 * and row-position int32 columns. */
#define SHORT_DOUBLES (4 + 2)

static int64_t walk_padded(const int64_t max_row) { return (max_row + VLANES - 1) / VLANES * VLANES; }

static int64_t walk_thread_doubles(const walk_kind *kind, const int64_t max_row,
                                   const int64_t ntypes)
{
    const int64_t need = walk_padded(max_row) * SHORT_DOUBLES + kind->scratch(max_row, ntypes);
    return (need + LINE_DOUBLES - 1) / LINE_DOUBLES * LINE_DOUBLES;
}

static int64_t walk_chunks(const int64_t n_atoms, const int64_t per)
{
    return (n_atoms + per - 1) / per;
}

/* slack to align the base, the chunk records, the per-thread row scratch */
int64_t walk_scratch_doubles(const walk_kind *kind, const int64_t max_row, const int64_t ntypes,
                             const int64_t n_atoms, const int64_t threads)
{
    return LINE_DOUBLES +
           walk_chunks(n_atoms, ROWS_PER_CHUNK) * (int64_t)(sizeof(walk_chunk) / sizeof(double)) +
           threads * walk_thread_doubles(kind, max_row, ntypes);
}

static int64_t walk_fail(int64_t *restrict fail, int64_t i, int64_t j, int code)
{
    fail[0] = code;
    fail[1] = i;
    fail[2] = j;
    return -code;
}

/* Scalar filter for one atom: walks `row` (the atom's CSR neighbors),
 * writes minimum-image d = x_j - x_i (one column per component), r, j,
 * type(j) and the position in the row of the entries inside the
 * short-list cutoff densely into the short list, returns its length (or
 * -code, with `fail` filled in).  Same arithmetic as pair_geometry():
 * the image shift is skipped where |d| <= L/2, where round(d/L) is
 * exactly 0. */
static int64_t walk_filter_row(const double *restrict x, const int32_t *restrict types,
                               const int64_t n_atoms, const int64_t i,
                               const int32_t *restrict row, const int64_t len,
                               const double *restrict geo, const int strict,
                               double *const *restrict sd, double *restrict sr,
                               int32_t *restrict sj, int32_t *restrict st,
                               int32_t *restrict sq, int64_t *restrict fail)
{
    const double *xi = x + 3 * i;
    int64_t m = 0, q;
    int c;
    for (q = 0; q < len; q++) {
        const int64_t j = row[q];
        if (j < 0 || j >= n_atoms) return walk_fail(fail, i, j, WALK_BAD_INPUT);
        for (c = 0; c < 3; c++) {
            double *d = sd[c] + m;
            *d = x[3 * j + c] - xi[c];
            if (fabs(*d) > geo[GEO_HALF + c]) *d -= geo[c] * rint(*d / geo[c]);
        }
        sr[m] = DOT3_EINSUM(sd[0][m] * sd[0][m], sd[1][m] * sd[1][m], sd[2][m] * sd[2][m]);
        if (!(sr[m] <= geo[GEO_CUTMAX2])) {
            if (!isfinite(sr[m])) return walk_fail(fail, i, j, WALK_NONFINITE);
            continue;
        }
        sr[m] = sqrt(sr[m]);
        if (sr[m] == 0) return walk_fail(fail, i, j, WALK_COINCIDENT);
        if (strict ? sr[m] < geo[GEO_CUTMAX] : sr[m] <= geo[GEO_CUTMAX]) {
            sj[m] = (int32_t)j;
            st[m] = types[j];
            sq[m] = (int32_t)q;
            m++;
        }
    }
    return m;
}

static void walk_chunk_done(walk_job *job, walk_chunk *restrict out, const walk_acc *acc)
{
    int a;
    if (out->fail[0] != WALK_OK) atomic_store_explicit(&job->failed, 1, memory_order_relaxed);
    for (a = 0; a < 18; a++) out->w[a] = vacc_hsum(acc->lane[a]);
    for (a = 0; a < 9; a++) out->w[18 + a] = acc->k[a];
    for (a = 0; a < 3; a++) out->count[a] = acc->count[a];
    atomic_fetch_add_explicit(&job->rows_done, 1, memory_order_release);
}

/* Sweep 1 for the chunks of rows this thread claims, then — once every
 * chunk is done — sweep 2 for the chunks of atoms it claims.  Nothing a
 * thread writes is written by another: forces[i] and peratom[i] belong
 * to the owner of row i, partial[e] to the owner of e's row, a chunk
 * record to the chunk's owner, and sweep 2 writes forces[a] for the
 * atoms it claimed. */
static void walk_work(void *ctx, const int tid)
{
    walk_job *job = ctx;
    const walk_kind *kind = job->kind;
    const int64_t n_atoms = job->n_atoms, max_row = job->max_row;
    const int64_t *restrict offsets = job->offsets;
    const int32_t *restrict neighbors = job->neighbors, *restrict types = job->types;
    double *restrict partial = job->partial, *restrict forces = job->forces;
    int32_t *restrict where = job->where;
    const int32_t nowhere = (int32_t)offsets[n_atoms]; /* the slot that stays zero */

    /* ---- this thread's scratch: the short list, then the body's ---- */
    const int64_t mr = walk_padded(max_row);
    double *restrict sr = job->row_scratch + tid * job->thread_doubles;
    double *const sd[3] = {sr + mr, sr + 2 * mr, sr + 3 * mr};
    int32_t *restrict sj = (int32_t *)(sr + 4 * mr);
    int32_t *restrict st = sj + mr;
    int32_t *restrict sq = st + mr; /* row position of each short-list slot */
    double *body = sr + SHORT_DOUBLES * mr;
    walk_acc acc;
    walk_row row;
    int64_t chunk, i, q, m;
    int c;

    memset(body, 0, (size_t)(job->thread_doubles - SHORT_DOUBLES * mr) * sizeof(double));
    row.r = sr;
    for (c = 0; c < 3; c++) row.d[c] = sd[c];
    row.j = sj;
    row.t = st;

    while ((chunk = atomic_fetch_add_explicit(&job->next_rows, 1, memory_order_relaxed)) <
           job->n_chunks) {
        walk_chunk *restrict out = job->chunk + chunk;
        const int64_t i_end =
            (chunk + 1) * ROWS_PER_CHUNK < n_atoms ? (chunk + 1) * ROWS_PER_CHUNK : n_atoms;
        memset(&acc, 0, sizeof acc);
        out->fail[0] = WALK_OK;

        for (i = chunk * ROWS_PER_CHUNK; i < i_end; i++) {
            const int64_t len = offsets[i + 1] - offsets[i];
            if (len < 0 || len > max_row) {
                walk_fail(out->fail, i, i, WALK_BAD_INPUT);
                break;
            }
            const int64_t ns = walk_filter_row(job->x, types, n_atoms, i, neighbors + offsets[i],
                                               len, job->geo, kind->strict, sd, sr, sj, st, sq,
                                               out->fail);
            if (ns < 0) break;
            /* the force on short-list slot m accumulates in partial slot m
             * of the row's own entries; `where` tells sweep 2 which slot
             * an entry's force is in, or that there is none */
            int32_t *restrict w_row = where + offsets[i];
            row.f = partial + 3 * offsets[i];
            memset(row.f, 0, (size_t)(3 * ns) * sizeof(double));
            for (q = 0; q < len; q++) w_row[q] = nowhere;
            for (m = 0; m < ns; m++) w_row[sq[m]] = (int32_t)(offsets[i] + m);

            row.i = i;
            row.ti = types[i];
            row.ns = ns;
            kind->row(job, &row, &acc, body);

            /* ---- the row leaves: F_i and e_i to their atom; the force on
             * its neighbors is where sweep 2 will look for it ---- */
            for (c = 0; c < 3; c++) forces[3 * i + c] = row.f_i[c];
            job->peratom[i] = row.e_i;
        }
        walk_chunk_done(job, out, &acc);
    }

    /* ---- the barrier: every partial is written before one is read ---- */
    while (atomic_load_explicit(&job->rows_done, memory_order_acquire) < job->n_chunks)
        pool_pause();
    if (atomic_load_explicit(&job->failed, memory_order_relaxed)) return;

    /* ---- sweep 2: F_a += the partials of the entries that name a, in
     * ascending entry order — the list's order, whoever wrote them ---- */
    const int64_t *restrict in_off = job->in_off;
    const int32_t *restrict in_ent = job->in_ent;
    const int64_t n_gathers = walk_chunks(n_atoms, GATHER_ATOMS);
    const int64_t n_in = in_off[n_atoms];
    while ((chunk = atomic_fetch_add_explicit(&job->next_gather, 1, memory_order_relaxed)) <
           n_gathers) {
        const int64_t a_end =
            (chunk + 1) * GATHER_ATOMS < n_atoms ? (chunk + 1) * GATHER_ATOMS : n_atoms;
        for (i = chunk * GATHER_ATOMS; i < a_end; i++) {
            ACC *restrict f_a = forces + 3 * i;
            ACC f0 = f_a[0], f1 = f_a[1], f2 = f_a[2];
            for (q = in_off[i]; q < in_off[i + 1]; q++) {
                if (q + GATHER_AHEAD < n_in) {
                    __builtin_prefetch(where + in_ent[q + GATHER_AHEAD]);
                    __builtin_prefetch(partial + 3 * (int64_t)where[in_ent[q + GATHER_AHEAD / 4]]);
                }
                const double *restrict p = partial + 3 * (int64_t)where[in_ent[q]];
                f0 += p[0];
                f1 += p[1];
                f2 += p[2];
            }
            f_a[0] = f0;
            f_a[1] = f1;
            f_a[2] = f2;
        }
    }
}

int walk_run(const walk_kind *kind,
             const int64_t n_atoms,
             const int64_t *restrict offsets, /* (N+1,) CSR row offsets, as stored   */
             const int32_t *restrict neighbors, /* (L,)  CSR columns, as stored      */
             const int64_t *restrict in_off,  /* (N+1,) transposed index: offsets    */
             const int32_t *restrict in_ent,  /* (L,)   ... and CSR entries          */
             const int32_t *restrict types,   /* (N,)                                */
             const double *restrict x,        /* (N,3) positions                     */
             const double *restrict geo,      /* (8,)  box + short-list cutoff       */
             const int64_t ntypes,
             const double *restrict cut,      /* (nt^3,) the body's cutoffs, double  */
             const void *restrict ptab,       /* the body's parameter table, REAL    */
             const int64_t max_row,           /* longest CSR row (sizes the scratch) */
             const int64_t threads,           /* most threads to split the rows over */
             double *restrict scratch,        /* walk_scratch_doubles() doubles      */
             double *restrict partial,        /* (L+1,3) scratch: per-slot forces    */
             int32_t *restrict where,         /* (L,)   scratch: slot of each entry  */
             double *restrict forces,         /* (N,3)  out                          */
             double *restrict peratom,        /* (N,)   out                          */
             double *restrict stress,         /* (3,3,3) out: pair, j and k virial sums */
             int64_t *restrict info)          /* (5,) out: pairs, triplets in cutoff,
                                                 kernel bodies issued, active lanes in
                                                 them, threads the job was opened for;
                                                 on error the offending atom pair */
{
    walk_job job;
    int64_t i, n_pairs = 0, n_triplets = 0, n_bodies = 0;
    int a;

    for (i = 0; i < n_atoms; i++)
        if (types[i] < 0 || types[i] >= ntypes) {
            info[0] = info[1] = i;
            return WALK_BAD_INPUT;
        }

    job.kind = kind;
    job.n_atoms = n_atoms;
    job.offsets = offsets;
    job.neighbors = neighbors;
    job.types = types;
    job.x = x;
    job.geo = geo;
    job.ntypes = ntypes;
    job.cut = cut;
    job.ptab = ptab;
    job.max_row = max_row;
    job.in_off = in_off;
    job.in_ent = in_ent;
    job.n_chunks = walk_chunks(n_atoms, ROWS_PER_CHUNK);
    job.chunk = (walk_chunk *)(((uintptr_t)scratch + POOL_CACHE_LINE - 1) &
                               ~(uintptr_t)(POOL_CACHE_LINE - 1));
    job.row_scratch = (double *)(job.chunk + job.n_chunks);
    job.thread_doubles = walk_thread_doubles(kind, max_row, ntypes);
    job.partial = partial;
    job.where = where;
    memset(partial + 3 * offsets[n_atoms], 0, 3 * sizeof(double));
    job.forces = forces;
    job.peratom = peratom;
    atomic_init(&job.next_rows, 0);
    atomic_init(&job.rows_done, 0);
    atomic_init(&job.failed, 0);
    atomic_init(&job.next_gather, 0);

    /* a thread per chunk at most; the caller alone runs the same two sweeps */
    info[4] = pool_run((int)(threads < job.n_chunks ? threads : job.n_chunks), walk_work, &job);

    /* ---- reduce the chunk records in chunk order; the first error of the
     * lowest chunk is the first error of the I loop ---- */
    memset(stress, 0, 27 * sizeof(double));
    for (i = 0; i < job.n_chunks; i++) {
        const walk_chunk *restrict rec = job.chunk + i;
        if (rec->fail[0] != WALK_OK) {
            info[0] = rec->fail[1];
            info[1] = rec->fail[2];
            return (int)rec->fail[0];
        }
        for (a = 0; a < 27; a++) stress[a] += rec->w[a];
        n_pairs += rec->count[0];
        n_triplets += rec->count[1];
        n_bodies += rec->count[2];
    }
    info[0] = n_pairs;
    info[1] = n_triplets;
    info[2] = n_bodies;
    info[3] = n_pairs + n_triplets; /* every active lane is a pair or a triplet */
    return WALK_OK;
}
