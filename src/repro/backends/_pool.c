/* A small persistent pthread pool for the compiled kernel (_pool.h).
 *
 * Compiled into the same shared object as _tersoff.c with -pthread.
 * Helpers are started on first need, never touch Python (the ctypes
 * call has released the GIL; they run with every signal blocked) and
 * live until the process exits.  Four rules, each from a measurement
 * (DESIGN.md §12):
 *
 * - A job is *offered*, not dealt: the caller publishes it, works on it
 *   itself and closes it when its own share of the claims is done; a
 *   helper enters only while the job is open.  A helper that is late —
 *   asleep, or its core busy — costs nothing but its absence.
 * - Helpers are *placed*: unpinned, a helper is regularly woken onto the
 *   caller's CPU and stays there, and two threads take 1.25x the time of
 *   one.  Before a job the helpers' affinity is set to the CPUs the
 *   caller may use minus the one it is on (Linux only; one syscall, and
 *   a second only when the set changed).
 * - An idle helper *spins before it sleeps*: waking a sleeper costs
 *   50-100 us, a tenth of a call.  It polls for POOL_SPIN_NS, then waits
 *   on a condition variable, where it costs an idle process nothing;
 *   helpers beyond the usable CPUs never spin.
 * - The pool belongs to *one process and one caller at a time*: a child
 *   of fork() starts with no helpers (pthread_atfork), and a thread that
 *   finds the pool taken runs its job alone.
 */

#if defined(__linux__) && !defined(_GNU_SOURCE)
#define _GNU_SOURCE /* sched_getcpu, CPU_*, pthread_setaffinity_np */
#endif

#include <pthread.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <time.h>
#include <unistd.h>
#if defined(__linux__)
#include <sched.h>
#endif

#include "_pool.h"

/* poll this long for the next job before sleeping: through the ~0.5 ms
 * of Python between the force calls of an MD step, with margin */
#define POOL_SPIN_NS 2000000

/* the job word: id << 24 | threads << 16 | helpers inside << 1 | closed.
 * Everything a helper needs to decide whether the job is for it sits in
 * the one word it enters by compare-and-swap, so it can never enter one
 * job on what it read of another. */
#define JOB_CLOSED ((uint64_t)1)
#define JOB_ONE ((uint64_t)2)
#define JOB_INSIDE(s) (((s) >> 1) & 0x7fff)
#define JOB_THREADS(s) ((int)(((s) >> 16) & 0xff))
#define JOB_ID(s) ((s) >> 24)

static struct {
    pthread_mutex_t lock; /* held by the caller whose job is running */
    int n_helpers;        /* started in this process */
    int atfork_set;
    pthread_t thread[POOL_MAX_THREADS - 1];
    uint64_t last_id;
    pool_fn fn; /* written before the job word opens, stable until it is */
    void *ctx;  /* closed and empty                                      */
    _Atomic uint64_t job;
    _Atomic int spinners; /* helpers 0 .. spinners-1 have a CPU to poll on */
    pthread_mutex_t sleep_lock;
    pthread_cond_t wake;
    _Atomic int sleepers;
#if defined(__linux__)
    cpu_set_t placed; /* the affinity the first n_placed helpers have */
    int n_placed;
#endif
} pool = {.lock = PTHREAD_MUTEX_INITIALIZER,
          .job = JOB_CLOSED,
          .sleep_lock = PTHREAD_MUTEX_INITIALIZER,
          .wake = PTHREAD_COND_INITIALIZER};

static int64_t now_ns(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (int64_t)t.tv_sec * 1000000000 + t.tv_nsec;
}

/* job `s` is open, new to helper h and wide enough to include it */
static inline int job_wants(const uint64_t s, const int h, const uint64_t seen)
{
    return !(s & JOB_CLOSED) && JOB_ID(s) != seen && h + 1 < JOB_THREADS(s);
}

static inline int job_enter(uint64_t s, const int h, const uint64_t seen)
{
    return job_wants(s, h, seen) &&
           atomic_compare_exchange_strong_explicit(&pool.job, &s, s + JOB_ONE,
                                                   memory_order_acq_rel, memory_order_relaxed);
}

static void *pool_helper(void *arg)
{
    const int h = (int)(intptr_t)arg; /* runs as tid h + 1 */
    uint64_t seen = 0, s;
    int turn;
    for (;;) {
        if (h < atomic_load_explicit(&pool.spinners, memory_order_relaxed)) {
            const int64_t until = now_ns() + POOL_SPIN_NS;
            for (turn = 1;; turn++) {
                s = atomic_load_explicit(&pool.job, memory_order_acquire);
                if (job_enter(s, h, seen)) goto entered;
                pool_pause();
                if (turn % 64 == 0 && now_ns() >= until) break;
            }
        }
        pthread_mutex_lock(&pool.sleep_lock);
        atomic_fetch_add(&pool.sleepers, 1);
        while (!job_wants(s = atomic_load(&pool.job), h, seen))
            pthread_cond_wait(&pool.wake, &pool.sleep_lock);
        atomic_fetch_sub(&pool.sleepers, 1);
        pthread_mutex_unlock(&pool.sleep_lock);
        if (!job_enter(s, h, seen)) continue; /* closed meanwhile */
    entered:
        seen = JOB_ID(s);
        pool.fn(pool.ctx, h + 1);
        atomic_fetch_sub_explicit(&pool.job, JOB_ONE, memory_order_release);
    }
    return NULL;
}

/* the child of a fork() has the forking thread only: no helpers, no job,
 * and locks in whatever state some other thread had them */
static void pool_in_child(void)
{
    pthread_mutex_init(&pool.lock, NULL);
    pthread_mutex_init(&pool.sleep_lock, NULL);
    pthread_cond_init(&pool.wake, NULL);
    pool.n_helpers = 0;
    atomic_store(&pool.job, JOB_CLOSED);
    atomic_store(&pool.sleepers, 0);
#if defined(__linux__)
    pool.n_placed = 0;
#endif
}

/* start helpers up to `helpers`; fewer when the system refuses a thread */
static void pool_grow(const int helpers)
{
    sigset_t all, old;
    if (pool.n_helpers >= helpers) return;
    if (!pool.atfork_set) {
        pthread_atfork(NULL, NULL, pool_in_child);
        pool.atfork_set = 1;
    }
    /* helpers inherit a full signal mask: handlers stay on Python's threads */
    sigfillset(&all);
    pthread_sigmask(SIG_BLOCK, &all, &old);
    while (pool.n_helpers < helpers) {
        if (pthread_create(&pool.thread[pool.n_helpers], NULL, pool_helper,
                           (void *)(intptr_t)pool.n_helpers))
            break;
        pool.n_helpers++;
    }
    pthread_sigmask(SIG_SETMASK, &old, NULL);
}

/* keep the helpers off the caller's CPU; count the CPUs they may poll on */
static void pool_place(void)
{
#if defined(__linux__)
    cpu_set_t target;
    int h, cpus;
    if (sched_getaffinity(0, sizeof target, &target)) return;
    cpus = CPU_COUNT(&target);
    atomic_store_explicit(&pool.spinners, cpus - 1, memory_order_relaxed);
    if (cpus > 1) CPU_CLR(sched_getcpu(), &target);
    if (pool.n_placed == pool.n_helpers && CPU_EQUAL(&target, &pool.placed)) return;
    for (h = 0; h < pool.n_helpers; h++)
        pthread_setaffinity_np(pool.thread[h], sizeof target, &target);
    pool.placed = target;
    pool.n_placed = pool.n_helpers;
#else
    atomic_store_explicit(&pool.spinners, (int)sysconf(_SC_NPROCESSORS_ONLN) - 1,
                          memory_order_relaxed);
#endif
}

int pool_run(int want, const pool_fn fn, void *ctx)
{
    int threads = 1;
    if (want > POOL_MAX_THREADS) want = POOL_MAX_THREADS;
    if (want < 2 || pthread_mutex_trylock(&pool.lock)) {
        fn(ctx, 0);
        return 1;
    }
    pool_grow(want - 1);
    if (pool.n_helpers) {
        threads += want - 1 < pool.n_helpers ? want - 1 : pool.n_helpers;
        pool_place();
        pool.fn = fn;
        pool.ctx = ctx;
        /* sequentially consistent against the sleepers count: a helper
         * either sees this job before it waits or is counted here */
        atomic_store(&pool.job, ++pool.last_id << 24 | (uint64_t)threads << 16);
        if (atomic_load(&pool.sleepers)) {
            pthread_mutex_lock(&pool.sleep_lock);
            pthread_cond_broadcast(&pool.wake);
            pthread_mutex_unlock(&pool.sleep_lock);
        }
    }
    fn(ctx, 0);
    if (threads > 1) {
        atomic_fetch_or_explicit(&pool.job, JOB_CLOSED, memory_order_acq_rel);
        while (JOB_INSIDE(atomic_load_explicit(&pool.job, memory_order_acquire))) pool_pause();
    }
    pthread_mutex_unlock(&pool.lock);
    return threads;
}
