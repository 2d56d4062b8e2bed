//! The process-wide pool of parked workers behind every fork-join.
//!
//! One pool of `available_parallelism − 1` worker threads starts on the
//! first fork-join and lives for the rest of the process. Idle workers sleep
//! on a condvar. A fork-join publishes its chunks as a [`Job`], wakes as
//! many workers as it has chunks to spare, and then claims chunks itself
//! from the same atomic cursor. Whoever claims a chunk runs it, so a worker
//! that wakes late costs nothing but the chunks the issuing thread took over.
//!
//! Only one fork-join owns the pool at a time. A fork-join issued while the
//! pool is owned (from inside a chunk, or from another thread) runs its
//! chunks inline, in order, on the issuing thread; it never waits for the
//! pool, so nesting cannot deadlock.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

use crate::{CHUNKS_SPAWNED, FORK_JOINS, INLINE_RUNS, THREAD_OVERRIDE};

type Payload = Box<dyn Any + Send>;

thread_local! {
    /// See [`inherited_word`]; 0 when unset. Const-initialised with no
    /// destructor: a global allocator reads it, so reading it must never
    /// allocate or fail, even while the thread is being torn down.
    static INHERITED: Cell<usize> = const { Cell::new(0) };
}

/// The calling thread's inherited word: a value that pool workers adopt
/// while they run chunks issued from this thread. Instrumentation hook for
/// per-scope test probes (the counting allocator of the allocation-contract
/// tests arms itself through it); the fork-join layer only carries it.
#[doc(hidden)]
pub fn inherited_word() -> usize {
    INHERITED.with(Cell::get)
}

/// Sets the calling thread's [`inherited_word`], returning the old value.
#[doc(hidden)]
pub fn replace_inherited_word(word: usize) -> usize {
    INHERITED.with(|c| c.replace(word))
}

/// One published fork-join. It lives on the issuing thread's stack; the
/// issuing thread does not return until no worker holds it.
struct Job {
    /// The chunk body with its lifetime erased.
    body: *const (dyn Fn(usize) + Sync + 'static),
    chunks: usize,
    /// Next unclaimed chunk index.
    next: AtomicUsize,
    /// The issuing thread's `with_threads` override and inherited word,
    /// installed on a worker for the chunks it runs.
    threads: usize,
    word: usize,
}

impl Job {
    /// Claims and runs chunks until none is left. Returns how many ran and
    /// the first panic among them; a panicking chunk does not stop the loop.
    fn claim(&self) -> (usize, Option<Payload>) {
        // SAFETY: `body` outlives the job (see `Job`).
        let body = unsafe { &*self.body };
        let (mut ran, mut first_panic) = (0, None);
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                return (ran, first_panic);
            }
            ran += 1;
            if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| body(i))) {
                first_panic.get_or_insert(p);
            }
        }
    }
}

struct State {
    /// The job workers may join; null when there is none.
    job: *const Job,
    /// Bumped once per published job, so a worker joins each job once.
    epoch: u64,
    /// Workers currently holding `job`.
    holders: usize,
    /// The first panic a worker caught in the current job.
    panic: Option<Payload>,
}

// SAFETY: `job` is only dereferenced under the protocol described on `Job`.
unsafe impl Send for State {}

struct Pool {
    state: Mutex<State>,
    /// Workers park here between jobs.
    wake: Condvar,
    /// The issuing thread parks here until `holders` drops to zero.
    idle: Condvar,
    /// Set while a fork-join owns the pool. Taken with `Acquire` and
    /// released with `Release`, so one owner's whole fork-join happens
    /// before the next owner's.
    busy: AtomicBool,
    workers: usize,
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, State> {
        // Chunk panics are caught before any lock is taken, so poisoning
        // cannot happen; recover the guard anyway rather than cascade.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The pool, started on first use.
fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = thread::available_parallelism().map_or(1, |n| n.get()) - 1;
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            state: Mutex::new(State {
                job: ptr::null(),
                epoch: 0,
                holders: 0,
                panic: None,
            }),
            wake: Condvar::new(),
            idle: Condvar::new(),
            busy: AtomicBool::new(false),
            workers,
        }));
        for w in 0..workers {
            thread::Builder::new()
                .name(format!("cbmf-pool-{w}"))
                .spawn(move || worker_loop(pool))
                .expect("failed to start a cbmf-parallel pool worker");
        }
        pool
    })
}

fn worker_loop(pool: &'static Pool) {
    let mut seen = 0;
    let mut st = pool.lock();
    loop {
        if st.epoch == seen {
            st = pool.wake.wait(st).unwrap_or_else(|e| e.into_inner());
            continue;
        }
        seen = st.epoch;
        if st.job.is_null() {
            continue;
        }
        // SAFETY: the job was published under the lock and stays valid
        // until this worker decrements `holders`.
        let job = unsafe { &*st.job };
        st.holders += 1;
        drop(st);

        THREAD_OVERRIDE.with(|c| c.set(job.threads));
        INHERITED.with(|c| c.set(job.word));
        let (ran, panic) = job.claim();
        INHERITED.with(|c| c.set(0));
        THREAD_OVERRIDE.with(|c| c.set(0));
        CHUNKS_SPAWNED.add(ran as u64);

        st = pool.lock();
        if let Some(p) = panic {
            st.panic.get_or_insert(p);
        }
        st.holders -= 1;
        if st.holders == 0 {
            pool.idle.notify_one();
        }
    }
}

/// Runs `body(0)`, …, `body(chunks − 1)`, each exactly once, across the
/// calling thread and the pool's workers, and returns once all have
/// finished. Every chunk runs with a root span path. A panic in any chunk
/// is re-raised on the calling thread after all chunks have finished.
pub(crate) fn fork_join(chunks: usize, body: &(dyn Fn(usize) + Sync)) {
    let pool = pool();
    if pool.workers == 0
        || pool
            .busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
    {
        INLINE_RUNS.inc();
        cbmf_trace::with_root_path(|| (0..chunks).for_each(body));
        return;
    }
    FORK_JOINS.inc();
    // SAFETY: only the lifetime is erased. The job is unpublished and every
    // holder gone before this function returns, so no worker can reach
    // `body` afterwards.
    let body: *const (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(body) };
    let job = Job {
        body,
        chunks,
        next: AtomicUsize::new(0),
        threads: THREAD_OVERRIDE.with(Cell::get),
        word: inherited_word(),
    };
    {
        let mut st = pool.lock();
        st.job = &job;
        st.epoch += 1;
    }
    for _ in 0..(chunks - 1).min(pool.workers) {
        pool.wake.notify_one();
    }
    let (_, mine) = cbmf_trace::with_root_path(|| job.claim());
    let theirs = {
        let mut st = pool.lock();
        st.job = ptr::null();
        while st.holders > 0 {
            st = pool.idle.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.panic.take()
    };
    pool.busy.store(false, Ordering::Release);
    if let Some(p) = mine.or(theirs) {
        panic::resume_unwind(p);
    }
}
