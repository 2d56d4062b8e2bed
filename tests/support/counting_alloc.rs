//! Counting global allocator shared by the allocation-contract test
//! binaries (`cbmf-linalg` and `cbmf-serve` `alloc_free`, `cbmf-trace`
//! `concurrency`), included into each with `#[path]`.
//!
//! Allocations are counted per armed scope: [`allocations_during`] arms
//! the calling thread, and only allocations made inside that scope land in
//! its count. libtest runs the sibling tests of a binary on other threads at
//! the same time, and a process-wide flag would count their allocations
//! too. The arm state travels in `cbmf_parallel`'s inherited word, which
//! pool workers adopt while they run the armed thread's chunks, so an
//! allocation in a worker-run chunk of a measured fork-join is counted as
//! well.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts the heap allocations of armed scopes; delegates to the system
/// allocator either way.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the inherited word is 0 or the address of the armed
        // scope's counter, which outlives every chunk that can see it.
        let counter = cbmf_parallel::inherited_word() as *const AtomicUsize;
        if !counter.is_null() {
            (*counter).fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with the calling thread's allocation counter armed and returns
/// how many heap allocations were made inside, on this thread or in pool
/// chunks that `f`'s fork-joins handed to workers.
pub fn allocations_during(f: impl FnOnce()) -> usize {
    struct Disarm(usize);
    impl Drop for Disarm {
        fn drop(&mut self) {
            cbmf_parallel::replace_inherited_word(self.0);
        }
    }
    let count = AtomicUsize::new(0);
    {
        // Disarm on unwind too: the word must not outlive `count`.
        let _disarm = Disarm(cbmf_parallel::replace_inherited_word(
            &count as *const AtomicUsize as usize,
        ));
        f();
    }
    count.load(Ordering::Relaxed)
}

/// The counter's own contract: an allocation on the armed thread is
/// counted, while allocations on a concurrently running unarmed thread are
/// not.
#[test]
fn counts_only_the_armed_thread() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    // Everything that allocates on this thread (the flags, the spawn)
    // happens before arming.
    let go = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let worker = {
        let (go, done) = (Arc::clone(&go), Arc::clone(&done));
        std::thread::spawn(move || {
            while !go.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            for i in 0..100 {
                std::hint::black_box(vec![i; 16]);
            }
            done.store(true, Ordering::Release);
        })
    };
    let counted = allocations_during(|| {
        go.store(true, Ordering::Release);
        while !done.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        std::hint::black_box(Box::new(7_u64));
    });
    worker.join().expect("worker thread");
    assert_eq!(
        counted, 1,
        "only the armed thread's one allocation may be counted"
    );
}

/// Arming reaches pool workers: an allocation in a chunk that a worker runs
/// for the armed thread is counted. The first chunk waits (bounded) for the
/// second to start elsewhere, so on a host with a pool worker some attempt
/// runs a chunk on it.
#[test]
fn counts_allocations_in_worker_run_chunks() {
    use std::cell::Cell;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    thread_local! {
        static IS_CALLER: Cell<bool> = const { Cell::new(false) };
    }
    IS_CALLER.with(|c| c.set(true));
    let has_worker = std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;
    // Start the pool's workers (which allocates) before arming.
    cbmf_parallel::with_threads(2, || cbmf_parallel::par_for_each_chunk(2, 1, |_, _| {}));
    for _ in 0..100 {
        let second_started = AtomicBool::new(false);
        let on_worker = AtomicBool::new(false);
        let counted = allocations_during(|| {
            cbmf_parallel::with_threads(2, || {
                cbmf_parallel::par_for_each_chunk(2, 1, |start, _| {
                    if start == 0 {
                        let deadline = Instant::now() + Duration::from_millis(20);
                        while !second_started.load(Ordering::Acquire) && Instant::now() < deadline {
                            std::hint::spin_loop();
                        }
                    } else {
                        second_started.store(true, Ordering::Release);
                    }
                    if !IS_CALLER.with(Cell::get) {
                        on_worker.store(true, Ordering::Relaxed);
                    }
                    std::hint::black_box(Box::new(start));
                });
            });
        });
        assert_eq!(counted, 2, "one allocation per chunk, wherever it ran");
        if on_worker.load(Ordering::Relaxed) || !has_worker {
            return;
        }
    }
    panic!("no chunk ran on a pool worker in 100 fork-joins");
}
