//! Counting global allocator shared by the allocation-contract test
//! binaries (`cbmf-linalg` and `cbmf-serve` `alloc_free`, `cbmf-trace`
//! `concurrency`), included into each with `#[path]`.
//!
//! Allocations are counted per thread: [`allocations_during`] arms only the
//! calling thread, and only that thread's allocations land in its count.
//! libtest runs the sibling tests of a binary on other threads at the same
//! time, and a process-wide flag would count their allocations too. Arming
//! is not inherited by spawned threads, so measured closures run their
//! parallel code under `cbmf_parallel::with_threads(1)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the heap allocations of armed threads; delegates to the system
/// allocator either way.
struct CountingAlloc;

thread_local! {
    // Const-initialised with no destructor: reading them never allocates
    // and never fails, even while the thread is being torn down.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
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
/// how many heap allocations that thread made inside.
pub fn allocations_during(f: impl FnOnce()) -> usize {
    ALLOCATIONS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCATIONS.with(Cell::get)
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
