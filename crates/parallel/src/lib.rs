//! Deterministic fork-join parallelism for the C-BMF workspace.
//!
//! The registry this environment builds against has no `rayon`, so this crate
//! supplies the small parallel vocabulary the fitting stack needs, built on
//! one process-wide pool of parked worker threads:
//!
//! - [`max_threads`] — the chunk width, from `RAYON_NUM_THREADS` (the env var
//!   rayon users already know) or the machine's available parallelism;
//! - [`with_threads`] — a scoped in-process override so benches and the
//!   determinism test can compare thread counts without re-exec'ing;
//! - [`par_map_indexed`] / [`par_for_each_chunk`] / [`par_rows_mut`] /
//!   [`par_row_blocks_mut`] — statically partitioned fork-joins whose
//!   outputs land in index order;
//! - [`workspace`] — a global pool of grow-only scratch buffers so kernel
//!   hot loops (packing panels, per-tile scratch) allocate nothing in steady
//!   state;
//! - [`SwapSlot`] — a lock-free `Option<Arc<T>>` publication slot with
//!   atomic swap, the primitive behind hot model swaps in the serving
//!   registry.
//!
//! # Determinism policy
//!
//! Work is split into `max_threads()` *contiguous index chunks* (fewer when
//! the input is small), and results are stitched back in index order. Each
//! index is computed independently, so a parallel map is **bitwise
//! identical** to its sequential counterpart at any thread count. Only
//! kernels that change the *order of floating-point reduction* (none in
//! this crate) can deviate; callers that reduce must either reduce
//! sequentially over the map output (exact) or document their tolerance.
//!
//! # Execution
//!
//! The chunks of a fork-join are claimed by the calling thread and by the
//! `available_parallelism − 1` pool workers, which start on the first
//! fork-join and sleep on a condvar while idle. The chunk width never
//! changes the number of OS threads: `with_threads(8)` on a 2-core host
//! makes 8 chunks for 2 threads. A fork-join issued from inside a chunk, or
//! while another thread's fork-join owns the pool, runs its chunks inline
//! in order. Chunks must therefore never wait for one another. A panic in
//! any chunk is re-raised on the caller once every chunk has finished, and
//! the pool stays usable. Every chunk runs with a root trace-span path
//! ([`cbmf_trace::with_root_path`]), whichever thread runs it.

use std::cell::Cell;
use std::sync::OnceLock;
use std::thread;

use cbmf_trace::Counter;

mod pool;
pub mod swap;
pub mod workspace;

#[doc(hidden)]
pub use pool::{inherited_word, replace_inherited_word};
pub use swap::SwapSlot;

/// Fork-joins whose chunks were offered to the pool's workers.
static FORK_JOINS: Counter = Counter::new("parallel.fork_joins");
/// Chunks that pool workers (not the calling thread) ran.
static CHUNKS_SPAWNED: Counter = Counter::new("parallel.chunks_spawned");
/// Calls that ran inline: a single thread, an input below grain, or a
/// fork-join issued while the pool was owned (nested or concurrent).
static INLINE_RUNS: Counter = Counter::new("parallel.inline_runs");

thread_local! {
    /// In-process override installed by [`with_threads`]; 0 = no override.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Process-wide default width, resolved once. `available_parallelism()` reads
/// cgroup files on Linux (tens of µs per call), and [`max_threads`] sits on
/// the hot path of every kernel — re-resolving per call costs more than many
/// of the small products it gates.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

/// Returns the parallel width: how many chunks a fork-join splits its work
/// into (fewer for small inputs). It sets the partition only; the chunks run
/// on the calling thread and the pool's fixed set of workers.
///
/// Resolution order: [`with_threads`] override, then `RAYON_NUM_THREADS`
/// (values `< 1` are treated as unset), then
/// `std::thread::available_parallelism()`, then 1. The environment variable
/// and machine width are read once per process (as rayon does); only the
/// scoped override is consulted per call.
pub fn max_threads() -> usize {
    let over = THREAD_OVERRIDE.with(|c| c.get());
    if over > 0 {
        return over;
    }
    *DEFAULT_THREADS.get_or_init(|| {
        if let Ok(s) = std::env::var("RAYON_NUM_THREADS") {
            if let Ok(n) = s.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Runs `f` with [`max_threads`] forced to `n` on the current thread.
///
/// Parallel helpers called transitively from `f` observe the override, and
/// so do the chunks pool workers run for them; other threads are
/// unaffected. Benches use this to time serial vs parallel kernels in one
/// process, and the determinism test uses it to prove results match across
/// thread counts.
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    assert!(n >= 1, "with_threads requires n >= 1");
    let prev = THREAD_OVERRIDE.with(|c| c.replace(n));
    // Restore on unwind too, so a panicking closure cannot leak the override
    // into later tests on the same thread.
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(prev);
    f()
}

/// Bounds `[start, end)` of chunk `c` when `n` items are split into
/// `chunks` contiguous chunks (`1 <= chunks <= n`), the first `n % chunks`
/// one longer. Every helper below partitions this way.
fn chunk_bounds(n: usize, chunks: usize, c: usize) -> (usize, usize) {
    let (base, extra) = (n / chunks, n % chunks);
    let start = c * base + c.min(extra);
    (start, start + base + usize::from(c < extra))
}

/// A raw pointer the chunks of one fork-join share; each chunk touches only
/// its own disjoint range of the pointee.
struct SharedPtr<T>(*mut T);
// SAFETY: chunks write disjoint ranges, and only `T: Send` values cross
// threads through it.
unsafe impl<T: Send> Sync for SharedPtr<T> {}

impl<T> SharedPtr<T> {
    /// The pointee's element `i`. (A method, so closures capture the whole
    /// `Sync` wrapper rather than its raw-pointer field.)
    ///
    /// # Safety
    ///
    /// `i` must be in bounds of the allocation.
    unsafe fn at(&self, i: usize) -> *mut T {
        self.0.add(i)
    }
}

/// Maps `f` over `0..n`, in parallel when `n` crosses `grain` and more than
/// one thread is available; output order is always `f(0), f(1), …, f(n-1)`.
///
/// `grain` is the minimum number of indices per chunk worth a hand-off;
/// below `2 * grain` the map runs inline on the caller's thread.
pub fn par_map_indexed<T, F>(n: usize, grain: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = max_threads();
    if threads <= 1 || n < 2 * grain.max(1) {
        INLINE_RUNS.inc();
        return (0..n).map(f).collect();
    }
    let chunks = threads.min(n / grain.max(1));
    let mut out = Vec::<T>::with_capacity(n);
    let dst = SharedPtr(out.as_mut_ptr());
    pool::fork_join(chunks, &|c| {
        let (start, end) = chunk_bounds(n, chunks, c);
        for i in start..end {
            // SAFETY: `i < n <= capacity`, and each index is written once.
            unsafe { dst.at(i).write(f(i)) };
        }
    });
    // SAFETY: `fork_join` returned normally, so every chunk ran to the end
    // and all `n` slots are initialised. (On a panic it unwinds instead and
    // the written elements are leaked, never read.)
    unsafe { out.set_len(n) };
    out
}

/// Runs `f(start, end)` over disjoint contiguous chunks of `0..n`, in
/// parallel when worthwhile. `f` must only touch state owned by its chunk
/// (callers typically hand out disjoint `&mut` slices via raw parts or
/// `chunks_mut` outside this helper).
pub fn par_for_each_chunk<F>(n: usize, grain: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    let threads = max_threads();
    if threads <= 1 || n < 2 * grain.max(1) {
        INLINE_RUNS.inc();
        if n > 0 {
            f(0, n);
        }
        return;
    }
    let chunks = threads.min(n / grain.max(1));
    pool::fork_join(chunks, &|c| {
        let (start, end) = chunk_bounds(n, chunks, c);
        f(start, end);
    });
}

/// Maps `f` over disjoint mutable row-chunks of `data`, which holds `n`
/// logical rows of `stride` elements each. Chunk boundaries fall on whole
/// rows; `f(row_start, rows)` receives the slice for rows
/// `[row_start, row_start + rows.len() / stride)`.
pub fn par_rows_mut<F>(data: &mut [f64], stride: usize, grain_rows: usize, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    assert!(stride > 0, "stride must be positive");
    assert_eq!(
        data.len() % stride,
        0,
        "data length not a multiple of stride"
    );
    let n = data.len() / stride;
    let threads = max_threads();
    if threads <= 1 || n < 2 * grain_rows.max(1) {
        INLINE_RUNS.inc();
        if n > 0 {
            f(0, data);
        }
        return;
    }
    let chunks = threads.min(n / grain_rows.max(1));
    let base = SharedPtr(data.as_mut_ptr());
    pool::fork_join(chunks, &|c| {
        let (start, end) = chunk_bounds(n, chunks, c);
        // SAFETY: chunks cover disjoint row ranges of `data`, which stays
        // mutably borrowed until every chunk has finished.
        let rows = unsafe {
            std::slice::from_raw_parts_mut(base.at(start * stride), (end - start) * stride)
        };
        f(start, rows);
    });
}

/// Like [`par_rows_mut`], but chunk boundaries fall on multiples of
/// `block_rows` (the last chunk absorbs the ragged tail). The blocked
/// kernels fan `MC`-row macro-panels out with this: every worker owns whole
/// panels, so per-panel packing work is never split across threads.
///
/// `f(row_start, rows)` receives the slice for rows starting at
/// `row_start`, which is always a multiple of `block_rows`.
pub fn par_row_blocks_mut<F>(
    data: &mut [f64],
    stride: usize,
    block_rows: usize,
    grain_rows: usize,
    f: F,
) where
    F: Fn(usize, &mut [f64]) + Sync,
{
    assert!(stride > 0, "stride must be positive");
    assert!(block_rows > 0, "block_rows must be positive");
    assert_eq!(
        data.len() % stride,
        0,
        "data length not a multiple of stride"
    );
    let n = data.len() / stride;
    let blocks = n.div_ceil(block_rows);
    let threads = max_threads();
    let chunks = threads.min(blocks).min((n / grain_rows.max(1)).max(1));
    if chunks <= 1 || n < 2 * grain_rows.max(1) {
        INLINE_RUNS.inc();
        if n > 0 {
            f(0, data);
        }
        return;
    }
    let base = SharedPtr(data.as_mut_ptr());
    pool::fork_join(chunks, &|c| {
        let (bstart, bend) = chunk_bounds(blocks, chunks, c);
        let row_start = bstart * block_rows;
        let row_end = (bend * block_rows).min(n);
        // SAFETY: as in `par_rows_mut`; block ranges are disjoint.
        let rows = unsafe {
            std::slice::from_raw_parts_mut(
                base.at(row_start * stride),
                (row_end - row_start) * stride,
            )
        };
        f(row_start, rows);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_partition_exactly() {
        for n in [1usize, 7, 16, 33] {
            for w in [1usize, 2, 3, 8, 40] {
                let w = w.min(n);
                let ranges: Vec<_> = (0..w).map(|c| chunk_bounds(n, w, c)).collect();
                assert_eq!(ranges.first().unwrap().0, 0);
                assert_eq!(ranges.last().unwrap().1, n);
                for pair in ranges.windows(2) {
                    assert_eq!(pair[0].1, pair[1].0);
                    assert!(pair[0].1 > pair[0].0);
                }
            }
        }
    }

    #[test]
    fn par_map_matches_serial_at_any_thread_count() {
        let serial: Vec<u64> = (0..1000)
            .map(|i| (i as u64).wrapping_mul(0x9E3779B9))
            .collect();
        for threads in [1usize, 2, 3, 8] {
            let got = with_threads(threads, || {
                par_map_indexed(1000, 1, |i| (i as u64).wrapping_mul(0x9E3779B9))
            });
            assert_eq!(got, serial, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_small_input_runs_inline() {
        let got = with_threads(8, || par_map_indexed(3, 64, |i| i * i));
        assert_eq!(got, vec![0, 1, 4]);
    }

    #[test]
    fn with_threads_restores_on_exit_and_panic() {
        let outer = max_threads();
        with_threads(3, || assert_eq!(max_threads(), 3));
        assert_eq!(max_threads(), outer);
        let result = std::panic::catch_unwind(|| with_threads(2, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(max_threads(), outer);
    }

    #[test]
    fn par_rows_mut_writes_every_row_once() {
        let stride = 4;
        let mut data = vec![0.0; 32 * stride];
        with_threads(4, || {
            par_rows_mut(&mut data, stride, 1, |row_start, rows| {
                for (r, row) in rows.chunks_mut(stride).enumerate() {
                    for v in row.iter_mut() {
                        *v += (row_start + r) as f64;
                    }
                }
            });
        });
        for (r, row) in data.chunks(stride).enumerate() {
            assert!(row.iter().all(|&v| v == r as f64), "row {r}");
        }
    }

    #[test]
    fn par_row_blocks_mut_aligns_chunks_to_blocks() {
        use std::sync::Mutex;
        let stride = 2;
        let block = 4;
        // 18 rows → blocks of 4,4,4,4,2; ragged tail must stay whole.
        let mut data = vec![0.0; 18 * stride];
        let starts = Mutex::new(Vec::new());
        with_threads(3, || {
            par_row_blocks_mut(&mut data, stride, block, 1, |row_start, rows| {
                starts
                    .lock()
                    .unwrap()
                    .push((row_start, rows.len() / stride));
                for (r, row) in rows.chunks_mut(stride).enumerate() {
                    row.fill((row_start + r) as f64);
                }
            });
        });
        let mut starts = starts.into_inner().unwrap();
        starts.sort_unstable();
        // Every chunk starts on a block boundary and they tile 0..18.
        let mut next = 0;
        for &(start, rows) in &starts {
            assert_eq!(start, next);
            assert_eq!(start % block, 0);
            next = start + rows;
        }
        assert_eq!(next, 18);
        for (r, row) in data.chunks(stride).enumerate() {
            assert!(row.iter().all(|&v| v == r as f64), "row {r}");
        }
    }

    #[test]
    fn par_row_blocks_mut_runs_inline_when_single_block_or_thread() {
        let mut data = vec![0.0; 6];
        with_threads(8, || {
            // 3 rows in one block of 4 → single chunk, inline.
            par_row_blocks_mut(&mut data, 2, 4, 1, |row_start, rows| {
                assert_eq!(row_start, 0);
                rows.fill(1.0);
            });
        });
        assert!(data.iter().all(|&v| v == 1.0));
        with_threads(1, || {
            par_row_blocks_mut(&mut data, 2, 1, 1, |_, rows| rows.fill(2.0));
        });
        assert!(data.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn par_for_each_chunk_covers_all_indices() {
        use std::sync::Mutex;
        let hits = Mutex::new(vec![0u32; 100]);
        with_threads(5, || {
            par_for_each_chunk(100, 1, |start, end| {
                let mut h = hits.lock().unwrap();
                for i in start..end {
                    h[i] += 1;
                }
            });
        });
        assert!(hits.into_inner().unwrap().iter().all(|&c| c == 1));
    }
}
