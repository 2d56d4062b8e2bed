//! Pooled scratch workspaces for allocation-free hot loops.
//!
//! The blocked kernels in `cbmf-linalg` need packing buffers and per-call
//! scratch, sized per call and per role. A chunk may run on the calling
//! thread or on any pool worker, and the calling thread holds one buffer
//! role (the packed B panel) while its own chunk needs another, so a
//! per-thread buffer would not converge to one size per role. Instead,
//! workspaces live in a process-global pool: [`acquire`] pops one (or creates the first), the
//! returned guard hands out grow-only `f64` buffers, and dropping the guard
//! returns the workspace to the pool. In steady state — once every buffer has
//! reached its high-water mark — an acquire/use/release cycle performs zero
//! heap allocations, which the kernel-layer counting-allocator test pins.
//!
//! Buffer contents are **not** cleared between uses: callers must overwrite
//! every element they later read (the packing routines do, zero-padding
//! included).

use std::sync::Mutex;

/// Distinct scratch buffers one workspace can hand out at a time. Two covers
/// the packed-GEMM case (an A panel and a B panel); the rest are headroom for
/// call sites that also need output or row scratch.
pub const WORKSPACE_SLOTS: usize = 4;

/// A set of grow-only `f64` scratch buffers, recycled through the global
/// pool.
#[derive(Debug, Default)]
pub struct Workspace {
    bufs: [Vec<f64>; WORKSPACE_SLOTS],
}

/// Grows `buf` to at least `len` (never shrinks — steady state must not
/// reallocate) and returns the leading `len` elements. Contents are
/// unspecified.
fn slice_of(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

impl Workspace {
    /// One scratch buffer of `len` elements (slot 0).
    pub fn one(&mut self, len: usize) -> &mut [f64] {
        slice_of(&mut self.bufs[0], len)
    }

    /// Two disjoint scratch buffers (slots 0 and 1) — the packed-panel pair.
    pub fn two(&mut self, len_a: usize, len_b: usize) -> (&mut [f64], &mut [f64]) {
        let (a, rest) = self.bufs.split_first_mut().expect("fixed-size array");
        (slice_of(a, len_a), slice_of(&mut rest[0], len_b))
    }

    /// One scratch buffer in a caller-chosen slot. Call sites whose buffer
    /// roles are split across threads (the blocked kernels pack A panels in
    /// workers and the B panel on the calling thread) pin each role to a
    /// fixed slot, so every pooled workspace converges to one high-water
    /// size per slot no matter which role pops it — steady state never
    /// reallocates.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= WORKSPACE_SLOTS`.
    pub fn slot(&mut self, slot: usize, len: usize) -> &mut [f64] {
        slice_of(&mut self.bufs[slot], len)
    }

    /// Three disjoint scratch buffers (slots 0, 1, 2).
    pub fn three(
        &mut self,
        len_a: usize,
        len_b: usize,
        len_c: usize,
    ) -> (&mut [f64], &mut [f64], &mut [f64]) {
        let (a, rest) = self.bufs.split_first_mut().expect("fixed-size array");
        let (b, rest) = rest.split_first_mut().expect("fixed-size array");
        (
            slice_of(a, len_a),
            slice_of(b, len_b),
            slice_of(&mut rest[0], len_c),
        )
    }
}

/// The global workspace pool. A `Vec` (not per-thread storage) because the
/// scoped workers that need workspaces are ephemeral; the pool's high-water
/// size is the peak number of *concurrent* users, i.e. the thread width.
static POOL: Mutex<Vec<Workspace>> = Mutex::new(Vec::new());

/// Owns a pooled [`Workspace`] for the duration of one kernel call; returns
/// it to the pool on drop (including unwind).
#[derive(Debug)]
pub struct WorkspaceGuard {
    ws: Option<Workspace>,
    /// Whether this workspace came from the pool (`true`) or was freshly
    /// created (`false`) — callers feed this into reuse counters.
    pub reused: bool,
}

impl std::ops::Deref for WorkspaceGuard {
    type Target = Workspace;
    fn deref(&self) -> &Workspace {
        self.ws.as_ref().expect("present until drop")
    }
}

impl std::ops::DerefMut for WorkspaceGuard {
    fn deref_mut(&mut self) -> &mut Workspace {
        self.ws.as_mut().expect("present until drop")
    }
}

impl Drop for WorkspaceGuard {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            POOL.lock().unwrap_or_else(|e| e.into_inner()).push(ws);
        }
    }
}

/// Checks a workspace out of the global pool (creating one only when the
/// pool is empty, i.e. on first use or when more callers run concurrently
/// than ever before).
pub fn acquire() -> WorkspaceGuard {
    let ws = POOL.lock().unwrap_or_else(|e| e.into_inner()).pop();
    match ws {
        Some(ws) => WorkspaceGuard {
            ws: Some(ws),
            reused: true,
        },
        None => WorkspaceGuard {
            ws: Some(Workspace::default()),
            reused: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_grow_and_are_disjoint() {
        let mut g = acquire();
        let (a, b) = g.two(8, 16);
        assert_eq!(a.len(), 8);
        assert_eq!(b.len(), 16);
        a.fill(1.0);
        b.fill(2.0);
        assert!(a.iter().all(|&v| v == 1.0));
        let (x, y, z) = g.three(4, 4, 4);
        assert_eq!((x.len(), y.len(), z.len()), (4, 4, 4));
    }

    #[test]
    fn released_workspace_is_reused_with_capacity() {
        // Drain whatever other tests left behind so the reuse flag below is
        // about *this* workspace.
        let drained: Vec<WorkspaceGuard> = std::iter::from_fn(|| {
            let g = acquire();
            g.reused.then_some(g)
        })
        .collect();
        drop(drained);

        {
            let mut g = acquire();
            g.one(1024).fill(3.0);
        }
        let mut g = acquire();
        assert!(g.reused, "pool must hand back the released workspace");
        // Grow-only: the high-water buffer is still there, so this is a
        // no-realloc slice.
        let buf = g.one(1024);
        assert_eq!(buf.len(), 1024);
    }

    #[test]
    fn slot_addresses_one_buffer_without_touching_others() {
        let mut g = acquire();
        g.slot(0, 4).fill(1.0);
        g.slot(3, 8).fill(4.0);
        assert!(g.slot(0, 4).iter().all(|&v| v == 1.0));
        assert!(g.slot(3, 8).iter().all(|&v| v == 4.0));
        // Same storage as the positional helpers.
        g.one(4).fill(7.0);
        assert!(g.slot(0, 4).iter().all(|&v| v == 7.0));
    }

    #[test]
    fn guards_taken_concurrently_are_distinct() {
        let mut g1 = acquire();
        let mut g2 = acquire();
        g1.one(4).fill(1.0);
        g2.one(4).fill(2.0);
        assert!(g1.one(4).iter().all(|&v| v == 1.0));
        assert!(g2.one(4).iter().all(|&v| v == 2.0));
    }
}
