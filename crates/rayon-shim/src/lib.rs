//! Offline stand-in for [rayon](https://crates.io/crates/rayon).
//!
//! The build environment has no registry access, so this in-tree shim
//! provides the exact API subset the workspace uses: `par_chunks` /
//! `par_chunks_mut` / `par_sort_by` / `into_par_iter` through
//! `rayon::prelude::*`, with the usual `enumerate` / `zip` / `map` /
//! `for_each` / `collect` / `sum` adapters.
//!
//! Unlike earlier revisions of this shim, execution is **multi-threaded**:
//! work items are drained from a shared queue by scoped `std::thread`
//! workers (the calling thread participates, so a pool of size 1 is exactly
//! the old sequential path). All call sites are data-parallel with disjoint
//! outputs, so results are bit-identical at every thread count.
//!
//! Thread-count resolution, in priority order:
//! 1. a scoped programmatic override installed with [`with_threads`]
//!    (thread-local, used by determinism tests),
//! 2. the `GPU_SIM_THREADS` environment variable (read once per process;
//!    `GPU_SIM_THREADS=1` forces the sequential debug path),
//! 3. [`std::thread::available_parallelism`].
//!
//! The width covers pool workers only: a caller's own coordination
//! threads (the chunk executor's packing thread) run on top of it.

use std::cell::Cell;
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Scoped override installed by [`with_threads`]; 0 means "unset".
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("GPU_SIM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// Number of worker threads a parallel call issued from this thread may use
/// (override > `GPU_SIM_THREADS` > `available_parallelism`; never less
/// than 1).
pub fn max_threads() -> usize {
    match OVERRIDE.with(Cell::get) {
        0 => env_threads()
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        n => n,
    }
}

/// Run `f` with the pool width forced to `n` for parallel calls issued from
/// the current thread. Restores the previous setting on exit (including on
/// panic). `n = 1` forces the sequential execution order.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|c| c.replace(n.max(1))));
    f()
}

/// Drain `items` through `f` on a scoped worker pool. The calling thread is
/// one of the workers; with an effective width of 1 this is a plain
/// in-order loop.
fn run_each<T, F>(items: Vec<T>, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let threads = max_threads().min(items.len());
    if threads <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    // Trace gating is hoisted once per dispatch: the per-item path pays a
    // single bool test when tracing is off.
    let traced = trace::enabled();
    let queue = Mutex::new(items.into_iter());
    let work = || {
        let _drain = trace::span_with(
            "pool.worker",
            "drain",
            &[("threads", trace::ArgValue::U64(threads as u64))],
        );
        loop {
            let wait = traced.then(std::time::Instant::now);
            let item = queue.lock().unwrap().next();
            if let Some(started) = wait {
                trace::metrics::observe("pool.queue_wait", started.elapsed());
            }
            match item {
                Some(item) => f(item),
                None => return,
            }
        }
    };
    std::thread::scope(|s| {
        let work = &work;
        for k in 1..threads {
            s.spawn(move || {
                if traced {
                    // Stable role name: successive scoped workers with the
                    // same index share one timeline row in the trace viewer.
                    trace::set_thread_name(&format!("pool-worker-{k}"));
                }
                work();
            });
        }
        work();
    });
}

/// Parallel map preserving input order: each worker writes its result into
/// the slot belonging to its item, so the output is identical to a
/// sequential map regardless of scheduling.
fn run_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let slots: Vec<(&mut Option<R>, T)> = out.iter_mut().zip(items).collect();
    run_each(slots, |(slot, item)| *slot = Some(f(item)));
    out.into_iter()
        .map(|r| r.expect("worker filled slot"))
        .collect()
}

/// The subset of `rayon::iter::ParallelIterator` the workspace uses.
///
/// Adapters materialise their work list via [`into_items`]; the terminal
/// operations (`for_each`, `collect`, `sum`) dispatch that list onto the
/// worker pool.
///
/// [`into_items`]: ParallelIterator::into_items
pub trait ParallelIterator: Sized {
    /// The element type.
    type Item: Send;

    /// Materialise the items this iterator will dispatch. For composed
    /// adapters (e.g. `map`) this is where the parallel work happens.
    fn into_items(self) -> Vec<Self::Item>;

    /// Apply `f` to every item on the worker pool.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        run_each(self.into_items(), f);
    }

    /// Lazily map every item through `f` (runs on the pool at the terminal
    /// operation).
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { base: self, f }
    }

    /// Pair every item with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Pair items with another parallel iterator, truncating to the shorter.
    fn zip<B: ParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }

    /// Collect all items in input order.
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.into_items().into_iter().collect()
    }

    /// Sum all items. The reduction itself is sequential (and thus
    /// deterministic for floats); any mapped work has already run on the
    /// pool inside [`into_items`](ParallelIterator::into_items).
    fn sum<S: std::iter::Sum<Self::Item>>(self) -> S {
        self.into_items().into_iter().sum()
    }
}

/// See [`ParallelIterator::map`].
pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, R, F> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    type Item = R;

    fn into_items(self) -> Vec<R> {
        run_map(self.base.into_items(), self.f)
    }

    fn for_each<G>(self, g: G)
    where
        G: Fn(R) + Sync,
    {
        let f = self.f;
        run_each(self.base.into_items(), |item| g(f(item)));
    }
}

/// See [`ParallelIterator::enumerate`].
pub struct Enumerate<I> {
    base: I,
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);

    fn into_items(self) -> Vec<Self::Item> {
        self.base.into_items().into_iter().enumerate().collect()
    }
}

/// See [`ParallelIterator::zip`].
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);

    fn into_items(self) -> Vec<Self::Item> {
        self.a
            .into_items()
            .into_iter()
            .zip(self.b.into_items())
            .collect()
    }
}

/// Borrowed chunks of a shared slice (see `par_chunks`).
pub struct ParChunks<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParallelIterator for ParChunks<'a, T> {
    type Item = &'a [T];

    fn into_items(self) -> Vec<&'a [T]> {
        self.slice.chunks(self.size).collect()
    }
}

/// Borrowed chunks of a mutable slice (see `par_chunks_mut`).
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParallelIterator for ParChunksMut<'a, T> {
    type Item = &'a mut [T];

    fn into_items(self) -> Vec<&'a mut [T]> {
        self.slice.chunks_mut(self.size).collect()
    }
}

/// Owned items lifted into the pool (see `into_par_iter`).
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for ParIter<T> {
    type Item = T;

    fn into_items(self) -> Vec<T> {
        self.items
    }
}

/// The rayon prelude: parallel-slice traits plus the iterator adapters.
pub mod prelude {
    pub use super::{Enumerate, Map, ParIter, ParallelIterator, Zip};

    /// Pool-backed stand-in for `rayon::slice::ParallelSlice`.
    pub trait ParallelSlice<T: Sync> {
        /// Chunked traversal dispatched on the worker pool.
        fn par_chunks(&self, chunk_size: usize) -> super::ParChunks<'_, T>;
    }

    impl<T: Sync> ParallelSlice<T> for [T] {
        fn par_chunks(&self, chunk_size: usize) -> super::ParChunks<'_, T> {
            assert!(chunk_size > 0, "chunk size must be non-zero");
            super::ParChunks {
                slice: self,
                size: chunk_size,
            }
        }
    }

    /// Pool-backed stand-in for `rayon::slice::ParallelSliceMut`.
    pub trait ParallelSliceMut<T: Send> {
        /// Chunked mutable traversal dispatched on the worker pool.
        fn par_chunks_mut(&mut self, chunk_size: usize) -> super::ParChunksMut<'_, T>;

        /// Stable comparator sort: chunks are sorted on the pool, then a
        /// final (adaptive, run-merging) stable sort combines them.
        fn par_sort_by<F>(&mut self, compare: F)
        where
            F: Fn(&T, &T) -> std::cmp::Ordering + Sync;
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> super::ParChunksMut<'_, T> {
            assert!(chunk_size > 0, "chunk size must be non-zero");
            super::ParChunksMut {
                slice: self,
                size: chunk_size,
            }
        }

        fn par_sort_by<F>(&mut self, compare: F)
        where
            F: Fn(&T, &T) -> std::cmp::Ordering + Sync,
        {
            let threads = super::max_threads();
            if threads > 1 && self.len() >= 2 * threads {
                let chunk = self.len().div_ceil(threads);
                let parts: Vec<&mut [T]> = self.chunks_mut(chunk).collect();
                super::run_each(parts, |part| part.sort_by(&compare));
                // The std stable sort detects the pre-sorted runs, so this
                // final pass is effectively the merge step.
            }
            self.sort_by(&compare);
        }
    }

    /// Pool-backed stand-in for `rayon::iter::IntoParallelIterator`.
    pub trait IntoParallelIterator {
        /// The element type.
        type Item: Send;
        /// The parallel iterator type.
        type Iter: ParallelIterator<Item = Self::Item>;
        /// Lift an ordinary collection or range onto the worker pool.
        fn into_par_iter(self) -> Self::Iter;
    }

    impl<I: IntoIterator> IntoParallelIterator for I
    where
        I::Item: Send,
    {
        type Item = I::Item;
        type Iter = super::ParIter<I::Item>;
        fn into_par_iter(self) -> super::ParIter<I::Item> {
            super::ParIter {
                items: self.into_iter().collect(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_chunks_mut_behaves_like_chunks_mut() {
        let mut v = vec![0u32; 10];
        v.par_chunks_mut(3).enumerate().for_each(|(i, chunk)| {
            for c in chunk {
                *c = i as u32;
            }
        });
        assert_eq!(v, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
    }

    #[test]
    fn par_chunks_reads_in_order() {
        let v = [1, 2, 3, 4, 5];
        let sums: Vec<i32> = v.par_chunks(2).map(|c| c.iter().sum()).collect();
        assert_eq!(sums, [3, 7, 5]);
    }

    #[test]
    fn zipped_chunk_iterators_stay_aligned() {
        let mut a = vec![0u32; 6];
        let mut b = vec![0u32; 6];
        a.par_chunks_mut(2)
            .zip(b.par_chunks_mut(2))
            .enumerate()
            .for_each(|(i, (ca, cb))| {
                ca[0] = i as u32;
                cb[0] = 10 + i as u32;
            });
        assert_eq!(a, [0, 0, 1, 0, 2, 0]);
        assert_eq!(b, [10, 0, 11, 0, 12, 0]);
    }

    #[test]
    fn into_par_iter_matches_into_iter() {
        let total: usize = (0..5usize).into_par_iter().sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let gold: Vec<u64> = super::with_threads(1, || {
            (0u64..997).into_par_iter().map(|x| x * x + 1).collect()
        });
        for threads in [2, 3, 8] {
            let out: Vec<u64> = super::with_threads(threads, || {
                (0u64..997).into_par_iter().map(|x| x * x + 1).collect()
            });
            assert_eq!(out, gold, "threads={threads}");
        }
    }

    #[test]
    fn pool_actually_uses_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        super::with_threads(4, || {
            (0..64).into_par_iter().for_each(|_| {
                ids.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_millis(1));
            });
        });
        // The calling thread participates; with 4 workers and sleeping
        // items at least one extra thread must have picked up work.
        assert!(ids.lock().unwrap().len() > 1);
    }

    #[test]
    fn with_threads_scopes_and_restores() {
        let outer = super::max_threads();
        super::with_threads(3, || {
            assert_eq!(super::max_threads(), 3);
            super::with_threads(1, || assert_eq!(super::max_threads(), 1));
            assert_eq!(super::max_threads(), 3);
        });
        assert_eq!(super::max_threads(), outer);
    }

    #[test]
    fn par_sort_by_is_stable_and_sorted() {
        // Keys collide often so stability is observable via the payload.
        let mut v: Vec<(u32, usize)> = (0..1000).map(|i| (((i * 7919) % 10) as u32, i)).collect();
        let mut expect = v.clone();
        expect.sort_by_key(|e| e.0);
        super::with_threads(4, || {
            v.par_sort_by(|a, b| a.0.cmp(&b.0));
        });
        assert_eq!(v, expect);
    }

    #[test]
    fn map_for_each_composes_on_the_pool() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let acc = AtomicU64::new(0);
        super::with_threads(4, || {
            (1u64..=100).into_par_iter().map(|x| x * 2).for_each(|x| {
                acc.fetch_add(x, Ordering::Relaxed);
            });
        });
        assert_eq!(acc.load(Ordering::Relaxed), 10100);
    }
}
