//! A minimal scoped-thread chunking pool.
//!
//! The build environment is offline, so instead of `rayon` the batch paths
//! ([`crate::engine::EvalContext::batch_evaluate`], the Monte Carlo driver
//! in `maut-sense`) share this ~100-line fan-out built on
//! [`std::thread::scope`]. Work is split into contiguous chunks, one scoped
//! thread per chunk; results are deterministic because chunk boundaries
//! depend only on `(len, threads, min_chunk)` and every reduction the
//! callers perform (utility bounds written to disjoint slices, integer rank
//! counts merged) is order-independent.
//!
//! `threads == 0` means "one per available core"; small inputs (under
//! `min_chunk` items per would-be thread) always run inline on the calling
//! thread, so the single-alternative incremental paths never pay a spawn.

use std::ops::Range;
use std::sync::OnceLock;

/// Worker count for `threads == 0`: one per available core (1 if the OS
/// will not say). Queried once per process and cached, since
/// `available_parallelism` reads the OS (cgroup limits, affinity) on
/// every call.
pub fn auto_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// How many workers to actually use for `len` items: the requested count
/// (0 = auto), capped so every worker gets at least `min_chunk` items.
fn effective_threads(len: usize, threads: usize, min_chunk: usize) -> usize {
    let requested = if threads == 0 {
        auto_threads()
    } else {
        threads
    };
    let cap = len / min_chunk.max(1);
    requested.min(cap).max(1)
}

/// Split `0..len` into `parts` near-equal contiguous ranges.
fn split_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let size = base + usize::from(p < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Apply `f` to contiguous chunks of `items` in parallel. `f` receives the
/// chunk's offset into `items` plus the mutable chunk itself; chunks are
/// disjoint, so no synchronization is needed. Runs inline when one worker
/// suffices.
pub fn for_each_chunk_mut<T, F>(items: &mut [T], threads: usize, min_chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = items.len();
    let workers = effective_threads(len, threads, min_chunk);
    if workers <= 1 {
        f(0, items);
        return;
    }
    let ranges = split_ranges(len, workers);
    std::thread::scope(|scope| {
        let mut rest = items;
        let mut offset = 0;
        for range in &ranges {
            let (chunk, tail) = rest.split_at_mut(range.len());
            rest = tail;
            let start = offset;
            offset += range.len();
            let f = &f;
            scope.spawn(move || f(start, chunk));
        }
    });
}

/// Map `f` over contiguous sub-ranges of `0..len` in parallel and collect
/// the per-range results in range order (so any fold over them is
/// deterministic). Runs inline when one worker suffices.
pub fn map_ranges<R, F>(len: usize, threads: usize, min_chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let workers = effective_threads(len, threads, min_chunk);
    if workers <= 1 {
        return vec![f(0..len)];
    }
    let ranges = split_ranges(len, workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                let f = &f;
                scope.spawn(move || f(range))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn split_covers_everything_in_order() {
        let ranges = split_ranges(10, 3);
        assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
        assert_eq!(split_ranges(2, 2), vec![0..1, 1..2]);
    }

    #[test]
    fn auto_threads_is_cached_and_stable() {
        let first = auto_threads();
        assert!(first >= 1);
        let from_threads: Vec<usize> = (0..4)
            .map(|_| std::thread::spawn(auto_threads))
            .map(|h| h.join().unwrap())
            .collect();
        assert!(from_threads.iter().all(|&n| n == first));
        assert!((0..100).all(|_| auto_threads() == first));
        assert_eq!(effective_threads(first * 1000, 0, 1), first);
    }

    #[test]
    fn small_inputs_run_inline() {
        assert_eq!(effective_threads(10, 8, 100), 1);
        assert_eq!(effective_threads(1000, 4, 100), 4);
        assert_eq!(effective_threads(250, 8, 100), 2);
        assert!(effective_threads(1_000_000, 0, 1) >= 1);
    }

    #[test]
    fn for_each_chunk_mut_touches_every_item_once() {
        for threads in [1, 2, 3, 8] {
            let mut items = vec![0u32; 97];
            for_each_chunk_mut(&mut items, threads, 4, |offset, chunk| {
                for (k, x) in chunk.iter_mut().enumerate() {
                    *x += (offset + k) as u32 + 1;
                }
            });
            for (k, &x) in items.iter().enumerate() {
                assert_eq!(x, k as u32 + 1);
            }
        }
    }

    #[test]
    fn map_ranges_results_arrive_in_range_order() {
        for threads in [1, 2, 5] {
            let counter = AtomicUsize::new(0);
            let parts = map_ranges(100, threads, 10, |range| {
                counter.fetch_add(range.len(), Ordering::Relaxed);
                range
            });
            assert_eq!(counter.load(Ordering::Relaxed), 100);
            // Concatenated ranges reconstruct 0..100 exactly.
            let mut next = 0;
            for r in parts {
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, 100);
        }
    }

    #[test]
    fn zero_length_is_safe() {
        let mut empty: Vec<u8> = Vec::new();
        for_each_chunk_mut(&mut empty, 0, 1, |_, _| {});
        let parts = map_ranges(0, 0, 1, |r| r.len());
        assert_eq!(parts, vec![0]);
    }
}
