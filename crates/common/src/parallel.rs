//! Deterministic parallel execution: the one primitive every
//! multi-threaded phase in the workspace runs on.
//!
//! Both parallel phases (sharded Counting-tree construction, the merge
//! phase's dataset pass) follow the same recipe: split the work into
//! **contiguous, index-ordered ranges** ([`shard_ranges`],
//! [`chunk_ranges`]), map the ranges on worker threads with
//! [`ordered_map`], and fold the results **in range order**. Because
//! [`ordered_map`] returns results in range order whatever order the
//! workers finish in, a caller whose fold is the serial computation split
//! at range boundaries gets output bit-identical to the serial run at every
//! thread count. Keeping the partitioning and the map in one place is what
//! makes "parallel output ≡ serial output" an auditable property instead of
//! a hope.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Splits `0..n_items` into `n_shards` contiguous ranges whose lengths
/// differ by at most one (the first `n_items % n_shards` ranges are one
/// longer). With `n_items < n_shards` the tail ranges are empty — callers
/// must tolerate empty shards.
///
/// `n_shards == 0` is treated as 1 so the result is never empty.
///
/// ```
/// use mrcc_common::parallel::shard_ranges;
/// assert_eq!(shard_ranges(10, 3), vec![0..4, 4..7, 7..10]);
/// assert_eq!(shard_ranges(2, 4), vec![0..1, 1..2, 2..2, 2..2]);
/// ```
#[must_use]
pub fn shard_ranges(n_items: usize, n_shards: usize) -> Vec<Range<usize>> {
    let n_shards = n_shards.max(1);
    let base = n_items / n_shards;
    let extra = n_items % n_shards;
    let mut ranges = Vec::with_capacity(n_shards);
    let mut start = 0usize;
    for i in 0..n_shards {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Splits `0..n_items` into ranges of at most `chunk` items, in index order.
/// The final range may be shorter. `chunk == 0` is treated as 1.
///
/// ```
/// use mrcc_common::parallel::chunk_ranges;
/// assert_eq!(chunk_ranges(5, 2), vec![0..2, 2..4, 4..5]);
/// assert_eq!(chunk_ranges(0, 8), Vec::<std::ops::Range<usize>>::new());
/// ```
#[must_use]
pub fn chunk_ranges(n_items: usize, chunk: usize) -> Vec<Range<usize>> {
    let chunk = chunk.max(1);
    let mut ranges = Vec::with_capacity(n_items.div_ceil(chunk));
    let mut start = 0usize;
    while start < n_items {
        let end = (start + chunk).min(n_items);
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// Caps a requested worker count to something useful for `n_items` units of
/// work: at least 1, at most `n_items` (an idle worker is pure overhead) and
/// never more than the requested count.
fn effective_workers(requested: usize, n_items: usize) -> usize {
    requested.max(1).min(n_items.max(1))
}

/// Maps `f` over `ranges` on up to `threads` workers and returns the
/// results **in range order** — `out[i] == f(ranges[i].clone())` — whatever
/// order the workers finish in.
///
/// With one effective worker (`threads <= 1`, or at most one range) `f`
/// runs inline on the calling thread and no thread is spawned. Otherwise
/// scoped worker threads claim ranges one at a time from a shared atomic
/// index, so uneven ranges balance across workers. A panic in `f` is
/// re-raised on the calling thread.
///
/// ```
/// use mrcc_common::parallel::{chunk_ranges, ordered_map};
/// let sums = ordered_map(&chunk_ranges(10, 3), 2, |r| r.sum::<usize>());
/// assert_eq!(sums, vec![3, 12, 21, 9]);
/// ```
#[must_use]
pub fn ordered_map<R, F>(ranges: &[Range<usize>], threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    // One worker: claim the next unclaimed range until none is left. The
    // index publishes no data (results return through `join`), so
    // `Relaxed` suffices.
    let work = || {
        std::iter::from_fn(|| {
            let claimed = next.fetch_add(1, Ordering::Relaxed);
            ranges.get(claimed).map(|r| (claimed, f(r.clone())))
        })
        .collect::<Vec<_>>()
    };
    let workers = effective_workers(threads, ranges.len());
    let mut tagged = if workers <= 1 {
        work()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    };
    tagged.sort_unstable_by_key(|&(i, _)| i);
    // A fresh exact-size buffer: callers hold the results through their
    // whole fold, so none of `tagged`'s spare capacity should outlive it.
    let mut out = Vec::with_capacity(tagged.len());
    out.extend(tagged.into_iter().map(|(_, r)| r));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_cover_everything_in_order() {
        for n in [0usize, 1, 2, 7, 100, 101] {
            for k in [1usize, 2, 3, 8, 200] {
                let ranges = shard_ranges(n, k);
                assert_eq!(ranges.len(), k);
                let mut expect = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, expect, "n={n} k={k}");
                    assert!(r.end >= r.start);
                    expect = r.end;
                }
                assert_eq!(expect, n);
                let (min, max) = ranges.iter().fold((usize::MAX, 0usize), |(mn, mx), r| {
                    (mn.min(r.len()), mx.max(r.len()))
                });
                assert!(max - min <= 1, "unbalanced shards for n={n} k={k}");
            }
        }
    }

    #[test]
    fn zero_shards_degrades_to_one() {
        assert_eq!(shard_ranges(5, 0), vec![0..5]);
    }

    #[test]
    fn chunks_cover_everything_in_order() {
        for n in [0usize, 1, 5, 64, 65] {
            for c in [0usize, 1, 2, 64, 1000] {
                let ranges = chunk_ranges(n, c);
                let mut expect = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    assert!(r.len() <= c.max(1));
                    expect = r.end;
                }
                assert_eq!(expect, n);
            }
        }
    }

    /// Uneven work per range, so workers finish out of order.
    fn uneven(r: Range<usize>) -> (usize, u64) {
        let work: u64 = r
            .clone()
            .map(|i| (0..(i % 7) * 300).sum::<usize>() as u64)
            .sum();
        (r.start, work)
    }

    #[test]
    fn ordered_map_equals_serial_map() {
        let ranges = chunk_ranges(1000, 37);
        let serial: Vec<_> = ranges.iter().cloned().map(uneven).collect();
        for threads in [1usize, 2, 3, 8] {
            assert_eq!(
                ordered_map(&ranges, threads, uneven),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn ordered_map_of_no_ranges_is_empty() {
        for threads in [1usize, 4] {
            assert!(ordered_map(&[], threads, uneven).is_empty());
        }
    }

    #[test]
    fn ordered_map_with_more_threads_than_ranges() {
        let ranges = shard_ranges(5, 3);
        let out = ordered_map(&ranges, 16, Vec::from_iter);
        assert_eq!(out, vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    #[should_panic(expected = "boom in range 2")]
    fn ordered_map_propagates_a_worker_panic() {
        let ranges = chunk_ranges(8, 2);
        let _ = ordered_map(&ranges, 2, |r| {
            assert!(r.start != 4, "boom in range {}", r.start / 2);
            r.len()
        });
    }

    #[test]
    fn effective_workers_bounds() {
        assert_eq!(effective_workers(0, 10), 1);
        assert_eq!(effective_workers(8, 3), 3);
        assert_eq!(effective_workers(4, 100), 4);
        assert_eq!(effective_workers(2, 0), 1);
    }
}
