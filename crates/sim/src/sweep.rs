//! Multi-threaded parameter sweeps.
//!
//! Figure regeneration runs dozens of independent simulations (e.g. Figure 7
//! is 14 `rs` values × 4 velocities); [`parallel_map`] fans them out over a
//! thread pool with deterministic result ordering.

/// Applies `f` to every item on `threads` worker threads, returning results
/// in input order. Falls back to a sequential loop for `threads <= 1`.
///
/// Each worker owns a disjoint contiguous chunk of the input and writes into
/// the matching chunk of the result buffer — no lock anywhere on the result
/// path (the previous design serialized every item's write through a single
/// `Mutex<Vec<_>>`). Results are deterministic as long as `f` is (each
/// item's seed should derive from the item, not from scheduling).
///
/// # Panics
///
/// Propagates panics from `f` (the scope join panics).
///
/// ```
/// use cellflow_sim::sweep::parallel_map;
///
/// let squares = parallel_map(&[1u64, 2, 3, 4, 5], 4, |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let workers = threads.min(items.len());
    let chunk = items.len().div_ceil(workers);
    let mut results: Vec<Option<R>> = Vec::new();
    results.resize_with(items.len(), || None);
    let f = &f;
    std::thread::scope(|scope| {
        for (input, output) in items.chunks(chunk).zip(results.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (item, slot) in input.iter().zip(output.iter_mut()) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index was processed"))
        .collect()
}

/// The number of worker threads to use by default: the machine's available
/// parallelism, capped at 16.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_fallback_matches() {
        let items: Vec<u64> = (0..10).collect();
        assert_eq!(
            parallel_map(&items, 1, |&x| x + 1),
            parallel_map(&items, 8, |&x| x + 1)
        );
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<u64> = vec![];
        assert!(parallel_map(&empty, 8, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u64], 8, |&x| x), vec![7]);
    }

    #[test]
    fn uneven_work_balances() {
        // Items with wildly different costs still land in the right slots.
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map(&items, 4, |&x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x * 10
        });
        assert_eq!(out, items.iter().map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
        assert!(default_threads() <= 16);
    }

    #[test]
    fn simulations_in_parallel_match_sequential() {
        use crate::scenario::{fig7_point, run_spec};
        let specs: Vec<_> = [50i64, 150, 250]
            .iter()
            .map(|&rs| fig7_point(rs, 200))
            .collect();
        let par = parallel_map(&specs, 3, |s| run_spec(s, 150, 1));
        let seq: Vec<_> = specs.iter().map(|s| run_spec(s, 150, 1)).collect();
        assert_eq!(par, seq);
    }
}
