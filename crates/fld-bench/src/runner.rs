//! Parallel sweep execution.
//!
//! Every experiment is a *sweep*: the same simulation run over a list of
//! points (frame sizes, window depths, tenant counts). Points are
//! independent — each builds its own system with its own deterministically
//! seeded RNG — so they can run on worker threads without changing any
//! number: [`run_points`] returns results in input order, and a run's
//! output depends only on its own point, never on which thread or in
//! which order it executed.
//!
//! The worker count is an argument; experiments pass the `--jobs N` flag
//! they read from their [`crate::report::Cli`]. The self-profiler is
//! armed per thread (`fld_sim::prof`), so a sweep started on an armed
//! thread arms its workers and merges their profiles back into the
//! caller's, in input order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use fld_sim::prof;

/// Why a slot's lock cannot be poisoned: a worker holds it only to move a
/// value in or out, which cannot panic.
const HELD: &str = "a slot is held only to move a value";

/// Runs `f` over every point on up to `jobs` worker threads, returning
/// results in input order.
///
/// With `jobs <= 1` (or a single point) this is exactly a serial
/// `points.into_iter().map(f).collect()` on the calling thread — the
/// parallel path must produce byte-identical results, which the
/// determinism regression test asserts.
pub fn run_points<T, R, F>(points: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if jobs <= 1 || points.len() <= 1 {
        return points.into_iter().map(&f).collect();
    }
    let profiled = prof::enabled();
    let inputs: Vec<Mutex<Option<T>>> = points.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let outputs: Vec<Mutex<Option<_>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = jobs.min(inputs.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                prof::set_enabled(profiled);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= inputs.len() {
                        break;
                    }
                    let point = inputs[i].lock().expect(HELD).take().expect("taken once");
                    let result = f(point);
                    *outputs[i].lock().expect(HELD) = Some((result, prof::take_global()));
                }
            });
        }
    });
    outputs
        .into_iter()
        .map(|slot| {
            let (result, profile) = slot.into_inner().expect(HELD).expect("every point ran");
            if let Some(profile) = profile {
                prof::merge_into_global(&profile);
            }
            result
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_in_input_order() {
        let points: Vec<u64> = (0..50).collect();
        let serial = run_points(points.clone(), 1, |p| p * p);
        let parallel = run_points(points, 8, |p| p * p);
        assert_eq!(serial, parallel);
        assert_eq!(serial[7], 49);
    }

    #[test]
    fn more_workers_than_points_is_fine() {
        let out = run_points(vec![1, 2], 16, |p| p + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn empty_and_singleton_sweeps() {
        let empty: Vec<u32> = run_points(Vec::new(), 4, |p: u32| p);
        assert!(empty.is_empty());
        assert_eq!(run_points(vec![9], 4, |p| p * 2), vec![18]);
    }
}
