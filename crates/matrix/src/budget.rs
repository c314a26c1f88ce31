//! The per-thread kernel-thread budget.
//!
//! [`crate::gemm_parallel`] splits `C` into at most [`thread_budget`] row
//! bands, one per thread. A SummaGen run executes one rank per thread on
//! the same host, so a rank body that forked `available_parallelism`
//! kernel threads would put `nprocs × cores` threads on `cores` cores.
//! The executor therefore runs each rank body under
//! [`with_thread_budget`]`(`[`rank_thread_budget`]`(nprocs), ..)`, and a
//! budget of 1 spawns nothing. Outside such a scope the budget is the
//! host's core count.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    static BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// `std::thread::available_parallelism`, read once per process (1 when
/// it cannot be determined).
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// How many threads a kernel called on this thread may use: the value of
/// the innermost enclosing [`with_thread_budget`], else
/// [`available_cores`]. Always at least 1.
pub fn thread_budget() -> usize {
    BUDGET.with(Cell::get).unwrap_or_else(available_cores)
}

/// The budget of one of `nprocs` ranks sharing this host's cores:
/// `max(1, available_cores() / nprocs)`.
pub fn rank_thread_budget(nprocs: usize) -> usize {
    (available_cores() / nprocs.max(1)).max(1)
}

/// Runs `f` with this thread's budget set to `max(1, threads)`, then
/// restores the previous budget — also when `f` panics.
pub fn with_thread_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(BUDGET.with(|b| b.replace(Some(threads.max(1)))));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_the_core_count() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(available_cores(), cores);
        assert_eq!(thread_budget(), cores);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = thread_budget();
        let seen = with_thread_budget(3, || {
            let inner = with_thread_budget(0, thread_budget);
            (thread_budget(), inner)
        });
        assert_eq!(seen, (3, 1), "0 is raised to 1");
        assert_eq!(thread_budget(), outer);
    }

    #[test]
    fn budget_is_restored_when_the_scope_panics() {
        let outer = thread_budget();
        let caught = std::panic::catch_unwind(|| with_thread_budget(7, || panic!("rank died")));
        assert!(caught.is_err());
        assert_eq!(thread_budget(), outer);
    }

    #[test]
    fn budget_is_per_thread() {
        with_thread_budget(5, || {
            let other = std::thread::scope(|s| s.spawn(thread_budget).join().unwrap());
            assert_eq!(other, available_cores());
            assert_eq!(thread_budget(), 5);
        });
    }

    #[test]
    fn rank_budget_splits_the_cores() {
        let cores = available_cores();
        assert_eq!(rank_thread_budget(0), cores);
        assert_eq!(rank_thread_budget(1), cores);
        assert_eq!(rank_thread_budget(2), (cores / 2).max(1));
        assert_eq!(rank_thread_budget(cores + 1), 1);
    }
}
