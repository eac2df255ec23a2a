//! `crossbeam::thread::scope` over `std::thread::scope`.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a panicking thread leaves behind.
pub type Result<T> = std::result::Result<T, Box<dyn Any + Send + 'static>>;

/// Handle for spawning threads that may borrow from the caller's stack.
#[derive(Clone, Copy, Debug)]
pub struct Scope<'scope, 'env> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

/// Handle to one scoped thread.
#[derive(Debug)]
pub struct ScopedJoinHandle<'scope, T> {
    inner: std::thread::ScopedJoinHandle<'scope, T>,
}

impl<T> ScopedJoinHandle<'_, T> {
    /// Wait for the thread; `Err` carries its panic payload.
    pub fn join(self) -> Result<T> {
        self.inner.join()
    }
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a thread in this scope. The closure gets the scope again,
    /// so it can spawn siblings.
    pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let scope = *self;
        ScopedJoinHandle {
            inner: self.inner.spawn(move || f(&scope)),
        }
    }
}

/// Run `f` with a scope; every thread spawned in it is joined before
/// this returns. `Err` when a thread that was never joined panicked
/// (std re-raises that panic at the end of its scope; it is caught here
/// to keep crossbeam's signature).
pub fn scope<'env, F, R>(f: F) -> Result<R>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    catch_unwind(AssertUnwindSafe(|| {
        std::thread::scope(|s| f(&Scope { inner: s }))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn threads_borrow_the_stack_and_return_values() {
        let data = [1u64, 2, 3, 4];
        let total = scope(|s| {
            let handles: Vec<_> = data
                .chunks(2)
                .map(|c| s.spawn(move |_| c.iter().sum::<u64>()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
        })
        .unwrap();
        assert_eq!(total, 10);
    }

    #[test]
    fn a_scoped_thread_can_spawn_a_sibling() {
        let hits = AtomicUsize::new(0);
        scope(|s| {
            s.spawn(|inner| {
                hits.fetch_add(1, Ordering::SeqCst);
                inner.spawn(|_| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            });
        })
        .unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn panic_in_a_joined_thread_is_an_err_from_join() {
        let out = scope(|s| {
            let h = s.spawn(|_| -> u32 { panic!("worker failed") });
            h.join()
        })
        .expect("the panic was consumed by join, so the scope is clean");
        let payload = out.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker failed"));
    }

    #[test]
    fn panic_in_an_unjoined_thread_is_an_err_from_scope() {
        let out = scope(|s| {
            s.spawn(|_| panic!("left behind"));
        });
        assert!(out.is_err());
    }
}
