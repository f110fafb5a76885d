//! Hierarchical span timers with a thread-local nesting stack.

use crate::registry;
use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Opens a span named `name` nested under the thread's current span
/// path. Prefer the [`span!`](crate::span!) macro.
///
/// With no registry installed this is a single atomic load and the
/// returned guard is inert.
pub fn enter_span(name: &'static str) -> SpanGuard {
    if !registry::enabled() {
        return SpanGuard { name, start: None };
    }
    STACK.with(|s| s.borrow_mut().push(name));
    SpanGuard {
        name,
        start: Some(Instant::now()),
    }
}

/// Guard for an open span; records elapsed time and the nesting path
/// into the installed registry on drop.
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = start.elapsed();
        let path = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            debug_assert_eq!(stack.last(), Some(&self.name), "span guards must nest");
            let path = stack.join("/");
            stack.pop();
            path
        });
        registry::record_span(path, elapsed, registry::thread_id());
    }
}

/// A captured span path, used to carry nesting context onto worker
/// threads so span paths are thread-count invariant.
///
/// `forest::parallel::run_units` captures the submitting thread's path
/// and adopts it on every borrowed worker; spans opened inside a work
/// unit then aggregate under the same path regardless of which thread
/// ran the unit.
#[derive(Debug, Clone)]
pub struct SpanPath(Option<Vec<&'static str>>);

impl SpanPath {
    /// The calling thread's current span path (empty capture when no
    /// registry is installed, making [`scoped`](SpanPath::scoped) free).
    pub fn capture() -> SpanPath {
        if !registry::enabled() {
            return SpanPath(None);
        }
        SpanPath(Some(STACK.with(|s| s.borrow().clone())))
    }

    /// Runs `f` with this path as the thread's span context, restoring
    /// the previous context afterwards (also on panic).
    pub fn scoped<R>(&self, f: impl FnOnce() -> R) -> R {
        let Some(path) = &self.0 else { return f() };

        struct Restore(Vec<&'static str>);
        impl Drop for Restore {
            fn drop(&mut self) {
                STACK.with(|s| *s.borrow_mut() = std::mem::take(&mut self.0));
            }
        }

        let saved = STACK.with(|s| std::mem::replace(&mut *s.borrow_mut(), path.clone()));
        let _restore = Restore(saved);
        f()
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::Registry;
    use crate::test_support::INSTALL_LOCK;
    use crate::SpanPath;

    #[test]
    fn spans_nest_into_paths() {
        let _serial = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let registry = Registry::new();
        let guard = registry.install();
        {
            let _a = crate::span!("outer");
            {
                let _b = crate::span!("inner");
            }
            {
                let _b = crate::span!("inner");
            }
        }
        drop(guard);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.spans["outer"].count, 1);
        assert_eq!(snapshot.spans["outer/inner"].count, 2);
        assert!(snapshot.spans["outer"].total_ns >= snapshot.spans["outer/inner"].total_ns);
    }

    #[test]
    fn span_path_carries_context_to_threads() {
        let _serial = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let registry = Registry::new();
        let guard = registry.install();
        {
            let _a = crate::span!("parent");
            let path = SpanPath::capture();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    path.scoped(|| {
                        let _c = crate::span!("child");
                    });
                    // Outside the scope the worker has no context.
                    let _d = crate::span!("orphan");
                });
            });
        }
        drop(guard);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.spans["parent/child"].count, 1);
        assert_eq!(snapshot.spans["orphan"].count, 1);
        // Two distinct threads touched spans overall.
        assert_eq!(snapshot.spans["parent/child"].threads, 1);
    }

    #[test]
    fn disabled_spans_cost_nothing_and_record_nothing() {
        let _serial = INSTALL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        {
            let _a = crate::span!("ghost");
        }
        let registry = Registry::new();
        let guard = registry.install();
        drop(guard);
        assert!(registry.snapshot().spans.is_empty());
    }
}
