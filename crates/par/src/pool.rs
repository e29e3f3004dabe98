//! The one persistent worker pool behind every fan-out in the workspace.
//!
//! Helper threads park on a condvar for the life of the process. A
//! fan-out publishes one job; the caller runs worker 0 itself and at
//! most `workers - 1` parked helpers join as workers `1..workers`.
//! Bodies claim their work from shared counters, so a helper that
//! never wakes in time costs nothing but parallelism: the caller alone
//! finishes every claim, and results stay index-ordered.
//!
//! A fan-out runs inline on its caller (worker 0 only) when it is
//! nested inside a pool job, or when another caller's job is published
//! *or still draining*: the pool stays busy from publish until the
//! last helper that joined has left the body. Nobody ever waits for
//! the pool, so nesting and concurrent callers cannot deadlock.

use std::any::Any;
use std::cell::Cell;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why a fan-out ran inline on its caller instead of on the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Inline {
    /// Called from inside a pool job (a task of another fan-out).
    Nested,
    /// Another caller's job was published or still draining.
    Busy,
}

impl Inline {
    /// The value of the `inline` arg on the `par.fanout` span.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Inline::Nested => "nested",
            Inline::Busy => "busy",
        }
    }
}

type Body<'a> = dyn Fn(usize) + Sync + 'a;

struct State {
    /// The published body, present from publish until the caller
    /// retracts it. Helpers only copy it out under the lock.
    job: Option<&'static Body<'static>>,
    /// Publish count; a helper joins each job at most once.
    generation: u64,
    /// Helper seats still open on the published job.
    seats: usize,
    /// The worker index the next joining helper takes.
    next_worker: usize,
    /// Helpers currently inside the body.
    active: usize,
    /// A caller owns the pool: set at publish, cleared once the job
    /// is retracted and `active` has drained to zero.
    busy: bool,
    /// Helper threads spawned so far.
    helpers: usize,
    /// The first panic a helper caught in the current job.
    panic: Option<Box<dyn Any + Send>>,
}

struct Pool {
    state: Mutex<State>,
    /// Helpers park here waiting for a job.
    work: Condvar,
    /// The caller waits here for joined helpers to leave.
    drained: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        job: None,
        generation: 0,
        seats: 0,
        next_worker: 0,
        active: 0,
        busy: false,
        helpers: 0,
        panic: None,
    }),
    work: Condvar::new(),
    drained: Condvar::new(),
};

thread_local! {
    /// Set while this thread runs a pool job's body.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, State> {
        // Nothing that can panic runs under this lock (task bodies run
        // with it released), so a poisoned guard still holds a
        // consistent state.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Run `body(w)` for worker 0 on the caller and for workers
/// `1..workers` on whichever parked helpers join before the caller
/// finishes. Every body must claim its work from shared state, since
/// any subset of the helper indices may never run. Returns `Some` when
/// the fan-out ran inline (worker 0 only) and why.
///
/// Returns only after every helper that joined has left `body`. A
/// panic in a helper's body is caught there and re-raised here.
pub(crate) fn run(workers: usize, body: &Body<'_>) -> Option<Inline> {
    if IN_JOB.with(Cell::get) {
        body(0);
        return Some(Inline::Nested);
    }
    let mut st = POOL.lock();
    if st.busy {
        drop(st);
        body(0);
        return Some(Inline::Busy);
    }
    let seats = workers.saturating_sub(1);
    // Helpers live for the process and are never joined; they catch
    // every task panic, so a detached handle hides none.
    while st.helpers < seats {
        let spawned = std::thread::Builder::new()
            .name(format!("gtpin-par-{}", st.helpers + 1))
            .spawn(helper);
        if spawned.is_err() {
            // Fewer helpers only means less parallelism.
            break;
        }
        st.helpers += 1;
    }
    // SAFETY: the `'static` reference to `body` is reachable only
    // through `State::job`. The `Retract` guard below removes it from
    // `job` and then waits until `active` is zero before this function
    // returns or unwinds, and helpers copy `job` out and call it only
    // while counted in `active`. So no helper can call `body` after
    // the borrow it was made from ends.
    let job = unsafe { std::mem::transmute::<&Body<'_>, &'static Body<'static>>(body) };
    st.job = Some(job);
    st.generation += 1;
    st.seats = seats;
    st.next_worker = 1;
    st.busy = true;
    drop(st);
    POOL.work.notify_all();

    let mut retract = Retract { done: false };
    {
        let _in_job = InJob::enter();
        body(0);
    }
    if let Some(payload) = retract.finish() {
        std::panic::resume_unwind(payload);
    }
    None
}

/// Withdraws the caller's job and waits for joined helpers to leave
/// it, on the normal path through [`Retract::finish`] and on unwind
/// through `Drop`. This join-before-return is what makes the lifetime
/// erasure in [`run`] sound.
struct Retract {
    done: bool,
}

impl Retract {
    fn finish(&mut self) -> Option<Box<dyn Any + Send>> {
        if self.done {
            return None;
        }
        self.done = true;
        let mut st = POOL.lock();
        st.job = None;
        st.seats = 0;
        while st.active > 0 {
            st = POOL.drained.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.busy = false;
        st.panic.take()
    }
}

impl Drop for Retract {
    fn drop(&mut self) {
        // Unwinding from the caller's own body: its panic wins, and a
        // helper panic from the same job is dropped with the job.
        let _ = self.finish();
    }
}

/// Marks the current thread as running a pool job, for the guard's
/// scope.
struct InJob {
    was: bool,
}

impl InJob {
    fn enter() -> InJob {
        InJob {
            was: IN_JOB.with(|f| f.replace(true)),
        }
    }
}

impl Drop for InJob {
    fn drop(&mut self) {
        IN_JOB.with(|f| f.set(self.was));
    }
}

/// A helper's whole life: park, join each new job at most once while
/// seats are open, run the body outside the lock, report back.
fn helper() {
    let _in_job = InJob::enter();
    let mut seen = 0u64;
    let mut st = POOL.lock();
    loop {
        let open = st.seats > 0 && st.generation != seen;
        let Some(job) = st.job.filter(|_| open) else {
            st = POOL.work.wait(st).unwrap_or_else(|e| e.into_inner());
            continue;
        };
        seen = st.generation;
        st.seats -= 1;
        st.active += 1;
        let worker = st.next_worker;
        st.next_worker += 1;
        drop(st);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(worker)));
        st = POOL.lock();
        if let Err(payload) = result {
            st.panic.get_or_insert(payload);
        }
        st.active -= 1;
        if st.active == 0 {
            POOL.drained.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Barrier};

    fn on_helper() -> bool {
        std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("gtpin-par-"))
    }

    /// Wait (without sleeping) until a helper has started a task.
    fn wait_for(flag: &AtomicBool) {
        while !flag.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    }

    fn mix(a: usize, b: usize) -> u64 {
        ((a as u64) << 32 | b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7
    }

    /// One outer task: a nested fill and a nested indexed fan-out,
    /// folded together.
    fn nested_task(i: usize, threads: usize) -> u64 {
        let mut fill = vec![0u64; 64 + i % 7];
        crate::parallel_fill(&mut fill, threads, 0, |j| mix(i, j));
        let inner = crate::parallel_indexed(5 + i % 3, threads, |j| mix(j, i));
        fill.iter()
            .chain(&inner)
            .fold(0, |acc, &x| acc.rotate_left(5) ^ x)
    }

    fn pool_is_idle() -> bool {
        let st = POOL.lock();
        st.job.is_none() && st.seats == 0 && st.active == 0 && !st.busy && st.panic.is_none()
    }

    #[test]
    fn concurrent_callers_with_nested_fanouts_match_serial() {
        let _guard = crate::test_guard();
        const CALLERS: usize = 4;
        const ROUNDS: usize = 25;
        let serial = crate::parallel_indexed(40, 1, |i| nested_task(i, 1));
        for threads in 2..=8 {
            let start = Barrier::new(CALLERS);
            std::thread::scope(|s| {
                for caller in 0..CALLERS {
                    let (start, serial) = (&start, &serial);
                    s.spawn(move || {
                        start.wait();
                        for round in 0..ROUNDS {
                            let out =
                                crate::parallel_indexed(40, threads, |i| nested_task(i, threads));
                            assert_eq!(
                                &out, serial,
                                "threads {threads}, caller {caller}, round {round}"
                            );
                        }
                    });
                }
            });
            assert!(pool_is_idle(), "threads {threads}");
        }
    }

    #[test]
    fn a_fanout_issued_while_another_drains_runs_inline() {
        let _guard = crate::test_guard();
        let serial = crate::parallel_indexed(12, 1, |i| nested_task(i, 1));
        let started = AtomicBool::new(false);
        let second = Mutex::new(None);
        let out = crate::parallel_indexed(2, 2, |i| {
            if on_helper() {
                started.store(true, Ordering::SeqCst);
                // The caller has finished its own claims and retracted
                // the job, but is still draining: this helper is
                // inside the body. A second caller arriving now must
                // run inline, not publish.
                while POOL.lock().job.is_some() {
                    std::thread::yield_now();
                }
                let (done_tx, done_rx) = mpsc::channel();
                let handle = std::thread::spawn(move || {
                    let inline = run(2, &|_| {});
                    let results = crate::parallel_indexed(12, 2, |j| nested_task(j, 2));
                    let _ = done_tx.send((inline, results));
                });
                // A second caller that published would wait on this
                // helper forever; the timeout only turns that hang
                // into a failure.
                let seen = done_rx.recv_timeout(std::time::Duration::from_secs(10));
                *second.lock().expect("no panic while held") = Some((seen.ok(), handle));
            } else {
                wait_for(&started);
            }
            i
        });
        assert_eq!(out, vec![0, 1]);
        let (seen, handle) = second
            .into_inner()
            .expect("no panic while held")
            .expect("a helper ran one task");
        handle.join().expect("the second caller completes");
        let (inline, results) = seen.expect("the second caller did not wait for the draining job");
        assert_eq!(inline, Some(Inline::Busy));
        assert_eq!(results, serial);
        assert!(pool_is_idle());
    }

    #[test]
    fn a_helper_panic_surfaces_in_the_caller_and_the_pool_recovers() {
        let _guard = crate::test_guard();
        // A genuine panic, not an injected one: with faults armed the
        // task would be caught and retried instead.
        gtpin_faults::disable();
        let started = AtomicBool::new(false);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::parallel_indexed(2, 2, |i| {
                if on_helper() {
                    started.store(true, Ordering::SeqCst);
                    panic!("genuine task failure in task {i}");
                }
                wait_for(&started);
                i
            })
        }));
        let payload = caught.expect_err("the helper's panic reaches the caller");
        let msg = payload
            .downcast_ref::<String>()
            .expect("panic! with format args carries a String");
        assert!(msg.starts_with("genuine task failure"), "{msg}");
        assert!(!POOL.state.is_poisoned());
        assert!(pool_is_idle(), "no leaked job, seat or payload");

        for threads in 2..=4 {
            let out = crate::parallel_indexed(64, threads, |i| i * 3);
            assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
        }
        assert!(pool_is_idle());
    }
}
