//! Piece dispatch: run a cross-shard transaction's pieces concurrently
//! without paying for a fresh OS thread per piece.
//!
//! The submitting thread runs one piece itself; every other piece goes to
//! a parked helper thread that [`Helpers`] reuses across transactions. A
//! helper is spawned only when none is idle, so the set grows to the
//! fleet's peak piece concurrency and needs no size knob. Dropping the
//! set stops and joins every helper.
//!
//! A job that panics on a helper is caught there and re-raised on the
//! submitting thread once every job of its batch has reported — the
//! `join().expect` of a scoped spawn, without the spawn.

use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

type Job = Box<dyn FnOnce() + Send>;

enum Mailbox {
    Empty,
    Run(Job),
    Exit,
}

/// One helper thread's mailbox.
struct Slot {
    mailbox: Mutex<Mailbox>,
    cv: Condvar,
}

impl Slot {
    fn give(&self, job: Job) {
        *self.mailbox.lock() = Mailbox::Run(job);
        self.cv.notify_one();
    }

    fn stop(&self) {
        *self.mailbox.lock() = Mailbox::Exit;
        self.cv.notify_one();
    }

    /// The helper thread's body: run jobs until told to exit.
    fn serve(&self) {
        loop {
            let job = {
                let mut mailbox = self.mailbox.lock();
                loop {
                    match std::mem::replace(&mut *mailbox, Mailbox::Empty) {
                        Mailbox::Run(job) => break job,
                        Mailbox::Exit => return,
                        Mailbox::Empty => self.cv.wait(&mut mailbox),
                    }
                }
            };
            job();
        }
    }
}

/// The outcomes of one batch's helper jobs, in job order.
struct Batch<T> {
    state: Mutex<(Vec<Option<thread::Result<T>>>, usize)>,
    cv: Condvar,
}

impl<T> Batch<T> {
    fn put(&self, i: usize, out: thread::Result<T>) {
        let mut st = self.state.lock();
        st.0[i] = Some(out);
        st.1 -= 1;
        if st.1 == 0 {
            self.cv.notify_one();
        }
    }
}

/// Reusable helper threads (see the module docs).
#[derive(Default)]
pub(crate) struct Helpers {
    idle: Arc<Mutex<Vec<Arc<Slot>>>>,
    all: Mutex<Vec<(Arc<Slot>, JoinHandle<()>)>>,
}

impl Helpers {
    /// Run every job of `remote` on a helper and `here` on the calling
    /// thread, all concurrently. Returns the outcomes in job order,
    /// `here`'s last. Panics if any helper job panicked.
    pub(crate) fn run<T, F>(&self, remote: Vec<F>, here: impl FnOnce() -> T) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        if remote.is_empty() {
            return vec![here()];
        }
        let n = remote.len();
        let batch = Arc::new(Batch {
            state: Mutex::new(((0..n).map(|_| None).collect(), n)),
            cv: Condvar::new(),
        });
        for (i, job) in remote.into_iter().enumerate() {
            let slot = self.idle_or_spawn();
            let me = Arc::clone(&slot);
            let idle = Arc::clone(&self.idle);
            let batch = Arc::clone(&batch);
            slot.give(Box::new(move || {
                let out = catch_unwind(AssertUnwindSafe(job));
                // Park before reporting: a submitter woken by this report
                // finds the helper idle instead of spawning another.
                idle.lock().push(me);
                batch.put(i, out);
            }));
        }
        let mine = here();
        let mut st = batch.state.lock();
        while st.1 > 0 {
            batch.cv.wait(&mut st);
        }
        let mut out: Vec<T> = Vec::with_capacity(n + 1);
        for res in st.0.drain(..) {
            match res.expect("every helper job reported") {
                Ok(v) => out.push(v),
                Err(panic) => resume_unwind(panic),
            }
        }
        out.push(mine);
        out
    }

    fn idle_or_spawn(&self) -> Arc<Slot> {
        if let Some(slot) = self.idle.lock().pop() {
            return slot;
        }
        let slot = Arc::new(Slot { mailbox: Mutex::new(Mailbox::Empty), cv: Condvar::new() });
        let mine = Arc::clone(&slot);
        let handle = thread::Builder::new()
            .name("semcc-piece".into())
            .spawn(move || mine.serve())
            .expect("spawn a piece helper thread");
        self.all.lock().push((Arc::clone(&slot), handle));
        slot
    }

    /// Helper threads spawned so far (idle or busy).
    #[cfg(test)]
    fn spawned(&self) -> usize {
        self.all.lock().len()
    }
}

impl Drop for Helpers {
    fn drop(&mut self) {
        for (slot, handle) in self.all.lock().drain(..) {
            slot.stop();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn outcomes_come_back_in_job_order_with_the_callers_last() {
        let helpers = Helpers::default();
        let out = helpers.run((0..3).map(|i| move || i * 10).collect(), || 99);
        assert_eq!(out, vec![0, 10, 20, 99]);
    }

    #[test]
    fn idle_helpers_are_reused_across_batches() {
        let helpers = Helpers::default();
        for _ in 0..50 {
            helpers.run((1..=2).map(|i| move || i).collect(), || 3);
        }
        assert_eq!(helpers.spawned(), 2, "sequential batches of two remote jobs need two helpers");
    }

    #[test]
    fn jobs_overlap_with_the_caller() {
        let helpers = Helpers::default();
        let nap = Duration::from_millis(50);
        let t0 = Instant::now();
        helpers.run(vec![move || thread::sleep(nap)], || thread::sleep(nap));
        assert!(t0.elapsed() < nap * 3 / 2, "took {:?}", t0.elapsed());
    }

    #[test]
    fn a_helper_panic_is_raised_on_the_submitter() {
        let helpers = Helpers::default();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            helpers.run(vec![|| -> u32 { panic!("piece exploded") }], || 1)
        }));
        let msg = caught.expect_err("the helper's panic must reach the caller");
        assert_eq!(msg.downcast_ref::<&str>(), Some(&"piece exploded"));
        // The helper survived its job's panic and serves the next batch.
        assert_eq!(helpers.run(vec![|| 5], || 6), vec![5, 6]);
        assert_eq!(helpers.spawned(), 1);
    }
}
