//! Task queues and the TaskCount termination counter (§3.1–3.2).
//!
//! A task is one schedulable node activation, represented — as in the paper
//! — by the token itself plus its destination (node id and input side). The
//! queues are plain deques behind spin locks; using 1 queue reproduces
//! Table 4-5, multiple queues Table 4-6. A push or a pop hands back the
//! spins of the one acquisition that moved its task, for the caller to book
//! (Table 4-7): a queue acquisition is a lock that pushes or pops a task,
//! and an idle poll of an empty queue is none: it reads the queue's length
//! and leaves the lock to the pushers.
//!
//! **TaskCount** holds (tokens in queues) + (tokens being processed): it is
//! incremented *before* a task is pushed and decremented only after the
//! processing of a popped task — including pushing its children — has
//! finished, so it reaches zero exactly when the match phase is complete.

use crate::sync::SpinLock;
use ops5::{ProdId, Sign, WmeRef};
use rete::network::JoinId;
use rete::token::Token;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

/// One schedulable unit of match work.
#[derive(Debug, Clone)]
pub enum ParTask {
    /// One WME change, bound for its class's constant-test patterns.
    Root { sign: Sign, wme: WmeRef },
    /// Token bound for the left input of a two-input node.
    Left {
        join: JoinId,
        sign: Sign,
        token: Token,
    },
    /// WME bound for the right input of a two-input node.
    Right {
        join: JoinId,
        sign: Sign,
        wme: WmeRef,
    },
    /// Token bound for a terminal node.
    Terminal {
        prod: ProdId,
        sign: Sign,
        token: Token,
    },
}

/// The global count of tokens on queues plus tokens being processed.
#[derive(Default)]
pub struct TaskCount(AtomicI64);

impl TaskCount {
    pub fn new() -> Self {
        TaskCount(AtomicI64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::AcqRel);
    }

    #[inline]
    pub fn dec(&self) {
        let prev = self.0.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "TaskCount underflow");
    }

    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0.load(Ordering::Acquire) == 0
    }

    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Acquire)
    }
}

/// One task queue, and its length as of the last push or pop, written
/// under the lock so that a poll can pass an empty queue without taking it.
struct TaskQueue {
    tasks: SpinLock<VecDeque<ParTask>>,
    len: AtomicUsize,
}

/// `k` task queues plus the TaskCount.
pub struct Scheduler {
    queues: Vec<TaskQueue>,
    count: TaskCount,
}

impl Scheduler {
    pub fn new(n_queues: usize) -> Scheduler {
        let n = n_queues.max(1);
        Scheduler {
            queues: (0..n)
                .map(|_| TaskQueue {
                    tasks: SpinLock::new(VecDeque::new()),
                    len: AtomicUsize::new(0),
                })
                .collect(),
            count: TaskCount::new(),
        }
    }

    pub fn n_queues(&self) -> usize {
        self.queues.len()
    }

    pub fn task_count(&self) -> &TaskCount {
        &self.count
    }

    /// Pushes a new task; returns the spins of the queue lock that took it.
    /// `cursor` is the caller's rotating queue cursor (each process
    /// distributes its pushes round-robin over the queues).
    pub fn push(&self, task: ParTask, cursor: &mut usize) -> u64 {
        self.count.inc();
        self.push_requeue(task, cursor)
    }

    /// Re-pushes a task that was popped but could not run (MRSW line busy
    /// from the other side, §3.2). The task is still accounted for in
    /// TaskCount, so no increment.
    pub fn push_requeue(&self, task: ParTask, cursor: &mut usize) -> u64 {
        let q = *cursor % self.queues.len();
        *cursor = cursor.wrapping_add(1);
        let q = &self.queues[q];
        let mut tasks = q.tasks.lock();
        tasks.push_back(task);
        q.len.store(tasks.len(), Ordering::Relaxed);
        tasks.spins
    }

    /// Pops a task: the home queue first, then the others round-robin.
    /// Returns it with the spins of the acquisition that moved it, or
    /// `None` when every queue is empty (the caller spins on TaskCount).
    /// A queue whose length reads zero is passed without its lock; a push
    /// that read misses is found on the caller's next poll, and TaskCount
    /// keeps the match phase open until then.
    pub fn pop(&self, home: usize) -> Option<(ParTask, u64)> {
        let n = self.queues.len();
        (0..n).find_map(|i| {
            let q = &self.queues[(home + i) % n];
            if q.len.load(Ordering::Relaxed) == 0 {
                return None;
            }
            let mut tasks = q.tasks.lock();
            let task = tasks.pop_front()?;
            q.len.store(tasks.len(), Ordering::Relaxed);
            Some((task, tasks.spins))
        })
    }

    /// Marks a popped task fully processed (children already pushed).
    #[inline]
    pub fn task_done(&self) {
        self.count.dec();
    }

    /// Match phase complete?
    #[inline]
    pub fn quiescent(&self) -> bool {
        self.count.is_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops5::{SymbolId, Value, Wme};

    fn task(tag: u64) -> ParTask {
        ParTask::Root {
            sign: Sign::Plus,
            wme: Wme::new(SymbolId(1), vec![Value::Int(1)], tag),
        }
    }

    fn tag_of(t: &ParTask) -> u64 {
        match t {
            ParTask::Root { wme, .. } => wme.timetag,
            _ => unreachable!(),
        }
    }

    #[test]
    fn push_pop_fifo_single_queue() {
        let s = Scheduler::new(1);
        let mut cur = 0;
        s.push(task(1), &mut cur);
        s.push(task(2), &mut cur);
        assert_eq!(s.task_count().value(), 2);
        assert_eq!(tag_of(&s.pop(0).unwrap().0), 1);
        assert_eq!(tag_of(&s.pop(0).unwrap().0), 2);
        assert!(s.pop(0).is_none());
        // Still 2: pops don't decrement; processing completion does.
        assert_eq!(s.task_count().value(), 2);
        s.task_done();
        s.task_done();
        assert!(s.quiescent());
    }

    #[test]
    fn round_robin_distribution() {
        let s = Scheduler::new(4);
        let mut cur = 0;
        for i in 0..8 {
            s.push(task(i), &mut cur);
        }
        // Each queue got 2 tasks; popping from home=1 drains queue 1 first.
        let (t, _) = s.pop(1).unwrap();
        assert_eq!(tag_of(&t), 1);
    }

    #[test]
    fn pop_steals_from_other_queues() {
        let s = Scheduler::new(4);
        let mut cur = 2; // push lands in queue 2
        s.push(task(7), &mut cur);
        let (t, _) = s.pop(0).unwrap();
        assert_eq!(tag_of(&t), 7);
    }

    #[test]
    fn requeue_does_not_double_count() {
        let s = Scheduler::new(1);
        let mut cur = 0;
        s.push(task(1), &mut cur);
        let (t, _) = s.pop(0).unwrap();
        s.push_requeue(t, &mut cur);
        assert_eq!(s.task_count().value(), 1);
        let _ = s.pop(0).unwrap();
        s.task_done();
        assert!(s.quiescent());
    }

    /// An idle poll takes no lock: while another thread holds an empty
    /// queue's lock, `pop` passes that queue and returns at once.
    #[test]
    fn pop_passes_an_empty_queue_without_its_lock() {
        use std::sync::mpsc;
        use std::time::Duration;
        let s = std::sync::Arc::new(Scheduler::new(2));
        let held = s.queues[0].tasks.lock();
        let (tx, rx) = mpsc::channel();
        let poller = {
            let s = s.clone();
            std::thread::spawn(move || tx.send(s.pop(0).is_none()).unwrap())
        };
        let empty = rx.recv_timeout(Duration::from_secs(10));
        drop(held);
        poller.join().unwrap();
        assert_eq!(empty, Ok(true), "pop waited for an empty queue's lock");
    }

    #[test]
    fn concurrent_producers_consumers() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let s = Arc::new(Scheduler::new(4));
        let consumed = Arc::new(AtomicU64::new(0));
        // Each thread books its own acquisitions, as a match process does.
        let mut handles = Vec::new();
        for p in 0..2 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                let mut cur = p;
                for i in 0..1000 {
                    s.push(task(i), &mut cur);
                }
                1000
            }));
        }
        for c in 0..2 {
            let s = s.clone();
            let consumed = consumed.clone();
            handles.push(std::thread::spawn(move || {
                let mut acqs = 0;
                loop {
                    if let Some(_t) = s.pop(c) {
                        acqs += 1;
                        consumed.fetch_add(1, Ordering::Relaxed);
                        s.task_done();
                    } else if consumed.load(Ordering::Relaxed) == 2000 {
                        return acqs;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }));
        }
        let acqs: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(consumed.load(Ordering::Relaxed), 2000);
        assert!(s.quiescent());
        assert_eq!(acqs, 4000, "one acquisition per push and per pop");
    }
}
