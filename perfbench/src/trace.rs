//! Outside-in tracing for the traced run.
//!
//! Spans are recorded only in this crate's wrappers around the seams the
//! engine already accepts: [`TracedStorage`] (the `Storage` trait object
//! handed to `Engine::builder`), [`TracedProgram`] / its method context
//! (`TransactionProgram::run` and the program's top-level `invoke`s), and
//! explicit calls around `Service::submit` / `Ticket::wait` and
//! `Coordinator::submit_with_retry`. One transaction in `every` is
//! sampled; for the others each wrapper pays one thread-local check.
//!
//! Spans of one transaction share its id and name their parent. They are
//! kept in memory and folded into a [`Ledger`] after the pass.

use crate::load::quantile;
use semcc_core::TransactionProgram;
use semcc_objstore::MemoryStore;
use semcc_semantics::{
    Catalog, Invocation, MethodContext, ObjectId, PageId, Result, Storage, StoreDump, TypeId, Value,
};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One transaction: call → return of the engine's retry loop, or for
    /// a service session first attempt start → ticket resolved.
    Txn,
    /// Service session: submit → ticket resolved.
    Session,
    /// Service queue: submit → first attempt starts.
    Queue,
    /// Zero-length marker: the core thread that ran the session started
    /// the next one (an upper bound on when this session left the engine).
    CoreDone,
    /// One `TransactionProgram::run` call.
    Attempt,
    /// One top-level `invoke` made by the program.
    Invoke,
    /// One storage call.
    Leaf,
    /// `object_version` / `quiesce_token`: snapshot validation.
    ValidateLeaf,
    /// `checkpoint_dump`.
    CheckpointLeaf,
    /// `Coordinator::submit_with_retry`.
    Submit,
}

/// Id of a transaction's root span; the service spans take the next two.
const ROOT: u32 = 0;
const FIRST_CHILD: u32 = 3;
const CORE_DONE: u32 = u32::MAX - 1;
const NO_PARENT: u32 = u32::MAX;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
struct Span {
    /// Transaction id shared by all spans of one transaction.
    txn: u32,
    /// Span id, unique within the transaction.
    id: u32,
    /// Parent span id ([`NO_PARENT`] for roots).
    parent: u32,
    /// What it covers.
    kind: Kind,
    /// Transaction class for root spans: bit 0 read-only, bit 1 cross-shard.
    tag: u8,
    /// Start, ns since epoch.
    start: u64,
    /// End, ns since epoch.
    end: u64,
}

struct Active {
    txn: u32,
    stack: Vec<u32>,
    next_id: u32,
}

thread_local! {
    static ACTIVE: RefCell<Option<Active>> = const { RefCell::new(None) };
}

/// The span collector of one traced pass.
pub struct Tracer {
    epoch: Instant,
    every: u64,
    next_txn: AtomicU32,
    spans: Mutex<Vec<Span>>,
    checkpoints: AtomicU64,
    checkpoint_ns: AtomicU64,
}

impl Tracer {
    /// A collector sampling one transaction in `every`.
    pub fn new(every: u64) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            every: every.max(1),
            next_txn: AtomicU32::new(0),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            checkpoints: AtomicU64::new(0),
            checkpoint_ns: AtomicU64::new(0),
        })
    }

    /// Whether the `n`-th transaction of a client is sampled.
    pub fn sampled(&self, n: u64) -> bool {
        n.is_multiple_of(self.every)
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh transaction id.
    pub fn new_txn(&self) -> u32 {
        self.next_txn.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Record a root-level span of transaction `txn` directly.
    pub fn record(&self, txn: u32, kind: Kind, tag: u8, start: u64, end: u64) {
        let id = match kind {
            Kind::Session => 1,
            Kind::Queue => 2,
            _ => ROOT,
        };
        self.push(Span { txn, id, parent: NO_PARENT, kind, tag, start, end });
    }

    /// Run `f` as one sampled transaction of class `tag` on the calling
    /// thread (direct calls).
    pub fn txn<T>(&self, tag: u8, f: impl FnOnce() -> T) -> T {
        let txn = self.new_txn();
        self.activate(txn);
        let start = self.now();
        let out = f();
        let end = self.now();
        self.deactivate();
        self.record(txn, Kind::Txn, tag, start, end);
        out
    }

    /// Make the calling thread's next spans children of `txn`'s root.
    fn activate(&self, txn: u32) {
        ACTIVE.with(|a| {
            *a.borrow_mut() = Some(Active { txn, stack: vec![ROOT], next_id: FIRST_CHILD });
        });
    }

    /// Stop attributing the calling thread's spans; returns the
    /// transaction that was active.
    fn deactivate(&self) -> Option<u32> {
        ACTIVE.with(|a| a.borrow_mut().take().map(|act| act.txn))
    }

    /// Run `f` inside a child span of the active transaction, if any.
    pub fn span<T>(&self, kind: Kind, f: impl FnOnce() -> T) -> T {
        let open = ACTIVE.with(|a| {
            let mut a = a.borrow_mut();
            let act = a.as_mut()?;
            let id = act.next_id;
            act.next_id += 1;
            let parent = *act.stack.last().expect("root stays on the stack");
            act.stack.push(id);
            Some((act.txn, id, parent))
        });
        let Some((txn, id, parent)) = open else { return f() };
        let start = self.now();
        let out = f();
        let end = self.now();
        ACTIVE.with(|a| {
            if let Some(act) = a.borrow_mut().as_mut() {
                act.stack.pop();
            }
        });
        self.push(Span { txn, id, parent, kind, tag: 0, start, end });
        out
    }

    fn checkpoint_dump(&self, f: impl FnOnce() -> Option<StoreDump>) -> Option<StoreDump> {
        // Checkpoints are rare and long: time every one, sampled or not.
        let t0 = Instant::now();
        let out = self.span(Kind::CheckpointLeaf, f);
        self.checkpoint_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Mean duration of a checkpoint dump in ms (0 when none ran).
    pub fn checkpoint_dump_ms(&self) -> f64 {
        let n = self.checkpoints.load(Ordering::Relaxed);
        if n == 0 {
            return 0.0;
        }
        self.checkpoint_ns.load(Ordering::Relaxed) as f64 / n as f64 / 1e6
    }

    /// Fold the recorded spans into the per-layer ledger.
    pub fn ledger(&self) -> Ledger {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"));
        spans.sort_by_key(|s| (s.txn, s.id));
        let mut l = Ledger::default();
        let mut queue = Vec::new();
        let mut exec = Vec::new();
        let mut submit: [Vec<u32>; 2] = Default::default();
        for txn in spans.chunk_by(|a, b| a.txn == b.txn) {
            if let Some(s) = txn.iter().find(|s| s.kind == Kind::Submit) {
                submit[usize::from(s.tag & 2 != 0)].push((s.end - s.start) as u32);
                continue;
            }
            let Some(root) = txn.iter().find(|s| s.kind == Kind::Txn) else { continue };
            // A session leaves the engine no later than its core thread
            // starts the next one; the rest is the hand-off to the client.
            let core_done = txn
                .iter()
                .find(|s| s.kind == Kind::CoreDone)
                .map_or(root.end, |s| s.start.clamp(root.start, root.end));
            let t = (core_done - root.start) as f64;
            l.handoff_ns += (root.end - core_done) as f64;
            if let Some(q) = txn.iter().find(|s| s.kind == Kind::Queue) {
                queue.push((q.end - q.start) as u32);
            }
            exec.push((core_done - root.start) as u32);
            let kind_of =
                |id: u32| txn.binary_search_by_key(&id, |s| s.id).ok().map(|k| txn[k].kind);
            let (mut a, mut i, mut s_inv, mut s_att, mut s_txn, mut calls, mut validate) =
                (0.0, 0.0, 0.0, 0.0, 0.0, 0u64, 0.0);
            for s in txn {
                let d = (s.end - s.start) as f64;
                match s.kind {
                    Kind::Attempt => a += d,
                    Kind::Invoke => i += d,
                    Kind::Leaf | Kind::ValidateLeaf | Kind::CheckpointLeaf => {
                        calls += 1;
                        if s.kind == Kind::ValidateLeaf {
                            validate += d;
                        }
                        match kind_of(s.parent) {
                            Some(Kind::Invoke) => s_inv += d,
                            Some(Kind::Attempt) => s_att += d,
                            _ => s_txn += d,
                        }
                    }
                    _ => {}
                }
            }
            let layers = [t - a - s_txn, i - s_inv, s_inv + s_att + s_txn, a - i - s_att];
            if layers.iter().any(|v| *v < -1_000.0) {
                l.nesting_violations += 1;
            }
            l.txns += 1;
            l.span_ns += t;
            l.engine_ns += layers[0];
            l.kernel_ns += layers[1];
            l.objstore_ns += layers[2];
            l.unattributed_ns += layers[3];
            let class = &mut l.class[usize::from(root.tag & 1 != 0)];
            class.txns += 1;
            class.calls += calls;
            class.objstore_ns += layers[2];
            class.validate_ns += validate;
        }
        let q = |v: &mut Vec<u32>, p| quantile(v, p).map_or(0.0, |ns| ns as f64 / 1e3);
        l.queue_p50_us = q(&mut queue, 0.5);
        l.queue_p99_us = q(&mut queue, 0.99);
        l.exec_p50_us = q(&mut exec, 0.5);
        l.submit_p50_us = [q(&mut submit[0], 0.5), q(&mut submit[1], 0.5)];
        l.submits = [submit[0].len(), submit[1].len()];
        l.submit_mean_us =
            submit.map(|v| v.iter().map(|&x| x as f64).sum::<f64>() / v.len().max(1) as f64 / 1e3);
        l.checkpoint_dump_ms = self.checkpoint_dump_ms();
        l
    }
}

/// Per-class totals of sampled transactions.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassTotals {
    /// Sampled transactions of the class.
    pub txns: u64,
    /// Storage calls they made.
    pub calls: u64,
    /// Time they spent in storage calls, ns.
    pub objstore_ns: f64,
    /// Of which snapshot validation (`object_version`, `quiesce_token`), ns.
    pub validate_ns: f64,
}

/// The per-layer self-time ledger of one traced pass. Totals are sums
/// over the sampled transactions; the `*_us` accessors give means per
/// transaction. By construction engine + kernel + objstore +
/// unattributed equals the transaction span; `nesting_violations` counts
/// transactions where a child span did not fit inside its parent.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Sampled transactions with a transaction span.
    pub txns: u64,
    /// Transaction span total (service: up to the core thread's release).
    pub span_ns: f64,
    /// Span minus attempt bodies minus storage calls outside them.
    pub engine_ns: f64,
    /// Top-level invokes minus their storage calls (lock manager, lock
    /// waits and method bodies).
    pub kernel_ns: f64,
    /// All storage calls.
    pub objstore_ns: f64,
    /// Attempt bodies minus invokes and direct storage calls (program
    /// glue and the wrappers themselves).
    pub unattributed_ns: f64,
    /// Service: core thread release → client observes the ticket.
    pub handoff_ns: f64,
    /// `[update, read]` totals.
    pub class: [ClassTotals; 2],
    /// Transactions whose spans did not nest.
    pub nesting_violations: u64,
    /// Service queue wait p50, µs.
    pub queue_p50_us: f64,
    /// Service queue wait p99, µs.
    pub queue_p99_us: f64,
    /// Service execution (first attempt → core release) p50, µs.
    pub exec_p50_us: f64,
    /// Fleet submit p50 `[local, cross]`, µs.
    pub submit_p50_us: [f64; 2],
    /// Fleet submit mean `[local, cross]`, µs.
    pub submit_mean_us: [f64; 2],
    /// Fleet submits sampled `[local, cross]`.
    pub submits: [usize; 2],
    /// Mean checkpoint dump, ms.
    pub checkpoint_dump_ms: f64,
}

impl Ledger {
    /// Mean per sampled transaction, µs.
    pub fn per_txn_us(&self, total_ns: f64) -> f64 {
        if self.txns == 0 {
            0.0
        } else {
            total_ns / self.txns as f64 / 1e3
        }
    }

    /// Unattributed time over the transaction span.
    pub fn unattributed_share(&self) -> f64 {
        if self.span_ns > 0.0 {
            self.unattributed_ns / self.span_ns
        } else {
            0.0
        }
    }

    /// Human-readable ledger lines.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.txns > 0 {
            let row = |name: &str, ns: f64| {
                format!(
                    "  {name:<14} {:>10.2} us/txn {:>6.1}%",
                    self.per_txn_us(ns),
                    if self.span_ns > 0.0 { 100.0 * ns / self.span_ns } else { 0.0 }
                )
            };
            out.push(format!("ledger over {} sampled transactions:", self.txns));
            out.push(row("engine", self.engine_ns));
            out.push(row("kernel", self.kernel_ns));
            out.push(row("objstore", self.objstore_ns));
            out.push(row("unattributed", self.unattributed_ns));
            out.push(format!(
                "  {:<14} {:>10.2} us/txn (= engine + kernel + objstore + unattributed)",
                "txn span",
                self.per_txn_us(self.span_ns)
            ));
            if self.queue_p50_us > 0.0 || self.handoff_ns > 0.0 {
                out.push(format!(
                    "  service: queue p50 {:.2} us, p99 {:.2} us; exec p50 {:.2} us; hand-off {:.2} us/txn",
                    self.queue_p50_us,
                    self.queue_p99_us,
                    self.exec_p50_us,
                    self.per_txn_us(self.handoff_ns)
                ));
            }
            out.push(format!("  nesting violations: {}", self.nesting_violations));
        }
        if self.submits.iter().sum::<usize>() > 0 {
            out.push(format!(
                "dist submit ledger: local {} sampled, p50 {:.2} us, mean {:.2} us; \
                 cross {} sampled, p50 {:.2} us, mean {:.2} us",
                self.submits[0],
                self.submit_p50_us[0],
                self.submit_mean_us[0],
                self.submits[1],
                self.submit_p50_us[1],
                self.submit_mean_us[1]
            ));
        }
        out
    }
}

/// A `Storage` that forwards every call — the versioned reads, snapshot
/// validation, write intents, quiescence token and checkpoint dump
/// included — to a `MemoryStore`, timing each as a leaf span.
pub struct TracedStorage {
    inner: Arc<MemoryStore>,
    tracer: Arc<Tracer>,
}

impl TracedStorage {
    /// Wrap `inner`.
    pub fn new(inner: Arc<MemoryStore>, tracer: Arc<Tracer>) -> TracedStorage {
        TracedStorage { inner, tracer }
    }

    fn leaf<T>(&self, f: impl FnOnce(&MemoryStore) -> T) -> T {
        self.tracer.span(Kind::Leaf, || f(&self.inner))
    }
}

impl Storage for TracedStorage {
    fn get(&self, o: ObjectId) -> Result<Value> {
        self.leaf(|s| s.get(o))
    }
    fn put(&self, o: ObjectId, v: Value) -> Result<Value> {
        self.leaf(|s| s.put(o, v))
    }
    fn set_select(&self, set: ObjectId, key: u64) -> Result<Option<ObjectId>> {
        self.leaf(|s| s.set_select(set, key))
    }
    fn set_insert(&self, set: ObjectId, key: u64, member: ObjectId) -> Result<()> {
        self.leaf(|s| s.set_insert(set, key, member))
    }
    fn set_remove(&self, set: ObjectId, key: u64) -> Result<Option<ObjectId>> {
        self.leaf(|s| s.set_remove(set, key))
    }
    fn set_scan(&self, set: ObjectId) -> Result<Vec<(u64, ObjectId)>> {
        self.leaf(|s| s.set_scan(set))
    }
    fn field(&self, o: ObjectId, name: &str) -> Result<ObjectId> {
        self.leaf(|s| s.field(o, name))
    }
    fn type_of(&self, o: ObjectId) -> Result<TypeId> {
        self.leaf(|s| s.type_of(o))
    }
    fn page_of(&self, o: ObjectId) -> Result<PageId> {
        self.leaf(|s| s.page_of(o))
    }
    fn create_atomic(&self, type_id: TypeId, v: Value) -> Result<ObjectId> {
        self.leaf(|s| s.create_atomic(type_id, v))
    }
    fn create_tuple(&self, type_id: TypeId, fields: Vec<(String, ObjectId)>) -> Result<ObjectId> {
        self.leaf(|s| s.create_tuple(type_id, fields))
    }
    fn create_set(&self, type_id: TypeId) -> Result<ObjectId> {
        self.leaf(|s| s.create_set(type_id))
    }
    fn delete(&self, o: ObjectId) -> Result<()> {
        self.leaf(|s| s.delete(o))
    }
    fn supports_versioning(&self) -> bool {
        self.inner.supports_versioning()
    }
    fn get_versioned(&self, o: ObjectId) -> Result<(Value, u64)> {
        self.leaf(|s| s.get_versioned(o))
    }
    fn set_select_versioned(&self, set: ObjectId, key: u64) -> Result<(Option<ObjectId>, u64)> {
        self.leaf(|s| s.set_select_versioned(set, key))
    }
    fn set_scan_versioned(&self, set: ObjectId) -> Result<(Vec<(u64, ObjectId)>, u64)> {
        self.leaf(|s| s.set_scan_versioned(set))
    }
    fn object_version(&self, o: ObjectId) -> Result<(u64, u32)> {
        self.tracer.span(Kind::ValidateLeaf, || self.inner.object_version(o))
    }
    fn begin_object_write(&self, o: ObjectId) -> Result<()> {
        self.leaf(|s| s.begin_object_write(o))
    }
    fn end_object_write(&self, o: ObjectId) {
        self.leaf(|s| s.end_object_write(o))
    }
    fn quiesce_token(&self) -> Option<u64> {
        self.tracer.span(Kind::ValidateLeaf, || self.inner.quiesce_token())
    }
    fn checkpoint_dump(&self) -> Option<StoreDump> {
        self.tracer.checkpoint_dump(|| self.inner.checkpoint_dump())
    }
}

/// How a [`TracedProgram`] finds its transaction.
enum Mode {
    /// Called directly: the client thread activates the transaction
    /// around the engine call.
    Direct,
    /// Run by a service core thread: the first attempt activates the
    /// session (when sampled) and closes the thread's previous one.
    Session {
        /// `(txn id, submit time)` when sampled.
        sample: Option<(u32, u64)>,
        /// Set by the first attempt.
        started: AtomicBool,
        /// First attempt start, ns since the epoch.
        first_run: AtomicU64,
    },
}

/// A `TransactionProgram` wrapper that records each attempt and each
/// top-level invoke as a span.
pub struct TracedProgram<P> {
    inner: P,
    tracer: Arc<Tracer>,
    mode: Mode,
}

impl<P: TransactionProgram> TracedProgram<P> {
    /// Wrap `inner` for direct calls.
    pub fn direct(inner: P, tracer: Arc<Tracer>) -> Self {
        TracedProgram { inner, tracer, mode: Mode::Direct }
    }

    /// Wrap `inner` as a service session, sampled as `sample`.
    pub fn session(inner: P, tracer: Arc<Tracer>, sample: Option<(u32, u64)>) -> Self {
        let mode =
            Mode::Session { sample, started: AtomicBool::new(false), first_run: AtomicU64::new(0) };
        TracedProgram { inner, tracer, mode }
    }

    /// Session mode: when the first attempt started (0 if it has not).
    pub fn first_run(&self) -> u64 {
        match &self.mode {
            Mode::Session { first_run, .. } => first_run.load(Ordering::Acquire),
            Mode::Direct => 0,
        }
    }

    fn enter_session(&self) {
        let Mode::Session { sample, started, first_run } = &self.mode else { return };
        if started.swap(true, Ordering::AcqRel) {
            return;
        }
        let now = self.tracer.now();
        first_run.store(now, Ordering::Release);
        if let Some(prev) = self.tracer.deactivate() {
            self.tracer.push(Span {
                txn: prev,
                id: CORE_DONE,
                parent: ROOT,
                kind: Kind::CoreDone,
                tag: 0,
                start: now,
                end: now,
            });
        }
        if let Some((txn, submitted)) = sample {
            self.tracer.record(*txn, Kind::Queue, 0, *submitted, now);
            self.tracer.activate(*txn);
        }
    }
}

impl<P: TransactionProgram> TransactionProgram for TracedProgram<P> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn read_only_hint(&self) -> bool {
        self.inner.read_only_hint()
    }

    fn run(&self, ctx: &mut dyn MethodContext) -> Result<Value> {
        self.enter_session();
        self.tracer.span(Kind::Attempt, || {
            self.inner.run(&mut TracedCtx { inner: ctx, tracer: &self.tracer })
        })
    }
}

/// Method context handed to the wrapped program: forwards everything,
/// timing each top-level `invoke`.
struct TracedCtx<'a> {
    inner: &'a mut dyn MethodContext,
    tracer: &'a Tracer,
}

impl MethodContext for TracedCtx<'_> {
    fn invoke(&mut self, inv: Invocation) -> Result<Value> {
        let inner = &mut *self.inner;
        self.tracer.span(Kind::Invoke, || inner.invoke(inv))
    }
    fn self_object(&self) -> ObjectId {
        self.inner.self_object()
    }
    fn stash(&mut self, v: Value) {
        self.inner.stash(v)
    }
    fn field(&self, obj: ObjectId, name: &str) -> Result<ObjectId> {
        self.inner.field(obj, name)
    }
    fn type_of(&self, obj: ObjectId) -> Result<TypeId> {
        self.inner.type_of(obj)
    }
    fn create_atomic(&mut self, v: Value) -> Result<ObjectId> {
        self.inner.create_atomic(v)
    }
    fn create_tuple(
        &mut self,
        type_id: TypeId,
        fields: Vec<(String, ObjectId)>,
    ) -> Result<ObjectId> {
        self.inner.create_tuple(type_id, fields)
    }
    fn create_set(&mut self) -> Result<ObjectId> {
        self.inner.create_set()
    }
    fn catalog(&self) -> &Catalog {
        self.inner.catalog()
    }
}
