//! The audited executor core: the one module of the crate allowed to
//! dereference raw pointers, and the only place that needs to.
//!
//! It holds the type-erased thread pool ([`EnginePool`] over a
//! [`PoolCore`]) and a single primitive, [`EnginePool::run_groups`], which
//! runs one epoch and hands worker group `g` two disjoint `&mut` parts:
//! its `bounds[g]..bounds[g + 1]` slice of a per-vertex array and its own
//! state. Every
//! other module of the engine is safe code over those borrows. What needs
//! the escape hatch, and why it is sound:
//!
//! * **Lifetime erasure of the epoch job.** Worker threads outlive any one
//!   epoch, so they cannot borrow the driver's closure through the type
//!   system. [`PoolCore::run`] publishes it as a `&'static` reference that
//!   is read only between the `start` and `done` barriers, while the
//!   driver's frame keeps the closure alive, and is cleared after `done`.
//! * **Disjoint per-group parts.** [`EnginePool::run_groups`] derives
//!   group `g`'s item slice and state from the base pointers of the two
//!   slices it borrows `&mut` for the whole epoch. It checks that the
//!   bounds ascend and lie within the items, and the
//!   core runs each group index at most once per epoch, so no two groups
//!   alias.
//!
//! Everything else here is safe: the job and panic slots are `Mutex`es
//! (never locked across a call that can panic, so never poisoned), the
//! barriers order every handoff, and a panic in any group is caught,
//! carried across `done`, and returned to the driver, so every epoch
//! closes and shutdown always joins.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;

/// Global count of worker threads ever spawned by any [`PoolCore`] in this
/// process — the observable that pins "pool sharing actually shares": a
/// peeling pipeline reusing one [`EnginePool`] must hold this flat across
/// levels. Exposed as [`crate::worker_threads_spawned`].
pub(crate) static SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// A panic payload captured in an epoch, resumed by the caller.
pub(crate) type Panic = Box<dyn Any + Send + 'static>;

/// An epoch's job: called once per group index.
type Job<'a> = dyn Fn(usize) + Sync + 'a;

/// The type-erased pool substrate: threads, barriers, the current epoch's
/// job, and per-worker panic slots. Knows nothing about message or program
/// types, so one core can serve sessions of different types back to back —
/// the whole point of pool sharing.
struct PoolCore {
    /// Epoch entry: driver + every worker.
    start: Barrier,
    /// Epoch exit: driver + every worker.
    done: Barrier,
    /// Raised by the owner's drop before a final `start` release.
    shutdown: AtomicBool,
    /// Reentry guard: a core drives one epoch at a time. Two sessions may
    /// *own* clones of one pool, but only one may be inside `run` — the
    /// normal sequential-pipeline case; concurrent use is a caller bug
    /// caught loudly, before any job is published.
    busy: AtomicBool,
    /// The epoch's job, published by the driver before `start` and cleared
    /// after `done`.
    job: Mutex<Option<&'static Job<'static>>>,
    /// One panic slot per spawned worker (the driver's group has none).
    panics: Vec<Mutex<Option<Panic>>>,
}

impl PoolCore {
    /// Claims the core for one epoch (the reentry guard).
    fn enter(&self) {
        assert!(
            !self.busy.swap(true, Ordering::Acquire),
            "EnginePool is already driving an epoch: a shared pool may be \
             used by one session at a time"
        );
    }

    /// Runs one epoch: publishes `job`, releases the workers, runs group 0
    /// on the calling thread, and rejoins. Every invocation is wrapped in
    /// `catch_unwind`; the first captured panic is returned after the
    /// epoch fully closes, so the pool always stays reusable.
    fn run(&self, job: &Job<'_>) -> Result<(), Panic> {
        self.enter();
        // SAFETY: only the lifetime changes. The workers read the
        // reference only between `start` and `done` below, this frame
        // keeps `job` alive until `done`, and the slot is cleared before
        // the frame returns, so the reference is never used after `job`
        // is dropped.
        let erased = unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(job) };
        *self.job.lock().expect("the job slot is never poisoned") = Some(erased);
        self.start.wait();
        let home = catch_unwind(AssertUnwindSafe(|| job(0)));
        self.done.wait();
        *self.job.lock().expect("the job slot is never poisoned") = None;
        self.busy.store(false, Ordering::Release);
        let mut payload = home.err();
        for slot in &self.panics {
            if let Some(p) = slot.lock().expect("panic slots are never poisoned").take() {
                payload.get_or_insert(p);
            }
        }
        payload.map_or(Ok(()), Err)
    }

    /// Runs one epoch on the calling thread alone: `job` for every group
    /// `0..groups` in group order, while the workers stay parked. Each
    /// invocation is wrapped in `catch_unwind` like a pooled one, so every
    /// group runs and the lowest group's panic is returned — the same
    /// payload [`run`](PoolCore::run) would return for the same epoch.
    fn run_inline(&self, groups: usize, job: &Job<'_>) -> Result<(), Panic> {
        self.enter();
        let mut payload = None;
        for g in 0..groups {
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| job(g))) {
                payload.get_or_insert(p);
            }
        }
        self.busy.store(false, Ordering::Release);
        payload.map_or(Ok(()), Err)
    }
}

fn core_worker_loop(core: &PoolCore, index: usize) {
    loop {
        core.start.wait();
        if core.shutdown.load(Ordering::Acquire) {
            return;
        }
        // The job reference goes out of scope before `done`, after which
        // the driver may drop the closure behind it.
        {
            let job = core
                .job
                .lock()
                .expect("the job slot is never poisoned")
                .expect("epoch job published");
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| job(index + 1))) {
                *core.panics[index]
                    .lock()
                    .expect("panic slots are never poisoned") = Some(p);
            }
        }
        core.done.wait();
    }
}

/// Owns the core and its threads; dropped when the last [`EnginePool`]
/// clone goes away.
struct PoolOwner {
    core: Arc<PoolCore>,
    handles: Vec<JoinHandle<()>>,
}

impl Drop for PoolOwner {
    fn drop(&mut self) {
        self.core.shutdown.store(true, Ordering::Release);
        // Workers are always parked at `start` between epochs (the panic
        // discipline guarantees every epoch closes), so one release lets
        // them observe the flag and exit.
        self.core.start.wait();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A shareable worker-thread pool: spawn once, drive many
/// [`EngineSession`](crate::EngineSession)s — of *different* program types
/// — without respawning threads per session.
///
/// By default every session boots its own private pool; a pipeline that
/// creates sessions in a loop (peeling levels, phase sweeps) passes one
/// `EnginePool` through [`EngineConfig::with_pool`](crate::EngineConfig::with_pool)
/// instead, making thread spawns a per-pipeline cost. Cloning is cheap
/// (`Arc`); threads shut down when the last clone drops. A pool drives one
/// session's epoch at a time — sharing is for *sequential* reuse, and
/// concurrent use panics loudly.
pub struct EnginePool {
    owner: Arc<PoolOwner>,
}

impl Clone for EnginePool {
    fn clone(&self) -> Self {
        EnginePool {
            owner: Arc::clone(&self.owner),
        }
    }
}

impl std::fmt::Debug for EnginePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnginePool")
            .field("workers", &self.workers())
            .finish()
    }
}

/// The base pointers group parts are derived from. Shared by every group's
/// invocation of the epoch job; each derives only its own parts.
struct Bases<T, S> {
    items: *mut T,
    states: *mut S,
}

// SAFETY: sharing the bases shares no access by itself: a group derives
// from them only its own item range and state (see `run_groups`), which
// another thread may then use mutably, so the pointees must be `Send`.
unsafe impl<T: Send, S: Send> Sync for Bases<T, S> {}

impl<T, S> Bases<T, S> {
    /// Both pointers. A method rather than field access, so closure
    /// capture analysis captures the `Sync` wrapper instead of reaching
    /// through to the bare pointer fields.
    fn get(&self) -> (*mut T, *mut S) {
        (self.items, self.states)
    }
}

impl EnginePool {
    /// Spawns a pool with `workers` worker groups total: `workers - 1` OS
    /// threads plus the driving thread itself. `workers = 1` spawns no
    /// threads and runs everything inline.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "a pool needs at least the driver itself");
        let threads = workers - 1;
        let core = Arc::new(PoolCore {
            start: Barrier::new(threads + 1),
            done: Barrier::new(threads + 1),
            shutdown: AtomicBool::new(false),
            busy: AtomicBool::new(false),
            job: Mutex::new(None),
            panics: (0..threads).map(|_| Mutex::new(None)).collect(),
        });
        let handles = (0..threads)
            .map(|i| {
                let core = Arc::clone(&core);
                SPAWNED.fetch_add(1, Ordering::Relaxed);
                std::thread::Builder::new()
                    .name(format!("engine-worker-{i}"))
                    .spawn(move || core_worker_loop(&core, i))
                    .expect("spawn engine worker")
            })
            .collect();
        EnginePool {
            owner: Arc::new(PoolOwner { core, handles }),
        }
    }

    /// Number of worker groups (spawned threads + the driver).
    pub fn workers(&self) -> usize {
        self.owner.core.panics.len() + 1
    }

    /// Runs one epoch over `states.len()` worker groups: group `g` calls
    /// `job(g, &mut items[bounds[g]..bounds[g + 1]], &mut states[g])` — on
    /// worker thread
    /// `g` (group 0 on the calling thread), or, with `inline`, every group
    /// in group order on the calling thread while the workers stay parked.
    /// Surplus workers of a wider pool run nothing. Allocates nothing.
    ///
    /// Returns the lowest group's panic payload, if any group panicked,
    /// after the epoch has fully closed: the caller decides whether to
    /// resume it, and the pool stays reusable either way.
    ///
    /// # Panics
    ///
    /// Panics before running anything if `bounds` does not hold one more
    /// entry than `states`, if the bounds are not ascending and within
    /// `items`, if a pooled epoch has more groups than the pool has
    /// workers, or if the pool is already driving an epoch.
    pub(crate) fn run_groups<T: Send, S: Send>(
        &self,
        inline: bool,
        items: &mut [T],
        bounds: &[usize],
        states: &mut [S],
        job: &(dyn Fn(usize, &mut [T], &mut S) + Sync),
    ) -> Result<(), Panic> {
        assert_eq!(bounds.len(), states.len() + 1, "one range per group");
        assert!(
            inline || states.len() <= self.workers(),
            "worker groups must fit the pool"
        );
        assert!(bounds.windows(2).all(|b| b[0] <= b[1]), "bounds ascend");
        assert!(
            bounds[states.len()] <= items.len(),
            "ranges lie within the items"
        );
        let bases = Bases {
            items: items.as_mut_ptr(),
            states: states.as_mut_ptr(),
        };
        let groups = states.len();
        let group = |g: usize| {
            if g >= groups {
                return;
            }
            let (start, end) = (bounds[g], bounds[g + 1]);
            let (items, states) = bases.get();
            // SAFETY: `items` and `states` are borrowed `&mut` for this
            // whole call and the epoch closes before it returns. The
            // checks above put `start..end` inside `items` and, as the
            // bounds ascend, apart from every other group's range, and
            // `g < states.len()`. The core invokes each group index at most
            // once per epoch, so no other invocation derives these parts.
            let (items, state) = unsafe {
                (
                    std::slice::from_raw_parts_mut(items.add(start), end - start),
                    &mut *states.add(g),
                )
            };
            job(g, items, state);
        };
        let core = &self.owner.core;
        if inline {
            core.run_inline(groups, &group)
        } else {
            core.run(&group)
        }
    }
}
