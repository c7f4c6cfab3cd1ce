//! Epoch-pinned snapshots over a concurrently-updatable set store
//! (DESIGN.md §5j).
//!
//! The paper's structures are built offline and queried immutably; the
//! serving layer needs the opposite: sets that mutate under live
//! traffic while queries **never block on writers**. The contract here
//! is the classic epoch-based-reclamation (EBR) split:
//!
//! - **Readers** call [`SetStore::pin`], which claims an epoch slot and
//!   hands back a [`Snapshot`] — an immutable view of every set at one
//!   published version. All read entry points (single-pair, batch,
//!   k-way, algebra, boolean, simjoin) resolve a [`SetRef`] through the
//!   snapshot and run the existing planner-driven operations unchanged.
//!   Dropping the snapshot releases the slot. Pinning is wait-free in
//!   the common case (one CAS per pin); the only stall is slot
//!   exhaustion (more than [`EPOCH_SLOTS`] concurrent snapshots), which
//!   spin-yields and reports its worst case in the
//!   `snapshot_pin_stall_max_cycles` gauge.
//! - **Writers** build a new [`StoreState`], publish it with one atomic
//!   pointer swap, and push the old state onto a limbo list stamped
//!   with the pre-bump epoch. Building is cheap: the catalog is a
//!   persistent 64-way radix trie over set ids, and a commit copies
//!   only the root-to-leaf path of each id it writes (64 pointers per
//!   level, depth 2 at 4096 ids), leaving every other subtree and every
//!   untouched [`DynamicSet`] version pointer-shared. A retired state
//!   is freed only once every active slot has pinned past that epoch,
//!   so a reader that resolved the old pointer can never observe freed
//!   memory.
//!
//! Why the stale-pin race is safe: a reader loads the global epoch
//! *before* claiming its slot, so the slot value it stores can lag the
//! global. That is fine — the stored epoch is always ≤ the global at
//! every later instant, which makes the reclamation bound
//! (`min(active slots) > retire epoch`) strictly conservative. A reader
//! whose slot epoch is > a state's retire epoch must have pinned after
//! the bump that followed the swap, so its pointer load (which happens
//! after the pin, SeqCst on both sides) saw the new state.

use crate::dynamic::{dynamic_intersect_count, dynamic_set_op, DynamicSet};
use crate::kernels::visit::SetOp;
use crate::kernels::KernelTable;
use crate::params::{FesiaParams, SimjoinParams};
use crate::plan::IntersectPlanner;
use crate::set::SegmentedSet;
use crate::simjoin::{self, SimjoinResult, Threshold};
use std::borrow::Borrow;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Epoch domain
// ---------------------------------------------------------------------------

/// Number of concurrently pinned snapshots before pinning spin-waits.
pub const EPOCH_SLOTS: usize = 64;

/// Sentinel marking an unoccupied epoch slot.
const FREE: u64 = u64::MAX;

/// The reader-registration half of EBR: a global epoch counter plus a
/// fixed array of per-reader slots. Bounded and allocation-free so a
/// pin costs one CAS on the read path.
struct EpochDomain {
    global: AtomicU64,
    slots: [AtomicU64; EPOCH_SLOTS],
}

impl EpochDomain {
    const fn new() -> EpochDomain {
        #[allow(clippy::declare_interior_mutable_const)] // array-init seed only
        const SLOT: AtomicU64 = AtomicU64::new(FREE);
        EpochDomain {
            global: AtomicU64::new(0),
            slots: [SLOT; EPOCH_SLOTS],
        }
    }

    /// Claim a slot stamped with the current global epoch; returns its
    /// index. Spin-yields when all slots are occupied and reports the
    /// worst-case wait in `snapshot_pin_stall_max_cycles`.
    fn pin(&self) -> usize {
        let mut waited_from: Option<u64> = None;
        loop {
            let epoch = self.global.load(Ordering::SeqCst);
            for i in 0..EPOCH_SLOTS {
                if self.slots[i]
                    .compare_exchange(FREE, epoch, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
                {
                    if let Some(start) = waited_from {
                        fesia_obs::metrics()
                            .snapshot_pin_stall_max_cycles
                            .record_max(fesia_obs::now_cycles().wrapping_sub(start));
                    }
                    return i;
                }
            }
            waited_from.get_or_insert_with(fesia_obs::now_cycles);
            std::thread::yield_now();
        }
    }

    fn unpin(&self, slot: usize) {
        self.slots[slot].store(FREE, Ordering::SeqCst);
    }

    /// The oldest epoch any active reader could have pinned at
    /// (`u64::MAX` when no reader is active).
    fn min_active(&self) -> u64 {
        let mut min = u64::MAX;
        for s in &self.slots {
            min = min.min(s.load(Ordering::SeqCst));
        }
        min
    }
}

// ---------------------------------------------------------------------------
// Store state and versions
// ---------------------------------------------------------------------------

/// One published version of one set. Shared (`Arc`) between successive
/// store states that did not touch this id, so publishing a write to
/// one set never copies the others.
pub struct SetVersion {
    set: DynamicSet,
    version: u64,
}

impl SetVersion {
    /// The set at this version.
    pub fn set(&self) -> &DynamicSet {
        &self.set
    }

    /// The store version that published this set version.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// Id bits one trie level resolves.
const RADIX_BITS: u32 = 6;

/// Children per inner node, slots per leaf.
const RADIX: usize = 1 << RADIX_BITS;

/// One catalog slot: the published version of one id, if any.
type Slot = Option<Arc<SetVersion>>;

/// A node of the catalog trie. Published nodes are never mutated: a
/// commit path-copies (`Arc::make_mut`) the nodes above each id it
/// touches, so every subtree it did not touch stays pointer-shared with
/// the previous state.
#[derive(Clone)]
enum Node {
    Inner([Option<Arc<Node>>; RADIX]),
    Leaf([Slot; RADIX]),
}

impl Node {
    /// An empty node at `level` (0 is the leaf level).
    fn empty(level: u32) -> Node {
        if level == 0 {
            Node::Leaf(std::array::from_fn(|_| None))
        } else {
            Node::Inner(std::array::from_fn(|_| None))
        }
    }
}

/// The child index of `id` in a node at `level`.
fn digit(id: u32, level: u32) -> usize {
    (id >> (RADIX_BITS * level)) as usize & (RADIX - 1)
}

/// An immutable published catalog: every live set at one instant.
///
/// The catalog is a persistent 64-way radix trie over set ids. Leaves
/// hold 64 slots, inner nodes 64 children, and the trie grows a level
/// whenever a commit writes an id past its span. A commit copies only
/// the root-to-leaf path of each id it touches (64 pointers per level,
/// at most 6 levels for `u32` ids), so its cost follows the ids it
/// writes, not the catalog size.
pub struct StoreState {
    version: u64,
    /// One past the highest id any commit has written.
    slots: usize,
    /// Inner levels above the leaves: the trie spans ids below
    /// `RADIX^(height + 1)`.
    height: u32,
    root: Option<Arc<Node>>,
}

impl StoreState {
    /// The monotonically increasing publish counter.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The catalog capacity (slot count, including empty ids).
    pub fn num_slots(&self) -> usize {
        self.slots
    }

    /// True when `id` lies inside the trie's current span.
    fn spans(&self, id: u32) -> bool {
        u64::from(id) >> (RADIX_BITS * (self.height + 1)) == 0
    }

    fn get_arc(&self, id: u32) -> Option<&Arc<SetVersion>> {
        if !self.spans(id) {
            return None;
        }
        let mut node = self.root.as_deref()?;
        let mut level = self.height;
        loop {
            match node {
                Node::Inner(children) => {
                    node = children[digit(id, level)].as_deref()?;
                    level -= 1;
                }
                Node::Leaf(slots) => return slots[digit(id, 0)].as_ref(),
            }
        }
    }

    /// Resolve one id in this published state. Write transactions use
    /// this for read-modify-write: clone the current [`DynamicSet`],
    /// mutate the clone, publish it.
    pub fn get(&self, id: u32) -> Option<SetRef<'_>> {
        self.get_arc(id).map(|v| SetRef { v })
    }

    /// Point `id` at `slot`, copying each node on its path that is
    /// still shared with an earlier state. Clearing an id that holds no
    /// set allocates nothing.
    fn set(&mut self, id: u32, slot: Slot) {
        self.slots = self.slots.max(id as usize + 1);
        if slot.is_none() && self.get_arc(id).is_none() {
            return;
        }
        while !self.spans(id) {
            // Grow: the old root becomes child 0 of a new root.
            self.root = self.root.take().map(|old| {
                let mut children: [Option<Arc<Node>>; RADIX] = std::array::from_fn(|_| None);
                children[0] = Some(old);
                Arc::new(Node::Inner(children))
            });
            self.height += 1;
        }
        let mut level = self.height;
        let mut node = self
            .root
            .get_or_insert_with(|| Arc::new(Node::empty(level)));
        loop {
            match Arc::make_mut(node) {
                Node::Inner(children) => {
                    let child = &mut children[digit(id, level)];
                    level -= 1;
                    node = child.get_or_insert_with(|| Arc::new(Node::empty(level)));
                }
                Node::Leaf(slots) => {
                    slots[digit(id, 0)] = slot;
                    return;
                }
            }
        }
    }

    /// Every published set with its id, in ascending id order.
    fn for_each<'s>(&'s self, mut f: impl FnMut(u32, &'s SetVersion)) {
        fn walk<'s, F: FnMut(u32, &'s SetVersion)>(
            node: &'s Node,
            base: u32,
            level: u32,
            f: &mut F,
        ) {
            match node {
                Node::Inner(children) => {
                    for (i, child) in children.iter().enumerate() {
                        if let Some(child) = child {
                            let base = base | (i as u32) << (RADIX_BITS * level);
                            walk(child, base, level - 1, f);
                        }
                    }
                }
                Node::Leaf(slots) => {
                    for (i, slot) in slots.iter().enumerate() {
                        if let Some(v) = slot {
                            f(base | i as u32, v);
                        }
                    }
                }
            }
        }
        if let Some(root) = &self.root {
            walk(root, 0, self.height, &mut f);
        }
    }
}

/// A resolved reference to one set inside a pinned [`Snapshot`]. Valid
/// only while the snapshot is alive — which the borrow checker enforces,
/// and the epoch machinery turns into memory safety.
#[derive(Clone, Copy)]
pub struct SetRef<'s> {
    v: &'s SetVersion,
}

impl<'s> SetRef<'s> {
    /// The underlying dynamic set (base + delta).
    pub fn set(&self) -> &'s DynamicSet {
        &self.v.set
    }

    /// The store version that published this set.
    pub fn version(&self) -> u64 {
        self.v.version
    }

    /// Live cardinality.
    pub fn len(&self) -> usize {
        self.v.set.len()
    }

    /// True when no element is live.
    pub fn is_empty(&self) -> bool {
        self.v.set.is_empty()
    }

    /// Live membership.
    pub fn contains(&self, x: u32) -> bool {
        self.v.set.contains(x)
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// A concurrently updatable catalog of [`DynamicSet`]s with epoch-based
/// reclamation. Readers [`SetStore::pin`] a [`Snapshot`]; writers
/// [`SetStore::update`] and publish with an atomic pointer swap.
pub struct SetStore {
    epochs: EpochDomain,
    state: AtomicPtr<StoreState>,
    /// Retired states awaiting quiescence, stamped with their retire
    /// epoch (the global value *before* the post-swap bump).
    limbo: Mutex<Vec<(u64, *mut StoreState)>>,
    /// Serializes publishers; readers never take it.
    write: Mutex<()>,
}

// SAFETY: the raw pointers are owned boxes managed by the EBR protocol
// above — `state` is only freed through `limbo`, and limbo entries are
// only freed once `min_active()` proves no reader can still hold them.
unsafe impl Send for SetStore {}
unsafe impl Sync for SetStore {}

impl Default for SetStore {
    fn default() -> Self {
        SetStore::new()
    }
}

impl SetStore {
    /// An empty store (version 0, no sets).
    pub fn new() -> SetStore {
        SetStore {
            epochs: EpochDomain::new(),
            state: AtomicPtr::new(Box::into_raw(Box::new(StoreState {
                version: 0,
                slots: 0,
                height: 0,
                root: None,
            }))),
            limbo: Mutex::new(Vec::new()),
            write: Mutex::new(()),
        }
    }

    /// A store seeded with `sets` at ids `0..n` (version 1).
    pub fn from_dynamic(sets: Vec<DynamicSet>) -> SetStore {
        let store = SetStore::new();
        store.update(|_, txn| {
            for (id, s) in sets.into_iter().enumerate() {
                txn.push((id as u32, Some(s)));
            }
        });
        store
    }

    /// A store seeded with immutable sets (wrapped as delta-free
    /// [`DynamicSet`]s sharing the encodings, no copies).
    pub fn from_segmented(sets: Vec<SegmentedSet>, params: FesiaParams) -> SetStore {
        SetStore::from_dynamic(
            sets.into_iter()
                .map(|s| DynamicSet::from_base(Arc::new(s), params))
                .collect(),
        )
    }

    /// Pin the current state into a [`Snapshot`]. Wait-free unless more
    /// than [`EPOCH_SLOTS`] snapshots are simultaneously live.
    pub fn pin(&self) -> Snapshot<'_> {
        fesia_obs::metrics().snapshot_pins.inc();
        let slot = self.epochs.pin();
        // SAFETY: the pointer was published by `update` and cannot be
        // freed while our slot holds an epoch ≤ its retire epoch (see
        // the module docs for the stale-pin argument).
        let state = unsafe { &*self.state.load(Ordering::SeqCst) };
        Snapshot {
            state,
            store: self,
            slot,
        }
    }

    /// Apply a write transaction and publish the result as one new
    /// version. `f` sees the current state and records `(id, new_set)`
    /// entries — `None` deletes the id. Readers pinned before the
    /// publish keep the old state; later pins see the new one.
    ///
    /// Returns the published version. Writers serialize on an internal
    /// lock; readers never take it.
    pub fn update<F>(&self, f: F) -> u64
    where
        F: FnOnce(&StoreState, &mut Vec<(u32, Option<DynamicSet>)>),
    {
        let _w = self.write.lock().unwrap();
        // SAFETY: holding the write lock, `state` cannot be swapped or
        // retired by anyone else.
        let cur = unsafe { &*self.state.load(Ordering::SeqCst) };
        let mut txn: Vec<(u32, Option<DynamicSet>)> = Vec::new();
        f(cur, &mut txn);
        let version = cur.version + 1;
        // Shares the whole trie; `set` path-copies only what it touches.
        let mut next = StoreState {
            version,
            slots: cur.slots,
            height: cur.height,
            root: cur.root.clone(),
        };
        for (id, set) in txn {
            next.set(id, set.map(|s| Arc::new(SetVersion { set: s, version })));
        }
        let next = Box::into_raw(Box::new(next));
        let old = self.state.swap(next, Ordering::SeqCst);
        let retire_epoch = self.epochs.global.load(Ordering::SeqCst);
        self.limbo.lock().unwrap().push((retire_epoch, old));
        self.epochs.global.fetch_add(1, Ordering::SeqCst);
        self.collect();
        fesia_obs::metrics().snapshot_publishes.inc();
        version
    }

    /// Free limbo states no active reader can still hold.
    fn collect(&self) {
        let min = self.epochs.min_active();
        let mut limbo = self.limbo.lock().unwrap();
        limbo.retain(|&(epoch, ptr)| {
            if epoch < min {
                // SAFETY: every reader that could have loaded this
                // state pinned an epoch ≤ its retire epoch; min_active
                // being past it proves none remain.
                drop(unsafe { Box::from_raw(ptr) });
                fesia_obs::metrics().snapshot_retired.inc();
                false
            } else {
                true
            }
        });
    }

    /// Number of retired states still awaiting quiescence (tests).
    pub fn limbo_len(&self) -> usize {
        self.limbo.lock().unwrap().len()
    }
}

impl Drop for SetStore {
    fn drop(&mut self) {
        // No readers can exist (`&mut self`); free everything.
        // SAFETY: sole owner of both the live state and the limbo list.
        unsafe {
            drop(Box::from_raw(self.state.load(Ordering::SeqCst)));
            for (_, ptr) in self.limbo.get_mut().unwrap().drain(..) {
                drop(Box::from_raw(ptr));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot: the read entry points
// ---------------------------------------------------------------------------

/// An epoch-pinned, immutable view of the whole store. `Sync`, so one
/// pinned snapshot can be shared across executor workers for the
/// parallel entry points (the submitter's pin outlives the region).
/// Dropping it releases the epoch slot.
pub struct Snapshot<'a> {
    state: &'a StoreState,
    store: &'a SetStore,
    slot: usize,
}

impl Drop for Snapshot<'_> {
    fn drop(&mut self) {
        self.store.epochs.unpin(self.slot);
    }
}

/// A set materialized for an API that needs `&SegmentedSet`: borrowed
/// straight from the base when the delta is empty, rebuilt otherwise.
enum ResolvedSet<'s> {
    Borrowed(&'s SegmentedSet),
    Owned(Box<SegmentedSet>),
}

impl Borrow<SegmentedSet> for ResolvedSet<'_> {
    fn borrow(&self) -> &SegmentedSet {
        match self {
            ResolvedSet::Borrowed(s) => s,
            ResolvedSet::Owned(s) => s,
        }
    }
}

impl<'a> Snapshot<'a> {
    /// The published store version this snapshot observes.
    pub fn version(&self) -> u64 {
        self.state.version
    }

    /// Catalog slot count (including empty ids).
    pub fn num_slots(&self) -> usize {
        self.state.num_slots()
    }

    /// Resolve one set id; `None` for ids never published or deleted.
    pub fn get(&self, id: u32) -> Option<SetRef<'_>> {
        self.state.get(id)
    }

    fn resolve(&self, id: u32) -> Option<&DynamicSet> {
        self.state.get_arc(id).map(|v| &v.set)
    }

    /// `|A ∩ B|` for two ids through the planner-driven dynamic path;
    /// `None` if either id is unresolved.
    pub fn count(&self, a: u32, b: u32, table: &KernelTable) -> Option<usize> {
        Some(dynamic_intersect_count(
            self.resolve(a)?,
            self.resolve(b)?,
            table,
        ))
    }

    /// Materialize `op(A, B)` (sorted ascending); `None` if either id
    /// is unresolved.
    pub fn set_op(&self, a: u32, b: u32, op: SetOp) -> Option<Vec<u32>> {
        Some(dynamic_set_op(self.resolve(a)?, self.resolve(b)?, op))
    }

    /// `|A ∩ B|` for every pair, resolved against this one snapshot (a
    /// mid-batch publish cannot tear the results). `None` if any id is
    /// unresolved.
    pub fn batch_count(&self, pairs: &[(u32, u32)], table: &KernelTable) -> Option<Vec<usize>> {
        pairs
            .iter()
            .map(|&(a, b)| self.count(a, b, table))
            .collect()
    }

    /// K-way intersection of `ids`, materialized (sorted ascending).
    /// Delta-free sets run the planner-ordered immutable k-way path
    /// unchanged; any live delta switches to the exact candidate
    /// filter (base k-way plus every addition, settled by live-membership
    /// probes). `None` if any id is unresolved.
    ///
    /// # Panics
    /// Panics if `ids` is empty (matches [`crate::kway_intersect`]).
    pub fn kway_intersect(&self, ids: &[u32], table: &KernelTable) -> Option<Vec<u32>> {
        assert!(!ids.is_empty(), "k-way intersection of zero sets");
        let sets: Vec<&DynamicSet> = ids
            .iter()
            .map(|&id| self.resolve(id))
            .collect::<Option<_>>()?;
        Some(crate::dynamic::dynamic_kway_intersect(&sets, table))
    }

    /// `|∩ ids|`; see [`Snapshot::kway_intersect`].
    pub fn kway_count(&self, ids: &[u32], table: &KernelTable) -> Option<usize> {
        assert!(!ids.is_empty(), "k-way intersection of zero sets");
        let sets: Vec<&DynamicSet> = ids
            .iter()
            .map(|&id| self.resolve(id))
            .collect::<Option<_>>()?;
        Some(crate::dynamic::dynamic_kway_count(&sets, table))
    }

    /// K-way union of `ids`, materialized (sorted ascending); `None` if
    /// any id is unresolved.
    ///
    /// # Panics
    /// Panics if `ids` is empty (matches [`crate::kway_union`]).
    pub fn kway_union(&self, ids: &[u32]) -> Option<Vec<u32>> {
        assert!(!ids.is_empty(), "k-way union of zero sets");
        let sets: Vec<&DynamicSet> = ids
            .iter()
            .map(|&id| self.resolve(id))
            .collect::<Option<_>>()?;
        Some(crate::dynamic::dynamic_kway_union(&sets))
    }

    /// Boolean query over set ids: every element in all `must` sets AND
    /// (when `should` is non-empty) at least one `should` set, minus
    /// every `must_not` set — the dynamic twin of the index crate's
    /// `run_boolean`. A query with neither `must` nor `should` matches
    /// nothing. `None` if any referenced id is unresolved.
    pub fn boolean(
        &self,
        must: &[u32],
        should: &[u32],
        must_not: &[u32],
        table: &KernelTable,
    ) -> Option<Vec<u32>> {
        let resolve_all = |ids: &[u32]| -> Option<Vec<&DynamicSet>> {
            ids.iter().map(|&id| self.resolve(id)).collect()
        };
        Some(crate::dynamic::dynamic_boolean(
            &resolve_all(must)?,
            &resolve_all(should)?,
            &resolve_all(must_not)?,
            table,
        ))
    }

    /// Exact self-similarity join over every live set in the snapshot,
    /// through the §5i filter cascade. Delta-free sets join zero-copy
    /// (the cascade borrows their bases); sets with live deltas are
    /// re-encoded for the join. Returns the qualifying pairs as *set
    /// ids* (empty slots are skipped, ids preserved via the mapping).
    pub fn self_join(
        &self,
        threshold: Threshold,
        table: &KernelTable,
        sp: &SimjoinParams,
        threads: usize,
    ) -> SimjoinResult {
        let mut ids: Vec<u32> = Vec::new();
        let mut sets: Vec<ResolvedSet<'_>> = Vec::new();
        let mut lists: Vec<Vec<u32>> = Vec::new();
        self.state.for_each(|id, v| {
            ids.push(id);
            if v.set.delta_len() == 0 {
                sets.push(ResolvedSet::Borrowed(v.set.base()));
            } else {
                let elems = v.set.to_sorted_vec();
                let params = v.set.params();
                sets.push(ResolvedSet::Owned(Box::new(
                    SegmentedSet::build(&elems, &params).expect("live elements are valid"),
                )));
            }
            lists.push(v.set.to_sorted_vec());
        });
        let planner = IntersectPlanner::current();
        let mut res =
            simjoin::self_join_with(&sets, &lists, threshold, table, &planner, sp, threads);
        for p in &mut res.pairs {
            *p = (ids[p.0 as usize], ids[p.1 as usize]);
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::KernelTable;
    use std::collections::BTreeSet;

    fn table() -> &'static KernelTable {
        crate::intersect::default_table()
    }

    fn store_with(lists: &[&[u32]]) -> SetStore {
        let p = FesiaParams::auto();
        SetStore::from_segmented(
            lists
                .iter()
                .map(|l| SegmentedSet::build(l, &p).unwrap())
                .collect(),
            p,
        )
    }

    #[test]
    fn snapshots_resolve_published_sets() {
        let store = store_with(&[&[1, 2, 3], &[2, 3, 4]]);
        let snap = store.pin();
        assert_eq!(snap.version(), 1);
        assert_eq!(snap.get(0).unwrap().len(), 3);
        assert!(snap.get(0).unwrap().contains(3));
        assert!(snap.get(2).is_none());
        assert_eq!(snap.count(0, 1, table()), Some(2));
        assert_eq!(snap.count(0, 9, table()), None);
    }

    #[test]
    fn readers_keep_their_version_across_publishes() {
        let store = store_with(&[&[1, 2, 3], &[2, 3, 4]]);
        let old = store.pin();
        store.update(|cur, txn| {
            let mut s = cur.get(0).unwrap().set().clone();
            s.insert(4).unwrap();
            txn.push((0, Some(s)));
        });
        let new = store.pin();
        assert_eq!(old.count(0, 1, table()), Some(2));
        assert_eq!(new.count(0, 1, table()), Some(3));
        assert_eq!(old.version() + 1, new.version());
        // The old state is in limbo until `old` unpins and a publish
        // collects it.
        assert!(store.limbo_len() >= 1);
        drop(old);
        drop(new);
        store.update(|_, _| {});
        assert_eq!(store.limbo_len(), 0); // no reader left, all collected
    }

    #[test]
    fn untouched_sets_share_their_version_across_publishes() {
        let store = store_with(&[&[1, 2, 3], &[2, 3, 4]]);
        let before = store.pin();
        store.update(|cur, txn| {
            let mut s = cur.get(1).unwrap().set().clone();
            s.insert(99).unwrap();
            txn.push((1, Some(s)));
        });
        let after = store.pin();
        assert_eq!(before.get(0).unwrap().version(), 1);
        assert_eq!(after.get(0).unwrap().version(), 1); // untouched
        assert_eq!(after.get(1).unwrap().version(), 2);
        assert!(std::ptr::eq(
            before.get(0).unwrap().set(),
            after.get(0).unwrap().set()
        ));
    }

    #[test]
    fn deletes_and_out_of_range_ids_resolve_to_none() {
        let store = store_with(&[&[1, 2], &[2, 3]]);
        store.update(|_, txn| txn.push((0, None)));
        let snap = store.pin();
        assert!(snap.get(0).is_none());
        assert!(snap.get(1).is_some());
        assert_eq!(snap.kway_count(&[0, 1], table()), None);
    }

    #[test]
    fn dynamic_kway_and_boolean_match_a_reference() {
        let lists: Vec<Vec<u32>> = vec![
            (0..600).map(|i| i * 3).collect(),
            (0..600).map(|i| i * 2).collect(),
            (0..600).map(|i| i * 5).collect(),
        ];
        let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
        let store = store_with(&refs);
        // Mutate set 1: delete some evens, add some odds.
        store.update(|cur, txn| {
            let mut s = cur.get(1).unwrap().set().clone();
            for x in [0u32, 6, 12, 600] {
                s.remove(x).unwrap();
            }
            for x in [15u32, 45, 999] {
                s.insert(x).unwrap();
            }
            txn.push((1, Some(s)));
        });
        let snap = store.pin();
        let live: Vec<BTreeSet<u32>> = (0..3)
            .map(|id| {
                snap.get(id)
                    .unwrap()
                    .set()
                    .to_sorted_vec()
                    .into_iter()
                    .collect()
            })
            .collect();
        let expect_and: Vec<u32> = live[0]
            .intersection(&live[1])
            .copied()
            .filter(|x| live[2].contains(x))
            .collect();
        assert_eq!(
            snap.kway_intersect(&[0, 1, 2], table()).unwrap(),
            expect_and
        );
        assert_eq!(
            snap.kway_count(&[0, 1, 2], table()).unwrap(),
            expect_and.len()
        );
        let mut expect_or: Vec<u32> = live[0].union(&live[1]).copied().collect();
        expect_or.retain(|x| !live[2].contains(x));
        assert_eq!(
            snap.boolean(&[], &[0, 1], &[2], table()).unwrap(),
            expect_or
        );
        // must + should + must_not
        let expect: Vec<u32> = live[0]
            .iter()
            .copied()
            .filter(|x| live[1].contains(x))
            .filter(|x| !live[2].contains(x))
            .collect();
        assert_eq!(snap.boolean(&[0], &[1], &[2], table()).unwrap(), expect);
        assert_eq!(
            snap.boolean(&[], &[], &[0], table()).unwrap(),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn batch_count_resolves_every_pair_in_one_snapshot() {
        let store = store_with(&[&[1, 2, 3], &[2, 3, 4], &[3, 4, 5]]);
        let snap = store.pin();
        assert_eq!(
            snap.batch_count(&[(0, 1), (1, 2), (0, 2)], table())
                .unwrap(),
            vec![2, 2, 1]
        );
    }

    #[test]
    fn snapshot_self_join_reports_set_ids() {
        let a: Vec<u32> = (0..200).collect();
        let b: Vec<u32> = (0..200).map(|i| i + 10).collect(); // overlap 190
        let c: Vec<u32> = (1000..1200).collect(); // disjoint
        let store = store_with(&[&a, &b, &c]);
        store.update(|_, txn| txn.push((1, None))); // delete id 1...
        store.update(|_cur, txn| {
            // ...and republish it with a delta so the join re-encodes.
            let p = FesiaParams::auto();
            let base = SegmentedSet::build(&b, &p).unwrap();
            let mut s = DynamicSet::from_base(Arc::new(base), p);
            s.insert_deferred(5000).unwrap();
            txn.push((1, Some(s)));
        });
        let snap = store.pin();
        let res = snap.self_join(
            Threshold::Overlap(100),
            table(),
            &SimjoinParams::default(),
            1,
        );
        assert_eq!(res.pairs, vec![(0, 1)]);
    }

    /// A delta-free set over a shared base (cheap to publish by the
    /// thousand).
    fn shared_set(base: &Arc<SegmentedSet>) -> DynamicSet {
        DynamicSet::from_base(Arc::clone(base), FesiaParams::auto())
    }

    fn shared<T>(a: &Option<Arc<T>>, b: &Option<Arc<T>>) -> bool {
        match (a, b) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Walk two states side by side down `id`'s path. Asserts every
    /// child and slot off that path is pointer-shared and returns how
    /// many nodes on the path were copied.
    fn copied_on_path(old: &StoreState, new: &StoreState, id: u32) -> usize {
        assert_eq!(
            old.height, new.height,
            "a commit inside the span grew the trie"
        );
        let (mut a, mut b) = (old.root.as_ref().unwrap(), new.root.as_ref().unwrap());
        let mut level = new.height;
        let mut copied = 0;
        while !Arc::ptr_eq(a, b) {
            copied += 1;
            let d = digit(id, level);
            match (&**a, &**b) {
                (Node::Inner(ca), Node::Inner(cb)) => {
                    for i in (0..RADIX).filter(|&i| i != d) {
                        assert!(shared(&ca[i], &cb[i]), "child {i} at level {level} copied");
                    }
                    a = ca[d].as_ref().unwrap();
                    b = cb[d].as_ref().unwrap();
                    level -= 1;
                }
                (Node::Leaf(sa), Node::Leaf(sb)) => {
                    for i in (0..RADIX).filter(|&i| i != d) {
                        assert!(shared(&sa[i], &sb[i]), "slot {i} copied");
                    }
                    break;
                }
                _ => panic!("trie shapes diverged at level {level}"),
            }
        }
        copied
    }

    #[test]
    fn a_commit_copies_only_the_touched_path() {
        let p = FesiaParams::auto();
        let base = Arc::new(SegmentedSet::build(&[1, 2, 3], &p).unwrap());
        let store = SetStore::new();
        store.update(|_, txn| {
            for id in 0..5000 {
                txn.push((id, Some(shared_set(&base))));
            }
        });
        let touch = |id: u32| store.update(|_, txn| txn.push((id, Some(shared_set(&base)))));

        let before = store.pin();
        touch(4321);
        let after = store.pin();
        // 5000 ids span 64^3: root, inner, leaf.
        assert_eq!(after.state.height, 2);
        assert_eq!(copied_on_path(before.state, after.state, 4321), 3);
        assert_eq!(after.num_slots(), 5000);
        drop((before, after));

        // One far id deepens the trie; a commit still copies one path.
        touch((1 << 20) - 1);
        let before = store.pin();
        touch(4321);
        let after = store.pin();
        assert_eq!(after.state.height, 3);
        assert_eq!(copied_on_path(before.state, after.state, 4321), 4);
        assert_eq!(after.num_slots(), 1 << 20);
        assert!(after.get((1 << 20) - 1).is_some());
        assert!(after.get(5000).is_none());
    }

    #[test]
    fn the_catalog_matches_a_btreemap_under_random_publishes_and_deletes() {
        use std::collections::BTreeMap;
        let p = FesiaParams::auto();
        let mut rng = fesia_datagen::SplitMix64::new(0x5e7_5707e);
        let store = SetStore::new();
        // id -> the tag its live set carries: every set is {0, tag}.
        let mut reference: BTreeMap<u32, u32> = BTreeMap::new();
        let mut slots = 0usize;
        for step in 1..=400u32 {
            let mut txn_ref = Vec::new();
            if step % 100 == 0 {
                // The top of the id space: the trie's deepest shape.
                txn_ref.push((u32::MAX - rng.below(3) as u32, Some(step)));
            }
            for _ in 0..1 + rng.below(4) {
                let id = match rng.below(10) {
                    0 => rng.below(1 << 20) as u32,
                    _ => rng.below(150) as u32,
                };
                let tag = (rng.below(10) >= 3).then_some(step);
                txn_ref.push((id, tag));
            }
            store.update(|_, txn| {
                for &(id, tag) in &txn_ref {
                    let set = tag.map(|t| DynamicSet::build(&[0, t], &p).unwrap());
                    txn.push((id, set));
                }
            });
            for &(id, tag) in &txn_ref {
                slots = slots.max(id as usize + 1);
                match tag {
                    Some(t) => reference.insert(id, t),
                    None => reference.remove(&id),
                };
            }

            let snap = store.pin();
            assert_eq!(snap.num_slots(), slots);
            for (&id, &t) in &reference {
                assert_eq!(snap.get(id).unwrap().set().to_sorted_vec(), vec![0, t]);
            }
            for _ in 0..20 {
                let id = rng.below(1 << 21) as u32;
                assert_eq!(snap.get(id).is_some(), reference.contains_key(&id));
            }
            if step % 40 == 0 {
                // Every live pair shares element 0, so an overlap-1 join
                // reports each pair of live ids exactly once.
                let mut got = snap
                    .self_join(Threshold::Overlap(1), table(), &SimjoinParams::default(), 1)
                    .pairs;
                got.sort_unstable();
                let ids: Vec<u32> = reference.keys().copied().collect();
                let expect: Vec<(u32, u32)> = ids
                    .iter()
                    .enumerate()
                    .flat_map(|(i, &a)| ids[i + 1..].iter().map(move |&b| (a, b)))
                    .collect();
                assert_eq!(got, expect, "at step {step}");
            }
        }
    }

    #[test]
    fn pin_survives_slot_exhaustion() {
        let store = store_with(&[&[1, 2, 3]]);
        let snaps: Vec<Snapshot<'_>> = (0..EPOCH_SLOTS).map(|_| store.pin()).collect();
        // All slots taken; a pin from another thread must wait until
        // one frees, not deadlock or corrupt.
        std::thread::scope(|s| {
            let h = s.spawn(|| store.pin().count(0, 0, table()));
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(snaps);
            assert_eq!(h.join().unwrap(), Some(3));
        });
    }
}
