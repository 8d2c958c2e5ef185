//! System setup: the shared layout, typed array handles, and
//! synchronization objects.
//!
//! A Midway program declares its shared data and synchronization objects
//! once; every processor runs against the same [`SystemSpec`] (a real
//! Midway program gets this for free by running one binary everywhere).

use std::marker::PhantomData;
use std::sync::Arc;

use midway_mem::{Addr, AddrRange, Layout, LayoutBuilder, MemClass, Template};
use midway_proto::{BarrierId, Binding, LockId};

use crate::trace::{AllocSpec, SpecBlueprint};
use crate::BarrierRanges;

/// Scalar element types storable in a [`SharedArray`], kept in memory as
/// their little-endian bytes.
pub trait Scalar: Copy + 'static {
    /// Element size in bytes (a power of two).
    const SIZE: usize;
    /// Reads one element from its `SIZE` bytes.
    fn from_le(bytes: &[u8]) -> Self;
    /// Writes one element into its `SIZE` bytes.
    fn to_le(self, bytes: &mut [u8]);
}

macro_rules! scalar_impl {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            #[inline]
            fn from_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("one element's bytes"))
            }
            #[inline]
            fn to_le(self, bytes: &mut [u8]) {
                bytes.copy_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}

scalar_impl!(f64, u64, u32, i32, i64);

/// A handle to a shared (or private) array of scalars.
///
/// The handle is plain data — the actual bytes live in each processor's
/// local cache and are accessed through the per-processor API, which is
/// where write detection happens.
#[derive(Debug)]
pub struct SharedArray<T> {
    base: Addr,
    len: usize,
    _t: PhantomData<T>,
}

// Manual impls: `derive` would needlessly require `T: Clone`.
impl<T> Clone for SharedArray<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedArray<T> {}

impl<T: Scalar> SharedArray<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn addr(&self, i: usize) -> Addr {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.base + (i * T::SIZE) as u64
    }

    /// The address range of elements `r` (for bindings).
    pub fn range(&self, r: std::ops::Range<usize>) -> AddrRange {
        assert!(r.end <= self.len, "range end {} out of bounds", r.end);
        let start = self.base.raw() + (r.start * T::SIZE) as u64;
        let end = self.base.raw() + (r.end * T::SIZE) as u64;
        start..end
    }

    /// The address range of the whole array.
    pub fn full_range(&self) -> AddrRange {
        self.range(0..self.len)
    }
}

/// Declares the shared memory image and synchronization objects,
/// recording the declaration as the program makes it.
pub struct SystemBuilder {
    layout: LayoutBuilder,
    bp: SpecBlueprint,
}

impl SystemBuilder {
    /// An empty system.
    pub fn new() -> SystemBuilder {
        SystemBuilder {
            layout: LayoutBuilder::new(),
            bp: SpecBlueprint::default(),
        }
    }

    /// Allocates `len` elements of `T`, recording the allocation.
    fn alloc<T: Scalar>(
        &mut self,
        name: &str,
        len: usize,
        private: bool,
        line_shift: u32,
    ) -> SharedArray<T> {
        let class = match private {
            true => MemClass::Private,
            false => MemClass::Shared,
        };
        let base = self
            .layout
            .alloc(name, len * T::SIZE, class, line_shift)
            .addr;
        self.bp.allocs.push(AllocSpec {
            name: name.to_string(),
            addr: base.raw(),
            len: len * T::SIZE,
            private,
            line_shift,
        });
        SharedArray {
            base,
            len,
            _t: PhantomData,
        }
    }

    /// Allocates a shared array of `len` elements with cache lines of
    /// `elems_per_line` elements (the paper's per-region line size; one
    /// element per line is the "doubleword line" common case for `f64`).
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two in `[4, page]`.
    pub fn shared_array<T: Scalar>(
        &mut self,
        name: &str,
        len: usize,
        elems_per_line: usize,
    ) -> SharedArray<T> {
        let line = T::SIZE * elems_per_line;
        assert!(
            line.is_power_of_two(),
            "line size {line} must be a power of two"
        );
        self.alloc(name, len, false, line.trailing_zeros())
    }

    /// Allocates a *private* array: per-processor data that pays only the
    /// misclassification penalty when written through the shared path.
    pub fn private_array<T: Scalar>(&mut self, name: &str, len: usize) -> SharedArray<T> {
        self.alloc(name, len, true, 3.max(T::SIZE.trailing_zeros()))
    }

    /// Declares a lock bound to `ranges`.
    pub fn lock(&mut self, ranges: Vec<AddrRange>) -> LockId {
        let id = LockId(self.bp.locks.len() as u32);
        self.bp.locks.push(normalized(ranges));
        id
    }

    /// Declares a barrier bound to `ranges` (empty for pure synchronization).
    pub fn barrier(&mut self, ranges: Vec<AddrRange>) -> BarrierId {
        let id = BarrierId(self.bp.barriers.len() as u32);
        self.bp.barriers.push(BarrierRanges {
            ranges: normalized(ranges),
            partitions: None,
        });
        id
    }

    /// Declares a barrier with per-processor write partitions.
    ///
    /// The union binding is what RT/VM-DSM scan; the partitions tell
    /// detection-free backends (blast) which ranges each processor may have
    /// written, since they have no way to discover it.
    pub fn barrier_partitioned(
        &mut self,
        ranges: Vec<AddrRange>,
        partitions: Vec<Vec<AddrRange>>,
    ) -> BarrierId {
        let id = self.barrier(ranges);
        self.bp.barriers[id.0 as usize].partitions =
            Some(partitions.into_iter().map(normalized).collect());
        id
    }

    /// Finishes setup.
    pub fn build(self) -> Arc<SystemSpec> {
        // Free the builder's own layout first: the spec's long-lived
        // allocations then reuse its memory instead of sitting above a
        // hole, which raised paper-size quicksort's peak RSS by 1 MB.
        let SystemBuilder { layout, bp } = self;
        drop(layout);
        SystemSpec::new(bp)
    }
}

/// `ranges` as a binding holds them: sorted and merged.
fn normalized(ranges: Vec<AddrRange>) -> Vec<AddrRange> {
    Binding::new(ranges).ranges().to_vec()
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder::new()
    }
}

/// The immutable system description shared by every processor: a
/// declaration and the layout its allocations make.
pub struct SystemSpec {
    bp: SpecBlueprint,
    layout: Arc<Layout>,
    templates: Vec<Option<Template>>,
}

impl SystemSpec {
    /// Builds the system a declaration describes, replaying its
    /// allocation sequence.
    ///
    /// # Panics
    ///
    /// Panics if an allocation is one the layout refuses or lands at a
    /// different address than the declaration says (possible after
    /// [`SpecBlueprint::with_shared_line_shift`] when several allocations
    /// shared a region): a trace's addresses would be meaningless against
    /// such a layout.
    pub fn new(bp: SpecBlueprint) -> Arc<SystemSpec> {
        let layout = bp
            .layout()
            .unwrap_or_else(|(what, value)| panic!("blueprint rebuild: {what} ({value:#x})"));
        let templates = (0..layout.region_slots())
            .map(|id| layout.region(id).map(Template::for_region))
            .collect();
        Arc::new(SystemSpec {
            bp,
            layout,
            templates,
        })
    }

    /// The declaration this system was built from.
    pub fn blueprint(&self) -> &SpecBlueprint {
        &self.bp
    }

    /// The memory layout.
    pub fn layout(&self) -> &Arc<Layout> {
        &self.layout
    }

    /// Number of declared locks.
    pub fn locks(&self) -> usize {
        self.bp.locks.len()
    }

    /// Number of declared barriers.
    pub fn barriers(&self) -> usize {
        self.bp.barriers.len()
    }

    /// The dirtybit template of region `id`, if allocated.
    pub(crate) fn template(&self, id: usize) -> Option<Template> {
        self.templates[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_addresses_are_element_strided() {
        let mut b = SystemBuilder::new();
        let a = b.shared_array::<f64>("x", 16, 1);
        assert_eq!(a.len(), 16);
        assert_eq!(a.addr(1).raw() - a.addr(0).raw(), 8);
        let r = a.range(2..4);
        assert_eq!(r.end - r.start, 16);
    }

    #[test]
    fn line_size_follows_elems_per_line() {
        let mut b = SystemBuilder::new();
        let a = b.shared_array::<f64>("x", 16, 4); // 32-byte lines
        let spec = b.build();
        let desc = spec.layout().region_of(a.addr(0));
        assert_eq!(desc.line_size(), 32);
    }

    #[test]
    fn private_arrays_live_in_private_regions() {
        let mut b = SystemBuilder::new();
        let p = b.private_array::<u64>("scratch", 8);
        let spec = b.build();
        assert_eq!(spec.layout().region_of(p.addr(0)).class, MemClass::Private);
    }

    #[test]
    fn locks_and_barriers_get_sequential_ids() {
        let mut b = SystemBuilder::new();
        let a = b.shared_array::<u64>("x", 8, 1);
        let l0 = b.lock(vec![a.range(0..4)]);
        let l1 = b.lock(vec![a.range(4..8)]);
        let bar = b.barrier(vec![]);
        assert_eq!(l0, LockId(0));
        assert_eq!(l1, LockId(1));
        assert_eq!(bar, BarrierId(0));
        let spec = b.build();
        assert_eq!(spec.locks(), 2);
        assert_eq!(spec.barriers(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_index_panics() {
        let mut b = SystemBuilder::new();
        let a = b.shared_array::<u32>("x", 4, 1);
        a.addr(4);
    }
}
