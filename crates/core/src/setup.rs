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

use crate::trace::SpecBlueprint;

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

/// Declares the shared memory image and synchronization objects.
pub struct SystemBuilder {
    layout: LayoutBuilder,
    locks: Vec<Binding>,
    barriers: Vec<(Binding, Option<Vec<Binding>>)>,
}

impl SystemBuilder {
    /// An empty system.
    pub fn new() -> SystemBuilder {
        SystemBuilder {
            layout: LayoutBuilder::new(),
            locks: Vec::new(),
            barriers: Vec::new(),
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
        let alloc = self
            .layout
            .alloc(name, len * T::SIZE, MemClass::Shared, line.trailing_zeros());
        SharedArray {
            base: alloc.addr,
            len,
            _t: PhantomData,
        }
    }

    /// Allocates a *private* array: per-processor data that pays only the
    /// misclassification penalty when written through the shared path.
    pub fn private_array<T: Scalar>(&mut self, name: &str, len: usize) -> SharedArray<T> {
        let alloc = self.layout.alloc(
            name,
            len * T::SIZE,
            MemClass::Private,
            3.max(T::SIZE.trailing_zeros()),
        );
        SharedArray {
            base: alloc.addr,
            len,
            _t: PhantomData,
        }
    }

    /// Declares a lock bound to `ranges`.
    pub fn lock(&mut self, ranges: Vec<AddrRange>) -> LockId {
        let id = LockId(self.locks.len() as u32);
        self.locks.push(Binding::new(ranges));
        id
    }

    /// Declares a barrier bound to `ranges` (empty for pure synchronization).
    pub fn barrier(&mut self, ranges: Vec<AddrRange>) -> BarrierId {
        let id = BarrierId(self.barriers.len() as u32);
        self.barriers.push((Binding::new(ranges), None));
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
        let id = BarrierId(self.barriers.len() as u32);
        self.barriers.push((
            Binding::new(ranges),
            Some(partitions.into_iter().map(Binding::new).collect()),
        ));
        id
    }

    /// Finishes setup.
    pub fn build(self) -> Arc<SystemSpec> {
        let layout = self.layout.build();
        let templates = (0..layout.region_slots())
            .map(|id| layout.region(id).map(Template::for_region))
            .collect();
        Arc::new(SystemSpec {
            layout,
            templates,
            locks: self.locks,
            barriers: self.barriers,
        })
    }
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder::new()
    }
}

/// The immutable system description shared by every processor.
pub struct SystemSpec {
    pub(crate) layout: Arc<Layout>,
    pub(crate) templates: Vec<Option<Template>>,
    pub(crate) locks: Vec<Binding>,
    pub(crate) barriers: Vec<(Binding, Option<Vec<Binding>>)>,
}

impl SystemSpec {
    /// The memory layout.
    pub fn layout(&self) -> &Arc<Layout> {
        &self.layout
    }

    /// Number of declared locks.
    pub fn locks(&self) -> usize {
        self.locks.len()
    }

    /// Number of declared barriers.
    pub fn barriers(&self) -> usize {
        self.barriers.len()
    }

    /// The system description the dynamic entry-consistency checker
    /// analyzes accesses against: the layout plus every initial lock and
    /// barrier binding, as the blueprint captures them.
    pub fn check_spec(&self) -> midway_check::CheckSpec {
        let SpecBlueprint {
            locks, barriers, ..
        } = SpecBlueprint::capture(self);
        midway_check::CheckSpec {
            layout: Arc::clone(&self.layout),
            locks,
            barriers,
        }
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
        let desc = spec.layout.region_of(a.addr(0));
        assert_eq!(desc.line_size(), 32);
    }

    #[test]
    fn private_arrays_live_in_private_regions() {
        let mut b = SystemBuilder::new();
        let p = b.private_array::<u64>("scratch", 8);
        let spec = b.build();
        assert_eq!(spec.layout.region_of(p.addr(0)).class, MemClass::Private);
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
