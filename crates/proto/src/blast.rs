//! The §3.5 "blast" strawman: no write detection at all.
//!
//! Entry consistency can be provided "by simply blasting all data
//! associated with a synchronization object during interprocessor
//! synchronization". There is no trapping and no collection scan — but all
//! bound data travels on every transfer, "unnecessarily when
//! synchronization objects guard large data objects being sparsely
//! written".

use midway_mem::{Addr, LocalStore};

use crate::binding::Binding;
use crate::update::{UpdateItem, UpdateSet};

/// Reads the full bound data (the entire payload of a blast transfer).
pub fn snapshot(store: &mut LocalStore, binding: &Binding) -> UpdateSet {
    crate::vm::snapshot(store, binding)
}

/// Applies a blast payload: plain writes, no bookkeeping.
pub fn apply(store: &mut LocalStore, set: &UpdateSet) -> u64 {
    apply_items(store, &set.items)
}

/// [`apply`] over any run of items (a whole set, or a barrier release's
/// shared set minus the receiver's own addresses).
pub fn apply_items<'a>(
    store: &mut LocalStore,
    items: impl IntoIterator<Item = &'a UpdateItem>,
) -> u64 {
    let mut bytes = 0;
    for item in items {
        store.write_bytes(Addr(item.addr), &item.data);
        bytes += item.data.len() as u64;
    }
    bytes
}

#[cfg(test)]
#[allow(clippy::single_range_in_vec_init)] // one-range bindings are the point here
mod tests {
    use super::*;
    use midway_mem::{LayoutBuilder, MemClass};
    use std::sync::Arc;

    #[test]
    fn blast_ships_everything_every_time() {
        let mut b = LayoutBuilder::new();
        let a = b.alloc("x", 1024, MemClass::Shared, 3);
        let layout = b.build();
        let mut p0 = LocalStore::new(Arc::clone(&layout));
        let mut p1 = LocalStore::new(layout);
        let binding = Binding::new(vec![a.addr.raw()..a.addr.raw() + 1024]);

        p0.write_u64(a.addr + 8, 5);
        let set = snapshot(&mut p0, &binding);
        assert_eq!(set.data_bytes(), 1024, "sparse write, full transfer");
        assert_eq!(apply(&mut p1, &set), 1024);
        assert_eq!(p1.read_u64(a.addr + 8), 5);
    }
}
