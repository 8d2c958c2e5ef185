//! Simulated virtual-memory state for VM-DSM write trapping.
//!
//! Paper §3.3: shared pages start read-only and clean. The first store to a
//! page write-faults; the runtime saves a copy of the page (its *twin*),
//! marks it dirty, and grants write access. Collection later diffs the page
//! against the twin; once all modified data has been shipped, the page is
//! cleaned: twin freed, page write-protected again.

use std::sync::Arc;

use crate::addr::PAGE_SIZE;
use crate::diff::DiffScratch;
use crate::layout::Layout;

/// Result of probing a store against the page protection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteAccess {
    /// The page is writable; the store proceeds at full speed.
    Ok,
    /// The page is write-protected; a fault must be serviced first.
    Fault,
}

#[derive(Debug, Default)]
struct PageMeta {
    writable: bool,
    twin: Option<Box<[u8]>>,
}

/// The page-table entries of one region.
#[derive(Debug)]
pub struct RegionPages {
    pages: Vec<PageMeta>,
}

impl RegionPages {
    /// Probes a store to `page`.
    pub fn store_probe(&self, page: usize) -> WriteAccess {
        if self.pages[page].writable {
            WriteAccess::Ok
        } else {
            WriteAccess::Fault
        }
    }

    /// Services a write fault on `page`: saves `current` as its twin and
    /// marks it dirty and writable.
    ///
    /// # Panics
    ///
    /// Panics if the page is already writable (spurious fault).
    pub fn fault_in(&mut self, page: usize, current: &[u8]) {
        let meta = &mut self.pages[page];
        assert!(!meta.writable, "fault on a writable page");
        meta.twin = Some(current.to_vec().into_boxed_slice());
        meta.writable = true;
    }
}

/// One processor's page table over the whole layout.
///
/// Only the *application write path* consults protection; the DSM runtime
/// itself applies incoming updates directly (the real system applies them
/// through a privileged mapping).
pub struct PageTable {
    layout: Arc<Layout>,
    regions: Vec<Option<RegionPages>>,
    /// The collection pass's buffers. They live here because the page
    /// table is what every pass over this processor's pages is handed; a
    /// pass takes them out (`std::mem::take`) while it borrows twins and
    /// puts them back when it is done.
    pub scratch: DiffScratch,
}

impl PageTable {
    /// Creates a page table with every page write-protected and clean.
    pub fn new(layout: Arc<Layout>) -> PageTable {
        let slots = layout.region_slots();
        PageTable {
            layout,
            regions: (0..slots).map(|_| None).collect(),
            scratch: DiffScratch::default(),
        }
    }

    /// Probes a store to page `page` of region `region`.
    pub fn store_probe(&mut self, region: usize, page: usize) -> WriteAccess {
        self.region_pages(region).store_probe(page)
    }

    /// Services a write fault: saves `current` as the page's twin, marks
    /// the page dirty and writable.
    ///
    /// # Panics
    ///
    /// Panics if the page is already writable (spurious fault).
    pub fn fault_in(&mut self, region: usize, page: usize, current: &[u8]) {
        self.region_pages(region).fault_in(page, current);
    }

    /// Takes `region`'s entries out of the table for a caller that traps
    /// many stores to it (a store view); hand them back with
    /// [`restore`](Self::restore). Until then the table does not hold
    /// them: entries never handed back read as clean and protected again.
    pub fn lend(&mut self, region: usize) -> RegionPages {
        self.region_pages(region);
        self.regions[region].take().expect("just materialized")
    }

    /// Puts back entries taken with [`lend`](Self::lend).
    pub fn restore(&mut self, region: usize, pages: RegionPages) {
        debug_assert!(
            self.regions[region].is_none(),
            "region {region} restored twice"
        );
        self.regions[region] = Some(pages);
    }

    /// Whether the page is dirty (has a twin).
    pub fn is_dirty(&mut self, region: usize, page: usize) -> bool {
        self.meta(region, page).twin.is_some()
    }

    /// Whether the page is writable.
    pub fn is_writable(&mut self, region: usize, page: usize) -> bool {
        self.meta(region, page).writable
    }

    /// The page's twin, if dirty.
    pub fn twin(&mut self, region: usize, page: usize) -> Option<&[u8]> {
        self.meta(region, page).twin.as_deref()
    }

    /// Mutable access to the twin (incoming updates are applied to the twin
    /// of a dirty page so they are not later mistaken for local writes).
    pub fn twin_mut(&mut self, region: usize, page: usize) -> Option<&mut [u8]> {
        self.meta(region, page).twin.as_deref_mut()
    }

    /// Cleans the page: frees the twin and write-protects it again.
    pub fn clean(&mut self, region: usize, page: usize) {
        let meta = self.meta(region, page);
        meta.twin = None;
        meta.writable = false;
    }

    fn meta(&mut self, region: usize, page: usize) -> &mut PageMeta {
        &mut self.region_pages(region).pages[page]
    }

    /// `region`'s entries, created (clean and protected) on first touch.
    fn region_pages(&mut self, region: usize) -> &mut RegionPages {
        let desc = self
            .layout
            .region(region)
            .unwrap_or_else(|| panic!("no region {region}"));
        let npages = desc.used.div_ceil(PAGE_SIZE);
        self.regions[region].get_or_insert_with(|| RegionPages {
            pages: (0..npages).map(|_| PageMeta::default()).collect(),
        })
    }
}

impl std::fmt::Debug for PageTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let materialized = self.regions.iter().filter(|r| r.is_some()).count();
        f.debug_struct("PageTable")
            .field("regions_materialized", &materialized)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{LayoutBuilder, MemClass};

    fn table() -> (PageTable, usize) {
        let mut b = LayoutBuilder::new();
        let a = b.alloc("t", 3 * PAGE_SIZE + 100, MemClass::Shared, 12);
        let layout = b.build();
        let region = a.addr.region_index();
        (PageTable::new(layout), region)
    }

    #[test]
    fn pages_start_protected_and_clean() {
        let (mut pt, r) = table();
        assert_eq!(pt.store_probe(r, 0), WriteAccess::Fault);
        assert!(!pt.is_dirty(r, 0));
    }

    #[test]
    fn fault_creates_twin_and_grants_write() {
        let (mut pt, r) = table();
        let content = vec![7u8; PAGE_SIZE];
        pt.fault_in(r, 1, &content);
        assert_eq!(pt.store_probe(r, 1), WriteAccess::Ok);
        assert!(pt.is_dirty(r, 1));
        assert_eq!(pt.twin(r, 1).unwrap(), &content[..]);
        // Other pages unaffected.
        assert_eq!(pt.store_probe(r, 0), WriteAccess::Fault);
    }

    #[test]
    fn clean_drops_twin_and_reprotects() {
        let (mut pt, r) = table();
        pt.fault_in(r, 0, &[1u8; PAGE_SIZE]);
        pt.clean(r, 0);
        assert!(!pt.is_dirty(r, 0));
        assert_eq!(pt.store_probe(r, 0), WriteAccess::Fault);
    }

    #[test]
    fn dirty_page_enumeration() {
        let (mut pt, r) = table();
        pt.fault_in(r, 0, &[0u8; PAGE_SIZE]);
        pt.fault_in(r, 3, &[0u8; 100]); // final partial page
        let dirty: Vec<usize> = (0..4).filter(|&p| pt.is_dirty(r, p)).collect();
        assert_eq!(dirty, vec![0, 3]);
        assert_eq!(pt.twin(r, 3).unwrap().len(), 100);
    }

    #[test]
    fn twin_mut_allows_update_application() {
        let (mut pt, r) = table();
        pt.fault_in(r, 2, &[0u8; PAGE_SIZE]);
        pt.twin_mut(r, 2).unwrap()[10] = 99;
        assert_eq!(pt.twin(r, 2).unwrap()[10], 99);
    }

    #[test]
    #[should_panic(expected = "fault on a writable page")]
    fn double_fault_is_a_bug() {
        let (mut pt, r) = table();
        pt.fault_in(r, 0, &[0u8; PAGE_SIZE]);
        pt.fault_in(r, 0, &[0u8; PAGE_SIZE]);
    }
}
