//! Blast detector: the §3.5 strawman with no write detection at all —
//! entry consistency "by simply blasting all data associated with a
//! synchronization object during interprocessor synchronization".

use midway_mem::{Addr, LocalStore};
use midway_proto::{vm, Binding, ItemRef, SeenToken, UpdateSet, Visible};
use midway_sim::Pages;

use crate::msg::GrantPayload;

use super::{DetectCx, WriteDetector};

/// The blast backend: no trapping, no scan — every transfer ships the full
/// bound data, "unnecessarily when synchronization objects guard large
/// data objects being sparsely written".
pub(crate) struct BlastDetector;

/// Writes `items` into the store: no bookkeeping. Returns the bytes
/// written.
fn copy_items<'a>(
    store: &mut LocalStore<Pages>,
    items: impl IntoIterator<Item = ItemRef<'a>>,
) -> u64 {
    let mut bytes = 0;
    for item in items {
        store.write_bytes(Addr(item.addr), item.data);
        bytes += item.data.len() as u64;
    }
    bytes
}

impl WriteDetector for BlastDetector {
    fn collect_for(
        &mut self,
        cx: &mut DetectCx<'_>,
        _lock: usize,
        binding: &Binding,
        _seen: SeenToken,
    ) -> GrantPayload {
        GrantPayload::Flat {
            set: cx.full_send(binding),
            binding: binding.clone(),
        }
    }

    fn apply_update(
        &mut self,
        cx: &mut DetectCx<'_>,
        _lock: usize,
        binding: &mut Binding,
        payload: GrantPayload,
    ) -> Result<(), GrantPayload> {
        let GrantPayload::Flat { set, binding: sent } = payload else {
            return Err(payload);
        };
        let bytes = copy_items(cx.store, &set);
        cx.charge_vm_apply(bytes, 0);
        binding.install(sent);
        Ok(())
    }

    fn collect_barrier(
        &mut self,
        cx: &mut DetectCx<'_>,
        scan: &Binding,
        _last_consist: u64,
        partitioned: bool,
    ) -> UpdateSet {
        assert!(
            partitioned,
            "blast backend needs a partitioned barrier binding: \
             without write detection it cannot know what this \
             processor modified"
        );
        let set: UpdateSet = vm::snapshot(cx.store, scan);
        cx.counters.full_data_sends += 1;
        set
    }

    fn apply_barrier(&mut self, cx: &mut DetectCx<'_>, items: Visible<'_>) {
        let bytes = copy_items(cx.store, items.map(ItemRef::from));
        cx.charge_vm_apply(bytes, 0);
    }
}
