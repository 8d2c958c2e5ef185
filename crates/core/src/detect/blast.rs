//! Blast detector: the §3.5 strawman with no write detection at all.

use midway_mem::Addr;
use midway_proto::{blast, Binding, SeenToken, Unskipped, UpdateSet};
use midway_sim::Category;

use crate::msg::GrantPayload;

use super::{DetectCx, WriteDetector};

/// The blast backend: no trapping, no scan — every transfer ships the full
/// bound data, "unnecessarily when synchronization objects guard large
/// data objects being sparsely written".
pub struct BlastDetector;

impl WriteDetector for BlastDetector {
    fn trap_write(&mut self, _cx: &mut DetectCx<'_>, _addr: Addr, _len: usize) {}

    fn collect_for(
        &mut self,
        cx: &mut DetectCx<'_>,
        _lock: usize,
        binding: &Binding,
        _seen: SeenToken,
    ) -> GrantPayload {
        let set = blast::snapshot(cx.store, binding);
        cx.counters.full_data_sends += 1;
        (cx.charge)(
            Category::Protocol,
            cx.cost.copy_cycles(set.data_bytes() as usize, false),
        );
        GrantPayload::Flat {
            set,
            binding: binding.clone(),
        }
    }

    fn apply_update(
        &mut self,
        cx: &mut DetectCx<'_>,
        _lock: usize,
        binding: &mut Binding,
        payload: GrantPayload,
    ) {
        let GrantPayload::Flat { set, binding: sent } = payload else {
            panic!("non-flat grant on blast node");
        };
        let bytes = blast::apply(cx.store, &set);
        (cx.charge)(
            Category::WriteCollect,
            cx.cost.copy_cycles(bytes as usize, true),
        );
        binding.install(sent);
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
        let set = blast::snapshot(cx.store, scan);
        cx.counters.full_data_sends += 1;
        set
    }

    fn apply_barrier(&mut self, cx: &mut DetectCx<'_>, items: Unskipped<'_>) {
        let bytes = blast::apply_items(cx.store, items);
        (cx.charge)(
            Category::WriteCollect,
            cx.cost.copy_cycles(bytes as usize, true),
        );
    }
}
