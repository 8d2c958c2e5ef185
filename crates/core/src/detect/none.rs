//! The standalone (uniprocessor baseline) detector: no detection, no
//! consistency, no data motion.

use midway_proto::{Binding, SeenToken, UpdateSet, Visible};

use crate::msg::GrantPayload;

use super::{DetectCx, WriteDetector};

/// The `BackendKind::None` backend, valid only with one processor.
pub(crate) struct NoneDetector;

impl WriteDetector for NoneDetector {
    fn collect_for(
        &mut self,
        _cx: &mut DetectCx<'_>,
        _lock: usize,
        _binding: &Binding,
        _seen: SeenToken,
    ) -> GrantPayload {
        unreachable!("standalone runs never transfer data")
    }

    fn apply_update(
        &mut self,
        _cx: &mut DetectCx<'_>,
        _lock: usize,
        _binding: &mut Binding,
        payload: GrantPayload,
    ) -> Result<(), GrantPayload> {
        // Standalone runs never transfer data: any grant is foreign.
        Err(payload)
    }

    fn collect_barrier(
        &mut self,
        _cx: &mut DetectCx<'_>,
        _scan: &Binding,
        _last_consist: u64,
        _partitioned: bool,
    ) -> UpdateSet {
        UpdateSet::new()
    }

    fn apply_barrier(&mut self, _cx: &mut DetectCx<'_>, _items: Visible<'_>) {}
}
