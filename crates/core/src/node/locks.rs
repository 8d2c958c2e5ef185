//! The lock path: acquire, release, and dynamic rebinding.

use midway_net::Transport;
use midway_proto::{LockId, Mode};

use crate::msg::{DsmMsg, NetMsg};

use super::DsmNode;

impl DsmNode {
    /// Acquires `lock` in `mode`, blocking until granted and consistent.
    pub(crate) fn acquire<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        lock: LockId,
        mode: Mode,
    ) {
        let idx = lock.0 as usize;
        assert!(
            self.locks[idx].held.is_none(),
            "proc {} re-acquiring held lock {lock:?}",
            self.me
        );
        self.clock.tick();
        self.acquiring = Some(lock);
        let seen = self.detect.seen_token(idx, &self.locks[idx].binding);
        let home = self.cfg.home_map.lock_home(lock, self.procs);
        if home == self.me {
            let transfers = self.homes[idx]
                .as_mut()
                .expect("home state exists")
                .acquire(self.me, mode, seen);
            self.do_transfers(h, lock, transfers);
        } else {
            self.send(h, home, DsmMsg::AcquireReq { lock, mode, seen });
        }
        self.pump_until(h, |n| n.locks[idx].held.is_some());
        self.acquiring = None;
        self.counters.lock_acquires += 1;
        // The grant installed the hold (and possibly a rebound binding):
        // log the new lock state so a recovery reproduces it.
        self.wal_lock(h, idx);
    }

    /// Releases `lock`. Local and asynchronous, as in Midway: data moves
    /// only when another processor asks for it.
    pub(crate) fn release<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        lock: LockId,
        mode: Mode,
    ) {
        let idx = lock.0 as usize;
        assert_eq!(
            self.locks[idx].held,
            Some(mode),
            "proc {} releasing lock {lock:?} it does not hold in that mode",
            self.me
        );
        self.locks[idx].held = None;
        self.clock.tick();
        let home = self.cfg.home_map.lock_home(lock, self.procs);
        if home == self.me {
            let transfers = self.homes[idx]
                .as_mut()
                .expect("home state exists")
                .release(self.me, mode);
            self.do_transfers(h, lock, transfers);
        } else {
            self.send(h, home, DsmMsg::ReleaseNotify { lock, mode });
        }
        self.wal_lock(h, idx);
        // A release is a synchronization boundary: released update sets
        // are now observable, so it is a checkpointing point.
        self.checkpoint_boundary(h);
    }

    /// Rebinds `lock` to `ranges`. The caller must hold it exclusively.
    pub(crate) fn rebind<T: Transport<Msg = NetMsg>>(
        &mut self,
        h: &mut T,
        lock: LockId,
        ranges: Vec<midway_mem::AddrRange>,
    ) {
        let idx = lock.0 as usize;
        assert_eq!(
            self.locks[idx].held,
            Some(Mode::Exclusive),
            "rebinding requires exclusive ownership"
        );
        self.locks[idx].binding.rebind(ranges);
        self.detect.on_rebind(idx);
        self.wal_lock(h, idx);
    }
}
