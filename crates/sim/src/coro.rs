//! Stackful coroutines and anonymous mappings: the only `unsafe` in the
//! simulator.
//!
//! A [`Coroutine`] is a closure running on its own `mmap`ed stack, a
//! [`Pages`] mapping with a guard page at its foot. Its
//! owner [`resume`](Coroutine::resume)s it; the closure hands control back
//! with [`suspend`] from any call depth, and the next `resume` continues
//! right there. Both directions are one `midway_coro_switch`: push the six
//! callee-saved registers, swap `rsp`, pop, `ret` — no kernel, no lock.
//!
//! What keeps this sound behind a safe interface:
//!
//! * **No panic crosses a switch.** The closure runs under `catch_unwind`
//!   *on the coroutine's stack*; a payload is carried across as data and
//!   re-raised by `resume` on the resumer's stack.
//! * **A stack with live frames is never freed.** `Drop` unmaps the stack
//!   only if the closure never started or has returned; a coroutine
//!   dropped while suspended leaks its stack (and the values on it), which
//!   is `mem::forget`, not a dangling frame.
//! * **Overflow faults.** The lowest page of every stack stays
//!   `PROT_NONE`, and rustc probes frames larger than a page, so running
//!   off the end is a `SIGSEGV`, never a write into a neighbouring
//!   mapping.
//! * **One thread.** `Coroutine` holds a raw pointer, so it is neither
//!   `Send` nor `Sync`; `suspend` finds the running coroutine through a
//!   thread-local, so it can only ever switch to a resumer on its own
//!   thread. Coroutines nest: `resume` saves and restores that
//!   thread-local around the switch.
//!
//! The switch is written for the x86-64 System V ABI and the stack for
//! Linux's `mmap` flag values; there is deliberately no second
//! implementation to drift out of test.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "crates/sim/src/coro.rs implements its stack switch for x86-64 Linux only; \
     port `switch`, the trampoline and the mmap constants to build elsewhere"
);

use std::any::Any;
use std::cell::Cell;
use std::ffi::c_void;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;

/// Usable bytes per stack: what `std::thread` gives a spawned thread, so
/// no closure that ran on a processor thread runs out here. Untouched
/// pages are never backed (`MAP_NORESERVE`, demand-zero).
const STACK_BYTES: usize = 2 << 20;
/// x86-64 Linux base page size.
const GUARD_BYTES: usize = 4096;

const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 1 | 2;
const MAP_PRIVATE_ANON_NORESERVE: i32 = 0x02 | 0x20 | 0x4000;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;

    /// Saves the callee-saved registers on the current stack, stores the
    /// resulting `rsp` in `*save`, loads `to` into `rsp`, and returns into
    /// whatever context was saved there.
    fn midway_coro_switch(save: *mut *mut u8, to: *mut u8);
    /// First return address of a fresh stack: calls `rbx(r12)`, then traps.
    fn midway_coro_trampoline();
}

// System V: rbp, rbx, r12-r15 are the callee-saved general registers; the
// caller of `switch` treats everything else as clobbered, as for any call.
// (MXCSR and the x87 control word are callee-saved too, but nothing here
// changes them between a suspend and its resume.)
core::arch::global_asm!(
    ".text",
    ".hidden midway_coro_switch",
    ".global midway_coro_switch",
    ".type midway_coro_switch,@function",
    "midway_coro_switch:",
    "    push rbp",
    "    push rbx",
    "    push r12",
    "    push r13",
    "    push r14",
    "    push r15",
    "    mov [rdi], rsp",
    "    mov rsp, rsi",
    "    pop r15",
    "    pop r14",
    "    pop r13",
    "    pop r12",
    "    pop rbx",
    "    pop rbp",
    "    ret",
    ".size midway_coro_switch, . - midway_coro_switch",
    ".hidden midway_coro_trampoline",
    ".global midway_coro_trampoline",
    ".type midway_coro_trampoline,@function",
    "midway_coro_trampoline:",
    "    mov rdi, r12",
    "    call rbx",
    "    ud2",
    ".size midway_coro_trampoline, . - midway_coro_trampoline",
);

/// An anonymous private mapping of `len` bytes: zero until written, and
/// only the pages written ever become resident, whatever the allocator
/// did with the process's heap before. Unmapped on drop.
///
/// [`Pages::zeroed`] maps readable and writable memory, which derefs to
/// its bytes. A coroutine stack is the one other kind: a `PROT_NONE`
/// mapping that the stack opens above its guard page and never derefs.
pub struct Pages {
    base: *mut u8,
    len: usize,
}

impl Pages {
    /// `len` zero bytes, demand-paged. Zero bytes map nothing.
    ///
    /// # Panics
    ///
    /// If the kernel refuses the mapping.
    pub fn zeroed(len: usize) -> Pages {
        Pages::map(len, PROT_READ_WRITE)
    }

    fn map(len: usize, prot: i32) -> Pages {
        if len == 0 {
            return Pages::default();
        }
        // SAFETY: a fresh anonymous mapping at an address of the kernel's
        // choosing aliases nothing; the result is checked before use.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                prot,
                MAP_PRIVATE_ANON_NORESERVE,
                -1,
                0,
            )
        };
        assert!(
            !base.is_null() && base as isize != -1,
            "mmap of {} KiB failed: {}",
            len.div_ceil(1024),
            std::io::Error::last_os_error()
        );
        Pages {
            base: base.cast(),
            len,
        }
    }
}

impl Default for Pages {
    /// No bytes, and no mapping.
    fn default() -> Pages {
        Pages {
            base: ptr::NonNull::dangling().as_ptr(),
            len: 0,
        }
    }
}

impl std::ops::Deref for Pages {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        // SAFETY: `base..base+len` is a readable mapping `self` owns (or
        // `len` is zero and `base` dangling but aligned), and `&self`
        // keeps it mapped and unwritten for the borrow.
        unsafe { std::slice::from_raw_parts(self.base, self.len) }
    }
}

impl std::ops::DerefMut for Pages {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: as for `deref`, and `&mut self` makes the borrow the
        // only one.
        unsafe { std::slice::from_raw_parts_mut(self.base, self.len) }
    }
}

impl Drop for Pages {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: `base..base+len` is exactly the mapping `map`
            // created, and no borrow of it outlives `self` (nor a frame:
            // `Coroutine::drop` lets a stack drop only when none lives
            // on it). A failure
            // (there is none for a valid range) would leak the mapping,
            // which is safe.
            unsafe { munmap(self.base.cast(), self.len) };
        }
    }
}

/// A coroutine stack: one guard page below [`STACK_BYTES`] of stack.
struct Stack {
    pages: Pages,
}

impl Stack {
    const LEN: usize = GUARD_BYTES + STACK_BYTES;

    fn new() -> Stack {
        let stack = Stack {
            pages: Pages::map(Self::LEN, PROT_NONE),
        };
        // SAFETY: the range lies inside the mapping created above, which
        // `stack` owns (and unmaps if the assert below unwinds).
        let rc = unsafe {
            mprotect(
                stack.pages.base.add(GUARD_BYTES).cast(),
                STACK_BYTES,
                PROT_READ_WRITE,
            )
        };
        assert_eq!(
            rc,
            0,
            "mprotect of a coroutine stack failed: {}",
            std::io::Error::last_os_error()
        );
        stack
    }

    /// One past the highest usable byte; 16-byte aligned because the
    /// mapping is page aligned and its length a page multiple.
    fn top(&self) -> *mut u8 {
        // SAFETY: `base + LEN` is one past the end of the owned mapping.
        unsafe { self.pages.base.add(Self::LEN) }
    }
}

/// The switch state `suspend` needs, reachable from the thread-local.
struct Ctx<'a> {
    /// Where to resume the coroutine; valid while it is not running.
    sp: *mut u8,
    /// Where to resume the resumer; valid while the coroutine runs.
    resumer: *mut u8,
    /// The closure, until the first `resume` moves it onto the stack.
    body: Option<Box<dyn FnOnce() + 'a>>,
    /// Set by `entry` once the closure has returned or unwound.
    done: bool,
    /// The closure's panic payload, carried across the switch as data.
    panic: Option<Box<dyn Any + Send>>,
}

thread_local! {
    /// The innermost coroutine running on this thread, or null.
    static CURRENT: Cell<*mut Ctx<'static>> = const { Cell::new(ptr::null_mut()) };
}

/// A closure on its own stack, run in slices by [`resume`](Self::resume).
pub struct Coroutine<'a> {
    /// Heap-allocated and only ever touched through this raw pointer, so
    /// the coroutine's own accesses (through `CURRENT` and `entry`'s
    /// argument) never alias a Rust reference held by the resumer.
    ctx: *mut Ctx<'a>,
    stack: Option<Stack>,
}

impl<'a> Coroutine<'a> {
    /// Prepares `body` to run on a fresh stack; nothing runs yet.
    pub fn new(body: impl FnOnce() + 'a) -> Coroutine<'a> {
        let stack = Stack::new();
        let ctx = Box::into_raw(Box::new(Ctx {
            sp: ptr::null_mut(),
            resumer: ptr::null_mut(),
            body: Some(Box::new(body)),
            done: false,
            panic: None,
        }));
        // The frame `switch` expects to pop, top down: a null return
        // address and a pad word (so a stack walk ends here and `rsp` is
        // 16-byte aligned at the trampoline's `call`), the trampoline as
        // `ret` target, then rbp rbx r12 r13 r14 r15.
        let frame: [usize; 9] = [
            0,                                            // r15
            0,                                            // r14
            0,                                            // r13
            ctx as usize,                                 // r12: entry's argument
            entry as *const () as usize,                  // rbx: entry
            0,                                            // rbp: end of frame chain
            midway_coro_trampoline as *const () as usize, // `ret` target
            0,                                            // pad
            0,                                            // null return address
        ];
        // SAFETY: the nine words lie inside the stack's writable range,
        // just below its 16-byte-aligned top, and nothing else uses the
        // fresh mapping yet; `ctx` is the live allocation made above.
        unsafe {
            let sp = stack.top().cast::<usize>().sub(frame.len());
            sp.copy_from_nonoverlapping(frame.as_ptr(), frame.len());
            (*ctx).sp = sp.cast();
        }
        Coroutine {
            ctx,
            stack: Some(stack),
        }
    }

    /// Whether the closure has returned (or unwound).
    pub fn is_done(&self) -> bool {
        // SAFETY: `ctx` is live until `drop`, and the coroutine is not
        // running (it runs only inside `resume`, which holds `&mut self`).
        unsafe { (*self.ctx).done }
    }

    /// Runs the closure until it calls [`suspend`] or returns. A panic in
    /// the closure is re-raised here, on the caller's stack.
    ///
    /// # Panics
    ///
    /// Panics if the closure has already returned.
    pub fn resume(&mut self) {
        assert!(!self.is_done(), "resumed a finished coroutine");
        let ctx = self.ctx;
        let outer = CURRENT.replace(ctx.cast());
        // SAFETY: `ctx` is live. `(*ctx).sp` is either the frame `new`
        // built or the `rsp` a `suspend` saved on this coroutine's stack,
        // which is still mapped because `drop` is the only thing that
        // unmaps it; either way it is a context `switch` can pop. The
        // switch returns here once the coroutine switches to `resumer`.
        unsafe { midway_coro_switch(ptr::addr_of_mut!((*ctx).resumer), (*ctx).sp) };
        CURRENT.set(outer);
        // SAFETY: `ctx` is live and the coroutine is no longer running.
        if let Some(payload) = unsafe { (*ctx).panic.take() } {
            resume_unwind(payload);
        }
    }
}

impl Drop for Coroutine<'_> {
    fn drop(&mut self) {
        // SAFETY: `ctx` came from `Box::into_raw` in `new`, is reclaimed
        // only here, and the coroutine is not running.
        let ctx = unsafe { Box::from_raw(self.ctx) };
        if ctx.body.is_none() && !ctx.done {
            // Suspended mid-closure: frames on the stack may be borrowed
            // from or pinned. Leak it rather than free it under them.
            std::mem::forget(self.stack.take());
        }
    }
}

/// First function on every coroutine stack. Never returns: its last act
/// is the switch back to the resumer, and a finished coroutine is never
/// resumed (`resume` asserts), so the trampoline's `ud2` is unreachable.
extern "C" fn entry(arg: *mut u8) {
    let ctx: *mut Ctx<'_> = arg.cast();
    // SAFETY: `arg` is the `ctx` that `new` put in the initial frame; it
    // outlives the coroutine's execution because `resume` borrows the
    // owning `Coroutine` for as long as this stack runs.
    let body = unsafe { (*ctx).body.take() };
    let body = body.expect("a fresh coroutine holds its closure");
    // The closure runs and unwinds here, on this stack; only the payload
    // leaves it.
    let outcome = catch_unwind(AssertUnwindSafe(body));
    // SAFETY: as above; `resumer` was saved by the `resume` that is
    // waiting for this coroutine, on a stack that is still live because
    // that call has not returned.
    unsafe {
        (*ctx).panic = outcome.err();
        (*ctx).done = true;
        midway_coro_switch(ptr::addr_of_mut!((*ctx).sp), (*ctx).resumer);
    }
}

/// Hands control back to whoever resumed the running coroutine; returns
/// when it is resumed again.
///
/// # Panics
///
/// Panics when no coroutine is running on this thread.
pub fn suspend() {
    let ctx = CURRENT.get();
    assert!(!ctx.is_null(), "coro::suspend called outside a coroutine");
    // SAFETY: `CURRENT` is non-null only between a `resume`'s switch in
    // and its return, so `ctx` is live and `resumer` is that call's saved
    // context on a live stack. Saving into `sp` is what the next `resume`
    // will switch to.
    unsafe { midway_coro_switch(ptr::addr_of_mut!((*ctx).sp), (*ctx).resumer) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn runs_in_slices_and_keeps_locals_across_suspends() {
        let log = RefCell::new(Vec::new());
        let mut co = Coroutine::new(|| {
            let mut local = 10;
            for _ in 0..3 {
                log.borrow_mut().push(local);
                local += 1;
                suspend();
            }
            log.borrow_mut().push(local);
        });
        assert!(log.borrow().is_empty(), "nothing runs before resume");
        let mut resumes = 0;
        while !co.is_done() {
            co.resume();
            resumes += 1;
            log.borrow_mut().push(-resumes);
        }
        assert_eq!(*log.borrow(), vec![10, -1, 11, -2, 12, -3, 13, -4]);
    }

    #[test]
    fn panic_is_reraised_on_the_resumer_and_locals_are_dropped() {
        struct Guard<'a>(&'a Cell<u32>);
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        let drops = Cell::new(0);
        let mut co = Coroutine::new(|| {
            let _g = Guard(&drops);
            suspend();
            panic!("inside the coroutine");
        });
        co.resume();
        assert_eq!(drops.get(), 0);
        let err = catch_unwind(AssertUnwindSafe(|| co.resume())).unwrap_err();
        assert_eq!(
            err.downcast_ref::<&str>().copied(),
            Some("inside the coroutine")
        );
        assert!(co.is_done());
        assert_eq!(drops.get(), 1, "unwound on its own stack");
    }

    #[test]
    fn floats_and_callee_saved_state_survive_interleaving() {
        // Two coroutines interleave float accumulations with many live
        // values; a register the switch failed to preserve shows up as a
        // wrong sum.
        let sums = [Cell::new(0.0f64), Cell::new(0.0f64)];
        let mut cos: Vec<Coroutine<'_>> = (0..2)
            .map(|i| {
                let out = &sums[i];
                Coroutine::new(move || {
                    let (mut a, mut b, mut c, mut d) = (1.0f64, 2.0f64, 3u64, 5u64);
                    for k in 0..100u64 {
                        a += (k + i as u64) as f64 * 0.5;
                        b *= 1.0 + 1.0 / (k + 1) as f64;
                        c = c.wrapping_mul(6364136223846793005).wrapping_add(k);
                        d ^= c >> 7;
                        suspend();
                    }
                    out.set(a + b + (c ^ d) as f64);
                })
            })
            .collect();
        while cos.iter().any(|c| !c.is_done()) {
            for c in cos.iter_mut().filter(|c| !c.is_done()) {
                c.resume();
            }
        }
        let expect = |i: u64| {
            let (mut a, mut b, mut c, mut d) = (1.0f64, 2.0f64, 3u64, 5u64);
            for k in 0..100u64 {
                a += (k + i) as f64 * 0.5;
                b *= 1.0 + 1.0 / (k + 1) as f64;
                c = c.wrapping_mul(6364136223846793005).wrapping_add(k);
                d ^= c >> 7;
            }
            a + b + (c ^ d) as f64
        };
        assert_eq!(sums[0].get(), expect(0));
        assert_eq!(sums[1].get(), expect(1));
    }

    #[test]
    fn coroutines_nest() {
        let log = RefCell::new(Vec::new());
        let mut outer = Coroutine::new(|| {
            let mut inner = Coroutine::new(|| {
                log.borrow_mut().push("inner 1");
                suspend(); // to `outer`, its resumer
                log.borrow_mut().push("inner 2");
            });
            inner.resume();
            log.borrow_mut().push("outer between");
            suspend(); // to the test, with `inner` parked on outer's stack
            inner.resume();
            assert!(inner.is_done());
        });
        outer.resume();
        log.borrow_mut().push("test between");
        outer.resume();
        assert!(outer.is_done());
        assert_eq!(
            *log.borrow(),
            vec!["inner 1", "outer between", "test between", "inner 2"]
        );
    }

    #[test]
    fn unstarted_and_finished_coroutines_free_their_stacks() {
        fn vm_size_kb() -> u64 {
            let status = std::fs::read_to_string("/proc/self/status").unwrap();
            let line = status.lines().find(|l| l.starts_with("VmSize:")).unwrap();
            line.split_whitespace().nth(1).unwrap().parse().unwrap()
        }
        // Leaking either kind would grow the address space by 8 GiB; other
        // tests running beside this one move it by far less than half that.
        let before = vm_size_kb();
        for i in 0..8192 {
            let mut co = Coroutine::new(|| ());
            if i % 2 == 0 {
                co.resume();
            }
        }
        let grown_mb = vm_size_kb().saturating_sub(before) / 1024;
        assert!(grown_mb < 4096, "address space grew by {grown_mb} MiB");
    }

    #[test]
    fn dropping_a_suspended_coroutine_leaks_instead_of_unwinding() {
        let dropped = Cell::new(false);
        struct Flag<'a>(&'a Cell<bool>);
        impl Drop for Flag<'_> {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let mut co = Coroutine::new(|| {
            let _f = Flag(&dropped);
            suspend();
        });
        co.resume();
        drop(co);
        assert!(!dropped.get(), "frames on a leaked stack are forgotten");
    }

    #[test]
    #[should_panic(expected = "outside a coroutine")]
    fn suspend_outside_a_coroutine_panics() {
        suspend();
    }
}
