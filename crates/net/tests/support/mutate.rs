//! Seeded byte mutation: the hostile-input sweep every decoder built on
//! `midway_net::wire` is held to, and the results-file JSON parser too.
//!
//! Not a test target of its own — the decoders' test modules include it
//! by path (`core/wire.rs` for socket frames, `core/node/recover.rs` for
//! the checkpoint image and the write-ahead log, `replay/tests/
//! prop_trace.rs` for trace files, `bench/src/json.rs` for `BENCH_*.json`),
//! so the four sweeps share one mutator without it becoming part of any
//! crate's interface.

use midway_sim::SplitMix64;

/// `u64::MAX` as a varint and `u32::MAX` little-endian: spliced over a
/// count or a length, the largest claim either prefix kind can make.
const HUGE: [&[u8]; 2] = [
    &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
    &[0xff, 0xff, 0xff, 0xff],
];

/// `input` after one to three mutations: a flipped bit, a truncation, or
/// a huge count written over or inserted at a random offset.
fn mutant(rng: &mut SplitMix64, input: &[u8]) -> Vec<u8> {
    let mut out = input.to_vec();
    for _ in 0..=rng.next_below(3) {
        let at = rng.next_below(out.len() as u64 + 1) as usize;
        match rng.next_below(5) {
            0 | 1 => {
                if let Some(b) = out.get_mut(at) {
                    *b ^= 1 << rng.next_below(8);
                }
            }
            2 => out.truncate(at),
            kind => {
                let huge = HUGE[kind as usize - 3];
                let over = if rng.next_below(2) == 0 {
                    huge.len()
                } else {
                    0
                };
                out.splice(at..(at + over).min(out.len()), huge.iter().copied());
            }
        }
    }
    out
}

/// Feeds `n` seeded mutants of `input` to `decode`, which says whether it
/// accepted the bytes, and returns how many it accepted. A decoder that
/// panics, overflows or tries to allocate what a spliced count claims
/// fails the calling test; either answer is fine.
pub(crate) fn sweep(
    seed: u64,
    input: &[u8],
    n: usize,
    mut decode: impl FnMut(&[u8]) -> bool,
) -> usize {
    let mut rng = SplitMix64::new(seed);
    (0..n).filter(|_| decode(&mutant(&mut rng, input))).count()
}
