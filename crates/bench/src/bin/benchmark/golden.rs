//! `golden.json`: the fingerprint every cell must reproduce at the
//! default seed. Host-speed work must never move these; a change that
//! does is a change to the simulated system, not to the simulator's
//! speed, and shows up as failed operations.

use std::collections::BTreeMap;

use midway_bench::Json;

use crate::workloads::{Fingerprint, DEFAULT_SEED};

pub struct Golden {
    cells: BTreeMap<String, Fingerprint>,
}

/// The key of one cell: smoke cells run smaller inputs under the same
/// names, so they are kept apart.
pub fn key(smoke: bool, workload: &str, cell: &str) -> String {
    let scope = if smoke { "smoke" } else { "full" };
    format!("{scope}/{workload}/{cell}")
}

fn hex(v: u64) -> Json {
    Json::str(format!("{v:#018x}"))
}

fn unhex(j: &Json) -> Option<u64> {
    u64::from_str_radix(j.as_str()?.strip_prefix("0x")?, 16).ok()
}

impl Golden {
    pub fn new() -> Golden {
        Golden {
            cells: BTreeMap::new(),
        }
    }

    /// The file committed beside this source, compiled in so the check
    /// cannot silently run against a missing or stale copy.
    pub fn embedded() -> Result<Golden, String> {
        Golden::parse(include_str!("golden.json"))
    }

    pub fn parse(text: &str) -> Result<Golden, String> {
        let json = Json::parse(text).map_err(|e| format!("golden.json: {e}"))?;
        if json.get("seed").and_then(Json::as_u64) != Some(DEFAULT_SEED) {
            return Err(format!("golden.json is not for seed {DEFAULT_SEED}"));
        }
        let Some(Json::Obj(pairs)) = json.get("cells") else {
            return Err("golden.json has no cells object".to_string());
        };
        let mut cells = BTreeMap::new();
        for (name, c) in pairs {
            let field = |k: &str| c.get(k);
            let fp = (|| {
                Some(Fingerprint {
                    finish_cycles: field("finish_cycles")?.as_u64()?,
                    messages: field("messages")?.as_u64()?,
                    counters: unhex(field("counters")?)?,
                    digests: unhex(field("digests")?)?,
                })
            })()
            .ok_or_else(|| format!("golden.json: malformed cell {name:?}"))?;
            cells.insert(name.clone(), fp);
        }
        Ok(Golden { cells })
    }

    pub fn render(&self) -> String {
        let cells = self.cells.iter().map(|(name, fp)| {
            (
                name.clone(),
                Json::obj([
                    ("finish_cycles", Json::U64(fp.finish_cycles)),
                    ("messages", Json::U64(fp.messages)),
                    ("counters", hex(fp.counters)),
                    ("digests", hex(fp.digests)),
                ]),
            )
        });
        Json::obj([
            ("seed", Json::U64(DEFAULT_SEED)),
            ("cells", Json::Obj(cells.collect())),
        ])
        .render()
    }

    pub fn get(&self, key: &str) -> Option<&Fingerprint> {
        self.cells.get(key)
    }

    pub fn insert(&mut self, key: String, fp: Fingerprint) {
        self.cells.insert(key, fp);
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_round_trips() {
        let mut g = Golden::new();
        let fp = Fingerprint {
            finish_cycles: 342_500_000,
            messages: 17_474,
            counters: u64::MAX - 5,
            digests: 0x0123_4567_89ab_cdef,
        };
        g.insert(key(false, "lock_dense", "water-rt-8p"), fp);
        g.insert(
            key(true, "lock_dense", "water-rt-8p"),
            Fingerprint { messages: 9, ..fp },
        );
        let back = Golden::parse(&g.render()).expect("round trip");
        assert_eq!(back.len(), 2);
        assert_eq!(back.get("full/lock_dense/water-rt-8p"), Some(&fp));
        assert_eq!(
            back.get("smoke/lock_dense/water-rt-8p").map(|f| f.messages),
            Some(9)
        );
        assert!(back.get("full/lock_dense/water-vm-8p").is_none());
    }

    #[test]
    fn malformed_golden_is_an_error_not_a_pass() {
        assert!(Golden::parse("{").is_err());
        assert!(Golden::parse(r#"{"seed": 7, "cells": {}}"#).is_err());
        assert!(Golden::parse(r#"{"seed": 1994}"#).is_err());
        assert!(Golden::parse(r#"{"seed": 1994, "cells": {"x": {"messages": 1}}}"#).is_err());
    }

    #[test]
    fn committed_golden_parses_and_covers_both_scopes() {
        let g = Golden::embedded().expect("committed golden.json");
        assert!(g.get("full/lock_dense/water-rt-8p").is_some());
        assert!(g.get("smoke/lock_dense/water-rt-8p").is_some());
    }
}
