//! Command-line flags: spelled once here, accepted per harness.
//!
//! Each artefact / harness names the flags it takes; [`BenchArgs::parse`]
//! accepts exactly those. A misspelt flag, or a value flag followed by
//! another flag, is a usage error listing the accepted ones — never a
//! silent run of the default matrix. Applications, backends and number
//! lists are selected one way everywhere: `--apps a,b`, `--backends
//! rt,vm`, `--<name> 1,2,4`.

use std::path::Path;
use std::str::FromStr;

use midway_apps::{AppKind, Scale};
use midway_core::BackendKind;

use crate::json::Json;

/// Every flag any artefact or harness takes, spelled once, as its usage
/// line: `--name[ VALUE]: meaning` (no `VALUE` makes it a bare switch). A
/// harness accepts the subset it names.
const FLAGS: &[&str] = &[
    "--scale paper|medium|small|dc: workload size (default paper)",
    "--procs N: cluster size (default 8)",
    "--out FILE: the JSON results file",
    "--jobs N: worker threads for independent cells (same bytes at any count)",
    "--smoke: the CI-sized cell",
    "--apps NAME[,NAME...]: applications",
    "--backends NAME[,NAME...]: rt|vm|blast|twinall|hybrid",
    "--fault-seed N: seed of the fault schedule (default 1)",
    "--crashes N[,N...]: staggered crashes per plan (default 1,3)",
    "--intervals N[,N...]: sync boundaries per checkpoint (default 1,4,16)",
    "--procs-list N[,N...]: cluster sizes (default 64,128,256)",
    "--arity N: combining-tree arity (default 4)",
    "--budget-gb N: per-cell memory budget (default 100)",
    "--render: print the results file as a markdown table; run nothing",
    "--write FILE: with --render, splice the table between FILE's markers",
    "--find-knee: binary-search the saturation knee per app and backend",
    "--loss PPM: injected drop and duplicate rate on the sockets (default 0)",
    "--trace DIR: where the recorded traces go (default results/traces)",
    "--overhead: time one app with and without the checker",
    "--seeds N: seeds to sweep",
    "--seed N: replay exactly one seed",
];

/// A usage line's `(name, value hint)`; the hint is empty for a switch.
fn signature(spec: &str) -> (&str, &str) {
    let sig = spec.split_once(':').map_or(spec, |(sig, _)| sig);
    sig.split_once(' ').unwrap_or((sig, ""))
}

/// The parsed command line of one artefact or harness.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Workload scale (`--scale`, default [`Scale::Paper`]).
    pub scale: Scale,
    /// Cluster size (`--procs`, default 8).
    pub procs: usize,
    /// Worker threads for independent simulation cells (`--jobs`).
    pub jobs: usize,
    given: Vec<(&'static str, Option<String>)>,
}

impl BenchArgs {
    /// Parses `argv`, accepting only the flags named in `accepted`.
    ///
    /// # Errors
    ///
    /// A usage message listing the accepted flags, on any other flag, a
    /// value flag with no value (or another flag where its value should
    /// be), or a malformed `--scale` / `--procs` / `--jobs`.
    ///
    /// # Panics
    ///
    /// Panics if `accepted` names a flag the table above does not spell.
    pub fn parse(argv: &[String], accepted: &[&str]) -> Result<BenchArgs, String> {
        let specs: Vec<&'static str> = accepted
            .iter()
            .map(|name| {
                let spec = FLAGS.iter().find(|s| signature(s).0 == *name);
                *spec.unwrap_or_else(|| panic!("harness accepts undeclared flag {name}"))
            })
            .collect();
        let usage = |what: String| format!("{what}\naccepted flags:\n  {}", specs.join("\n  "));
        let mut given = Vec::new();
        let mut it = argv.iter().peekable();
        while let Some(arg) = it.next() {
            let Some((name, hint)) = specs.iter().map(|s| signature(s)).find(|(n, _)| n == arg)
            else {
                return Err(usage(format!("unknown flag {arg:?}")));
            };
            let value = match (hint.is_empty(), it.next_if(|v| !v.starts_with("--"))) {
                (true, _) => None,
                (false, Some(v)) => Some(v.clone()),
                (false, None) => return Err(usage(format!("{name} needs a value ({hint})"))),
            };
            given.push((name, value));
        }
        let mut args = BenchArgs {
            scale: Scale::Paper,
            procs: 8,
            jobs: 1,
            given,
        };
        if let Some(s) = args.value("--scale") {
            args.scale = [Scale::Paper, Scale::Medium, Scale::Small, Scale::Datacenter]
                .into_iter()
                .find(|k| k.label() == s)
                .ok_or_else(|| usage(format!("unknown scale {s:?}")))?;
        }
        args.procs = args.num("--procs", args.procs).map_err(&usage)?;
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        args.jobs = args.num("--jobs", host).map_err(&usage)?.max(1);
        Ok(args)
    }

    /// Whether a bare flag (e.g. `--smoke`) was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The value passed with a flag, if it was.
    pub fn value(&self, name: &str) -> Option<&str> {
        let (_, v) = self.given.iter().find(|(n, _)| *n == name)?;
        v.as_deref()
    }

    /// A flag's value parsed as a number, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Names the flag when its value does not parse.
    pub fn num<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| format!("{name} takes a number, got {s:?}")),
        }
    }

    /// A flag's comma-separated value, each item through `parse`, or
    /// `default()` when the flag is absent.
    ///
    /// # Errors
    ///
    /// Names the flag and the first item `parse` rejects.
    pub fn list<T>(
        &self,
        name: &str,
        default: impl FnOnce() -> Vec<T>,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Vec<T>, String> {
        let Some(raw) = self.value(name) else {
            return Ok(default());
        };
        raw.split(',')
            .map(|item| parse(item.trim()).ok_or_else(|| format!("{name}: bad value {item:?}")))
            .collect()
    }

    /// `--apps` (any application by name), defaulting to `default`.
    ///
    /// # Errors
    ///
    /// Names the first unknown application.
    pub fn apps(&self, default: &[AppKind]) -> Result<Vec<AppKind>, String> {
        self.list(
            "--apps",
            || default.to_vec(),
            |s| AppKind::from_label(s).ok(),
        )
    }

    /// `--backends`, defaulting to `default`.
    ///
    /// # Errors
    ///
    /// Names the first unknown backend.
    pub fn backends(&self, default: &[BackendKind]) -> Result<Vec<BackendKind>, String> {
        self.list(
            "--backends",
            || default.to_vec(),
            |s| BackendKind::from_cli_name(s).ok(),
        )
    }

    /// A results document: the standard preamble (harness name, scale,
    /// processors) followed by `fields`.
    pub fn document<K: Into<String>>(
        &self,
        name: &str,
        fields: impl IntoIterator<Item = (K, Json)>,
    ) -> Json {
        let mut pairs = vec![
            ("harness".to_string(), Json::str(name)),
            ("scale".to_string(), Json::str(self.scale.label())),
            ("procs".to_string(), Json::U64(self.procs as u64)),
        ];
        pairs.extend(fields.into_iter().map(|(k, v)| (k.into(), v)));
        Json::Obj(pairs)
    }

    /// Writes `json` to `--out`, or to `default`, creating parent
    /// directories as needed, and says where on stderr (stdout is exactly
    /// the artefact).
    ///
    /// # Errors
    ///
    /// Names the path when the file cannot be written.
    pub fn write(&self, default: &Path, json: &Json) -> Result<(), String> {
        let path = self.value("--out").map_or(default, Path::new);
        path.parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, json.render()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("results written to {}", path.display());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn declared_flags_parse_and_defaults_hold() {
        let accepted = ["--procs", "--smoke", "--apps", "--backends", "--crashes"];
        let a = BenchArgs::parse(&argv("--procs 4 --smoke --apps sor,matrix"), &accepted)
            .expect("declared flags parse");
        assert_eq!((a.procs, a.scale), (4, Scale::Paper));
        assert!(a.flag("--smoke") && !a.flag("--backends"));
        assert_eq!(a.apps(&[]).unwrap(), [AppKind::Sor, AppKind::Matmul]);
        assert_eq!(a.backends(&BackendKind::DATA).unwrap(), BackendKind::DATA);
        assert_eq!(
            a.list("--crashes", || vec![1, 3], |s| s.parse().ok()),
            Ok(vec![1u32, 3])
        );
    }

    #[test]
    fn unknown_flag_is_a_usage_error_listing_the_accepted_ones() {
        for typo in ["--bakends vm", "--prcs 64", "--live"] {
            let err = BenchArgs::parse(&argv(typo), &["--procs", "--backends"]).unwrap_err();
            assert!(err.contains("unknown flag"), "{typo}: {err}");
            assert!(
                err.contains("--procs N") && err.contains("--backends"),
                "{err}"
            );
        }
    }

    #[test]
    fn value_flag_followed_by_a_flag_is_a_usage_error() {
        for bad in ["--out --smoke", "--smoke --out"] {
            let err = BenchArgs::parse(&argv(bad), &["--out", "--smoke"]).unwrap_err();
            assert!(err.contains("--out needs a value"), "{bad}: {err}");
            assert!(
                err.contains("--smoke"),
                "usage lists the accepted flags: {err}"
            );
        }
    }

    #[test]
    fn malformed_values_name_their_flag() {
        let err = BenchArgs::parse(&argv("--procs many"), &["--procs"]).unwrap_err();
        assert!(err.contains("--procs"), "{err}");
        let err = BenchArgs::parse(&argv("--scale huge"), &["--scale"]).unwrap_err();
        assert!(err.contains("unknown scale"), "{err}");
        let accepted = ["--apps", "--backends"];
        let a = BenchArgs::parse(&argv("--apps sor,nosuch --backends rt,xx"), &accepted).unwrap();
        assert!(a.apps(&[]).unwrap_err().contains("nosuch"));
        assert!(a.backends(&[]).unwrap_err().contains("xx"));
    }
}
