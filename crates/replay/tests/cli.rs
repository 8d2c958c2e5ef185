//! The `trace` tool refuses a command line it does not fully understand:
//! a misspelt flag used to be skipped (flags were looked up by position),
//! so `faultcheck x.mwt --los 10000` ran with the default plan and printed
//! green.

use std::process::{Command, Output};

fn trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(args)
        .output()
        .expect("the trace binary runs")
}

#[test]
fn unknown_flag_is_a_usage_error_listing_the_accepted_ones() {
    // Rejected before the file is even opened: it does not exist.
    for args in [
        &["faultcheck", "x.mwt", "--los", "10000"][..],
        &["replay", "x.mwt", "--lenient"],
        &["info", "x.mwt", "--check"],
    ] {
        let out = trace(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("unknown flag"), "{args:?}: {err}");
        assert!(err.contains("accepted flags:"), "{args:?}: {err}");
    }
    let out = trace(&["faultcheck", "x.mwt", "--los", "10000"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--loss PPM") && err.contains("--lenient"),
        "{err}"
    );
}

#[test]
fn value_flag_followed_by_a_flag_is_a_usage_error() {
    for args in [
        &["faultcheck", "x.mwt", "--loss", "--lenient"][..],
        &["crashcheck", "x.mwt", "--interval"],
    ] {
        let out = trace(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("needs a value"), "{args:?}: {err}");
        assert!(err.contains("--fault-seed N"), "{args:?}: {err}");
    }
    // A well-formed command line still reaches the command, which then
    // fails on the missing file with the ordinary exit code.
    for args in [
        &["faultcheck", "x.mwt", "--loss", "10000", "--lenient"][..],
        &["replay", "--check", "x.mwt"],
    ] {
        let out = trace(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(
            err.starts_with("x.mwt: cannot read trace"),
            "{args:?}: {err}"
        );
    }
    assert_eq!(trace(&[]).status.code(), Some(2));
}
