//! A fan-out the pool declines is visible in telemetry: the
//! `par.inline_fanouts` counter and an `inline` arg on its
//! `par.fanout` span. Its own test binary, because telemetry is
//! switched on for the whole process.

use gtpin_obs::{ArgVal, EventKind};

#[test]
fn nested_fanouts_run_inline_and_say_so() {
    let dir = std::env::temp_dir().join(format!("gtpin-par-inline-{}", std::process::id()));
    std::env::set_var(gtpin_obs::OBS_DIR_ENV, &dir);
    assert!(gtpin_obs::force_enable(), "telemetry is on");

    let out = gtpin_par::parallel_indexed(4, 2, |i| {
        gtpin_par::parallel_indexed(3, 2, |j| i * j)
            .iter()
            .sum::<usize>()
    });
    assert_eq!(out, vec![0, 3, 6, 9]);

    let snap = gtpin_obs::global().snapshot();
    assert_eq!(snap.counters.get("par.inline_fanouts"), Some(&4));
    let inline_args: Vec<Option<&ArgVal>> = snap
        .events
        .iter()
        .filter(|e| e.name == "par.fanout" && matches!(e.kind, EventKind::Span { .. }))
        .map(|e| e.args.iter().find(|(k, _)| *k == "inline").map(|(_, v)| v))
        .collect();
    let nested = ArgVal::Str("nested".into());
    assert_eq!(
        inline_args.len(),
        5,
        "four nested fan-outs and the outer one"
    );
    assert_eq!(
        inline_args.iter().filter(|a| **a == Some(&nested)).count(),
        4
    );
    assert_eq!(
        inline_args.iter().filter(|a| a.is_none()).count(),
        1,
        "the outer fan-out ran on the pool"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
