//! `profile_app` executes each application's functional work exactly
//! once: the executor sees one launch per invocation, inside one
//! CoFluent capture and no replay. Its own test binary, because
//! telemetry is switched on for the whole process.

use gpu_device::GpuConfig;
use subset_select::profile_app;
use workloads::{build_program, spec_by_name, Scale};

#[test]
fn profile_app_runs_one_functional_execution() {
    let dir = std::env::temp_dir().join(format!("gtpin-profile-once-{}", std::process::id()));
    std::env::set_var(gtpin_obs::OBS_DIR_ENV, &dir);
    assert!(gtpin_obs::force_enable(), "telemetry is on");

    let spec = spec_by_name("sandra-crypt-aes128").expect("builtin app");
    // Building the program runs calibration launches of its own.
    let program = build_program(&spec, Scale::Test);
    let before = gtpin_obs::global().snapshot();
    let profiled = profile_app(&program, GpuConfig::hd4000(), 1).expect("profiles");
    let after = gtpin_obs::global().snapshot();

    let spans = |name: &str| {
        after.events[before.events.len()..]
            .iter()
            .filter(|e| e.name == name)
            .count()
    };
    assert_eq!(spans("selection.profile_app"), 1);
    assert_eq!(spans("cofluent.capture"), 1);
    assert_eq!(spans("cofluent.replay"), 0);
    let launched = |name: &str| {
        let count = |snap: &gtpin_obs::Snapshot| snap.counters.get(name).copied().unwrap_or(0);
        count(&after) - count(&before)
    };
    let invocations = profiled.cofluent.invocations.len() as u64;
    assert!(invocations > 0);
    assert_eq!(
        launched("executor.launches"),
        invocations,
        "one launch each"
    );
    assert_eq!(
        launched("engine.launches"),
        invocations,
        "each one profiled"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
