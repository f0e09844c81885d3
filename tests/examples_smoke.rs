//! Smoke test: every `examples/` binary must run to completion, so the
//! examples cannot silently rot as the API evolves. Each example is
//! driven through `cargo run --example`, exactly as a user would invoke
//! it (the binaries are already compiled by the time the test target
//! runs, so this adds seconds, not a rebuild).

use std::process::Command;
use std::sync::mpsc;
use std::time::Duration;

/// How long one example may run, a `cargo run` rebuild included; past
/// it the test fails instead of hanging.
const LIMIT: Duration = Duration::from_secs(600);

fn run_example(name: &str) {
    let mut cargo = Command::new(env!("CARGO"));
    cargo
        .args(["run", "--quiet", "--example", name])
        .current_dir(env!("CARGO_MANIFEST_DIR"));
    // The wait runs on a thread of its own, so the test can stop
    // waiting; a timed-out cargo is left to finish on its own.
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let _ = tx.send(cargo.output());
    });
    let out = rx
        .recv_timeout(LIMIT)
        .unwrap_or_else(|_| panic!("example {name} still running after {LIMIT:?}"));
    waiter.join().expect("waiter thread");
    let out = out.unwrap_or_else(|e| panic!("failed to spawn cargo for example {name}: {e}"));
    assert!(
        out.status.success(),
        "example {name} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(!out.stdout.is_empty(), "example {name} produced no output");
}

#[test]
fn quickstart_runs() {
    run_example("quickstart");
}

#[test]
fn circuit_transient_runs() {
    run_example("circuit_transient");
}

#[test]
fn power_grid_contingency_runs() {
    run_example("power_grid_contingency");
}

#[test]
fn solver_faceoff_runs() {
    run_example("solver_faceoff");
}

#[test]
fn concurrent_transients_runs() {
    run_example("concurrent_transients");
}
