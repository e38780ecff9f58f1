//! Records the compiler version and code-generation flags the benchmark
//! was built with, so every result names its build.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    // CARGO_ENCODED_RUSTFLAGS separates flags with 0x1f.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let flags: Vec<&str> = flags.split('\x1f').collect();
    let target_cpu = flags
        .iter()
        .zip(flags.iter().skip(1))
        .find_map(|(a, b)| {
            if *a == "-C" {
                b.strip_prefix("target-cpu=")
            } else {
                a.strip_prefix("-Ctarget-cpu=")
            }
        })
        .unwrap_or("default");
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_TARGET_CPU={target_cpu}");
    println!("cargo:rerun-if-changed=build.rs");
}
