//! Records the compiler version and the repository revision the benchmark
//! was built from, so every result line can echo them.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc_version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=SIMBENCH_RUSTC={rustc_version}");

    // The repository root is the manifest directory's parent. Git must
    // not search above it: a source tree without `.git` reports "unknown"
    // instead of the revision of whatever repository happens to enclose it.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest)
        .parent()
        .expect("the benchmark lives one level below the repository root");
    let mut git = Command::new("git");
    git.args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root);
    if let Some(above) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", above);
    }
    let revision = git
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=SIMBENCH_GIT_REV={revision}");

    println!("cargo:rerun-if-changed=build.rs");
    let head = root.join(".git/HEAD");
    if head.exists() {
        println!("cargo:rerun-if-changed={}", head.display());
        println!(
            "cargo:rerun-if-changed={}",
            root.join(".git/refs/heads").display()
        );
    }
}
