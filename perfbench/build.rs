//! Records the compiler version and, when built from a git checkout, the
//! commit, for the benchmark's host block.

use std::path::Path;
use std::process::Command;

fn run(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = run(&rustc, &["-V"]).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let repo = Path::new(&manifest).join("..");
    let git_head = repo.join(".git").join("HEAD");
    let commit = if git_head.exists() {
        println!("cargo:rerun-if-changed={}", git_head.display());
        let dir = repo.to_string_lossy().into_owned();
        run("git", &["-C", &dir, "rev-parse", "HEAD"])
    } else {
        None
    };
    println!(
        "cargo:rustc-env=PERFBENCH_COMMIT={}",
        commit.unwrap_or_else(|| "unknown".into())
    );
    println!("cargo:rerun-if-changed=build.rs");
}
