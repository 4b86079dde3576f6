//! Fingerprints the simulator sources that set report bytes, so the result
//! cache can key reports by build: a report is a pure function of its job
//! spec only for one build of these crates.
//!
//! The fingerprint is FNV-1a 64 over every file under
//! `crates/{common,cpu,mem,dram,core,prefetch,sim,workloads,bench}/src`, in
//! sorted path order, each contributing its workspace-relative path and
//! its bytes. `JobSpec::cache_key` reads it as `DX100_BUILD_FINGERPRINT`.

use std::fs;
use std::path::{Path, PathBuf};

const SOURCE_CRATES: [&str; 9] = [
    "common",
    "cpu",
    "mem",
    "dram",
    "core",
    "prefetch",
    "sim",
    "workloads",
    "bench",
];

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            collect(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let crates = manifest.parent().expect("crates/ directory");
    let mut files = Vec::new();
    for name in SOURCE_CRATES {
        let src = crates.join(name).join("src");
        println!("cargo:rerun-if-changed={}", src.display());
        collect(&src, &mut files);
    }
    let relative = |p: &Path| p.strip_prefix(crates).expect("under crates/").to_path_buf();
    files.sort_by_key(|p| relative(p));
    // FNV-1a 64, as `dx100_common::hash::fnv1a_64` (a build script cannot
    // depend on the crate it fingerprints).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for path in &files {
        write(relative(path).to_string_lossy().as_bytes());
        write(&[0]);
        write(&fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display())));
        write(&[0]);
    }
    println!("cargo:rustc-env=DX100_BUILD_FINGERPRINT={h:016x}");
}
