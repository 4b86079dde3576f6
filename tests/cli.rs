//! The `dx100` command at its process boundary: strict flags exit 2, and
//! the reports it writes are the bytes the library produces.

use std::ffi::OsStr;
use std::process::{Command, Output};

use dx100::common::hash::fnv1a_64;
use dx100::workloads::Mode;
use dx100_bench::JobSpec;

fn dx100(args: impl IntoIterator<Item = impl AsRef<OsStr>>) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dx100"))
        .args(args)
        .output()
        .expect("spawn dx100")
}

#[test]
fn malformed_command_lines_exit_2() {
    for line in [
        "fig09 --scale 1 --scale 2",
        "table4 --scale 1",
        "job --kernel is --machine dx100 --threads 2",
        "fig09 --sample",
        "nope",
        "",
    ] {
        let out = dx100(line.split_whitespace());
        assert_eq!(out.status.code(), Some(2), "{line}");
        assert!(out.stdout.is_empty(), "{line}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: dx100"), "{line}: {stderr}");
    }
}

/// FNV-1a 64 of `table4 --json`, recorded from the per-figure binary
/// that `dx100 table4` replaced.
const TABLE4_REPORT: u64 = 0x925a_66b8_3510_11a5;

#[test]
fn table4_report_bytes_match_golden() {
    let path = std::env::temp_dir().join(format!("dx100-cli-table4-{}.json", std::process::id()));
    let out = dx100([OsStr::new("table4"), OsStr::new("--json"), path.as_os_str()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read(&path).expect("table4 wrote its report");
    std::fs::remove_file(&path).expect("remove the report");
    assert_eq!(fnv1a_64(&report), TABLE4_REPORT);
}

#[test]
fn job_prints_the_spec_report_bytes() {
    let out = dx100("job --kernel is --machine dx100 --scale 1e-9".split(' '));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let spec = JobSpec {
        scale: 1e-9,
        ..JobSpec::new("is", Mode::Dx100)
    };
    let want = spec.run().expect("valid spec").to_string() + "\n";
    assert_eq!(String::from_utf8(out.stdout).expect("utf-8 report"), want);
}
