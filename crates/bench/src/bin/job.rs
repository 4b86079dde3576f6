//! Runs one simulation job from the command line and prints its report —
//! the CLI twin of a `dx100-serve` `POST /v1/jobs` submission.
//!
//! Both paths resolve the same [`JobSpec`](dx100_bench::JobSpec) through
//! the same code, so for any job the report here is byte-identical to the
//! `report` field the server returns (and caches). The spec's cache key
//! is printed on stderr so a served deployment's cache entries can be
//! cross-checked against local runs.

use dx100_bench::JobCli;

fn main() {
    let cli = match JobCli::try_parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", JobCli::USAGE);
            std::process::exit(2);
        }
    };
    eprintln!(
        "job {}/{} scale {} seed {} -> cache key {}",
        cli.spec.kernel,
        cli.spec.machine.label(),
        cli.spec.scale,
        cli.spec.seed,
        cli.spec.cache_key()
    );
    let report = match cli.spec.run() {
        Ok(r) => r.to_string() + "\n",
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    };
    match &cli.json {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &report) {
                eprintln!("error: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("wrote report to {}", path.display());
        }
        None => print!("{report}"),
    }
}
