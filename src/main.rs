//! `dx100`: every figure, table and job of the reproduction, and the
//! simulation daemon, behind one command.
//!
//! ```text
//! dx100 fig09 --scale 0.02 --json report.json
//! dx100 job --kernel is --machine dx100 --scale 0.02
//! dx100 serve --addr 127.0.0.1:8100 --cache-dir dx100-cache --max-jobs 4
//! ```
//!
//! `dx100` alone lists the subcommands. A command line that does not
//! parse exits 2 with the subcommand's usage line.

use dx100_bench::cli::{self, Command};
use dx100_common::flags::ServeOpts;
use dx100_serve::Server;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args) {
        Ok(Command::Figure(run, args)) => run(&args),
        Ok(Command::Job(spec, json)) => dx100_bench::commands::job(&spec, json.as_deref()),
        Ok(Command::Serve(opts)) => serve(&opts),
        Err(e) => {
            eprintln!("error: {}", e.message);
            eprintln!("{}", e.usage);
            std::process::exit(2);
        }
    }
}

/// Serves the `/v1/*` job API until a `POST /v1/shutdown`, then drains
/// in-flight jobs and returns.
fn serve(opts: &ServeOpts) {
    let server = match Server::bind(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot start on {}: {e}", opts.addr);
            std::process::exit(1);
        }
    };
    eprintln!(
        "serve: listening on {} (cache {} cap {} MiB, {} workers)",
        server.local_addr(),
        opts.cache_dir.display(),
        opts.cache_cap_mb,
        opts.max_jobs,
    );
    server.run();
    eprintln!("serve: drained, bye");
}
