//! The `dx100` command line: one strict flag table for every subcommand.
//!
//! Each subcommand declares the flags it honours. An unknown flag, a
//! repeated flag, a flag the subcommand does not honour, a missing value
//! and an unparsable value are all errors naming the flag, which `dx100`
//! prints with the subcommand's usage line before exiting 2: a typo'd
//! `--scale` silently running the full-size workload for hours, or a
//! daemon silently starting on a default address, is worse than an error.

use std::path::PathBuf;
use std::str::FromStr;

use dx100_common::flags::ServeOpts;

use crate::commands;
use crate::jobspec::{machine_from_label, JobSpec};
use crate::BenchArgs;

/// A flag's spelling and, unless it is a switch, its value placeholder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Flag(&'static str, Option<&'static str>);

const SCALE: Flag = Flag("--scale", Some("<factor>"));
const SEED: Flag = Flag("--seed", Some("<n>"));
const THREADS: Flag = Flag("--threads", Some("<n>"));
const JSON: Flag = Flag("--json", Some("<path>"));
const TRACE: Flag = Flag("--trace", Some("<path>"));
const EPOCH: Flag = Flag("--epoch", Some("<cycles>"));
const PROFILE: Flag = Flag("--profile", None);
const KERNEL: Flag = Flag("--kernel", Some("<name>"));
const MACHINE: Flag = Flag("--machine", Some("<baseline|dmp|dx100>"));
const NO_CYCLE_SKIP: Flag = Flag("--no-cycle-skip", None);
const ADDR: Flag = Flag("--addr", Some("<host:port>"));
const CACHE_DIR: Flag = Flag("--cache-dir", Some("<path>"));
const MAX_JOBS: Flag = Flag("--max-jobs", Some("<n>"));
const CACHE_CAP_MB: Flag = Flag("--cache-cap-mb", Some("<n>"));

/// The row figures: kernel × machine sweeps with full observability.
const ROW: &[Flag] = &[SCALE, SEED, THREADS, JSON, TRACE, EPOCH, PROFILE];
/// The other simulating figures.
const SWEEP: &[Flag] = &[SCALE, SEED, THREADS, PROFILE];
const JOB: &[Flag] = &[
    KERNEL,
    MACHINE,
    SCALE,
    SEED,
    NO_CYCLE_SKIP,
    PROFILE,
    EPOCH,
    JSON,
];
const SERVE: &[Flag] = &[ADDR, CACHE_DIR, MAX_JOBS, CACHE_CAP_MB];

/// What a subcommand runs once its flags parse.
#[derive(Clone, Copy)]
enum Action {
    Figure(fn(&BenchArgs)),
    Job,
    Serve,
}

use Action::Figure;

/// Every subcommand: its name, the flags it honours, what it runs.
const SUBCOMMANDS: [(&str, &[Flag], Action); 13] = [
    ("fig08a", &[JSON], Figure(commands::fig08a)),
    ("fig08bc", &[THREADS, JSON], Figure(commands::fig08bc)),
    ("fig09", ROW, Figure(commands::fig09)),
    ("fig10", ROW, Figure(commands::fig10)),
    ("fig11", ROW, Figure(commands::fig11)),
    ("fig12", ROW, Figure(commands::fig12)),
    ("fig13", SWEEP, Figure(commands::fig13)),
    ("fig14", SWEEP, Figure(commands::fig14)),
    ("table4", &[JSON], Figure(commands::table4)),
    ("ablation", SWEEP, Figure(commands::ablation)),
    ("main_results", ROW, Figure(commands::main_results)),
    ("job", JOB, Action::Job),
    ("serve", SERVE, Action::Serve),
];

/// A parsed `dx100` command line.
#[derive(Debug)]
pub enum Command {
    /// A figure or table: its body, and its options, where every flag the
    /// subcommand does not honour keeps its default.
    Figure(fn(&BenchArgs), BenchArgs),
    /// `job`: the spec to run, and where to write its report (stdout when
    /// `None`, also spelled `--json -`).
    Job(JobSpec, Option<PathBuf>),
    /// `serve`: start the daemon.
    Serve(ServeOpts),
}

/// A command line that does not parse: what is wrong, and the usage to
/// print under it.
#[derive(Debug)]
pub struct CliError {
    /// The problem, naming the offending subcommand, flag or value.
    pub message: String,
    /// The subcommand's usage line, or the list of subcommands.
    pub usage: String,
}

/// Parses `dx100`'s arguments (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let found = args
        .first()
        .and_then(|name| SUBCOMMANDS.iter().find(|s| s.0 == name));
    let Some(&(name, flags, action)) = found else {
        let message = match args.first() {
            Some(name) => format!("unknown subcommand `{name}`"),
            None => "no subcommand given".to_string(),
        };
        let names: Vec<&str> = SUBCOMMANDS.iter().map(|s| s.0).collect();
        let usage = format!("usage: dx100 <{}> [flags]", names.join("|"));
        return Err(CliError { message, usage });
    };
    scan(name, flags, &args[1..])
        .and_then(|given| given.command(action))
        .map_err(|message| {
            let mut usage = format!("usage: dx100 {name}");
            for &flag in flags {
                let spelled = match flag.1 {
                    Some(value) => format!("{} {value}", flag.0),
                    None => flag.0.to_string(),
                };
                usage += &match flag {
                    KERNEL | MACHINE => format!(" {spelled}"),
                    _ => format!(" [{spelled}]"),
                };
            }
            CliError { message, usage }
        })
}

/// Checks every argument against the subcommand's flags: each must be
/// one of them, given at most once, with a value when it takes one.
fn scan<'a>(name: &str, flags: &[Flag], args: &'a [String]) -> Result<Given<'a>, String> {
    let mut given = Given(Vec::new());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(&flag) = flags.iter().find(|f| f.0 == arg) else {
            let elsewhere = SUBCOMMANDS.iter().any(|s| s.1.iter().any(|f| f.0 == arg));
            return Err(if elsewhere {
                format!("{name} does not take {arg}")
            } else {
                format!("unknown argument `{arg}`")
            });
        };
        if given.has(flag) {
            return Err(format!("duplicate flag {arg}"));
        }
        let value = match flag.1 {
            Some(_) => Some(it.next().ok_or(format!("{arg} requires a value"))?.as_str()),
            None => None,
        };
        given.0.push((flag, value));
    }
    Ok(given)
}

/// The flags one command line gave, each once, with their values.
struct Given<'a>(Vec<(Flag, Option<&'a str>)>);

impl<'a> Given<'a> {
    fn has(&self, flag: Flag) -> bool {
        self.0.iter().any(|(f, _)| *f == flag)
    }

    fn value(&self, flag: Flag) -> Option<&'a str> {
        self.0
            .iter()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| *v)
    }

    /// The flag's value parsed as a `T` that passes `valid`, if given.
    fn number<T: FromStr>(&self, flag: Flag, valid: fn(&T) -> bool) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            let bad = || format!("invalid {} value `{v}`", flag.0);
            v.parse().ok().filter(valid).ok_or_else(bad)
        };
        self.value(flag).map(parse).transpose()
    }

    /// Builds what `action` runs from the given flags.
    fn command(&self, action: Action) -> Result<Command, String> {
        Ok(match action {
            Figure(run) => {
                let d = BenchArgs::default();
                let args = BenchArgs {
                    scale: self.number(SCALE, finite_positive)?.unwrap_or(d.scale),
                    json: self.value(JSON).map(PathBuf::from),
                    trace: self.value(TRACE).map(PathBuf::from),
                    epoch: self.number(EPOCH, positive)?,
                    profile: self.has(PROFILE),
                    threads: self.number(THREADS, positive)?.unwrap_or(d.threads),
                    seed: self.number(SEED, any)?.unwrap_or(d.seed),
                };
                Command::Figure(run, args)
            }
            Action::Job => {
                let kernel = self.value(KERNEL).ok_or("--kernel is required")?;
                let machine = self.value(MACHINE).ok_or("--machine is required")?;
                let d = JobSpec::new(kernel, machine_from_label(machine)?);
                let spec = JobSpec {
                    scale: self.number(SCALE, finite_positive)?.unwrap_or(d.scale),
                    seed: self.number(SEED, any)?.unwrap_or(d.seed),
                    cycle_skip: !self.has(NO_CYCLE_SKIP),
                    profile: self.has(PROFILE),
                    epoch: self.number(EPOCH, positive)?,
                    ..d
                };
                spec.validate()?;
                let json = self.value(JSON).filter(|p| *p != "-").map(PathBuf::from);
                Command::Job(spec, json)
            }
            Action::Serve => {
                let d = ServeOpts::default();
                let addr = self.value(ADDR);
                if let Some(v) = addr.filter(|v| !v.contains(':')) {
                    return Err(format!("invalid --addr value `{v}` (want host:port)"));
                }
                let cache_dir = self.value(CACHE_DIR);
                if cache_dir == Some("") {
                    return Err("invalid --cache-dir value `` (empty path)".to_string());
                }
                Command::Serve(ServeOpts {
                    addr: addr.map_or(d.addr, str::to_string),
                    cache_dir: cache_dir.map_or(d.cache_dir, PathBuf::from),
                    max_jobs: self.number(MAX_JOBS, positive)?.unwrap_or(d.max_jobs),
                    cache_cap_mb: self
                        .number(CACHE_CAP_MB, positive)?
                        .unwrap_or(d.cache_cap_mb),
                })
            }
        })
    }
}

fn any<T>(_: &T) -> bool {
    true
}

fn positive<T: PartialOrd + Default>(v: &T) -> bool {
    *v > T::default()
}

fn finite_positive(v: &f64) -> bool {
    v.is_finite() && *v > 0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx100_common::json::Json;
    use dx100_workloads::Mode;

    /// Parses a whitespace-separated command line.
    fn cmd(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args).map_err(|e| e.message)
    }

    fn figure(line: &str) -> Result<BenchArgs, String> {
        match cmd(line)? {
            Command::Figure(_, args) => Ok(args),
            other => panic!("not a figure: {other:?}"),
        }
    }

    fn job(line: &str) -> Result<(JobSpec, Option<PathBuf>), String> {
        match cmd(&format!("job {line}"))? {
            Command::Job(spec, json) => Ok((spec, json)),
            other => panic!("not a job: {other:?}"),
        }
    }

    fn serve(args: &[&str]) -> Result<ServeOpts, String> {
        let args: Vec<String> = ["serve"]
            .iter()
            .chain(args)
            .map(|s| s.to_string())
            .collect();
        match parse(&args).map_err(|e| e.message)? {
            Command::Serve(opts) => Ok(opts),
            other => panic!("not serve: {other:?}"),
        }
    }

    #[test]
    fn figure_parses_all_row_flags() {
        let line = "fig09 --scale 0.05 --json r.json --trace t.json --epoch 5000 --profile \
                    --threads 4 --seed 7";
        let args = figure(line).unwrap();
        let want = BenchArgs {
            scale: 0.05,
            json: Some("r.json".into()),
            trace: Some("t.json".into()),
            epoch: Some(5000),
            profile: true,
            threads: 4,
            seed: 7,
        };
        assert_eq!(args, want);
        let obs = args.observability();
        assert!(obs.trace && obs.profile);
        assert_eq!(obs.epoch_cycles, Some(5000));
    }

    #[test]
    fn figure_defaults_without_flags() {
        for (name, _, action) in SUBCOMMANDS {
            if let Figure(_) = action {
                assert_eq!(figure(name).unwrap(), BenchArgs::default(), "{name}");
            }
        }
    }

    #[test]
    fn figure_rejects_malformed_input() {
        for bad in [
            "--scale fast",
            "--scale -1",
            "--scale 0",
            "--scale inf",
            "--scale",
            "--epoch 0",
            "--epoch soon",
            "--json",
            "--threads 0",
            "--threads many",
            "--seed -3",
            "--frobnicate",
            "--threads 1 --threads 2",
            "--profile --profile",
            // Removed knobs fail loudly.
            "--sample",
        ] {
            assert!(figure(&format!("fig09 {bad}")).is_err(), "{bad}");
        }
        let err = figure("fig09 --scale 1 --scale 2").unwrap_err();
        assert_eq!(err, "duplicate flag --scale");
    }

    /// Each subcommand honours exactly the flags its table lists.
    #[test]
    fn flags_a_subcommand_does_not_honour_are_errors() {
        let err = figure("table4 --scale 1").unwrap_err();
        assert_eq!(err, "table4 does not take --scale");
        for line in [
            "fig08a --trace t",
            "fig08bc --scale 1",
            "fig08bc --seed 1",
            "table4 --threads 1",
            "fig13 --json r",
            "fig14 --trace t",
            "ablation --epoch 1",
            "fig09 --kernel is",
            "job --threads 1",
            "job --trace t",
            "serve --scale 1",
        ] {
            let err = cmd(line).unwrap_err();
            assert!(err.contains("does not take"), "{line}: {err}");
        }
        assert!(figure("fig08bc --threads 2 --json r.json").is_ok());
        assert!(figure("fig13 --scale 0.5 --seed 2 --threads 2 --profile").is_ok());
    }

    #[test]
    fn unknown_or_missing_subcommands_list_them_all() {
        for line in ["", "nope", "--scale"] {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            let err = parse(&args).unwrap_err();
            for (name, ..) in SUBCOMMANDS {
                assert!(err.usage.contains(name), "{}", err.usage);
            }
        }
    }

    #[test]
    fn errors_carry_the_subcommand_usage() {
        let args = ["job", "--kernel"].map(String::from);
        let err = parse(&args).unwrap_err();
        assert_eq!(err.message, "--kernel requires a value");
        assert_eq!(
            err.usage,
            "usage: dx100 job --kernel <name> --machine <baseline|dmp|dx100> [--scale <factor>] \
             [--seed <n>] [--no-cycle-skip] [--profile] [--epoch <cycles>] [--json <path>]"
        );
    }

    #[test]
    fn job_and_json_spec_paths_build_identical_specs() {
        let line =
            "--kernel is --machine dx100 --scale 0.000000001 --seed 3 --profile --epoch 5000";
        let (cli, json) = job(line).unwrap();
        assert_eq!(json, None);
        let doc = r#"{"kernel":"is","machine":"dx100","scale":1e-9,"seed":3,
                      "profile":true,"epoch":5000}"#;
        let from_json = JobSpec::from_json(&Json::parse(doc).unwrap()).unwrap();
        assert_eq!(cli, from_json);
        assert_eq!(cli.cache_key(), from_json.cache_key());
        let (skipless, _) = job("--kernel pr --machine baseline --no-cycle-skip").unwrap();
        assert!(!skipless.cycle_skip);
        assert_eq!(skipless.machine, Mode::Baseline);
    }

    #[test]
    fn job_json_dash_means_stdout() {
        let (_, out) = job("--kernel is --machine dx100 --json -").unwrap();
        assert_eq!(out, None);
        let (_, out) = job("--kernel is --machine dx100 --json r.json").unwrap();
        assert_eq!(out, Some(PathBuf::from("r.json")));
    }

    #[test]
    fn job_rejects_malformed_input() {
        for (line, want) in [
            ("", "--kernel"),
            ("--kernel is", "--machine"),
            ("--kernel is --machine dx100 --kernel is", "duplicate"),
            ("--kernel is --machine dx100 --scale 0", "--scale"),
            ("--kernel is --machine gpu", "unknown machine"),
            ("--kernel nope --machine dx100", "unknown kernel"),
            ("--kernel is --machine dx100 --frob", "--frob"),
            // Removed knobs fail loudly.
            ("--kernel is --machine dx100 --sample", "--sample"),
            ("--kernel is --machine dx100 --threads 2", "--threads"),
        ] {
            let err = job(line).unwrap_err();
            assert!(err.contains(want), "{line}: {err}");
        }
    }

    #[test]
    fn serve_parses_all_flags() {
        let line = "--addr 0.0.0.0:9000 --cache-dir /tmp/c --max-jobs 3 --cache-cap-mb 64";
        let opts = serve(&line.split(' ').collect::<Vec<_>>()).unwrap();
        assert_eq!(opts.addr, "0.0.0.0:9000");
        assert_eq!(opts.cache_dir, PathBuf::from("/tmp/c"));
        assert_eq!(opts.max_jobs, 3);
        assert_eq!(opts.cache_cap_mb, 64);
        assert_eq!(opts.cache_cap_bytes(), 64 * 1024 * 1024);
        let opts = serve(&[]).unwrap();
        assert_eq!(opts, ServeOpts::default());
        assert_eq!(opts.addr, "127.0.0.1:8100");
        assert!(opts.max_jobs >= 1);
    }

    #[test]
    fn serve_rejects_malformed_input() {
        for (args, want) in [
            (
                &["--addr", "a:1", "--addr", "b:2"][..],
                "duplicate flag --addr",
            ),
            (
                &["--max-jobs", "2", "--max-jobs", "4"],
                "duplicate flag --max-jobs",
            ),
            (&["--addr"], "--addr requires a value"),
            (&["--cache-dir"], "--cache-dir requires a value"),
            (&["--max-jobs"], "--max-jobs requires a value"),
            (&["--cache-cap-mb"], "--cache-cap-mb requires a value"),
            (&["--port", "80"], "--port"),
            (&["serve"], "unknown"),
            (&["--addr", "noport"], "--addr"),
            (&["--addr", ""], "--addr"),
            (&["--cache-dir", ""], "--cache-dir"),
            (&["--max-jobs", "0"], "--max-jobs"),
            (&["--max-jobs", "lots"], "--max-jobs"),
            (&["--cache-cap-mb", "0"], "--cache-cap-mb"),
            (&["--cache-cap-mb", "-5"], "--cache-cap-mb"),
            // `--max-jobs --addr` consumes `--addr` as the (invalid) value —
            // strictness means an error, not silently treating it as a flag.
            (
                &["--max-jobs", "--addr"],
                "invalid --max-jobs value `--addr`",
            ),
        ] {
            let err = serve(args).unwrap_err();
            assert!(err.contains(want), "{args:?}: {err}");
        }
    }
}
