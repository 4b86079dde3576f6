//! The shared job specification: one (kernel × machine × scale × mode
//! flags) description that `dx100 job` and the `dx100-serve` daemon both
//! resolve into *the same* `SystemConfig` and program — the guarantee that
//! a served result is byte-identical to the local run of the same job.
//!
//! A [`JobSpec`] holds exactly the knobs that determine the report bytes:
//! kernel, machine, scale, seed, and the mode flags (`cycle_skip`,
//! `profile`, `epoch`). Execution-only knobs — such as whether the HTTP
//! client waits — are *not* part of the spec: they are invisible in the
//! output, so including them would only fragment the result cache.
//! [`JobSpec::cache_key`] hashes the canonical JSON form
//! ([`JobSpec::to_json`], fixed field order) together with
//! [`BUILD_FINGERPRINT`] with FNV-1a 64 (`dx100_common::hash`), and
//! [`JobSpec::run`] produces the versioned report the cache stores
//! verbatim.

use dx100_common::hash::{hex16, Fnv64};
use dx100_common::json::{obj, Json};
use dx100_sim::report::SCHEMA_VERSION;
use dx100_sim::{ObservabilityConfig, SystemConfig};
use dx100_workloads::{all_kernels, KernelRun, Mode, Scale};

/// FNV-1a 64 (hex) of the simulator sources this binary was built from
/// (see `build.rs`). Report bytes are a pure function of the spec only
/// within one build, so the cache key folds this in: a daemon restarted on
/// a changed simulator misses on every old entry instead of serving it.
pub const BUILD_FINGERPRINT: &str = env!("DX100_BUILD_FINGERPRINT");

/// Builds the machine configuration for `mode` — the single place the
/// paper's three machines are constructed for measurement, shared by the
/// figure sweeps, `dx100 job`, and the serve daemon.
pub fn machine_config(mode: Mode) -> SystemConfig {
    match mode {
        Mode::Baseline => SystemConfig::paper_baseline(),
        Mode::Dx100 => SystemConfig::paper_dx100(),
        Mode::Dmp => SystemConfig::paper_dmp(),
    }
}

/// Parses a machine label (`baseline` / `dmp` / `dx100`).
pub fn machine_from_label(label: &str) -> Result<Mode, String> {
    Mode::ALL
        .into_iter()
        .find(|m| m.label() == label)
        .ok_or_else(|| format!("unknown machine `{label}` (want baseline, dmp, or dx100)"))
}

/// The 12 kernel names, in sweep order.
pub fn kernel_names() -> Vec<&'static str> {
    // Constructors only record sizes; building the set to list names is
    // cheap (datasets are generated inside `run`).
    all_kernels(Scale(1.0)).iter().map(|k| k.name()).collect()
}

/// Instantiates the named kernel at `scale`.
pub fn find_kernel(name: &str, scale: Scale) -> Result<Box<dyn KernelRun + Send + Sync>, String> {
    all_kernels(scale)
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| {
            format!(
                "unknown kernel `{name}` (want one of {})",
                kernel_names().join(", ")
            )
        })
}

/// A fully resolved simulation job. See the module docs for what is (and
/// deliberately is not) part of the spec.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Kernel name (one of [`kernel_names`]).
    pub kernel: String,
    /// Machine to run it on.
    pub machine: Mode,
    /// Dataset scale factor (> 0; 1.0 is the repo's default size).
    pub scale: f64,
    /// Dataset RNG seed.
    pub seed: u64,
    /// Event-driven cycle skipping (bit-identical stats either way, but
    /// the skip telemetry differs, so it is part of the spec).
    pub cycle_skip: bool,
    /// Cycle-attribution profiling (adds the `profile` report section).
    pub profile: bool,
    /// Epoch time-series sampling every N cycles.
    pub epoch: Option<u64>,
}

impl JobSpec {
    /// A job with the default mode flags (cycle skip on, no profile or
    /// epochs).
    pub fn new(kernel: impl Into<String>, machine: Mode) -> Self {
        JobSpec {
            kernel: kernel.into(),
            machine,
            scale: 1.0,
            seed: 1,
            cycle_skip: true,
            profile: false,
            epoch: None,
        }
    }

    /// Validates the resolvable parts of the spec (kernel name, scale,
    /// epoch) without running anything.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return Err(format!("invalid scale {}", self.scale));
        }
        if self.epoch == Some(0) {
            return Err("epoch must be positive".to_string());
        }
        if !kernel_names().contains(&self.kernel.as_str()) {
            return Err(format!(
                "unknown kernel `{}` (want one of {})",
                self.kernel,
                kernel_names().join(", ")
            ));
        }
        Ok(())
    }

    /// The canonical JSON form: fixed field order, every field present.
    /// This is the content-hash input *and* the `spec` block of the
    /// report, so its serialization is part of the cache format.
    pub fn to_json(&self) -> Json {
        obj([
            ("kernel", self.kernel.as_str().into()),
            ("machine", self.machine.label().into()),
            ("scale", self.scale.into()),
            ("seed", self.seed.into()),
            ("cycle_skip", self.cycle_skip.into()),
            ("profile", self.profile.into()),
            ("epoch", self.epoch.into()),
        ])
    }

    /// Parses a spec from JSON. Strict: `kernel` and `machine` are
    /// required, every other field is optional with the [`JobSpec::new`]
    /// defaults, and unknown fields are errors (a typo'd flag silently
    /// meaning "default" would poison the cache key space).
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let fields = match v {
            Json::Obj(fields) => fields,
            _ => return Err("job spec must be a JSON object".to_string()),
        };
        const KNOWN: [&str; 7] = [
            "kernel",
            "machine",
            "scale",
            "seed",
            "cycle_skip",
            "profile",
            "epoch",
        ];
        for (k, _) in fields {
            if !KNOWN.contains(&k.as_str()) {
                return Err(format!("unknown job spec field `{k}`"));
            }
        }
        let str_field = |key: &str| -> Result<&str, String> {
            v.get(key)
                .ok_or_else(|| format!("job spec missing `{key}`"))?
                .as_str()
                .ok_or_else(|| format!("`{key}` must be a string"))
        };
        let bool_field = |key: &str, default: bool| -> Result<bool, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(default),
                Some(Json::Bool(b)) => Ok(*b),
                Some(_) => Err(format!("`{key}` must be a boolean")),
            }
        };
        let mut spec = JobSpec::new(
            str_field("kernel")?,
            machine_from_label(str_field("machine")?)?,
        );
        if let Some(s) = v.get("scale") {
            spec.scale = s.as_f64().ok_or("`scale` must be a number")?;
        }
        if let Some(s) = v.get("seed") {
            match s {
                Json::Int(i) if *i >= 0 && *i <= u64::MAX as i128 => spec.seed = *i as u64,
                _ => return Err("`seed` must be a non-negative integer".to_string()),
            }
        }
        spec.cycle_skip = bool_field("cycle_skip", spec.cycle_skip)?;
        spec.profile = bool_field("profile", spec.profile)?;
        spec.epoch = match v.get("epoch") {
            None | Some(Json::Null) => None,
            Some(Json::Int(i)) if *i > 0 && *i <= u64::MAX as i128 => Some(*i as u64),
            Some(_) => return Err("`epoch` must be a positive integer or null".to_string()),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The fixed-width hex cache key: FNV-1a 64 over the canonical
    /// serialization and this build's [`BUILD_FINGERPRINT`].
    pub fn cache_key(&self) -> String {
        self.cache_key_for(BUILD_FINGERPRINT)
    }

    fn cache_key_for(&self, fingerprint: &str) -> String {
        let mut h = Fnv64::new();
        h.write(self.to_json().to_string().as_bytes());
        h.write(fingerprint.as_bytes());
        hex16(h.finish())
    }

    /// The `SystemConfig` this spec resolves to: the machine for
    /// [`Self::machine`] with the spec's mode flags applied. Traces are
    /// never recorded for jobs (a trace buffer in a cached report would
    /// dwarf the stats it annotates); `--trace` stays a figure-subcommand
    /// affair.
    pub fn resolved_config(&self) -> SystemConfig {
        let mut cfg = machine_config(self.machine);
        cfg.cycle_skip = self.cycle_skip;
        cfg.obs = ObservabilityConfig {
            epoch_cycles: self.epoch,
            profile: self.profile,
            ..ObservabilityConfig::default()
        };
        cfg
    }

    /// Runs the job and produces its versioned report — the exact bytes
    /// (after serialization) the serve cache stores and replays.
    pub fn run(&self) -> Result<Json, String> {
        self.validate()?;
        let kernel = find_kernel(&self.kernel, Scale(self.scale))?;
        let w = kernel.run(self.machine, &self.resolved_config(), self.seed);
        Ok(obj([
            ("schema_version", SCHEMA_VERSION.into()),
            ("kind", "job".into()),
            ("spec", self.to_json()),
            ("checksum", w.checksum.into()),
            ("run", crate::run_json(&w)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx100_common::hash::fnv1a_64;

    fn spec(kernel: &str, machine: Mode) -> JobSpec {
        JobSpec {
            scale: 1e-9,
            ..JobSpec::new(kernel, machine)
        }
    }

    #[test]
    fn canonical_json_round_trips_and_hash_is_stable() {
        let s = JobSpec {
            profile: true,
            epoch: Some(5000),
            seed: 7,
            ..spec("is", Mode::Dx100)
        };
        let j = s.to_json();
        assert_eq!(JobSpec::from_json(&j).unwrap(), s);
        // The canonical string (and so the key) is insensitive to how the
        // spec JSON was spelled: defaults made explicit, fields reordered.
        let reordered = Json::parse(
            r#"{"seed":7,"machine":"dx100","epoch":5000,"profile":true,
                "kernel":"is","scale":0.000000001}"#,
        )
        .unwrap();
        let s2 = JobSpec::from_json(&reordered).unwrap();
        assert_eq!(s2.cache_key(), s.cache_key());
        assert_eq!(s2.to_json().to_string(), s.to_json().to_string());
    }

    /// One spec keys differently under two builds, so a daemon restarted
    /// on a changed simulator never serves a report the old one cached.
    #[test]
    fn cache_key_depends_on_the_build_fingerprint() {
        let s = spec("is", Mode::Dx100);
        assert_ne!(
            s.cache_key_for("0123456789abcdef"),
            s.cache_key_for("0123456789abcdee")
        );
        assert_eq!(s.cache_key(), s.cache_key_for(BUILD_FINGERPRINT));
        assert_eq!(BUILD_FINGERPRINT.len(), 16);
    }

    #[test]
    fn defaults_are_applied_and_hash_distinguishes_flags() {
        let minimal =
            JobSpec::from_json(&Json::parse(r#"{"kernel":"pr","machine":"baseline"}"#).unwrap())
                .unwrap();
        assert_eq!(minimal.scale, 1.0);
        assert_eq!(minimal.seed, 1);
        assert!(minimal.cycle_skip);
        assert!(!minimal.profile);
        let mut other = minimal.clone();
        other.profile = true;
        assert_ne!(minimal.cache_key(), other.cache_key());
        let mut skipless = minimal.clone();
        skipless.cycle_skip = false;
        assert_ne!(minimal.cache_key(), skipless.cache_key());
    }

    #[test]
    fn from_json_rejects_bad_specs() {
        for (doc, want) in [
            (r#"{"machine":"dx100"}"#, "missing `kernel`"),
            (r#"{"kernel":"is"}"#, "missing `machine`"),
            (r#"{"kernel":"nope","machine":"dx100"}"#, "unknown kernel"),
            (r#"{"kernel":"is","machine":"gpu"}"#, "unknown machine"),
            (r#"{"kernel":"is","machine":"dx100","scale":0}"#, "scale"),
            (r#"{"kernel":"is","machine":"dx100","epoch":0}"#, "epoch"),
            (
                r#"{"kernel":"is","machine":"dx100","epoch":18446744073709551621}"#,
                "epoch",
            ),
            (r#"{"kernel":"is","machine":"dx100","seed":-1}"#, "seed"),
            (
                r#"{"kernel":"is","machine":"dx100","threads":4}"#,
                "unknown job spec field",
            ),
            (
                r#"{"kernel":"is","machine":"dx100","wait":true}"#,
                "unknown job spec field",
            ),
            (
                r#"{"kernel":"is","machine":"dx100","sample":true}"#,
                "unknown job spec field",
            ),
            (r#"[1,2]"#, "object"),
        ] {
            let err = JobSpec::from_json(&Json::parse(doc).unwrap()).unwrap_err();
            assert!(err.contains(want), "{doc}: {err}");
        }
    }

    #[test]
    fn machine_config_matches_paper_machines() {
        // The extraction point: everything measuring the paper machines
        // must agree with these shapes.
        assert!(machine_config(Mode::Baseline).dx100.is_none());
        assert_eq!(
            machine_config(Mode::Dx100).hierarchy.llc.size_bytes,
            8 * 1024 * 1024
        );
        assert!(machine_config(Mode::Dmp).dmp.is_some());
        assert_eq!(kernel_names().len(), 12);
        assert!(find_kernel("is", Scale(1e-9)).is_ok());
        assert!(find_kernel("bogus", Scale(1e-9)).is_err());
    }

    #[test]
    fn job_reports_are_deterministic() {
        let s = spec("is", Mode::Dx100);
        let a = s.run().unwrap().to_string();
        let b = s.run().unwrap().to_string();
        assert_eq!(a, b, "repeat runs must be byte-identical");
    }

    /// Pins the serialized `run` block and the checksum of four jobs: any
    /// change to what a job simulates or to how its report is written
    /// shows up here. Values: (kernel, machine, checksum, FNV-1a 64 of
    /// `report["run"].to_string()`). The block includes the gating
    /// telemetry (`skipped_cycles`, `skip_events`), so a change to how
    /// units sleep moves these hashes without moving a simulated bit.
    #[test]
    fn job_report_bytes_match_goldens() {
        const IS: u64 = 12710991020669359088;
        const PR: u64 = 15036263534936017701;
        const GOLDEN: [(&str, Mode, u64, u64); 4] = [
            ("is", Mode::Baseline, IS, 0x35e3_97b0_abd0_964a),
            ("is", Mode::Dx100, IS, 0x773f_093e_2004_e05a),
            ("pr", Mode::Baseline, PR, 0x61a5_eab1_c832_3366),
            ("pr", Mode::Dx100, PR, 0x5bba_8a9d_2200_4c18),
        ];
        for (kernel, machine, checksum, run_hash) in GOLDEN {
            let report = spec(kernel, machine).run().unwrap();
            let label = format!("{kernel}/{}", machine.label());
            assert_eq!(
                report.get("checksum"),
                Some(&Json::from(checksum)),
                "{label}"
            );
            let run = report.get("run").unwrap().to_string();
            assert_eq!(fnv1a_64(run.as_bytes()), run_hash, "{label}");
        }
    }

    #[test]
    fn full_job_report_has_the_run_schema() {
        fn keys(v: &Json) -> String {
            match v {
                Json::Obj(fields) => {
                    let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                    names.join(",")
                }
                other => panic!("not an object: {other}"),
            }
        }
        let report = spec("pr", Mode::Baseline).run().unwrap();
        let parsed = Json::parse(&report.to_string()).unwrap();
        assert_eq!(keys(&parsed), "schema_version,kind,spec,checksum,run");
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_f64),
            Some(SCHEMA_VERSION as f64)
        );
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("job"));
        let run = parsed.get("run").unwrap();
        for key in ["cycles", "instructions", "dram", "caches", "telemetry"] {
            assert!(run.get(key).is_some(), "run missing {key}");
        }
        let spec_block = parsed.get("spec").unwrap();
        assert_eq!(spec_block.get("kernel").and_then(Json::as_str), Some("pr"));
        assert_eq!(
            keys(spec_block),
            "kernel,machine,scale,seed,cycle_skip,profile,epoch"
        );
    }
}
