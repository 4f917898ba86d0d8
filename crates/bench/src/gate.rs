//! The baseline gate: the one module that knows how a run is compared
//! with `results/bench_baseline.json`.
//!
//! `bench_suite`, `slo_report` and `profile_report` each produce named
//! *sections* (`resume_doc`, `slo_doc`, `profile_doc`, …) and hand them
//! to [`GateOptions::settle`]; everything about the committed baseline is
//! decided here:
//!
//! * **format** — `{"schema": "horse-bench/baseline/1", "seeds": {"<seed>":
//!   {"<section>": doc, …}}}`; a seed entry is the union of the sections
//!   every binary wrote for that seed;
//! * **gated leaves** — a section carrying a `gate` object names its own
//!   gated leaves (every numeric leaf under `gate`); any other section is
//!   gated on every numeric leaf whose key ends in `_ns` (the virtual
//!   latency surface — wall-clock keys use `_nanos` to stay out of it);
//! * **scope** — only sections the current run produced are compared, so
//!   each binary gates the sections it owns against a baseline that also
//!   carries the other binaries';
//! * **band** — a leaf may drift ±10 % *relative to its baseline*; a
//!   baseline of exactly 0 must read 0. The measurements are
//!   deterministic per seed, so the band only absorbs deliberate small
//!   calibration changes;
//! * **`--write-baseline`** — merges at the section level (other
//!   binaries' sections and other seeds survive) and drops `git_sha`,
//!   since the baseline is committed *before* the commit it will gate.
//!
//! The four flags the binaries share (`--seed --out --against
//! --write-baseline`) are parsed here too; each binary passes its own
//! usage line and handles only its own flags.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::process::Command;
use std::str::FromStr;

use horse_telemetry::json::{self, JsonValue};
use horse_vmm::CostModel;

/// Schema tag of the committed baseline file.
const SCHEMA_BASELINE: &str = "horse-bench/baseline/1";

/// Relative drift tolerated per gated leaf by `--against`.
const NOISE_BAND: f64 = 0.10;

/// The current commit, or `"unknown"` outside a git checkout.
pub fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON object from `(key, value)` pairs.
pub fn obj(entries: Vec<(String, JsonValue)>) -> JsonValue {
    JsonValue::Object(entries.into_iter().collect::<BTreeMap<_, _>>())
}

/// A JSON number.
pub fn num(v: f64) -> JsonValue {
    JsonValue::Number(v)
}

/// Writes `value` to `path`, newline-terminated.
///
/// # Panics
///
/// Panics if the file cannot be written: an artifact the run was asked
/// for must not go missing silently.
pub fn write_json(path: &str, value: &JsonValue) {
    let mut text = value.render();
    text.push('\n');
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// The calibrated model with the 𝒫²𝒮ℳ splice path scaled by `factor`
/// (1.0 = faithful): the regression `--slowdown-splice` injects so CI can
/// prove a gate catches it.
pub fn cost_model(factor: f64) -> CostModel {
    let mut cost = CostModel::calibrated();
    cost.horse_merge_base_ns *= factor;
    cost.splice_thread_ns *= factor;
    cost
}

/// A gate's verdict: `true` when there are no `problems`, otherwise they
/// go to stderr under a "`what` FAILED" header (the caller exits 1).
pub fn passed(what: &str, problems: &[String]) -> bool {
    if problems.is_empty() {
        return true;
    }
    eprintln!("{what} FAILED: {} problem(s)", problems.len());
    for p in problems {
        eprintln!("  {p}");
    }
    false
}

/// The value slot of the flag being parsed, handed to a binary's own flag
/// handler by [`GateOptions::parse`].
pub struct FlagValue<'a> {
    flag: &'a str,
    usage: &'a str,
    rest: &'a mut dyn Iterator<Item = String>,
}

impl FlagValue<'_> {
    /// The flag's value, verbatim.
    pub fn text(&mut self) -> Result<String, String> {
        self.rest
            .next()
            .ok_or_else(|| format!("{} needs a value; {}", self.flag, self.usage))
    }

    /// The flag's value, parsed.
    pub fn parsed<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.text()?
            .parse()
            .map_err(|e| format!("bad {}: {e}; {}", self.flag, self.usage))
    }
}

/// The flags every gated binary accepts.
#[derive(Debug)]
pub struct GateOptions {
    /// `--seed` (default 42).
    pub seed: u64,
    /// `--out`: artifact directory (default `results`).
    pub out: String,
    /// `--against`: baseline file to gate this run against.
    pub against: Option<String>,
    /// `--write-baseline`: refresh `<out>/bench_baseline.json` for this
    /// seed.
    pub write_baseline: bool,
}

impl GateOptions {
    /// Parses a command line. The shared flags are consumed here; every
    /// other flag goes to `own(flag, value)`, which returns `Ok(false)`
    /// for a flag it does not know either. Every error message ends with
    /// the binary's `usage` (the caller prints it and exits 2).
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        usage: &str,
        mut own: impl FnMut(&str, &mut FlagValue<'_>) -> Result<bool, String>,
    ) -> Result<Self, String> {
        let mut opts = GateOptions {
            seed: 42,
            out: "results".to_string(),
            against: None,
            write_baseline: false,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = FlagValue {
                flag: &flag,
                usage,
                rest: &mut it,
            };
            match flag.as_str() {
                "--seed" => opts.seed = value.parsed()?,
                "--out" => opts.out = value.text()?,
                "--against" => opts.against = Some(value.text()?),
                "--write-baseline" => opts.write_baseline = true,
                other => {
                    if !own(other, &mut value)? {
                        return Err(format!("unknown flag {other}; {usage}"));
                    }
                }
            }
        }
        Ok(opts)
    }

    /// Applies `--write-baseline` and then `--against` to the `sections`
    /// this run produced (an object of `section name → document`).
    /// Returns `false` when the `--against` gate failed — violations are
    /// on stderr, the caller owns the exit code.
    pub fn settle(&self, sections: &JsonValue) -> bool {
        if self.write_baseline {
            let path = format!("{}/bench_baseline.json", self.out);
            let existing = std::fs::read_to_string(&path)
                .ok()
                .map(|text| json::parse(&text).expect("existing baseline parses"));
            write_json(&path, &merge(existing, self.seed, sections));
            println!("{path}: baseline updated for seed {}", self.seed);
        }
        let Some(path) = &self.against else {
            return true;
        };
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let baseline = json::parse(&text).expect("baseline is valid JSON");
        match compare(&baseline, self.seed, sections) {
            Ok(found) if found.is_empty() => {
                println!(
                    "baseline gate: every gated leaf within ±{:.0} % of {path} (seed {})",
                    100.0 * NOISE_BAND,
                    self.seed
                );
                true
            }
            Ok(found) => passed(
                &format!("baseline gate against {path} (seed {})", self.seed),
                &found,
            ),
            Err(msg) => {
                eprintln!("baseline gate error: {msg}");
                false
            }
        }
    }
}

/// Flattens the numeric leaves of `value` whose key ends in `suffix` to
/// `(dotted.path, value)`.
fn numeric_leaves(value: &JsonValue, prefix: &str, suffix: &str, out: &mut BTreeMap<String, f64>) {
    if let JsonValue::Object(map) = value {
        for (key, child) in map {
            let path = format!("{prefix}.{key}");
            match child {
                JsonValue::Number(n) if key.ends_with(suffix) => {
                    out.insert(path, *n);
                }
                _ => numeric_leaves(child, &path, suffix, out),
            }
        }
    }
}

/// The gated leaves of every section in `sections` that `produced` also
/// names (see the module docs for which leaves a section gates).
fn gated_leaves(
    sections: &BTreeMap<String, JsonValue>,
    produced: &BTreeMap<String, JsonValue>,
) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (name, doc) in sections {
        if !produced.contains_key(name) {
            println!("baseline gate: skipping section {name} (not produced by this run)");
        } else if let Some(gate) = doc.get("gate") {
            numeric_leaves(gate, &format!("{name}.gate"), "", &mut out);
        } else {
            numeric_leaves(doc, name, "_ns", &mut out);
        }
    }
    out
}

/// Compares the `sections` a run produced against the baseline's entry
/// for `seed`. Returns one line per gated leaf that is missing or out of
/// band (empty = the gate passes), or `Err` when there is nothing sound
/// to compare against.
fn compare(baseline: &JsonValue, seed: u64, sections: &JsonValue) -> Result<Vec<String>, String> {
    if baseline.get("schema").and_then(|v| v.as_str()) != Some(SCHEMA_BASELINE) {
        return Err(format!("baseline schema is not {SCHEMA_BASELINE}"));
    }
    let entry = baseline
        .get("seeds")
        .and_then(|s| s.get(&seed.to_string()))
        .ok_or_else(|| format!("baseline has no entry for seed {seed} (run --write-baseline)"))?;
    let (JsonValue::Object(entry), JsonValue::Object(sections)) = (entry, sections) else {
        return Err(format!("baseline entry for seed {seed} is not an object"));
    };
    let expected = gated_leaves(entry, sections);
    if expected.is_empty() {
        return Err(format!(
            "baseline entry for seed {seed} has no gated leaves in any section this run \
             produced (run --write-baseline)"
        ));
    }
    let actual = gated_leaves(sections, sections);
    let mut found = Vec::new();
    for (path, &base) in &expected {
        match actual.get(path) {
            None => found.push(format!("{path}: present in baseline, missing in run")),
            Some(&cur) if base == 0.0 => {
                if cur != 0.0 {
                    found.push(format!("{path}: 0 -> {cur} (a zero baseline must read 0)"));
                }
            }
            Some(&cur) => {
                let drift = (cur - base) / base.abs();
                if drift.abs() > NOISE_BAND {
                    found.push(format!(
                        "{path}: {base} -> {cur} ({:+.1} % > ±{:.0} % band)",
                        100.0 * drift,
                        100.0 * NOISE_BAND
                    ));
                }
            }
        }
    }
    Ok(found)
}

/// The baseline after `--write-baseline`: `existing` (if any) with this
/// seed's entry updated section by section from `sections`, `git_sha`
/// dropped from each written document.
fn merge(existing: Option<JsonValue>, seed: u64, sections: &JsonValue) -> JsonValue {
    let mut seeds = match existing {
        Some(JsonValue::Object(mut map)) => match map.remove("seeds") {
            Some(JsonValue::Object(seeds)) => seeds,
            _ => BTreeMap::new(),
        },
        _ => BTreeMap::new(),
    };
    let mut entry = match seeds.remove(&seed.to_string()) {
        Some(JsonValue::Object(existing)) => existing,
        _ => BTreeMap::new(),
    };
    if let JsonValue::Object(sections) = sections {
        for (name, doc) in sections {
            let mut doc = doc.clone();
            if let JsonValue::Object(map) = &mut doc {
                map.remove("git_sha");
            }
            entry.insert(name.clone(), doc);
        }
    }
    seeds.insert(seed.to_string(), JsonValue::Object(entry));
    obj(vec![
        ("schema".into(), JsonValue::String(SCHEMA_BASELINE.into())),
        ("seeds".into(), JsonValue::Object(seeds)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(text: &str) -> JsonValue {
        json::parse(text).expect("test fixture is valid JSON")
    }

    /// The gate's findings for a run producing `run`, against a baseline
    /// whose seed-42 entry is `base`.
    fn verdict(base: &str, run: &str) -> Vec<String> {
        compare(&merge(None, 42, &j(base)), 42, &j(run)).expect("comparable")
    }

    #[test]
    fn band_edge_on_a_leaf_of_at_least_one() {
        for (cur, passes) in [(1099, true), (901, true), (1101, false), (899, false)] {
            let found = verdict(
                r#"{"resume_doc": {"total_ns": 1000}}"#,
                &format!(r#"{{"resume_doc": {{"total_ns": {cur}}}}}"#),
            );
            assert_eq!(found.is_empty(), passes, "1000 -> {cur}: {found:?}");
        }
    }

    #[test]
    fn band_is_relative_below_one_too() {
        // The committed `slo_doc.gate.hedge_rate`. Dividing the drift by
        // `max(|base|, 1)` made the band an absolute ±0.10 here: a
        // 600-fold hedge rate passed.
        let rate = 1.0 / 6000.0;
        for (factor, passes) in [
            (1.099, true),
            (0.901, true),
            (1.101, false),
            (0.899, false),
            (600.0, false),
        ] {
            let found = verdict(
                &format!(r#"{{"slo_doc": {{"gate": {{"hedge_rate": {rate}}}}}}}"#),
                &format!(
                    r#"{{"slo_doc": {{"gate": {{"hedge_rate": {}}}}}}}"#,
                    rate * factor
                ),
            );
            assert_eq!(found.is_empty(), passes, "x{factor}: {found:?}");
        }
    }

    #[test]
    fn zero_baseline_must_read_zero() {
        let base = r#"{"profile_doc": {"gate": {"allocs_per_warm_invoke": 0}}}"#;
        assert!(verdict(base, base).is_empty());
        let found = verdict(
            base,
            r#"{"profile_doc": {"gate": {"allocs_per_warm_invoke": 0.05}}}"#,
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].starts_with("profile_doc.gate.allocs_per_warm_invoke: 0 -> 0.05"));
    }

    #[test]
    fn a_gated_leaf_missing_from_the_run_is_a_violation() {
        let found = verdict(
            r#"{"resume_doc": {"a_ns": 5, "b_ns": 7}}"#,
            r#"{"resume_doc": {"a_ns": 5}}"#,
        );
        assert_eq!(
            found,
            ["resume_doc.b_ns: present in baseline, missing in run"]
        );
    }

    #[test]
    fn sections_select_their_own_leaves() {
        // Without a `gate` object only `*_ns` leaves count, at any depth;
        // with one, every numeric leaf under it and nothing outside it.
        let found = verdict(
            r#"{"e2e_doc": {"seed": 42, "wall_p50_nanos": 123,
                            "classes": {"ull": {"p50_ns": 800}}},
                "profile_doc": {"gate": {"lock_wait_ns": 11100, "per_invoke": 1.11},
                                "sites": {"nominal_wait_ns": 86400}}}"#,
            r#"{"e2e_doc": {"seed": 7, "wall_p50_nanos": 999,
                            "classes": {"ull": {"p50_ns": 1600}}},
                "profile_doc": {"gate": {"lock_wait_ns": 11100, "per_invoke": 9.75},
                                "sites": {"nominal_wait_ns": 0}}}"#,
        );
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].starts_with("e2e_doc.classes.ull.p50_ns: 800 -> 1600"));
        assert!(found[1].starts_with("profile_doc.gate.per_invoke: 1.11 -> 9.75"));
    }

    #[test]
    fn a_baseline_section_the_run_did_not_produce_is_skipped() {
        let found = verdict(
            r#"{"resume_doc": {"total_ns": 100}, "slo_doc": {"gate": {"retries": 675}}}"#,
            r#"{"resume_doc": {"total_ns": 100}}"#,
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn nothing_to_compare_is_an_error_not_a_pass() {
        let run = j(r#"{"resume_doc": {"total_ns": 100}}"#);
        let only_slo = merge(None, 42, &j(r#"{"slo_doc": {"gate": {"retries": 1}}}"#));
        for (baseline, seed, what) in [
            (only_slo.clone(), 42, "no gated leaves"),
            (only_slo, 1337, "no entry for seed 1337"),
            (
                j(r#"{"schema": "horse-bench/baseline/0", "seeds": {"42": {}}}"#),
                42,
                SCHEMA_BASELINE,
            ),
        ] {
            let err = compare(&baseline, seed, &run).unwrap_err();
            assert!(err.contains(what), "{err}");
        }
    }

    #[test]
    fn write_baseline_merges_by_section_and_strips_git_sha() {
        let existing = j(r#"{"schema": "horse-bench/baseline/1", "seeds": {
            "1337": {"slo_doc": {"gate": {"retries": 498}}},
            "42": {"profile_doc": {"gate": {"lock_wait_ns": 11100}},
                   "resume_doc": {"total_ns": 1}}}}"#);
        let fresh = j(r#"{"resume_doc": {"git_sha": "0b8d1ef", "total_ns": 2}}"#);
        let merged = merge(Some(existing), 42, &fresh);
        let expected = j(r#"{"schema": "horse-bench/baseline/1", "seeds": {
            "1337": {"slo_doc": {"gate": {"retries": 498}}},
            "42": {"profile_doc": {"gate": {"lock_wait_ns": 11100}},
                   "resume_doc": {"total_ns": 2}}}}"#);
        assert_eq!(merged.render(), expected.render());
        // What was just written gates the run that wrote it.
        assert_eq!(compare(&merged, 42, &fresh), Ok(Vec::new()));
    }

    const USAGE: &str = "usage: demo [--seed <u64>] [--own <u64>] [--flag]";

    fn parse(args: &[&str]) -> Result<(GateOptions, u64, bool), String> {
        let (mut own, mut flag) = (0u64, false);
        let args = args.iter().map(|s| s.to_string());
        let opts = GateOptions::parse(args, USAGE, |name, value| {
            match name {
                "--own" => own = value.parsed()?,
                "--flag" => flag = true,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok((opts, own, flag))
    }

    #[test]
    fn shared_and_own_flags_parse_together() {
        let (opts, own, flag) = parse(&[]).unwrap();
        assert_eq!((opts.seed, opts.out.as_str()), (42, "results"));
        assert_eq!((opts.against, opts.write_baseline), (None, false));
        assert_eq!((own, flag), (0, false));

        let line = "--own 9 --seed 1337 --flag --out /tmp/x --write-baseline --against b.json";
        let (opts, own, flag) = parse(&line.split(' ').collect::<Vec<_>>()).unwrap();
        assert_eq!((opts.seed, opts.out.as_str()), (1337, "/tmp/x"));
        assert_eq!(opts.against.as_deref(), Some("b.json"));
        assert!(opts.write_baseline && flag && own == 9);
    }

    #[test]
    fn parse_errors_name_the_binarys_own_usage() {
        for (line, what) in [
            ("--seed x", "bad --seed"),
            ("--seed", "--seed needs a value"),
            ("--out", "--out needs a value"),
            ("--against", "--against needs a value"),
            ("--own -1", "bad --own"),
            ("--own", "--own needs a value"),
            ("--bogus", "unknown flag --bogus"),
        ] {
            let err = parse(&line.split(' ').collect::<Vec<_>>()).unwrap_err();
            assert!(err.starts_with(what), "{line}: {err}");
            assert!(err.ends_with(USAGE), "{line}: {err}");
        }
    }
}
