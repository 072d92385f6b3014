#![warn(missing_docs)]

//! Shared plumbing for the figure/table regenerators.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper as a text table (default) or CSV (`--csv`). Regenerators accept a
//! small set of flags parsed by [`Args`]; run any of them with `--help`.

use std::collections::HashMap;

/// Minimal flag parser: `--key value` pairs plus boolean `--csv`/`--help`.
#[derive(Clone, Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    /// Emit CSV instead of an aligned text table.
    pub csv: bool,
    /// Additionally render an ASCII chart (supported by the sweep figures).
    pub plot: bool,
    /// Print usage and exit.
    pub help: bool,
}

impl Args {
    /// Parses the process arguments.
    pub fn from_env() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (used by tests).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--csv" => out.csv = true,
                "--plot" => out.plot = true,
                "--help" | "-h" => out.help = true,
                flag if flag.starts_with("--") => {
                    let key = flag.trim_start_matches("--").to_string();
                    let value =
                        iter.next().unwrap_or_else(|| panic!("flag --{key} expects a value"));
                    out.values.insert(key, value);
                }
                other => panic!("unexpected argument: {other}"),
            }
        }
        out
    }

    /// A typed flag value, falling back to `default`.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        self.values
            .get(key)
            .map(|v| v.parse().unwrap_or_else(|e| panic!("bad value for --{key}: {e:?}")))
            .unwrap_or(default)
    }
}

/// Prints a rendered table or its CSV form depending on the `--csv` flag.
pub fn emit(table: &pb_orchestra::report::TextTable, csv: bool) {
    if csv {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.render());
    }
}

/// The host a bench run was taken on, as the `"host"` JSON object of a
/// `BENCH_*.json` file: core count and CPU model (from `/proc/cpuinfo`;
/// "unknown" where that is absent).
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!("{{\"nproc\": {nproc}, \"cpu_model\": {}}}", pb_telemetry::json::escape(&model))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags_and_values() {
        let a = Args::parse_from(["--clips", "64", "--csv", "--secs", "1.5"].map(String::from));
        assert!(a.csv);
        assert!(!a.help);
        assert_eq!(a.get("clips", 0usize), 64);
        assert_eq!(a.get("secs", 0.0f64), 1.5);
        assert_eq!(a.get("missing", 7usize), 7);
    }

    #[test]
    fn help_flag() {
        let a = Args::parse_from(["--help"].map(String::from));
        assert!(a.help);
    }

    #[test]
    #[should_panic(expected = "expects a value")]
    fn dangling_flag_panics() {
        let _ = Args::parse_from(["--clips"].map(String::from));
    }

    #[test]
    #[should_panic(expected = "unexpected argument")]
    fn positional_panics() {
        let _ = Args::parse_from(["clips"].map(String::from));
    }
}
