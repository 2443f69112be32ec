//! What the benchmark runs on: environment hygiene, the host fingerprint
//! every output echoes, and the process's peak memory.

/// Environment knobs that change how the simulator executes (engine,
/// worker counts, probe kernel) or let one run warm the next (the
/// on-disk warm cache). A measurement must not depend on them.
pub const ENV_KNOBS: [&str; 6] = [
    "TLA_ENGINE",
    "TLA_ENGINE_JOBS",
    "TLA_JOBS",
    "TLA_SHARD_JOBS",
    "TLA_FORCE_SCALAR",
    "TLA_WARM_CACHE",
];

/// Removes every [`ENV_KNOBS`] variable from the process environment and
/// returns the ones that were set, as `NAME=value`, for the report.
///
/// Must run before any thread is spawned: the environment is process-wide.
pub fn clear_env_knobs() -> Vec<String> {
    let mut cleared = Vec::new();
    for name in ENV_KNOBS {
        if let Some(value) = std::env::var_os(name) {
            cleared.push(format!("{name}={}", value.to_string_lossy()));
            std::env::remove_var(name);
        }
    }
    cleared
}

/// The host and build a result was measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub probe_kernel: &'static str,
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub git_rev: &'static str,
}

impl Fingerprint {
    /// Reads the fingerprint. Selecting the probe kernel here also performs
    /// the library's one-time kernel dispatch.
    pub fn read() -> Fingerprint {
        Fingerprint {
            probe_kernel: tla_cache::kernel_name(),
            nproc: tla_pool::available_jobs(),
            cpu_model: cpu_model(),
            rustc: env!("SIMBENCH_RUSTC"),
            git_rev: env!("SIMBENCH_GIT_REV"),
        }
    }

    /// The fingerprint as one JSON object.
    pub fn to_json(&self, cleared_env: &[String]) -> String {
        let cleared: Vec<String> = cleared_env.iter().map(|s| json_str(s)).collect();
        format!(
            "{{\"probe_kernel\":{},\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"git_rev\":{},\"cleared_env\":[{}]}}",
            json_str(self.probe_kernel),
            self.nproc,
            json_str(&self.cpu_model),
            json_str(self.rustc),
            json_str(self.git_rev),
            cleared.join(","),
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The process's peak resident set (`VmHWM`) in MiB, or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
