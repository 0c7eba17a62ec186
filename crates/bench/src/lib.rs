//! Shared helpers for the figure-regeneration harnesses.
//!
//! Each binary in `src/bin/` regenerates one figure (or in-text table) of
//! the paper; see DESIGN.md §4 for the experiment index and EXPERIMENTS.md
//! for recorded paper-vs-measured outcomes.

use polar_gen::{MatrixSpec, SigmaDistribution};

/// Parse `--key value` style arguments (tiny, dependency-free).
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    pub fn parse() -> Self {
        Self { raw: std::env::args().skip(1).collect() }
    }

    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.raw
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    pub fn flag(&self, key: &str) -> bool {
        self.raw.iter().any(|a| a == key)
    }
}

/// Run provenance stamped into every benchmark artifact header, so a
/// checked-in JSON can always answer "what machine, how many workers,
/// which commit": host core count, pool width, the `POLAR_NUM_THREADS`
/// pin (if any), and the git revision the harness ran from.
pub struct Provenance {
    pub host_cores: usize,
    pub pool_workers: usize,
    pub polar_num_threads: Option<String>,
    pub git_rev: Option<String>,
}

impl Provenance {
    pub fn collect() -> Self {
        Self {
            host_cores: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
            pool_workers: rayon::current_num_threads(),
            polar_num_threads: std::env::var("POLAR_NUM_THREADS").ok(),
            git_rev: git_rev(),
        }
    }

    /// The provenance fields as JSON object lines (two-space indent, each
    /// ending `",\n"`) for splicing into a hand-rolled artifact header.
    pub fn json_fields(&self) -> String {
        let quote = |v: &Option<String>| match v {
            Some(s) => format!("\"{s}\""),
            None => "null".into(),
        };
        format!(
            "  \"host_cores\": {},\n  \"pool_workers\": {},\n  \"polar_num_threads\": {},\n  \"git_rev\": {},\n",
            self.host_cores,
            self.pool_workers,
            quote(&self.polar_num_threads),
            quote(&self.git_rev)
        )
    }
}

/// Current git revision, read from `.git` directly (the workspace takes
/// no subprocess or git dependency): follow `HEAD` through one level of
/// symref, consulting loose refs and then `packed-refs`, walking up from
/// the current directory so harnesses work from any subdirectory.
pub fn git_rev() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
            let head = head.trim();
            let Some(sym) = head.strip_prefix("ref: ") else {
                return Some(head.to_string()); // detached HEAD
            };
            if let Ok(h) = std::fs::read_to_string(git.join(sym)) {
                return Some(h.trim().to_string());
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            return packed.lines().find_map(|l| {
                l.split_once(' ').and_then(
                    |(hash, name)| if name == sym { Some(hash.to_string()) } else { None },
                )
            });
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// The paper's benchmark matrix: ill-conditioned, κ = 1e16, geometric
/// spectrum (§7.1).
pub fn paper_matrix_spec(n: usize, seed: u64) -> MatrixSpec {
    MatrixSpec { m: n, n, cond: 1e16, distribution: SigmaDistribution::Geometric, seed }
}

/// The whole-solve task graph the solver emits for a square f64 run of `t`
/// tiles a side with the paper's ill-conditioned iteration profile, its
/// tasks placed on the squarest grid of `ranks`: what the discrete-event
/// harnesses schedule.
pub fn paper_profile_graph(t: usize, nb: usize, ranks: usize) -> polar_runtime::TaskGraph {
    use polar_qdwh::IterationKind::{CholeskyBased, QrBased};
    let (it_qr, it_chol) = polar_sim::ILL_CONDITIONED_PROFILE;
    let kinds = [vec![QrBased; it_qr], vec![CholeskyBased; it_chol]].concat();
    let mut g = polar_qdwh::task_graph::<f64>(t * nb, t * nb, nb, &kinds, 1, true);
    g.assign_ranks(polar_matrix::ProcessGrid::squarest(ranks));
    g
}

/// Default numerical sweep sizes, scaled for a laptop-class run; pass
/// `--max-n` to the binaries to extend.
pub fn accuracy_sweep(max_n: usize) -> Vec<usize> {
    [128usize, 192, 256, 384, 512, 768, 1024, 1536, 2048]
        .into_iter()
        .filter(|&n| n <= max_n)
        .collect()
}

/// Paper-scale performance sweep (the analytic model has no size limit).
pub fn perf_sweep() -> Vec<usize> {
    vec![20_000, 40_000, 60_000, 80_000, 100_000, 130_000, 160_000, 200_000, 250_000, 300_000]
}

/// CSV artifact writer: every figure harness mirrors its stdout series to
/// `results/<name>.csv` so the data can be re-plotted downstream.
pub struct CsvOut {
    file: std::io::BufWriter<std::fs::File>,
    pub path: std::path::PathBuf,
}

impl CsvOut {
    /// Create `results/<name>.csv` (directory created on demand) and write
    /// the header row.
    pub fn create(name: &str, header: &[&str]) -> std::io::Result<Self> {
        let dir = std::path::Path::new("results");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        use std::io::Write;
        writeln!(file, "{}", header.join(","))?;
        Ok(Self { file, path })
    }

    pub fn row(&mut self, fields: &[String]) {
        use std::io::Write;
        let _ = writeln!(self.file, "{}", fields.join(","));
    }
}

/// Format helper for CSV rows.
#[macro_export]
macro_rules! csv_row {
    ($csv:expr, $($v:expr),+ $(,)?) => {
        $csv.row(&[$(format!("{}", $v)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_respects_cap() {
        assert_eq!(accuracy_sweep(512), vec![128, 192, 256, 384, 512]);
    }

    #[test]
    fn paper_spec_is_ill_conditioned() {
        let s = paper_matrix_spec(100, 1);
        assert_eq!(s.cond, 1e16);
    }

    #[test]
    fn provenance_fields_are_valid_json_lines() {
        let p = Provenance::collect();
        assert!(p.host_cores >= 1);
        assert!(p.pool_workers >= 1);
        let fields = p.json_fields();
        // splices into an object: every line "key": value with a comma
        for line in fields.lines() {
            assert!(line.trim_end().ends_with(','), "no trailing comma: {line}");
            assert!(line.contains(':'), "not a field: {line}");
        }
        assert!(fields.contains("\"git_rev\""));
        assert!(fields.contains("\"polar_num_threads\""));
    }

    #[test]
    fn git_rev_resolves_in_this_repo() {
        // the workspace is a git repo; the revision must resolve to a
        // 40-hex commit hash
        let rev = git_rev().expect("repo has a resolvable HEAD");
        assert_eq!(rev.len(), 40, "{rev}");
        assert!(rev.chars().all(|c| c.is_ascii_hexdigit()), "{rev}");
    }
}
