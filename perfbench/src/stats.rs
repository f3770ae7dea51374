//! Order statistics, stage ledgers and image fingerprints: the arithmetic
//! every workload's verdict rests on, kept apart so it is unit-tested.

use std::path::Path;

use anubis::telemetry::percentile_of_sorted;
use anubis_server::protocol::fnv1a64;

/// Fewest samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Highest percentile the tail ever reports, even with many samples.
const TAIL_CAP: f64 = 0.99;

/// Median and tail of one latency sample set, in the samples' unit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: u64,
    /// Nearest-rank value at [`tail_rank`].
    pub tail: u64,
    /// The percentile the tail sits at (`rank / n`).
    pub tail_pct: f64,
}

/// The 1-based rank of the tail sample: the p99 rank `⌈0.99·n⌉`, lowered
/// until at least [`TAIL_BEYOND`] samples lie beyond it. `None` when no
/// rank has that many samples beyond it (`n ≤ TAIL_BEYOND`).
pub fn tail_rank(n: usize) -> Option<usize> {
    if n <= TAIL_BEYOND {
        return None;
    }
    let p99 = (TAIL_CAP * n as f64).ceil() as usize;
    Some(p99.min(n - TAIL_BEYOND))
}

/// Summarizes `samples` (any order). `None` when there are too few
/// samples for a tail.
pub fn summarize(samples: &[u64]) -> Option<Summary> {
    let rank = tail_rank(samples.len())?;
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    Some(Summary {
        n: sorted.len(),
        p50: percentile_of_sorted(&sorted, 0.5),
        tail: sorted[rank - 1],
        tail_pct: 100.0 * rank as f64 / sorted.len() as f64,
    })
}

/// Sub-windows a measured serving window is cut into. Its metrics are
/// medians over them, so device stalls confined to a minority of
/// sub-windows do not move the result.
pub const SUB_WINDOWS: usize = 10;

/// Splits events (completion offset `at[i]` in ns, value `v[i]`) of a
/// window `span_ns` long into `n` equal sub-windows; an event at or past
/// the end lands in the last one.
pub fn sub_windows(at: &[u64], v: &[u64], span_ns: u64, n: usize) -> Vec<Vec<u64>> {
    let mut out = vec![Vec::new(); n];
    let width = (span_ns / n as u64).max(1);
    for (&t, &x) in at.iter().zip(v) {
        out[((t / width) as usize).min(n - 1)].push(x);
    }
    out
}

/// Nearest-rank median of floating-point values (setup repetitions,
/// replay rates). Returns 0 for an empty slice.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len().div_ceil(2) - 1]
}

/// One row of a stage ledger.
#[derive(Clone, Debug, PartialEq)]
pub struct Stage {
    /// Layer metric name.
    pub name: &'static str,
    /// Its share of the total, in the ledger's unit.
    pub value: f64,
}

/// A client-observed total split into the stages the layers explain,
/// plus what no stage explains.
#[derive(Clone, Debug, PartialEq)]
pub struct Ledger {
    /// What the ledger explains (e.g. `"write RTT p50"`).
    pub label: &'static str,
    /// Unit of every value.
    pub unit: &'static str,
    /// Client-observed total.
    pub total: f64,
    /// Stages, each a disjoint part of the total.
    pub stages: Vec<Stage>,
}

impl Ledger {
    /// Sum of the stages.
    pub fn explained(&self) -> f64 {
        self.stages.iter().map(|s| s.value).sum()
    }

    /// The part of the total no stage accounts for.
    pub fn remainder(&self) -> f64 {
        self.total - self.explained()
    }

    /// Whether the stages fit inside the total. Stages that sum to more
    /// than the total mean they overlap or were mismeasured; an excess
    /// within floating-point rounding (stages that partition the total
    /// exactly) is not one.
    pub fn consistent(&self) -> bool {
        self.explained() <= self.total * (1.0 + 1e-9)
    }

    /// Prints the ledger, one stage per line.
    pub fn print(&self) {
        println!("# ledger: {} = {:.3} {}", self.label, self.total, self.unit);
        for s in &self.stages {
            println!(
                "#   {:<48} {:>12.3} {} ({:>5.1}%)",
                s.name,
                s.value,
                self.unit,
                100.0 * s.value / self.total
            );
        }
        println!(
            "#   {:<48} {:>12.3} {} ({:>5.1}%){}",
            "unexplained remainder",
            self.remainder(),
            self.unit,
            100.0 * self.remainder() / self.total,
            if self.consistent() {
                ""
            } else {
                "  <- stages exceed the total"
            }
        );
    }
}

/// One file of a device-image directory: name, byte size, FNV-1a-64 of
/// the contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FilePrint {
    /// File name within the directory.
    pub name: String,
    /// Size in bytes.
    pub bytes: u64,
    /// FNV-1a-64 of the contents.
    pub fnv: u64,
}

/// Fingerprints every regular file in `dir`, sorted by name.
///
/// # Errors
///
/// Any I/O failure listing or reading the directory.
pub fn fingerprint_dir(dir: &Path) -> std::io::Result<Vec<FilePrint>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_file() {
            continue;
        }
        let bytes = std::fs::read(entry.path())?;
        out.push(FilePrint {
            name: entry.file_name().to_string_lossy().into_owned(),
            bytes: bytes.len() as u64,
            fnv: fnv1a64(&bytes),
        });
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(out)
}

/// Names of the files whose presence, size or fingerprint differs
/// between two image builds. Empty when the builds are identical.
pub fn fingerprint_diff(a: &[FilePrint], b: &[FilePrint]) -> Vec<String> {
    let mut names: Vec<&str> = a.iter().chain(b).map(|f| f.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .filter(|n| a.iter().find(|f| f.name == *n) != b.iter().find(|f| f.name == *n))
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_rank(0), None);
        assert_eq!(tail_rank(10), None);
        // 11 samples: only the smallest has ten beyond it.
        assert_eq!(tail_rank(11), Some(1));
        // 100 samples: p99 would leave one beyond, so p90 (rank 90).
        assert_eq!(tail_rank(100), Some(90));
        // 1000 samples: p99 (rank 990) leaves exactly ten beyond.
        assert_eq!(tail_rank(1000), Some(990));
        // Many samples: capped at p99.
        assert_eq!(tail_rank(100_000), Some(99_000));
        for n in 11..3000 {
            let r = tail_rank(n).expect("rank");
            assert!(n - r >= TAIL_BEYOND, "n={n} rank={r}");
            assert!(r >= 1 && r <= n);
        }
    }

    #[test]
    fn summary_uses_nearest_rank() {
        // 1..=100 shuffled: median rank 50, tail rank 90.
        let mut v: Vec<u64> = (1..=100).collect();
        v.reverse();
        let s = summarize(&v).expect("summary");
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50);
        assert_eq!(s.tail, 90);
        assert!((s.tail_pct - 90.0).abs() < 1e-9);
        // Odd count: nearest-rank median is an observed value.
        let s = summarize(&[5, 1, 3, 9, 7, 2, 4, 6, 8, 10, 11]).expect("summary");
        assert_eq!(s.p50, 6);
        assert_eq!(s.tail, 1);
        assert!(summarize(&[1, 2, 3]).is_none());
    }

    #[test]
    fn sub_windows_split_by_completion_time() {
        let at = [0, 99, 100, 250, 399, 400, 10_000];
        let v = [1, 2, 3, 4, 5, 6, 7];
        let w = sub_windows(&at, &v, 400, 4);
        assert_eq!(w, vec![vec![1, 2], vec![3], vec![4], vec![5, 6, 7]]);
        assert_eq!(sub_windows(&[], &[], 400, 2), vec![Vec::<u64>::new(); 2]);
    }

    #[test]
    fn median_of_floats() {
        assert_eq!(median_f64(&[]), 0.0);
        assert_eq!(median_f64(&[3.0]), 3.0);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn ledger_remainder_and_overrun() {
        let mut l = Ledger {
            label: "rtt",
            unit: "us",
            total: 100.0,
            stages: vec![
                Stage {
                    name: "a",
                    value: 60.0,
                },
                Stage {
                    name: "b",
                    value: 30.0,
                },
            ],
        };
        assert_eq!(l.explained(), 90.0);
        assert_eq!(l.remainder(), 10.0);
        assert!(l.consistent());
        l.stages[1].value = 40.0;
        assert_eq!(l.remainder(), 0.0);
        assert!(l.consistent());
        l.stages[1].value = 40.5;
        assert!(l.remainder() < 0.0);
        assert!(!l.consistent());
        // An exact partition whose float sum rounds past the total:
        // 0.1 + 0.2 > 0.3 in f64.
        l.total = 0.3;
        l.stages[0].value = 0.1;
        l.stages[1].value = 0.2;
        assert!(l.explained() > l.total);
        assert!(l.consistent());
    }

    #[test]
    fn fingerprints_detect_any_change() {
        let root = std::env::temp_dir().join(format!("perfbench-fp-{}", std::process::id()));
        let (a, b) = (root.join("a"), root.join("b"));
        for d in [&a, &b] {
            std::fs::create_dir_all(d).expect("mkdir");
            std::fs::write(d.join("t.wal"), b"wal image").expect("write");
            std::fs::write(d.join("t.wal.anchor"), b"anchor").expect("write");
        }
        let fa = fingerprint_dir(&a).expect("fingerprint");
        assert_eq!(fa.len(), 2);
        assert_eq!(fa[0].name, "t.wal");
        assert_eq!(fa[0].bytes, 9);
        assert!(fingerprint_diff(&fa, &fingerprint_dir(&b).expect("fp")).is_empty());

        // Same size, one byte flipped.
        std::fs::write(b.join("t.wal"), b"wal imagf").expect("write");
        let fb = fingerprint_dir(&b).expect("fingerprint");
        assert_eq!(fingerprint_diff(&fa, &fb), vec!["t.wal".to_string()]);

        // An extra file is a difference too.
        std::fs::write(b.join("t.wal"), b"wal image").expect("write");
        std::fs::write(b.join("t.compact-tmp"), b"x").expect("write");
        let fb = fingerprint_dir(&b).expect("fingerprint");
        assert_eq!(
            fingerprint_diff(&fa, &fb),
            vec!["t.compact-tmp".to_string()]
        );
        std::fs::remove_dir_all(&root).expect("cleanup");
    }
}
