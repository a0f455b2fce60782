//! Output check: a digest of each job's deterministic record fields.
//!
//! The digest covers exactly the `run_records.csv` columns 1–34 — the spec
//! columns, `used_r2d2`, the `Stats` counters, the energy breakdown and the
//! ideal counts — formatted as the CSV formats them, then hashed with
//! 64-bit FNV-1a. Wall time, the cached flag and the thread count (columns
//! 35 on) are not results and stay out. `digests.tsv` holds the digests
//! recorded from `r2d2_harness::execute`; regenerate it with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --record-digests`
//! only when a change is meant to alter simulated results.

use std::collections::HashMap;

use r2d2_harness::{JobSpec, RunRecord};
use r2d2_workloads::Size;

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Columns 1–34 of the record's `run_records.csv` row.
pub fn row(spec: &JobSpec, rec: &RunRecord) -> String {
    fn opt<T: std::fmt::Display>(v: Option<T>) -> String {
        v.map_or_else(String::new, |x| x.to_string())
    }
    let s = &rec.stats;
    let e = &rec.energy;
    let ideal = rec.ideal.as_ref();
    let fields: Vec<String> = vec![
        spec.workload.clone(),
        match spec.size {
            Size::Small => "small".into(),
            Size::Full => "full".into(),
        },
        spec.model.canonical(),
        opt(spec.overrides.num_sms),
        opt(spec.overrides.fetch_table),
        opt(spec.overrides.regid_calc),
        opt(spec.overrides.lr_add),
        spec.hash_hex(),
        rec.used_r2d2.to_string(),
        s.cycles.to_string(),
        s.warp_instrs.to_string(),
        s.thread_instrs.to_string(),
        s.scalar_warp_instrs.to_string(),
        s.warp_instrs_by_phase[0].to_string(),
        s.warp_instrs_by_phase[1].to_string(),
        s.warp_instrs_by_phase[2].to_string(),
        s.warp_instrs_by_phase[3].to_string(),
        s.prologue_cycles.to_string(),
        s.l1_hits.to_string(),
        s.l1_misses.to_string(),
        s.l2_hits.to_string(),
        s.l2_misses.to_string(),
        s.dram_txns.to_string(),
        s.shared_txns.to_string(),
        e.alu_pj.to_string(),
        e.rf_pj.to_string(),
        e.frontend_pj.to_string(),
        e.mem_pj.to_string(),
        e.static_pj.to_string(),
        e.total_pj().to_string(),
        opt(ideal.map(|c| c.baseline)),
        opt(ideal.map(|c| c.wp)),
        opt(ideal.map(|c| c.tb)),
        opt(ideal.map(|c| c.ln)),
    ];
    fields.join(",")
}

/// The digest of a job's result.
pub fn digest(spec: &JobSpec, rec: &RunRecord) -> u64 {
    fnv1a(row(spec, rec).as_bytes())
}

/// Expected digests keyed by spec content hash.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    by_hash: HashMap<u64, u64>,
}

impl Expected {
    /// The digests recorded in `perfbench/digests.tsv`.
    ///
    /// # Panics
    ///
    /// When the embedded file is malformed (a bug in this benchmark).
    pub fn recorded() -> Expected {
        Expected::parse(include_str!("../digests.tsv")).expect("digests.tsv is well-formed")
    }

    /// Parse `<spec hash hex>\t<digest hex>\t<label>` lines; `#` starts a
    /// comment line.
    ///
    /// # Errors
    ///
    /// On a line that does not have two hex fields.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut by_hash = HashMap::new();
        for line in text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let mut cols = line.split('\t');
            let mut hex = || {
                cols.next()
                    .and_then(|c| u64::from_str_radix(c, 16).ok())
                    .ok_or_else(|| format!("bad digest line {line:?}"))
            };
            let (hash, dig) = (hex()?, hex()?);
            by_hash.insert(hash, dig);
        }
        Ok(Expected { by_hash })
    }

    /// The file line for one job.
    pub fn line(spec: &JobSpec, rec: &RunRecord) -> String {
        format!(
            "{}\t{:016x}\t{}",
            spec.hash_hex(),
            digest(spec, rec),
            spec.label()
        )
    }

    /// Expect `digest` for `spec`.
    pub fn insert(&mut self, spec: &JobSpec, digest: u64) {
        self.by_hash.insert(spec.content_hash(), digest);
    }

    /// Whether `rec` is the recorded result of `spec`.
    ///
    /// # Errors
    ///
    /// Names the job when no digest is recorded or the digest differs.
    pub fn check(&self, spec: &JobSpec, rec: &RunRecord) -> Result<(), String> {
        let got = digest(spec, rec);
        match self.by_hash.get(&spec.content_hash()) {
            Some(&want) if want == got => Ok(()),
            Some(&want) => Err(format!(
                "{}: digest {got:016x}, recorded {want:016x}",
                spec.label()
            )),
            None => Err(format!("{}: no recorded digest", spec.label())),
        }
    }
}
