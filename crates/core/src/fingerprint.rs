//! Content-addressed experiment fingerprints — the key that makes
//! re-benchmarking incremental (exaCB's insight: a CI push should cost
//! O(changes), not O(everything)).
//!
//! A fingerprint is a deterministic 64-bit FNV-1a hash over everything that
//! can change an experiment's *measured result*:
//!
//! * the concrete software spec (the concretizer's DAG content hash, which
//!   already folds in package recipes, variants, versions, and dependency
//!   resolution),
//! * the system profile (all four `configs/<system>/` YAML texts plus the
//!   profile name),
//! * the experiment template (`ramble.yaml` text, byte-for-byte),
//! * the application definition (executable templates, FOM regexes,
//!   success criteria — anything that shapes extraction),
//! * the resolved per-experiment variables and raw environment-variable
//!   templates (workspace-location-derived variables excluded, so the same
//!   experiment in two different workspace directories shares one
//!   fingerprint — see
//!   [`benchpark_ramble::ExperimentInstance::provenance_variables`]).
//!
//! Any edit to any input — a recipe bump, a template tweak, a system config
//! change — yields a different hash, which simply *misses* in the cache and
//! reruns. There is no invalidation protocol to get wrong; the address *is*
//! the validity check (the same property the binary cache and the
//! concretizer's `dag_hash` already rely on).
//!
//! [`FingerprintIndex`] is the read side: built from a loaded run ledger, it
//! maps fingerprints to their most recent **successful, freshly executed**
//! record. Failed experiments never satisfy a lookup (a crash is not a
//! result worth replaying), and neither do spliced cache hits (only real
//! measurements re-seed the cache).

use crate::ledger::{LedgerLoad, RunRecord};
use benchpark_ramble::{ExperimentResult, ExperimentStatus};
use std::collections::BTreeMap;
use std::fmt;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// A content-addressed experiment identity: 64-bit FNV-1a over the framed
/// fingerprint inputs, rendered as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// The raw hash value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// The canonical hex rendering (what the ledger stores).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Accumulates labelled fields into a [`Fingerprint`].
///
/// Every field is framed as `label 0xFF len(value) value`, so neither
/// concatenation ambiguity (`("ab","c")` vs `("a","bc")`) nor an empty
/// value can collide with a differently-shaped input. Field order matters
/// by design: the driver feeds fields in one fixed order.
///
/// ```
/// use benchpark_core::fingerprint::FingerprintBuilder;
/// let a = FingerprintBuilder::new().field("template", "x: 1").finish();
/// let b = FingerprintBuilder::new().field("template", "x: 1").finish();
/// let c = FingerprintBuilder::new().field("template", "x: 2").finish();
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
#[derive(Debug, Clone)]
pub struct FingerprintBuilder {
    hash: u64,
}

impl Default for FingerprintBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl FingerprintBuilder {
    /// An empty builder (FNV-1a offset basis).
    pub fn new() -> FingerprintBuilder {
        FingerprintBuilder { hash: FNV_OFFSET }
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
    }

    /// Mixes one labelled text field into the hash.
    pub fn field(mut self, label: &str, value: &str) -> FingerprintBuilder {
        self.bytes(label.as_bytes());
        self.bytes(&[0xFF]);
        self.bytes(&(value.len() as u64).to_le_bytes());
        self.bytes(value.as_bytes());
        self
    }

    /// Mixes a whole key→value map (labelled per key, in iteration order —
    /// callers pass ordered maps).
    pub fn fields<'a>(
        mut self,
        prefix: &str,
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> FingerprintBuilder {
        for (key, value) in pairs {
            self = self.field(&format!("{prefix}.{key}"), value);
        }
        self
    }

    /// Finalizes the fingerprint.
    pub fn finish(self) -> Fingerprint {
        Fingerprint(self.hash)
    }
}

/// One cached experiment: the most recent successful ledger record for a
/// fingerprint, with enough provenance to render and splice it.
#[derive(Debug, Clone)]
pub struct CachedExperiment {
    /// The fingerprint, canonical hex.
    pub fingerprint: String,
    /// Ledger sequence of the run the result came from.
    pub sequence: u64,
    /// System the cached measurement executed on.
    pub system: String,
    /// Benchmark of the cached run.
    pub benchmark: String,
    /// Variant of the cached run.
    pub variant: String,
    /// The persisted result (status is always `Success`).
    pub result: ExperimentResult,
}

/// The fingerprint → cached-result index over a loaded ledger.
///
/// Later records win: reruns (e.g. after `--force`) supersede earlier
/// measurements for the same fingerprint. Only successful, non-spliced
/// results are indexed, so a failed or merely-replayed record can never
/// satisfy a lookup.
#[derive(Debug, Clone, Default)]
pub struct FingerprintIndex {
    entries: BTreeMap<String, CachedExperiment>,
}

impl FingerprintIndex {
    /// An empty index (every lookup misses).
    pub fn new() -> FingerprintIndex {
        FingerprintIndex::default()
    }

    /// Indexes every fingerprinted successful result of `load`, in ledger
    /// order (so the latest record for a fingerprint wins). Schema-1
    /// records carry no fingerprints and contribute nothing.
    pub fn from_ledger(load: &LedgerLoad) -> FingerprintIndex {
        let mut index = FingerprintIndex::new();
        for run in &load.runs {
            index.index_run(run);
        }
        index
    }

    /// Indexes one run's fingerprinted successful results, superseding any
    /// earlier entry for the same fingerprint. This is the incremental
    /// update path a long-lived daemon uses after each `append_run`: the
    /// in-memory index tracks the shard without replaying it from disk.
    pub fn index_run(&mut self, run: &RunRecord) {
        for (slot, result) in Self::indexable(run) {
            let fingerprint = run.fingerprints[slot].1.clone();
            self.insert(run, fingerprint, run.results[result].clone());
        }
    }

    /// Like [`FingerprintIndex::index_run`], but moves the indexed results
    /// out of an owned run instead of copying them.
    pub(crate) fn absorb_run(&mut self, mut run: RunRecord) {
        let picks: Vec<(usize, usize)> = Self::indexable(&run).collect();
        // the last pick naming a result moves it, any earlier one copies it
        let mut last_pick = vec![usize::MAX; run.results.len()];
        for (k, &(_, result)) in picks.iter().enumerate() {
            last_pick[result] = k;
        }
        let mut results: Vec<Option<ExperimentResult>> = std::mem::take(&mut run.results)
            .into_iter()
            .map(Some)
            .collect();
        for (k, &(slot, result)) in picks.iter().enumerate() {
            let taken = if last_pick[result] == k {
                results[result].take()
            } else {
                results[result].clone()
            };
            let fingerprint = std::mem::take(&mut run.fingerprints[slot].1);
            self.insert(
                &run,
                fingerprint,
                taken.expect("taken on its last pick only"),
            );
        }
    }

    /// `(fingerprint slot, result slot)` of every result `run` indexes, in
    /// fingerprint order: the first result of each fingerprinted
    /// experiment, when it succeeded and was executed rather than spliced.
    fn indexable(run: &RunRecord) -> impl Iterator<Item = (usize, usize)> + '_ {
        run.fingerprints
            .iter()
            .enumerate()
            .filter(|(_, (_, fingerprint))| !fingerprint.is_empty())
            .filter_map(|(slot, (experiment, _))| {
                let index = run
                    .results
                    .iter()
                    .position(|r| &r.experiment == experiment)?;
                let result = &run.results[index];
                (result.status == ExperimentStatus::Success && !result.cached)
                    .then_some((slot, index))
            })
    }

    fn insert(&mut self, run: &RunRecord, fingerprint: String, result: ExperimentResult) {
        self.entries.insert(
            fingerprint.clone(),
            CachedExperiment {
                fingerprint,
                sequence: run.sequence,
                system: run.system.clone(),
                benchmark: run.benchmark.clone(),
                variant: run.variant.clone(),
                result,
            },
        );
    }

    /// The cached experiment for `fingerprint`, if any.
    pub fn lookup(&self, fingerprint: &Fingerprint) -> Option<&CachedExperiment> {
        self.entries.get(&fingerprint.hex())
    }

    /// Like [`FingerprintIndex::lookup`], keyed by the hex rendering.
    pub fn lookup_hex(&self, hex: &str) -> Option<&CachedExperiment> {
        self.entries.get(hex)
    }

    /// All cached entries, sorted by fingerprint.
    pub fn iter(&self) -> impl Iterator<Item = &CachedExperiment> {
        self.entries.values()
    }

    /// Number of distinct cached fingerprints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no fingerprint is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}
