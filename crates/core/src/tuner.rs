//! Cost-model-driven algorithm autotuner with a persistent tuning database.
//!
//! Dispatch authority for backward-filter convolution lives here. For every
//! `(shape, device, precision)` key the tuner
//!
//! 1. **ranks** the candidate algorithms — WinRS, GEMM-BFC, FFT-BFC and
//!    direct — by what each costs on *this host* ([`rank`]): the paper's
//!    Eq. 8 form, `t = t₀ + C_time / V + C_data / V_band`, with constants
//!    fitted on this machine's CPU (one table row per SIMD width, selected
//!    by the detected width). WinRS participates only when
//!    [`WinRsPlan::new`] succeeds — or, for an FP16/BF16 request whose
//!    filter width has no reduced-precision kernel, when the same key's
//!    FP32-tile plan does (support is derived from the planner's `Result`,
//!    never a static matrix). The `device` argument builds the plan
//!    (Algorithm 1 takes Z from its SM count) and keys the store and the
//!    database; it prices nothing;
//! 2. **decides** from the per-key store, the tuning database or the cost
//!    model, in that order ([`Tuner::decide`]): a database entry for the
//!    key wins, otherwise the model's argmin does. Dispatch never measures,
//!    so it is deterministic for a given store, database and model;
//! 3. **loads** winners from an on-disk database ([`TuneDb`], schema
//!    [`TUNE_DB_SCHEMA`]) keyed by [`device_key`] — the device fingerprint
//!    ([`winrs_gpu_sim::DeviceSpec::fingerprint`]) extended with the host's
//!    detected SIMD width, so entries measured on an AVX2 host never apply
//!    on an AVX-512 one (the widths' timings differ even though their ∇W
//!    bits don't). `winrs tune --measure` is what writes measured entries:
//!    it times every ranked candidate and stores the fastest.
//!
//! The tuner's per-key entries are also the pool's one per-shape cache:
//! ranking a key builds its [`WinRsPlan`], and the entry keeps that plan
//! next to the ranking and the choice, so a cold key is planned once and
//! [`crate::WorkspacePool::cached_plan`] hands out the same `Arc` — the
//! FP32-tile plan, for a key that runs on FP32 tiles.
//!
//! The policy layer ([`crate::pool::ExecHandle`]) is deliberately *not* in
//! this module: Strict/Auto/Force filter the ranked list but never reorder
//! it, and the degradation ladder walks the same ranking restricted to the
//! substitutes that are safe under resource pressure.
//!
//! The database format is a single JSON document (via [`winrs_json`]) and
//! every load failure is a typed, non-fatal [`TuneDbWarning`]: a missing
//! file is an empty database, a torn or hand-mangled one falls back to
//! pure cost-model dispatch — never a panic.

use crate::cache::DEFAULT_PLAN_CACHE_CAPACITY;
use crate::config::Precision;
use crate::engine::TileMode;
use crate::error::{Violation, WinrsError};
use crate::fallback::{substitute_workspace_bytes, Algorithm};
use crate::plan::WinRsPlan;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use winrs_conv::{fft_bfc, ConvShape};
use winrs_gemm::micro::{detected_width, SimdWidth};
use winrs_gpu_sim::DeviceSpec;
use winrs_json::Json;

/// Schema tag stamped into every tuning-database document. Bump on any
/// format change: loaders reject other tags with
/// [`TuneDbWarning::SchemaMismatch`] instead of misreading them.
pub const TUNE_DB_SCHEMA: &str = "winrs-tune-v1";

/// The tuning-database key for `device` on *this* host: the device
/// fingerprint extended with the SIMD width the kernel family detected
/// (`|host-simd:avx512`, `|host-simd:avx2`, …). Measured wall times depend
/// on the dispatch width — the block loop's FT/IT/EWMM throughput roughly
/// doubles from AVX2 to AVX-512 — so a [`TuneDb`] entry measured on one
/// width must never be applied on another. Note this keys on the
/// *detected* width, not any transient `WINRS_FORCE_WIDTH` pin: forced
/// widths are a debugging/reproduction tool and must not pollute the
/// persistent database with slower-width timings.
pub fn device_key(device: &DeviceSpec) -> String {
    format!(
        "{}|host-simd:{}",
        device.fingerprint(),
        detected_width().name()
    )
}

// ---------------------------------------------------------------------------
// Candidate algorithms and the host cost model
// ---------------------------------------------------------------------------

/// One candidate with its modelled execution time, as produced by [`rank`].
#[derive(Clone, Copy, Debug)]
pub struct RankedCandidate {
    /// The algorithm.
    pub algo: Algorithm,
    /// Modelled execution time on this host, seconds.
    pub predicted_s: f64,
}

/// Eq. 8's constants for one SIMD width of this host: what one dispatch
/// costs before any work (t₀), how fast each algorithm computes (V) and
/// how fast the bytes it moves beyond its operands stream (V_band).
#[derive(Clone, Copy, Debug)]
struct HostConstants {
    /// The detected width these constants were fitted at.
    width: SimdWidth,
    /// t₀ per algorithm, seconds, in [`Algorithm::ALL`] order.
    call_s: [f64; 4],
    /// V per algorithm, FLOP/s, in [`Algorithm::ALL`] order. WinRS's entry
    /// is its rate on FP32 tiles.
    flop_rate: [f64; 4],
    /// WinRS's V on binary16 tiles, FLOP/s.
    winrs_fp16_rate: f64,
    /// WinRS's V on bfloat16 tiles, FLOP/s.
    winrs_bf16_rate: f64,
    /// V_band, bytes per second.
    byte_rate: f64,
}

/// The host model's constants, one row per SIMD width. Each row was fitted
/// once on this repository's reference host (a 2-core Sapphire Rapids-class
/// VM, one vCPU pinned) by weighted least squares on the relative error of
/// `winrs tune --measure`-style timings — the benchmark's keys, the nn
/// probe's two shapes, the serve keys and micro shapes — with the width
/// pinned through `WINRS_FORCE_WIDTH`. DESIGN.md §12.1 holds the fit.
static HOST_CONSTANTS: [HostConstants; 3] = [
    HostConstants {
        width: SimdWidth::Avx512,
        call_s: [22.3e-6, 16.5e-6, 44.0e-6, 12.5e-6],
        flop_rate: [66.1e9, 26.4e9, 1.20e9, 1.20e9],
        winrs_fp16_rate: 66.9e9,
        winrs_bf16_rate: 29.5e9,
        byte_rate: 4.43e9,
    },
    HostConstants {
        width: SimdWidth::Avx2,
        call_s: [22.5e-6, 19.2e-6, 63.2e-6, 14.1e-6],
        flop_rate: [44.5e9, 24.9e9, 1.11e9, 1.11e9],
        winrs_fp16_rate: 41.6e9,
        winrs_bf16_rate: 24.6e9,
        byte_rate: 4.38e9,
    },
    HostConstants {
        width: SimdWidth::Scalar,
        call_s: [19.9e-6, 17.6e-6, 46.4e-6, 13.6e-6],
        flop_rate: [23.2e9, 14.0e9, 1.23e9, 1.20e9],
        winrs_fp16_rate: 8.84e9,
        winrs_bf16_rate: 15.2e9,
        byte_rate: 4.11e9,
    },
];

impl HostConstants {
    /// The row for the width this host detected — the width
    /// [`device_key`] names. A `WINRS_FORCE_WIDTH` pin does not move it.
    fn detected() -> &'static HostConstants {
        let width = detected_width();
        HOST_CONSTANTS
            .iter()
            .find(|c| c.width == width)
            .unwrap_or(&HOST_CONSTANTS[HOST_CONSTANTS.len() - 1])
    }

    /// Eq. 8 on this host: `t = t₀ + C_time / V + C_data / V_band`, with
    /// `c_time` in FLOPs and `c_data` in bytes.
    fn seconds(&self, algo: Algorithm, tiles: TileMode, c_time: u64, c_data: usize) -> f64 {
        let i = Algorithm::ALL.iter().position(|a| *a == algo).unwrap_or(0);
        let rate = match (algo, tiles) {
            (Algorithm::WinRs, TileMode::Fp16) => self.winrs_fp16_rate,
            (Algorithm::WinRs, TileMode::Bf16) => self.winrs_bf16_rate,
            _ => self.flop_rate[i],
        };
        self.call_s[i] + c_time as f64 / rate + c_data as f64 / self.byte_rate
    }
}

/// The name of the model [`rank`] predicts with: the host model at the
/// detected SIMD width (`host (avx512)`).
pub fn model_name() -> String {
    format!("host ({})", HostConstants::detected().width.name())
}

/// The WinRS plan a key runs: the requested precision's own, or — when an
/// FP16/BF16 request is refused only because its filter width has no
/// reduced-precision kernel — the same key's FP32-tile plan, which is at
/// least as precise. Any other refusal, and an FP32 plan that fails too,
/// returns the original rejection.
fn winrs_plan(
    conv: &ConvShape,
    device: &DeviceSpec,
    precision: Precision,
) -> Result<WinRsPlan, WinrsError> {
    WinRsPlan::new(conv, device, precision).or_else(|err| {
        let only_tiles = matches!(&err, WinrsError::PlanRejected(v)
            if v.iter().all(|v| matches!(v, Violation::NoReducedPrecisionKernel { .. })));
        if precision != Precision::Fp32 && only_tiles {
            WinRsPlan::new(conv, device, Precision::Fp32).map_err(|_| err)
        } else {
            Err(err)
        }
    })
}

/// Rank every supported candidate for `(conv, precision)` by its modelled
/// time on this host, ascending. WinRS appears iff [`winrs_plan`] succeeds;
/// the second element is that plan, or its rejection. The list is never
/// empty: direct convolution is always supported.
///
/// The work terms: WinRS runs its plan's FLOPs ([`WinRsPlan::flops`]) and
/// streams `(Z+1)·|∇W|` f32 through the bucket reduce when `Z > 1` (none
/// at `Z = 1`, where bucket 0 is `∇W`); GEMM-BFC and direct
/// run the direct FLOP count, FFT-BFC its transform-domain count, and a
/// substitute streams the workspace it allocates (GEMM's lowering panel,
/// the FFT stages). Substitutes compute in f32 whatever was requested.
fn rank_with_plan(
    conv: &ConvShape,
    device: &DeviceSpec,
    precision: Precision,
) -> (Vec<RankedCandidate>, Result<Arc<WinRsPlan>, WinrsError>) {
    let host = HostConstants::detected();
    let mut out = Vec::with_capacity(Algorithm::ALL.len());
    let winrs = winrs_plan(conv, device, precision).map(Arc::new);
    if let Ok(plan) = &winrs {
        // Size the stored plan's workspace now, with the rest of its
        // planning, so its first dispatch pays only for running it.
        plan.workspace_layout();
        // Z−1 overflow reads plus ∇W read and written; at Z = 1 bucket 0
        // is ∇W and there is no reduce.
        let reduce_bytes = match plan.z() {
            1 => 0,
            z => (z + 1) * conv.dw_elems() * 4,
        };
        out.push(RankedCandidate {
            algo: Algorithm::WinRs,
            predicted_s: host.seconds(
                Algorithm::WinRs,
                plan.tile_mode(),
                plan.flops(),
                reduce_bytes,
            ),
        });
    }
    for algo in [Algorithm::GemmBfc, Algorithm::FftBfc, Algorithm::Direct] {
        let c_time = match algo {
            // FFT-BFC is FP32-only.
            Algorithm::FftBfc if precision != Precision::Fp32 => continue,
            Algorithm::FftBfc => fft_bfc::flops(conv),
            _ => conv.bfc_flops(),
        };
        out.push(RankedCandidate {
            algo,
            predicted_s: host.seconds(
                algo,
                TileMode::Fp32,
                c_time,
                substitute_workspace_bytes(algo, conv),
            ),
        });
    }
    out.sort_by(|a, b| a.predicted_s.total_cmp(&b.predicted_s));
    (out, winrs)
}

/// Every supported candidate for `(conv, precision)` on `device`, ranked by
/// modelled time on this host, ascending (see [`Tuner::decide`]).
pub fn rank(conv: &ConvShape, device: &DeviceSpec, precision: Precision) -> Vec<RankedCandidate> {
    rank_with_plan(conv, device, precision).0
}

// ---------------------------------------------------------------------------
// Persistent tuning database
// ---------------------------------------------------------------------------

/// Why the tuning database could not be used. Every variant is a warning,
/// not an error: the tuner falls back to pure cost-model dispatch and the
/// process keeps running.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TuneDbWarning {
    /// The file exists but could not be read or written.
    Io {
        /// The offending path.
        path: String,
        /// The OS error rendered.
        error: String,
    },
    /// The file is not syntactically valid JSON (torn write, truncation).
    Parse {
        /// The offending path.
        path: String,
        /// The parser's description of the first syntax error.
        error: String,
    },
    /// The file exists but is empty (zero bytes or only whitespace) — a
    /// crash between `create` and the first write, not a torn document.
    /// The loader continues with an empty database and the next
    /// successful save repairs the file in place.
    Empty {
        /// The offending path.
        path: String,
    },
    /// Valid JSON, but a different (older/newer) schema tag.
    SchemaMismatch {
        /// The offending path.
        path: String,
        /// The tag the file carried (empty when absent).
        found: String,
    },
    /// Valid JSON with the right tag, but a structurally broken body.
    Malformed {
        /// The offending path.
        path: String,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for TuneDbWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneDbWarning::Io { path, error } => {
                write!(f, "tuning db {path}: io error: {error}")
            }
            TuneDbWarning::Parse { path, error } => {
                write!(f, "tuning db {path}: unparseable (torn write?): {error}")
            }
            TuneDbWarning::Empty { path } => {
                write!(
                    f,
                    "tuning db {path}: empty file (crash before first write?); \
                     continuing cold, next save repairs it"
                )
            }
            TuneDbWarning::SchemaMismatch { path, found } => write!(
                f,
                "tuning db {path}: schema `{found}` is not `{TUNE_DB_SCHEMA}`"
            ),
            TuneDbWarning::Malformed { path, detail } => {
                write!(f, "tuning db {path}: malformed: {detail}")
            }
        }
    }
}

/// One stored tuning decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TunedEntry {
    /// The winning algorithm.
    pub algo: Algorithm,
    /// Modelled time of the winner when the decision was made, seconds.
    pub predicted_s: f64,
    /// Mean measured time of the winner (`winrs tune --measure`); absent
    /// for decisions stored straight from the model.
    pub measured_s: Option<f64>,
    /// Number of measured executions behind `measured_s`.
    pub trials: u32,
}

/// Shape portion of a database key.
type ShapeKey = [usize; 9];

fn shape_key(conv: &ConvShape) -> ShapeKey {
    [
        conv.n, conv.ih, conv.iw, conv.ic, conv.oc, conv.fh, conv.fw, conv.ph, conv.pw,
    ]
}

/// The persistent winner table: `(device fingerprint, shape, precision) →`
/// [`TunedEntry`]. Kept in sorted order so the rendered document is
/// deterministic (stable diffs, reproducible CI artifacts).
#[derive(Default, Clone, Debug)]
pub struct TuneDb {
    entries: BTreeMap<(String, ShapeKey, Precision), TunedEntry>,
}

impl TuneDb {
    /// An empty database.
    pub fn new() -> TuneDb {
        TuneDb::default()
    }

    /// Number of stored decisions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no decisions are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up the stored decision for one key.
    pub fn get(
        &self,
        fingerprint: &str,
        conv: &ConvShape,
        precision: Precision,
    ) -> Option<&TunedEntry> {
        self.entries
            .get(&(fingerprint.to_string(), shape_key(conv), precision))
    }

    /// Store (or replace) the decision for one key.
    pub fn insert(
        &mut self,
        fingerprint: &str,
        conv: &ConvShape,
        precision: Precision,
        entry: TunedEntry,
    ) {
        self.entries
            .insert((fingerprint.to_string(), shape_key(conv), precision), entry);
    }

    /// Iterate all entries as `(fingerprint, shape key, precision, entry)`
    /// in the document's deterministic (sorted) order. The shape key is
    /// `[n, ih, iw, ic, oc, fh, fw, ph, pw]`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, [usize; 9], Precision, &TunedEntry)> {
        self.entries
            .iter()
            .map(|((fp, shape, prec), entry)| (fp.as_str(), *shape, *prec, entry))
    }

    /// Render the database as a [`TUNE_DB_SCHEMA`] JSON document.
    pub fn to_document(&self) -> String {
        // Group by fingerprint, preserving the BTreeMap's sorted order.
        let mut devices: Vec<(String, Vec<Json>)> = Vec::new();
        for ((fp, shape, prec), entry) in &self.entries {
            let rendered = Json::obj(vec![
                (
                    "shape",
                    Json::Arr(shape.iter().map(|&d| Json::Int(d as i64)).collect()),
                ),
                ("precision", Json::str(prec.name())),
                ("algo", Json::str(entry.algo.name())),
                ("predicted_s", Json::Num(entry.predicted_s)),
                (
                    "measured_s",
                    entry.measured_s.map(Json::Num).unwrap_or(Json::Null),
                ),
                ("trials", Json::Int(entry.trials as i64)),
            ]);
            match devices.last_mut() {
                Some((last_fp, list)) if last_fp == fp => list.push(rendered),
                _ => devices.push((fp.clone(), vec![rendered])),
            }
        }
        Json::obj(vec![
            ("schema", Json::str(TUNE_DB_SCHEMA)),
            (
                "devices",
                Json::Arr(
                    devices
                        .into_iter()
                        .map(|(fp, entries)| {
                            Json::obj(vec![
                                ("fingerprint", Json::str(&fp)),
                                ("entries", Json::Arr(entries)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_document()
    }

    /// Parse a rendered document. `path` is used only for the warning.
    pub fn parse(text: &str, path: &str) -> Result<TuneDb, TuneDbWarning> {
        let malformed = |detail: &str| TuneDbWarning::Malformed {
            path: path.to_string(),
            detail: detail.to_string(),
        };
        // A time is finite and non-negative: an infinity would be saved
        // as `null`, which the next load refuses, and no run takes
        // negative time.
        let seconds = |v: &Json, field: &str| {
            v.as_f64()
                .filter(|s| s.is_finite() && *s >= 0.0)
                .ok_or_else(|| malformed(&format!("`{field}` is not a finite non-negative number")))
        };
        let doc = Json::parse(text).map_err(|error| TuneDbWarning::Parse {
            path: path.to_string(),
            error,
        })?;
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != TUNE_DB_SCHEMA {
            return Err(TuneDbWarning::SchemaMismatch {
                path: path.to_string(),
                found: schema.to_string(),
            });
        }
        let mut db = TuneDb::new();
        let devices = doc
            .get("devices")
            .and_then(Json::items)
            .ok_or_else(|| malformed("missing `devices` array"))?;
        for dev in devices {
            let fp = dev
                .get("fingerprint")
                .and_then(Json::as_str)
                .ok_or_else(|| malformed("device without `fingerprint`"))?;
            let entries = dev
                .get("entries")
                .and_then(Json::items)
                .ok_or_else(|| malformed("device without `entries` array"))?;
            for e in entries {
                let shape_arr = e
                    .get("shape")
                    .and_then(Json::items)
                    .ok_or_else(|| malformed("entry without `shape`"))?;
                if shape_arr.len() != 9 {
                    return Err(malformed("`shape` is not 9 dims"));
                }
                let mut shape = [0usize; 9];
                for (slot, dim) in shape.iter_mut().zip(shape_arr) {
                    let v = dim.as_f64().ok_or_else(|| malformed("non-numeric dim"))?;
                    // Dims render as i64: a larger one would come back negative.
                    if v < 0.0 || v.fract() != 0.0 || v >= i64::MAX as f64 {
                        return Err(malformed("dim is not an integer in 0..2^63"));
                    }
                    *slot = v as usize;
                }
                let prec = e
                    .get("precision")
                    .and_then(Json::as_str)
                    .and_then(Precision::parse)
                    .ok_or_else(|| malformed("bad `precision` tag"))?;
                let algo = e
                    .get("algo")
                    .and_then(Json::as_str)
                    .and_then(Algorithm::parse)
                    .ok_or_else(|| malformed("unknown `algo`"))?;
                let predicted_s = seconds(
                    e.get("predicted_s")
                        .ok_or_else(|| malformed("missing `predicted_s`"))?,
                    "predicted_s",
                )?;
                let measured_s = match e.get("measured_s") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(seconds(v, "measured_s")?),
                };
                let trials = match e.get("trials") {
                    None => 0,
                    Some(v) => v
                        .as_f64()
                        .filter(|t| t.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(t))
                        .ok_or_else(|| malformed("`trials` is not an integer in 0..=u32::MAX"))?
                        as u32,
                };
                db.entries.insert(
                    (fp.to_string(), shape, prec),
                    TunedEntry {
                        algo,
                        predicted_s,
                        measured_s,
                        trials,
                    },
                );
            }
        }
        Ok(db)
    }

    /// Load from disk. A missing file is an empty database (cold start,
    /// not a warning); a zero-byte (or whitespace-only) file is a
    /// dedicated [`TuneDbWarning::Empty`] — a crash between `create` and
    /// the first write, distinct from a torn document; anything else
    /// unreadable is a typed warning and the caller proceeds with pure
    /// cost-model dispatch.
    pub fn load(path: &Path) -> Result<TuneDb, TuneDbWarning> {
        let shown = path.display().to_string();
        match std::fs::read_to_string(path) {
            Ok(text) if text.trim().is_empty() => {
                Err(TuneDbWarning::Empty { path: shown })
            }
            Ok(text) => TuneDb::parse(&text, &shown),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(TuneDb::new()),
            Err(e) => Err(TuneDbWarning::Io {
                path: shown,
                error: e.to_string(),
            }),
        }
    }

    /// Persist atomically: render, write to a sibling temp file, rename
    /// over the target. Readers therefore see either the old document or
    /// the new one, never a torn half-write (the chaos harness simulates
    /// the torn case by truncating the rendered document — see
    /// `Site::TuneDbTorn`).
    pub fn save(&self, path: &Path) -> Result<(), TuneDbWarning> {
        let shown = path.display().to_string();
        let io_warn = |e: std::io::Error| TuneDbWarning::Io {
            path: shown.clone(),
            error: e.to_string(),
        };
        #[allow(unused_mut)]
        let mut doc = self.to_document();
        #[cfg(feature = "faults")]
        if crate::faults::fire_if_armed(crate::faults::Site::TuneDbTorn) {
            // Simulate a crash mid-write: half a document, no closing brace.
            doc.truncate(doc.len() / 2);
        }
        #[cfg(feature = "faults")]
        if crate::faults::fire_if_armed(crate::faults::Site::TuneDbEmpty) {
            // Simulate a crash between create and write: zero bytes.
            doc.clear();
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, doc).map_err(io_warn)?;
        std::fs::rename(&tmp, path).map_err(io_warn)
    }
}

// ---------------------------------------------------------------------------
// The tuner: per-key store + database + model
// ---------------------------------------------------------------------------

/// Tuner configuration.
#[derive(Clone, Copy, Debug)]
pub struct TunerConfig {
    /// Capacity of the per-key store: how many keys keep their ranking,
    /// choice and WinRS plan in memory before the least recently used one
    /// is evicted.
    pub capacity: usize,
}

impl Default for TunerConfig {
    fn default() -> TunerConfig {
        TunerConfig {
            capacity: DEFAULT_PLAN_CACHE_CAPACITY,
        }
    }
}

/// Where a dispatch decision came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChoiceSource {
    /// Cost model argmin, no measurements involved.
    Model,
    /// An entry in the persistent tuning database.
    Database,
}

impl ChoiceSource {
    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            ChoiceSource::Model => "model",
            ChoiceSource::Database => "db",
        }
    }
}

impl fmt::Display for ChoiceSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-decision observability, surfaced on
/// [`crate::ExecutionReport::tuner`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TunerStats {
    /// Where the choice came from.
    pub source: ChoiceSource,
    /// Modelled time of the chosen algorithm, seconds.
    pub predicted_s: f64,
    /// The database entry's mean measured time, when it has one.
    pub measured_s: Option<f64>,
}

/// Cumulative tuner counters (process-lifetime, monotone).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TunerCounters {
    /// Total [`Tuner::decide`] calls.
    pub decisions: u64,
    /// Keys whose decision came from the persistent database.
    pub db_hits: u64,
    /// Keys the database did not know (decided by the model).
    pub db_misses: u64,
    /// Per-key store LRU evictions.
    pub evictions: u64,
}

/// The verdict of one [`Tuner::decide`] call.
#[derive(Clone, Debug)]
pub struct TunerDecision {
    /// The algorithm to run now.
    pub chosen: Algorithm,
    /// The full cost-model ranking (ascending time) — the degradation
    /// ladder and the policy filter both derive from this list.
    pub ranked: Vec<RankedCandidate>,
    /// Why WinRS is absent from `ranked`, when it is.
    pub winrs_rejection: Option<WinrsError>,
    /// Observability for the execution report.
    pub stats: TunerStats,
}

impl TunerDecision {
    /// Modelled time of `algo` in this ranking, if present.
    pub fn predicted_for(&self, algo: Algorithm) -> Option<f64> {
        self.ranked
            .iter()
            .find(|c| c.algo == algo)
            .map(|c| c.predicted_s)
    }

    /// The ranked substitutes that are safe under resource pressure — the
    /// degradation ladder. FFT is excluded (its workspace appetite is the
    /// opposite of what a degraded execution wants); direct convolution is
    /// always present and always last, so the ladder cannot be empty and
    /// delivery is guaranteed.
    pub fn degradation_ladder(&self) -> Vec<Algorithm> {
        let mut ladder: Vec<Algorithm> = self
            .ranked
            .iter()
            .map(|c| c.algo)
            .filter(|a| matches!(a, Algorithm::GemmBfc | Algorithm::Direct))
            .collect();
        // Rank order already puts the faster substitute first; make the
        // guaranteed rung terminal even if the model ranked it faster.
        if let Some(pos) = ladder.iter().position(|a| *a == Algorithm::Direct) {
            ladder.truncate(pos + 1);
        } else {
            ladder.push(Algorithm::Direct);
        }
        ladder
    }
}

/// Store key: shape + precision + device identity (`DeviceSpec::name` is
/// `'static`).
type DecisionKey = (ShapeKey, Precision, &'static str);

fn decision_key(conv: &ConvShape, device: &DeviceSpec, precision: Precision) -> DecisionKey {
    (shape_key(conv), precision, device.name)
}

/// One key's entry in the per-key store.
struct DecisionState {
    ranked: Vec<RankedCandidate>,
    /// The plan the ranking built, or why WinRS cannot run the key.
    winrs: Result<Arc<WinRsPlan>, WinrsError>,
    /// Whether [`Tuner::plan`] has handed the plan out yet: the first
    /// fetch counts as the plan-cache miss, later ones as hits.
    plan_fetched: bool,
    chosen: Algorithm,
    stats: TunerStats,
    last_used: u64,
}

/// The autotuner: one instance serves any number of devices and shapes.
///
/// Thread-safety is the caller's concern ([`crate::WorkspacePool`] wraps
/// it in a `Mutex`); the tuner itself is plain single-threaded state.
pub struct Tuner {
    cfg: TunerConfig,
    /// The per-key store: at most `cfg.capacity` entries, oldest first,
    /// evicting the least recently used. At this size a linear scan costs
    /// no more than hashing, and dropping the store frees its plans oldest
    /// first: freed in a hash map's random order, the newest plans' small
    /// chunks stayed cached at the top of the allocator's heap and kept a
    /// dropped pool's memory resident (up to 19 MiB on the benchmark's
    /// `fig10_fp32` workload). It is allocated at its capacity up front:
    /// growing it while keys arrive reallocated it into whatever free
    /// chunk fit, which could be the hole a large `∇W` had just left, and
    /// the next `∇W` of that size then grew the heap (the same 19 MiB).
    decisions: Vec<(DecisionKey, DecisionState)>,
    tick: u64,
    /// Plan fetches through [`Tuner::plan`]: (hits, misses).
    plan_stats: (u64, u64),
    db: TuneDb,
    db_path: Option<PathBuf>,
    warning: Option<TuneDbWarning>,
    /// True while [`Tuner::warning_once`] has not yet delivered the
    /// standing warning — the dedupe bit that keeps per-lookup callers
    /// (the serve layer polls per request) from re-emitting it.
    warning_fresh: bool,
    counters: TunerCounters,
}

impl Tuner {
    /// A tuner with an empty (memory-only) database.
    pub fn new(cfg: TunerConfig) -> Tuner {
        let capacity = cfg.capacity.max(1);
        Tuner {
            cfg: TunerConfig { capacity },
            decisions: Vec::with_capacity(capacity),
            tick: 0,
            plan_stats: (0, 0),
            db: TuneDb::new(),
            db_path: None,
            warning: None,
            warning_fresh: false,
            counters: TunerCounters::default(),
        }
    }

    /// Attach a persistent database file: load it now (recording a
    /// [`TuneDbWarning`] instead of failing on corruption) and make it the
    /// target of [`Tuner::save`]. Returns the load warning, if any.
    /// In-memory decision state is cleared so database entries take effect
    /// immediately.
    pub fn attach_db(&mut self, path: &Path) -> Option<TuneDbWarning> {
        self.db_path = Some(path.to_path_buf());
        self.decisions.clear();
        match TuneDb::load(path) {
            Ok(db) => {
                self.db = db;
                self.warning = None;
                self.warning_fresh = false;
                None
            }
            Err(w) => {
                self.db = TuneDb::new();
                self.warning = Some(w.clone());
                self.warning_fresh = true;
                Some(w)
            }
        }
    }

    /// The load/save warning currently standing, if any. A peek: repeated
    /// calls keep returning the same warning (use
    /// [`Tuner::warning_once`] for emit-once semantics).
    pub fn warning(&self) -> Option<&TuneDbWarning> {
        self.warning.as_ref()
    }

    /// The standing warning, delivered at most once per occurrence: the
    /// first call after a load/save recorded a warning returns it, later
    /// calls return `None` until a *new* warning is recorded. Per-lookup
    /// callers (a serving loop polling between requests) use this so one
    /// empty or torn database file logs one line, not one per request.
    pub fn warning_once(&mut self) -> Option<TuneDbWarning> {
        if self.warning_fresh {
            self.warning_fresh = false;
            self.warning.clone()
        } else {
            None
        }
    }

    /// Cumulative counters.
    pub fn counters(&self) -> TunerCounters {
        self.counters
    }

    /// The in-memory database view.
    pub fn db(&self) -> &TuneDb {
        &self.db
    }

    /// Mutable database access (`winrs tune` stores its model and measured
    /// decisions through this).
    pub fn db_mut(&mut self) -> &mut TuneDb {
        &mut self.db
    }

    /// Current configuration.
    pub fn config(&self) -> TunerConfig {
        self.cfg
    }

    /// Persist the database to the attached path (no-op without one).
    pub fn save(&mut self) -> Result<(), TuneDbWarning> {
        let Some(path) = self.db_path.clone() else {
            return Ok(());
        };
        match self.db.save(&path) {
            Ok(()) => {
                // A successful save rewrites the full document, repairing
                // whatever (empty or torn) file the warning described.
                self.warning = None;
                self.warning_fresh = false;
                Ok(())
            }
            Err(w) => {
                self.warning = Some(w.clone());
                self.warning_fresh = true;
                Err(w)
            }
        }
    }

    /// Decide which algorithm to run for one execution of
    /// `(conv, precision)` on `device`: the store entry's choice, which a
    /// cold key takes from the database, else from the model's ranking.
    pub fn decide(
        &mut self,
        conv: &ConvShape,
        device: &DeviceSpec,
        precision: Precision,
    ) -> TunerDecision {
        self.counters.decisions += 1;
        let st = self.entry(conv, device, precision);
        TunerDecision {
            chosen: st.chosen,
            ranked: st.ranked.clone(),
            winrs_rejection: st.winrs.as_ref().err().cloned(),
            stats: st.stats,
        }
    }

    /// Fetch the WinRS plan for `(conv, precision)` on `device` from the
    /// per-key store. A cold key is ranked first, which builds the plan, so
    /// every key is planned once. The first fetch of an entry counts as a
    /// plan-cache miss and later fetches as hits; a key outside the WinRS
    /// envelope returns its rejection. The `Arc` stays valid after the
    /// entry is evicted.
    pub(crate) fn plan(
        &mut self,
        conv: &ConvShape,
        device: &DeviceSpec,
        precision: Precision,
    ) -> Result<Arc<WinRsPlan>, WinrsError> {
        let st = self.entry(conv, device, precision);
        let hit = std::mem::replace(&mut st.plan_fetched, true);
        let plan = st.winrs.clone();
        if hit {
            self.plan_stats.0 += 1;
        } else {
            self.plan_stats.1 += 1;
        }
        plan
    }

    /// Cumulative `(hits, misses)` of [`Tuner::plan`]. A re-fetch after
    /// eviction counts as a miss again.
    pub(crate) fn plan_stats(&self) -> (u64, u64) {
        self.plan_stats
    }

    /// Drop every in-memory entry (counters and the database are kept).
    pub(crate) fn clear(&mut self) {
        self.decisions.clear();
    }

    /// The store entry for a key, touched as most recently used. A cold
    /// key is ranked (building its plan) and seeded from the database;
    /// the least recently used entry is evicted first when the store is
    /// full, so the new entry is never the victim.
    fn entry(
        &mut self,
        conv: &ConvShape,
        device: &DeviceSpec,
        precision: Precision,
    ) -> &mut DecisionState {
        self.tick += 1;
        let key = decision_key(conv, device, precision);
        let i = match self.decisions.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                while self.decisions.len() >= self.cfg.capacity {
                    let victim =
                        (0..self.decisions.len()).min_by_key(|&i| self.decisions[i].1.last_used);
                    let Some(victim) = victim else { break };
                    self.decisions.remove(victim);
                    self.counters.evictions += 1;
                }
                let (ranked, winrs) = rank_with_plan(conv, device, precision);
                let db_entry = self
                    .db
                    .get(&device_key(device), conv, precision)
                    // A stored winner the current ranking does not even list
                    // (e.g. a stale FFT entry for a now-FP16 key) is ignored.
                    .filter(|e| ranked.iter().any(|c| c.algo == e.algo));
                let (chosen, source, measured_s) = match db_entry {
                    Some(e) => {
                        self.counters.db_hits += 1;
                        (e.algo, ChoiceSource::Database, e.measured_s)
                    }
                    None => {
                        self.counters.db_misses += 1;
                        // The model's argmin; direct convolution is always
                        // ranked, so the list is never empty.
                        let best = ranked.first().map_or(Algorithm::Direct, |c| c.algo);
                        (best, ChoiceSource::Model, None)
                    }
                };
                let predicted_s = ranked
                    .iter()
                    .find(|c| c.algo == chosen)
                    .map_or(0.0, |c| c.predicted_s);
                self.decisions.push((
                    key,
                    DecisionState {
                        ranked,
                        winrs,
                        plan_fetched: false,
                        chosen,
                        stats: TunerStats {
                            source,
                            predicted_s,
                            measured_s,
                        },
                        last_used: self.tick,
                    },
                ));
                self.decisions.len() - 1
            }
        };
        let st = &mut self.decisions[i].1;
        st.last_used = self.tick;
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use winrs_gpu_sim::RTX_4090;

    fn small() -> ConvShape {
        ConvShape::square(2, 16, 4, 4, 3)
    }

    /// The SIMD-qualified device key wraps the raw fingerprint plus the
    /// host's *detected* (never forced) micro-kernel width, so a database
    /// written on AVX-512 hardware is never replayed onto a scalar host.
    #[test]
    fn device_key_is_fingerprint_plus_detected_width() {
        let key = device_key(&RTX_4090);
        assert!(key.starts_with(&RTX_4090.fingerprint()));
        let expect = format!("|host-simd:{}", winrs_gemm::micro::detected_width().name());
        assert!(key.ends_with(&expect), "{key}");
    }

    /// A second key: tiny filter, tiny channels, large spatial extent.
    fn gemm_leaning() -> ConvShape {
        ConvShape::square(2, 32, 4, 4, 2)
    }

    #[test]
    fn ranking_is_sorted_and_nonempty() {
        for conv in [small(), gemm_leaning()] {
            for precision in [Precision::Fp32, Precision::Fp16] {
                let ranked = rank(&conv, &RTX_4090, precision);
                assert!(!ranked.is_empty());
                for w in ranked.windows(2) {
                    assert!(w[0].predicted_s <= w[1].predicted_s);
                }
                for c in &ranked {
                    assert!(
                        c.predicted_s.is_finite() && c.predicted_s > 0.0,
                        "{:?}: {}",
                        c.algo,
                        c.predicted_s
                    );
                }
            }
        }
    }

    #[test]
    fn winrs_support_comes_from_the_planner() {
        // f=2 has no FP16 kernel: the planner still refuses FP16, and the
        // ranking lists WinRS with the key's FP32-tile plan, the same Z as
        // an FP32 request's.
        let conv = gemm_leaning();
        let refusal = WinRsPlan::new(&conv, &RTX_4090, Precision::Fp16)
            .err()
            .expect("no FP16 kernel for f=2");
        assert!(matches!(
            refusal.violations(),
            [Violation::NoReducedPrecisionKernel { fw: 2, .. }]
        ));
        let (ranked, winrs) = rank_with_plan(&conv, &RTX_4090, Precision::Fp16);
        assert!(ranked.iter().any(|c| c.algo == Algorithm::WinRs));
        let plan = winrs.expect("FP32-tile plan");
        assert_eq!(plan.tile_mode(), TileMode::Fp32);
        let fp32 = WinRsPlan::new(&conv, &RTX_4090, Precision::Fp32).unwrap();
        assert_eq!(plan.z(), fp32.z());
        // f=3 has one: the plan is the planner's own FP16 plan.
        let (_, own) = rank_with_plan(&small(), &RTX_4090, Precision::Fp16);
        assert_eq!(own.expect("FP16 plan").tile_mode(), TileMode::Fp16);
        // An ill-formed shape: WinRS is absent with the rejection attached,
        // and the list still non-empty.
        let bad = ConvShape { n: 0, ..small() };
        let (ranked, winrs) = rank_with_plan(&bad, &RTX_4090, Precision::Fp16);
        assert!(ranked.iter().all(|c| c.algo != Algorithm::WinRs));
        assert!(matches!(winrs, Err(WinrsError::InvalidShape(_))));
        assert!(!ranked.is_empty());
        // FFT is FP32-only.
        assert!(ranked.iter().all(|c| c.algo != Algorithm::FftBfc));
    }

    /// Every width's row is complete and positive, the detected row is the
    /// width `device_key` names, and the model's name says so.
    #[test]
    fn host_constants_cover_every_width() {
        for width in SimdWidth::ALL {
            let c = HOST_CONSTANTS
                .iter()
                .find(|c| c.width == width)
                .expect("a row per width");
            let all = c.call_s.iter().chain(&c.flop_rate).chain([
                &c.winrs_fp16_rate,
                &c.winrs_bf16_rate,
                &c.byte_rate,
            ]);
            for v in all {
                assert!(v.is_finite() && *v > 0.0, "{width:?}: {v}");
            }
        }
        assert_eq!(HostConstants::detected().width, detected_width());
        assert_eq!(model_name(), format!("host ({})", detected_width().name()));
    }

    #[test]
    fn winrs_dominates_the_paper_shape() {
        let ranked = rank(&small(), &RTX_4090, Precision::Fp32);
        assert_eq!(ranked[0].algo, Algorithm::WinRs);
    }

    #[test]
    fn ladder_is_ranked_substitutes_ending_in_direct() {
        let mut t = Tuner::new(TunerConfig::default());
        let d = t.decide(&small(), &RTX_4090, Precision::Fp32);
        let ladder = d.degradation_ladder();
        assert_eq!(*ladder.last().expect("non-empty"), Algorithm::Direct);
        assert!(ladder.iter().all(|a| *a != Algorithm::FftBfc));
        assert!(ladder.iter().all(|a| *a != Algorithm::WinRs));
        // GEMM outranks direct on this shape, so it is the first rung.
        assert_eq!(ladder, vec![Algorithm::GemmBfc, Algorithm::Direct]);
    }

    #[test]
    fn decision_cache_respects_capacity() {
        let mut t = Tuner::new(TunerConfig { capacity: 2 });
        for res in [12usize, 14, 16, 18] {
            let conv = ConvShape::square(1, res, 2, 2, 3);
            t.decide(&conv, &RTX_4090, Precision::Fp32);
        }
        assert_eq!(t.counters().evictions, 2);
        assert_eq!(t.counters().decisions, 4);
    }

    #[test]
    fn store_keys_plans_by_shape_device_precision_with_lru_eviction() {
        use winrs_gpu_sim::RTX_3090;
        let t = Tuner::new(TunerConfig { capacity: 0 });
        assert_eq!(t.config().capacity, 1, "capacity is clamped to one");

        let mut t = Tuner::new(TunerConfig::default());
        let (a, b) = (small(), ConvShape::square(2, 16, 4, 4, 5));
        t.plan(&a, &RTX_4090, Precision::Fp32).unwrap();
        t.plan(&a, &RTX_4090, Precision::Fp32).unwrap(); // hit
        t.plan(&b, &RTX_4090, Precision::Fp32).unwrap(); // other shape
        t.plan(&a, &RTX_3090, Precision::Fp32).unwrap(); // other device
        t.plan(&a, &RTX_4090, Precision::Fp16).unwrap(); // other precision
        assert_eq!(t.plan_stats(), (1, 4));

        let mut t = Tuner::new(TunerConfig { capacity: 2 });
        let c = ConvShape::square(1, 14, 1, 1, 2);
        let plan_a = t.plan(&a, &RTX_4090, Precision::Fp32).unwrap();
        t.plan(&b, &RTX_4090, Precision::Fp32).unwrap();
        t.decide(&a, &RTX_4090, Precision::Fp32); // any lookup refreshes a
        t.plan(&c, &RTX_4090, Precision::Fp32).unwrap(); // evicts b
        assert_eq!(t.counters().evictions, 1);
        t.plan(&a, &RTX_4090, Precision::Fp32).unwrap();
        t.plan(&c, &RTX_4090, Precision::Fp32).unwrap();
        assert_eq!(t.plan_stats(), (2, 3), "a and c stayed resident");
        t.plan(&b, &RTX_4090, Precision::Fp32).unwrap(); // evicts a
        assert_eq!(t.plan_stats(), (2, 4), "the evicted key misses again");
        assert_eq!(t.counters().evictions, 2);
        // A fetched plan outlives its entry.
        let x = winrs_tensor::Tensor4::<f32>::random_uniform([2, 16, 16, 4], 3, 1.0);
        let dy = winrs_tensor::Tensor4::<f32>::random_uniform([2, 16, 16, 4], 4, 1.0);
        assert!(plan_a.execute_f32(&x, &dy).is_ok());
    }

    #[test]
    fn db_roundtrip_preserves_decisions() {
        let mut db = TuneDb::new();
        let fp = RTX_4090.fingerprint();
        db.insert(
            &fp,
            &small(),
            Precision::Fp32,
            TunedEntry {
                algo: Algorithm::WinRs,
                predicted_s: 1.25e-4,
                measured_s: Some(2.0e-4),
                trials: 3,
            },
        );
        db.insert(
            &fp,
            &gemm_leaning(),
            Precision::Fp16,
            TunedEntry {
                algo: Algorithm::GemmBfc,
                predicted_s: 3.0e-5,
                measured_s: None,
                trials: 0,
            },
        );
        let doc = db.to_document();
        assert!(doc.contains(TUNE_DB_SCHEMA));
        let back = TuneDb::parse(&doc, "mem").unwrap();
        assert_eq!(back.len(), 2);
        let e = back.get(&fp, &small(), Precision::Fp32).unwrap();
        assert_eq!(e.algo, Algorithm::WinRs);
        assert_eq!(e.measured_s, Some(2.0e-4));
        assert_eq!(e.trials, 3);
        let e = back.get(&fp, &gemm_leaning(), Precision::Fp16).unwrap();
        assert_eq!(e.algo, Algorithm::GemmBfc);
        assert_eq!(e.measured_s, None);
    }

    /// The rendered `winrs-tune-v1` document is persisted state: entries at
    /// every precision on two devices must render these bytes exactly, so
    /// the table's key order (fp32 < fp16 < bf16) can never reorder a file
    /// already on disk.
    #[test]
    fn document_bytes_are_stable_across_precisions_and_devices() {
        let e = |algo, predicted_s, measured_s, trials| TunedEntry {
            algo,
            predicted_s,
            measured_s,
            trials,
        };
        let (a, b) = (small(), gemm_leaning());
        let (dev_a, dev_b) = ("dev-a|host-simd:avx512", "dev-b|host-simd:avx2");
        let mut db = TuneDb::new();
        use Algorithm::{Direct, FftBfc, GemmBfc, WinRs};
        use Precision::{Bf16, Fp16, Fp32};
        // Inserted out of order: the document comes out sorted.
        for (fp, conv, precision, entry) in [
            (dev_b, &b, Bf16, e(GemmBfc, 3.0e-5, None, 0)),
            (dev_b, &a, Fp32, e(FftBfc, 2.5e-4, Some(2.75e-4), 2)),
            (dev_a, &a, Fp16, e(WinRs, 1.25e-4, Some(2.0e-4), 3)),
            (dev_a, &a, Bf16, e(Direct, 0.5, None, 0)),
            (dev_a, &a, Fp32, e(WinRs, 1.0e-4, None, 0)),
            (dev_b, &b, Fp16, e(Direct, 7.0e-3, Some(6.5e-3), 1)),
        ] {
            db.insert(fp, conv, precision, entry);
        }
        let golden = concat!(
            r#"{"schema":"winrs-tune-v1","devices":[{"fingerprint":"dev-a|host-simd:avx512","entries":[{"shape":[2,16,16,4,4,3,3,1,1],"precision":"fp32","algo":"winrs","predicted_s":0.0001,"measured_s":null,"trials":0},"#,
            r#"{"shape":[2,16,16,4,4,3,3,1,1],"precision":"fp16","algo":"winrs","predicted_s":0.000125,"measured_s":0.0002,"trials":3},"#,
            r#"{"shape":[2,16,16,4,4,3,3,1,1],"precision":"bf16","algo":"direct","predicted_s":0.5,"measured_s":null,"trials":0}]},"#,
            r#"{"fingerprint":"dev-b|host-simd:avx2","entries":[{"shape":[2,16,16,4,4,3,3,1,1],"precision":"fp32","algo":"fft-bfc","predicted_s":0.00025,"measured_s":0.000275,"trials":2},"#,
            r#"{"shape":[2,32,32,4,4,2,2,1,1],"precision":"fp16","algo":"direct","predicted_s":0.007,"measured_s":0.0065,"trials":1},"#,
            r#"{"shape":[2,32,32,4,4,2,2,1,1],"precision":"bf16","algo":"gemm-bfc","predicted_s":0.00003,"measured_s":null,"trials":0}]}]}"#,
            "\n",
        );
        assert_eq!(db.to_document(), golden);
        let reparsed = TuneDb::parse(golden, "golden").unwrap();
        assert_eq!(reparsed.to_document(), golden);
    }

    #[test]
    fn corrupt_documents_warn_and_never_panic() {
        // Torn file (truncated JSON).
        let doc = {
            let mut db = TuneDb::new();
            db.insert(
                &RTX_4090.fingerprint(),
                &small(),
                Precision::Fp32,
                TunedEntry {
                    algo: Algorithm::WinRs,
                    predicted_s: 1.0e-4,
                    measured_s: None,
                    trials: 0,
                },
            );
            db.to_document()
        };
        let torn = &doc[..doc.len() / 2];
        assert!(matches!(
            TuneDb::parse(torn, "t"),
            Err(TuneDbWarning::Parse { .. })
        ));
        // Wrong schema.
        assert!(matches!(
            TuneDb::parse("{\"schema\":\"winrs-other-v1\",\"devices\":[]}", "t"),
            Err(TuneDbWarning::SchemaMismatch { found, .. }) if found == "winrs-other-v1"
        ));
        // Right schema, broken body.
        let bad = format!("{{\"schema\":\"{TUNE_DB_SCHEMA}\",\"devices\":[{{}}]}}");
        assert!(matches!(
            TuneDb::parse(&bad, "t"),
            Err(TuneDbWarning::Malformed { .. })
        ));
        // Missing devices entirely.
        let none = format!("{{\"schema\":\"{TUNE_DB_SCHEMA}\"}}");
        assert!(matches!(
            TuneDb::parse(&none, "t"),
            Err(TuneDbWarning::Malformed { .. })
        ));
    }

    #[test]
    fn database_entry_overrides_the_model() {
        let conv = small();
        let mut t = Tuner::new(TunerConfig::default());
        let d = t.decide(&conv, &RTX_4090, Precision::Fp32);
        assert_eq!(
            (d.chosen, d.stats.source),
            (Algorithm::WinRs, ChoiceSource::Model)
        );
        assert_eq!(d.stats.measured_s, None);

        let mut t = Tuner::new(TunerConfig::default());
        t.db_mut().insert(
            &device_key(&RTX_4090),
            &conv,
            Precision::Fp32,
            TunedEntry {
                algo: Algorithm::GemmBfc,
                predicted_s: 1.0e-4,
                measured_s: Some(9.0e-5),
                trials: 3,
            },
        );
        for _ in 0..4 {
            let d = t.decide(&conv, &RTX_4090, Precision::Fp32);
            assert_eq!(d.chosen, Algorithm::GemmBfc);
            assert_eq!(d.stats.source, ChoiceSource::Database);
            assert_eq!(d.stats.measured_s, Some(9.0e-5));
            assert_eq!(
                d.stats.predicted_s,
                d.predicted_for(Algorithm::GemmBfc).unwrap()
            );
        }
        assert_eq!((t.counters().db_hits, t.counters().db_misses), (1, 0));
    }

    /// Every number the loader accepts renders back as the same number:
    /// a non-finite or negative time, a `trials` outside `u32` or a dim
    /// past `i64` is refused as `Malformed` naming the field instead of
    /// being read as something the next save cannot write back.
    #[test]
    fn unrenderable_numbers_are_refused_naming_the_field() {
        let doc = |predicted: &str, measured: &str, trials: &str| {
            format!(
                r#"{{"schema":"{TUNE_DB_SCHEMA}","devices":[{{"fingerprint":"d","entries":[{{"shape":[2,16,16,4,4,3,3,1,1],"precision":"fp32","algo":"winrs","predicted_s":{predicted},"measured_s":{measured},"trials":{trials}}}]}}]}}"#
            )
        };
        for (predicted, measured, trials, field) in [
            ("1e999", "null", "0", "predicted_s"),
            ("-1e999", "null", "0", "predicted_s"),
            ("-0.5", "null", "0", "predicted_s"),
            ("\"fast\"", "null", "0", "predicted_s"),
            ("0.001", "1e999", "1", "measured_s"),
            ("0.001", "-0.002", "1", "measured_s"),
            ("0.001", "true", "1", "measured_s"),
            ("0.001", "null", "-5", "trials"),
            ("0.001", "null", "1.5", "trials"),
            ("0.001", "null", "\"3\"", "trials"),
            ("0.001", "null", "4294967296", "trials"),
            ("0.001", "null", "1e999", "trials"),
        ] {
            let text = doc(predicted, measured, trials);
            match TuneDb::parse(&text, "t") {
                Err(TuneDbWarning::Malformed { detail, .. }) => {
                    assert!(detail.contains(&format!("`{field}`")), "{text}: {detail}")
                }
                other => panic!("{text}: expected Malformed naming {field}, got {other:?}"),
            }
        }
        let huge_dim = doc("0.001", "null", "0").replacen("[2,", "[1e30,", 1);
        assert!(matches!(
            TuneDb::parse(&huge_dim, "t"),
            Err(TuneDbWarning::Malformed { detail, .. }) if detail.contains("dim")
        ));
        // The edges that do render back are kept.
        let ok = TuneDb::parse(&doc("0", "0.00025", "4294967295"), "t").unwrap();
        let (_, _, _, e) = ok.iter().next().unwrap();
        assert_eq!(
            (e.predicted_s, e.measured_s, e.trials),
            (0.0, Some(2.5e-4), u32::MAX)
        );
    }

    #[test]
    fn load_save_load_gives_identical_bytes() {
        let path =
            std::env::temp_dir().join(format!("winrs-tune-roundtrip-{}.json", std::process::id()));
        let mut db = TuneDb::new();
        for (conv, measured_s, trials) in [(small(), Some(1.0e-300), 7), (gemm_leaning(), None, 0)]
        {
            db.insert(
                &device_key(&RTX_4090),
                &conv,
                Precision::Fp32,
                TunedEntry {
                    algo: Algorithm::Direct,
                    predicted_s: 1.0e300,
                    measured_s,
                    trials,
                },
            );
        }
        db.save(&path).unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        TuneDb::load(&path).unwrap().save(&path).unwrap();
        let second = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(first, second);
        assert_eq!(TuneDb::parse(&second, "t").unwrap().len(), 2);
    }
}
