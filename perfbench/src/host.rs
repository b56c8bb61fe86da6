//! The host record printed beside every result: which vCPU the run was
//! confined to, the SIMD width, the steal time the host took, and the
//! host speed index — an FMA loop and a STREAM-triad loop of the
//! benchmark's own, sampled in bursts between the workload's units.

use crate::stats;
use std::time::Instant;

/// `cpu_set_t` as glibc lays it out: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn get_affinity() -> Result<CpuSet, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the byte length
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc == 0 {
        Ok(set)
    } else {
        Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

fn set_affinity(set: &CpuSet) -> Result<(), String> {
    // SAFETY: `set` is a live buffer of exactly the byte length passed;
    // the kernel only reads it. pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

fn cpus_of(set: &CpuSet) -> Vec<usize> {
    (0..1024)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// The CPU set the process started with and the one vCPU it runs on.
pub struct Confinement {
    pub allowed: Vec<usize>,
    pub cpu: usize,
    original: CpuSet,
}

impl Confinement {
    /// Confine the calling thread — and every thread it spawns later — to
    /// the highest-numbered allowed vCPU. Call before any other thread
    /// exists, so the library's `available_parallelism()` reads 1.
    pub fn confine() -> Result<Confinement, String> {
        let original = get_affinity()?;
        let allowed = cpus_of(&original);
        let cpu = *allowed.last().ok_or("empty CPU affinity set")?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] |= 1 << (cpu % 64);
        set_affinity(&one)?;
        Ok(Confinement {
            allowed,
            cpu,
            original,
        })
    }

    /// Run `f` with the calling thread allowed on every CPU the process
    /// started with, then confine it again.
    pub fn widened<R>(&self, f: impl FnOnce() -> R) -> Result<R, String> {
        set_affinity(&self.original)?;
        let out = f();
        let mut one: CpuSet = [0; 16];
        one[self.cpu / 64] |= 1 << (self.cpu % 64);
        set_affinity(&one)?;
        Ok(out)
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time all threads of this process have had so far, seconds. The
/// kernel leaves out of it the time the host steals from the vCPU
/// (paravirtual steal accounting), the time other processes run on it,
/// and time spent waiting.
fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec with the C layout, and
    // the clock id is a valid Linux constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A started pair of clocks: wall time and process CPU time.
#[derive(Clone, Copy)]
pub struct Clocks {
    wall: Instant,
    cpu_s: f64,
}

impl Clocks {
    pub fn start() -> Clocks {
        Clocks {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// Clocks started when the process did: call first thing in `main`.
    pub fn process_start() -> Clocks {
        Clocks {
            wall: Instant::now(),
            cpu_s: 0.0,
        }
    }

    /// `(wall, cpu)` seconds since `start`.
    pub fn elapsed(&self) -> (f64, f64) {
        let cpu = process_cpu_s() - self.cpu_s;
        (self.wall.elapsed().as_secs_f64(), cpu)
    }
}

/// `(steal, total)` jiffies of one CPU's line in `/proc/stat`.
pub fn cpu_jiffies(cpu: usize) -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let tag = format!("cpu{cpu} ");
    let line = stat.lines().find(|l| l.starts_with(&tag))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = *fields.get(7)?;
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// A `/proc/self/status` field in kB, as MiB.
fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The rates the speed index is relative to: the host record's FMA and
/// triad readings on the 2-vCPU AVX-512 VM the bounds were set on, in its
/// fast stretches. On that host in a slow stretch both fell (to about 160
/// GFLOP/s and 10 GB/s) and the BFC loops ran at half speed.
const FMA_REF_GFLOPS: f64 = 250.0;
const TRIAD_REF_GBPS: f64 = 33.0;

/// FMA loop iterations per burst (about 1.5 ms at the reference rate).
const FMA_BURST_ITERS: usize = 1_000_000;

/// Elements per triad array: 3 × 32 MiB, past the L2 of any x86 core, so
/// the loop reads the shared cache and memory the workload competes for.
const TRIAD_LEN: usize = 8 << 20;

/// The host speed index: how fast this host runs the benchmark's own FMA
/// and triad loops against the reference rates, sampled in bursts between
/// the workload's units (never inside an op's clock). The index is
/// `(fma/FMA_REF)^(2/3) · (triad/TRIAD_REF)^(1/3)` over the bursts'
/// medians. The ops mix arithmetic with cache traffic: from a fast stretch
/// of the host to a slow one the FMA rate fell 1.6×, the triad 3.1×, and
/// the workloads' end-to-end metrics 1.6–2.3×. With these weights every
/// metric's slowdown times the index stayed within 0.84–1.20 there, and
/// within 0.78–1.04 over a second slow stretch; the FMA rate alone left up
/// to 1.5, the even mean 0.74–1.07.
pub struct Speed {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    fma: Vec<f64>,
    triad: Vec<f64>,
    /// Resident MiB the triad arrays add; `None` if `/proc/self/status`
    /// cannot be read.
    resident_mib: Option<f64>,
}

impl Speed {
    /// Allocate and touch the triad arrays. Call at process start: fresh
    /// from the kernel, they add exactly their size to the resident set,
    /// whereas later the allocator may place them in freed memory that is
    /// already resident (which moved `fig10_fp32`'s peak by up to 19 MiB).
    pub fn new() -> Speed {
        let rss0 = status_mib("VmRSS:");
        let (a, b, c) = (
            vec![0.5; TRIAD_LEN],
            vec![1.0; TRIAD_LEN],
            vec![2.0; TRIAD_LEN],
        );
        let resident_mib = rss0.zip(status_mib("VmRSS:")).map(|(r0, r1)| r1 - r0);
        Speed {
            a,
            b,
            c,
            fma: Vec::new(),
            triad: Vec::new(),
            resident_mib,
        }
    }

    /// One burst: an FMA loop, and two triad passes of which the second is
    /// timed, so the reading does not depend on what the workload left in
    /// the caches.
    pub fn burst(&mut self) {
        let t = Instant::now();
        let flops = fma_loop(FMA_BURST_ITERS);
        self.fma.push(flops / t.elapsed().as_secs_f64() / 1e9);
        self.triad_pass(0.5);
        let t = Instant::now();
        self.triad_pass(1.5);
        self.triad
            .push((TRIAD_LEN * 12) as f64 / t.elapsed().as_secs_f64() / 1e9);
    }

    fn triad_pass(&mut self, s: f32) {
        for ((x, y), z) in self.a.iter_mut().zip(&self.b).zip(&self.c) {
            *x = y + s * z;
        }
        std::hint::black_box(&mut self.a);
    }

    pub fn bursts(&self) -> usize {
        self.fma.len()
    }

    /// Median FMA rate over the bursts, GFLOP/s.
    pub fn fma_gflops(&self) -> f64 {
        stats::median(&self.fma)
    }

    /// Highest FMA rate over the bursts, GFLOP/s.
    pub fn fma_peak_gflops(&self) -> f64 {
        self.fma.iter().copied().fold(0.0, f64::max)
    }

    /// Median triad bandwidth over the bursts, GB/s (12 bytes an element).
    pub fn triad_gbps(&self) -> f64 {
        stats::median(&self.triad)
    }

    /// The speed index (1 on the reference host).
    pub fn index(&self) -> f64 {
        (self.fma_gflops() / FMA_REF_GFLOPS).powf(2.0 / 3.0)
            * (self.triad_gbps() / TRIAD_REF_GBPS).powf(1.0 / 3.0)
    }

    /// Peak resident set (`VmHWM`) of the process with the triad arrays
    /// left out, MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        Some(status_mib("VmHWM:")? - self.resident_mib?)
    }
}

fn fma_loop(iters: usize) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: avx512f was detected on this CPU just above.
            return unsafe { fma_avx512(iters) };
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: avx2 and fma were detected on this CPU just above.
            return unsafe { fma_avx2(iters) };
        }
    }
    fma_scalar(iters)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fma_avx512(iters: usize) -> f64 {
    use std::arch::x86_64::*;
    let a = _mm512_set1_ps(0.999_999);
    let b = _mm512_set1_ps(1e-7);
    let mut acc = [_mm512_set1_ps(1.0); 12];
    for _ in 0..iters {
        for r in acc.iter_mut() {
            *r = _mm512_fmadd_ps(*r, a, b);
        }
    }
    let mut sum = _mm512_setzero_ps();
    for r in acc {
        sum = _mm512_add_ps(sum, r);
    }
    std::hint::black_box(_mm512_reduce_add_ps(sum));
    (iters * 12 * 16 * 2) as f64
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_avx2(iters: usize) -> f64 {
    use std::arch::x86_64::*;
    let a = _mm256_set1_ps(0.999_999);
    let b = _mm256_set1_ps(1e-7);
    let mut acc = [_mm256_set1_ps(1.0); 12];
    for _ in 0..iters {
        for r in acc.iter_mut() {
            *r = _mm256_fmadd_ps(*r, a, b);
        }
    }
    let mut sum = _mm256_setzero_ps();
    for r in acc {
        sum = _mm256_add_ps(sum, r);
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
    std::hint::black_box(lanes);
    (iters * 12 * 8 * 2) as f64
}

fn fma_scalar(iters: usize) -> f64 {
    let mut acc = [1.0f32; 16];
    for _ in 0..iters {
        for r in acc.iter_mut() {
            *r = r.mul_add(0.999_999, 1e-7);
        }
    }
    std::hint::black_box(acc);
    (iters * 16 * 2) as f64
}

/// One line of host facts for the run log.
pub struct HostRecord {
    pub cpu: usize,
    pub nproc: usize,
    pub simd: &'static str,
    pub features: &'static str,
    pub fma_gflops: f64,
    pub triad_gbps: f64,
    pub bursts: usize,
    pub index: f64,
    pub steal_pct: f64,
}

impl HostRecord {
    pub fn line(&self) -> String {
        format!(
            "host: cpu={} nproc={} simd={} features={} fma={:.1}GFLOP/s \
             triad={:.1}GB/s bursts={} speed_index={:.3} steal={:.2}%",
            self.cpu,
            self.nproc,
            self.simd,
            self.features,
            self.fma_gflops,
            self.triad_gbps,
            self.bursts,
            self.index,
            self.steal_pct
        )
    }
}

/// The build's feature set, as compiled.
pub fn build_features() -> &'static str {
    if cfg!(feature = "simd") {
        "simd"
    } else {
        "default"
    }
}

/// Steal time as a percentage of all jiffies between two readings.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}
