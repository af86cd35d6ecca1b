//! Deterministic, seeded fault-injection harness.
//!
//! Robustness work needs *reproducible* failures: this module corrupts
//! tensors and control flow in ways the pipeline's sentinels must catch,
//! with every corruption derived from a [`FaultPlan`] seed through the
//! in-repo `xoshiro256++` generator — the same fault mix replays
//! bit-identically across runs and `SA_THREADS` settings.
//!
//! Data faults are pure: [`FaultPlan::corrupt_matrix`] and
//! [`FaultPlan::corrupt_json`] transform values a test then feeds to the
//! pipeline. Control faults are *installed*: [`install`] binds a plan to
//! the calling thread until its guard drops, and the hooks the pipeline
//! consults ([`should_panic`], [`tamper_scores`], [`should_fail_alloc`],
//! [`should_crash`], [`tamper_kv`]) read the innermost plan of the thread
//! they run on. A plan is ambient state under the pool's one rule: it is
//! visible to the thread that installed it and to the helpers of the
//! fan-outs that thread issues, for the length of their share, and to
//! nobody else (`pool.rs`, "What a fan-out carries"). So a storm plan
//! installed around a serving run reaches every request executor, a
//! request's own plan — pushed above it on the executor's thread —
//! shadows it there, and two tests running side by side never see each
//! other's faults.
//!
//! The `SA_FAULT` environment variable selects a plan by name for CI
//! (`FaultPlan::from_env`): `smoke` is the canonical all-faults plan used
//! by `scripts/verify.sh`; a comma-separated spec such as
//! `seed=7,nan=2,inf=3,zero_rows=1,zero_mass,panic=sparse_flash_attention`
//! builds a custom plan.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::xoshiro::{splitmix64, Xoshiro256PlusPlus};
use crate::Matrix;

/// A deterministic recipe of faults to inject.
///
/// The default plan injects nothing; builder methods switch individual
/// fault classes on. All randomness (which columns/rows/entries are hit)
/// derives from `seed` plus the per-call `salt`, never from global state.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Base seed for all pseudo-random corruption choices.
    pub seed: u64,
    /// Number of whole matrix columns overwritten with NaN.
    pub nan_stripes: usize,
    /// Number of individual entries overwritten with `±inf`.
    pub inf_logits: usize,
    /// Number of whole matrix rows overwritten with zeros.
    pub zero_rows: usize,
    /// Pool call sites (see `pool::try_parallel_for`) whose workers are
    /// forced to panic.
    pub panic_sites: Vec<String>,
    /// Replace stage-1 sampled scores with all zeros (degenerate mass).
    pub zero_mass: bool,
    /// Truncate serialized JSON to this many bytes.
    pub truncate_json: Option<usize>,
    /// Simulated allocation failure: one in `alloc_fail` reservation
    /// salts fails (0 = never). Consulted by the serving layer's memory
    /// ledger through [`should_fail_alloc`].
    pub alloc_fail: usize,
    /// Number of single-bit flips applied to staged checkpoint KV bytes
    /// at restore time ([`tamper_kv`]); the restore-side checksum must
    /// catch every flip as a typed `CorruptCheckpoint`.
    pub kv_flips: usize,
    /// Named serving-loop sites whose attempts crash with a typed
    /// worker-panic error (no real unwinding — the serving layer raises
    /// the error itself when [`should_crash`] trips).
    pub crash_sites: Vec<String>,
    /// One in `crash_period` salts crashes at a matching site (0 =
    /// never).
    pub crash_period: usize,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new(0)
    }
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            nan_stripes: 0,
            inf_logits: 0,
            zero_rows: 0,
            panic_sites: Vec::new(),
            zero_mass: false,
            truncate_json: None,
            alloc_fail: 0,
            kv_flips: 0,
            crash_sites: Vec::new(),
            crash_period: 0,
        }
    }

    /// The canonical all-faults plan driven by `SA_FAULT=smoke`.
    pub fn smoke(seed: u64) -> Self {
        FaultPlan::new(seed)
            .nan_stripes(1)
            .inf_logits(2)
            .zero_rows(1)
            .zero_mass()
            .worker_panic("sparse_flash_attention")
            .truncate_json(24)
    }

    /// Corrupt `n` whole columns with NaN.
    pub fn nan_stripes(mut self, n: usize) -> Self {
        self.nan_stripes = n;
        self
    }

    /// Corrupt `n` individual entries with `±inf`.
    pub fn inf_logits(mut self, n: usize) -> Self {
        self.inf_logits = n;
        self
    }

    /// Zero `n` whole rows.
    pub fn zero_rows(mut self, n: usize) -> Self {
        self.zero_rows = n;
        self
    }

    /// Force workers at the named pool call site to panic.
    pub fn worker_panic(mut self, site: &str) -> Self {
        self.panic_sites.push(site.to_string());
        self
    }

    /// Replace stage-1 sampled scores with zeros.
    pub fn zero_mass(mut self) -> Self {
        self.zero_mass = true;
        self
    }

    /// Truncate serialized JSON to `bytes` bytes.
    pub fn truncate_json(mut self, bytes: usize) -> Self {
        self.truncate_json = Some(bytes);
        self
    }

    /// Fail one in `period` simulated allocations (0 disables).
    pub fn alloc_failures(mut self, period: usize) -> Self {
        self.alloc_fail = period;
        self
    }

    /// Flip `n` single bits in staged checkpoint KV bytes at restore.
    pub fn kv_bit_flips(mut self, n: usize) -> Self {
        self.kv_flips = n;
        self
    }

    /// Crash one in `period` attempts at the named serving-loop site
    /// with a typed worker-panic error.
    pub fn serve_crash(mut self, site: &str, period: usize) -> Self {
        self.crash_sites.push(site.to_string());
        self.crash_period = period.max(1);
        self
    }

    /// True if the plan injects at least one fault class.
    pub fn is_active(&self) -> bool {
        self.nan_stripes > 0
            || self.inf_logits > 0
            || self.zero_rows > 0
            || !self.panic_sites.is_empty()
            || self.zero_mass
            || self.truncate_json.is_some()
            || self.alloc_fail > 0
            || self.kv_flips > 0
            || !self.crash_sites.is_empty()
    }

    /// Parses `SA_FAULT`. Returns `None` when unset, empty, or `off`.
    ///
    /// Accepted values: `smoke`, or a comma-separated spec of
    /// `seed=N`, `nan=N`, `inf=N`, `zero_rows=N`, `zero_mass`,
    /// `panic=SITE`, `truncate=N`, `alloc=N`, `kv_flips=N`,
    /// `crash=SITE`, `crash_period=N`. Unknown tokens are reported on
    /// stderr and skipped.
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("SA_FAULT").ok()?;
        Self::parse(&raw)
    }

    /// Parses an `SA_FAULT`-style spec string (see [`FaultPlan::from_env`]).
    pub fn parse(raw: &str) -> Option<Self> {
        let raw = raw.trim();
        if raw.is_empty() || raw == "off" || raw == "0" {
            return None;
        }
        if raw == "smoke" {
            return Some(FaultPlan::smoke(0xFA01));
        }
        let mut plan = FaultPlan::new(0xFA01);
        for token in raw.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            let (key, value) = match token.split_once('=') {
                Some((k, v)) => (k.trim(), Some(v.trim())),
                None => (token, None),
            };
            let num = |v: Option<&str>| v.and_then(|s| s.parse::<u64>().ok());
            match (key, value) {
                ("seed", v) => match num(v) {
                    Some(n) => plan.seed = n,
                    None => eprintln!("warning: SA_FAULT: bad seed in {token:?}"),
                },
                ("nan", v) => plan.nan_stripes = num(v).unwrap_or(1) as usize,
                ("inf", v) => plan.inf_logits = num(v).unwrap_or(1) as usize,
                ("zero_rows", v) => plan.zero_rows = num(v).unwrap_or(1) as usize,
                ("zero_mass", _) => plan.zero_mass = true,
                ("panic", Some(site)) => plan.panic_sites.push(site.to_string()),
                ("truncate", v) => plan.truncate_json = Some(num(v).unwrap_or(16) as usize),
                ("alloc", v) => plan.alloc_fail = num(v).unwrap_or(4) as usize,
                ("kv_flips", v) => plan.kv_flips = num(v).unwrap_or(1) as usize,
                ("crash", Some(site)) => {
                    plan.crash_sites.push(site.to_string());
                    plan.crash_period = plan.crash_period.max(1);
                }
                ("crash_period", v) => plan.crash_period = num(v).unwrap_or(4) as usize,
                _ => eprintln!("warning: SA_FAULT: ignoring unknown token {token:?}"),
            }
        }
        Some(plan)
    }

    /// Seeds a generator from the plan seed and a call-site salt, so the
    /// same plan hits the same coordinates for a given salt regardless of
    /// call order.
    fn rng(&self, salt: u64) -> Xoshiro256PlusPlus {
        let mut s = self.seed;
        let a = splitmix64(&mut s);
        Xoshiro256PlusPlus::from_seed(a ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Applies the data-fault classes (NaN stripes, `±inf` entries, zero
    /// rows) to `m` in place. `salt` distinguishes multiple targets
    /// corrupted under one plan (e.g. Q vs K vs V). Deterministic in
    /// `(plan, salt, shape)`. Empty matrices are left untouched.
    pub fn corrupt_matrix(&self, m: &mut Matrix, salt: u64) {
        let (rows, cols) = m.shape();
        if rows == 0 || cols == 0 {
            return;
        }
        let mut rng = self.rng(salt);
        for _ in 0..self.nan_stripes {
            let j = rng.next_below(cols as u64) as usize;
            for i in 0..rows {
                m.set(i, j, f32::NAN);
            }
        }
        for t in 0..self.inf_logits {
            let i = rng.next_below(rows as u64) as usize;
            let j = rng.next_below(cols as u64) as usize;
            let sign = if t % 2 == 0 { 1.0 } else { -1.0 };
            m.set(i, j, sign * f32::INFINITY);
        }
        for _ in 0..self.zero_rows {
            let i = rng.next_below(rows as u64) as usize;
            m.row_mut(i).fill(0.0);
        }
    }

    /// True when this plan fails the simulated allocation identified by
    /// `salt` (one in [`alloc_fail`](Self::alloc_fail) salts trips).
    /// Deterministic in `(plan, salt)` and independent of call order, so
    /// a serial planner consulting it stays thread-count invariant.
    pub fn fail_alloc(&self, salt: u64) -> bool {
        self.alloc_fail > 0 && self.rng(salt ^ ALLOC_SALT).next_below(self.alloc_fail as u64) == 0
    }

    /// True when this plan crashes the serving-loop attempt identified
    /// by `(site, salt)` — one in [`crash_period`](Self::crash_period)
    /// salts at a listed site. Deterministic in `(plan, site, salt)`.
    pub fn crashes_at(&self, site: &str, salt: u64) -> bool {
        self.crash_period > 0
            && self.crash_sites.iter().any(|s| s == site)
            && self.rng(salt ^ CRASH_SALT).next_below(self.crash_period as u64) == 0
    }

    /// Flips [`kv_flips`](Self::kv_flips) single bits in `data` (staged
    /// checkpoint KV values), deterministic in `(plan, salt, len)`.
    /// Returns `true` if anything changed; empty slices and plans
    /// without the fault class are untouched.
    pub fn flip_kv_bits(&self, data: &mut [f32], salt: u64) -> bool {
        if self.kv_flips == 0 || data.is_empty() {
            return false;
        }
        let mut rng = self.rng(salt ^ KV_SALT);
        for _ in 0..self.kv_flips {
            let i = rng.next_below(data.len() as u64) as usize;
            let bit = rng.next_below(32) as u32;
            data[i] = f32::from_bits(data[i].to_bits() ^ (1u32 << bit));
        }
        true
    }

    /// Applies [`FaultPlan::truncate_json`] to a serialized document.
    /// Truncation lands on a UTF-8 boundary at or below the requested
    /// byte count; plans without the fault return the input unchanged.
    pub fn corrupt_json(&self, json: &str) -> String {
        match self.truncate_json {
            None => json.to_string(),
            Some(n) => {
                let mut end = n.min(json.len());
                while end > 0 && !json.is_char_boundary(end) {
                    end -= 1;
                }
                json[..end].to_string()
            }
        }
    }
}

/// Salt domain separators, so the same `(plan, salt)` pair never reuses
/// a random stream across fault classes.
const ALLOC_SALT: u64 = 0xA110_C8ED_0000_0001;
const CRASH_SALT: u64 = 0xC4A5_88ED_0000_0002;
const KV_SALT: u64 = 0x1CB1_7F11_0000_0003;

thread_local! {
    /// The plans installed on this thread; the innermost (last) one wins
    /// and fully shadows the rest. Shared, so that a fan-out hands its
    /// helpers the caller's plan with a refcount bump.
    static PLANS: RefCell<Vec<Arc<FaultPlan>>> = const { RefCell::new(Vec::new()) };
}

/// Guard returned by [`install`]; pops the plan on drop, also on unwind.
/// Not `Send`: it must drop on the thread whose stack it pushed onto.
pub struct FaultGuard(PhantomData<*const ()>);

impl Drop for FaultGuard {
    fn drop(&mut self) {
        PLANS.with(|plans| {
            plans.borrow_mut().pop();
        });
    }
}

/// Installs `plan` on the current thread until the returned guard is
/// dropped. Nested installs shadow outer ones. The pool hands the plan
/// on to the helpers of every fan-out this thread issues meanwhile (it
/// passes the `Arc` it read here); no other thread sees it.
pub fn install(plan: impl Into<Arc<FaultPlan>>) -> FaultGuard {
    PLANS.with(|plans| plans.borrow_mut().push(plan.into()));
    FaultGuard(PhantomData)
}

/// Runs `f` on the current thread's innermost plan, if one is installed.
pub(crate) fn with_plan<R>(f: impl FnOnce(&Arc<FaultPlan>) -> R) -> Option<R> {
    PLANS.with(|plans| plans.borrow().last().map(f))
}

/// True when the installed plan forces panics at `site`. The pool's
/// `try_*` primitives evaluate this once at entry, on the calling
/// thread, and raise the panic inside their catch region, on the serial
/// path as well, so the outcome is thread-count independent.
pub fn should_panic(site: &str) -> bool {
    with_plan(|p| p.panic_sites.iter().any(|s| s == site)).unwrap_or(false)
}

/// Applies installed score tampering at `site` (currently: zero-mass at
/// `"stage1_scores"`). Returns `true` if the slice was tampered.
pub fn tamper_scores(site: &str, scores: &mut [f32]) -> bool {
    let tamper = with_plan(|p| p.zero_mass && site == "stage1_scores").unwrap_or(false);
    if tamper {
        scores.fill(0.0);
    }
    tamper
}

/// True when the installed plan fails the simulated allocation `salt`
/// (see [`FaultPlan::fail_alloc`]).
pub fn should_fail_alloc(salt: u64) -> bool {
    with_plan(|p| p.fail_alloc(salt)).unwrap_or(false)
}

/// True when the installed plan crashes the serving-loop attempt
/// `(site, salt)` (see [`FaultPlan::crashes_at`]).
pub fn should_crash(site: &str, salt: u64) -> bool {
    with_plan(|p| p.crashes_at(site, salt)).unwrap_or(false)
}

/// Applies the installed plan's KV bit flips to staged checkpoint bytes
/// (see [`FaultPlan::flip_kv_bits`]). Returns `true` if anything was
/// flipped.
pub fn tamper_kv(data: &mut [f32], salt: u64) -> bool {
    with_plan(|p| p.flip_kv_bits(data, salt)).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        let mut m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f32);
        let before = m.clone();
        plan.corrupt_matrix(&mut m, 1);
        assert_eq!(m.as_slice(), before.as_slice());
        assert_eq!(plan.corrupt_json("{\"a\":1}"), "{\"a\":1}");
    }

    #[test]
    fn corruption_is_deterministic_per_salt() {
        let plan = FaultPlan::new(42).nan_stripes(1).inf_logits(3).zero_rows(1);
        let base = Matrix::from_fn(8, 6, |i, j| (i + j) as f32 + 1.0);
        let mut a = base.clone();
        let mut b = base.clone();
        plan.corrupt_matrix(&mut a, 7);
        plan.corrupt_matrix(&mut b, 7);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // A different salt picks different coordinates (with overwhelming
        // probability for this shape and seed; pinned by the fixed seed).
        let mut c = base.clone();
        plan.corrupt_matrix(&mut c, 8);
        assert!(a
            .as_slice()
            .iter()
            .zip(c.as_slice())
            .any(|(x, y)| x.to_bits() != y.to_bits()));
    }

    #[test]
    fn corrupt_matrix_injects_each_class() {
        let plan = FaultPlan::new(3).nan_stripes(1).inf_logits(2).zero_rows(1);
        let mut m = Matrix::full(10, 5, 1.0);
        plan.corrupt_matrix(&mut m, 0);
        let slice = m.as_slice();
        assert!(slice.iter().any(|x| x.is_nan()));
        assert!(slice.iter().any(|x| x.is_infinite()));
        // Zeroed row may be overwritten by the NaN stripe column, but at
        // least one zero survives in the other columns.
        assert!(slice.contains(&0.0));
    }

    #[test]
    fn corrupt_empty_matrix_is_noop() {
        let plan = FaultPlan::new(1).nan_stripes(2).inf_logits(2).zero_rows(2);
        let mut m = Matrix::zeros(0, 4);
        plan.corrupt_matrix(&mut m, 0);
        assert!(m.is_empty());
    }

    #[test]
    fn truncate_json_respects_utf8() {
        let plan = FaultPlan::new(0).truncate_json(4);
        assert_eq!(plan.corrupt_json("{\"a\":1}"), "{\"a\"");
        // 'é' is 2 bytes; cutting mid-char backs off to the boundary.
        let plan = FaultPlan::new(0).truncate_json(2);
        assert_eq!(plan.corrupt_json("aé"), "a");
        let plan = FaultPlan::new(0).truncate_json(100);
        assert_eq!(plan.corrupt_json("[1]"), "[1]");
    }

    #[test]
    fn parse_named_and_custom_specs() {
        assert!(FaultPlan::parse("").is_none());
        assert!(FaultPlan::parse("off").is_none());
        let smoke = FaultPlan::parse("smoke").expect("smoke plan");
        assert!(smoke.is_active());
        assert!(smoke.zero_mass);
        assert!(smoke.panic_sites.iter().any(|s| s == "sparse_flash_attention"));
        let custom = FaultPlan::parse("seed=9,nan=2,inf=3,zero_rows=1,zero_mass,panic=x,truncate=5")
            .expect("custom plan");
        assert_eq!(custom.seed, 9);
        assert_eq!(custom.nan_stripes, 2);
        assert_eq!(custom.inf_logits, 3);
        assert_eq!(custom.zero_rows, 1);
        assert!(custom.zero_mass);
        assert_eq!(custom.panic_sites, vec!["x".to_string()]);
        assert_eq!(custom.truncate_json, Some(5));
    }

    #[test]
    fn install_scopes_the_plan() {
        assert!(!should_panic("site_a"));
        {
            let _guard = install(FaultPlan::new(0).worker_panic("site_a"));
            assert!(should_panic("site_a"));
            assert!(!should_panic("site_b"));
        }
        assert!(!should_panic("site_a"));
    }

    #[test]
    fn a_plan_is_invisible_to_other_threads() {
        // Each thread holds its plan while the other probes: neither
        // observes the other's, and nothing serialises them.
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for (mine, theirs) in [("site_one", "site_two"), ("site_two", "site_one")] {
                let barrier = &barrier;
                scope.spawn(move || {
                    let _g = install(FaultPlan::new(1).worker_panic(mine));
                    barrier.wait();
                    assert!(should_panic(mine));
                    assert!(!should_panic(theirs));
                    barrier.wait();
                });
            }
        });
        // This thread never installed anything.
        assert!(!should_panic("site_one"));
        assert!(!should_panic("site_two"));
    }

    #[test]
    fn inner_plan_fully_shadows_outer_and_nests() {
        let _outer = install(FaultPlan::new(0).worker_panic("outer_site"));
        assert!(should_panic("outer_site"));
        {
            // An inert plan shadows the outer plan entirely.
            let _inert = install(FaultPlan::new(0));
            assert!(!should_panic("outer_site"));
            {
                let _inner = install(FaultPlan::new(0).worker_panic("inner_site"));
                assert!(should_panic("inner_site"));
                assert!(!should_panic("outer_site"));
            }
            assert!(!should_panic("inner_site"));
        }
        assert!(should_panic("outer_site"));
    }

    #[test]
    fn a_shared_plan_installs_without_a_copy() {
        let plan = Arc::new(FaultPlan::new(0).worker_panic("shared_site"));
        let _g = install(Arc::clone(&plan));
        assert!(with_plan(|p| Arc::ptr_eq(p, &plan)).unwrap_or(false));
        assert!(should_panic("shared_site"));
    }

    #[test]
    fn guard_drop_restores_on_unwind() {
        let caught = std::panic::catch_unwind(|| {
            let _g = install(FaultPlan::new(0).worker_panic("unwind_site"));
            panic!("unwind");
        });
        assert!(caught.is_err());
        assert!(!should_panic("unwind_site"));
    }

    #[test]
    fn tamper_scores_zeroes_stage1_only() {
        let _guard = install(FaultPlan::new(0).zero_mass());
        let mut scores = vec![1.0f32, 2.0, 3.0];
        assert!(!tamper_scores("other_stage", &mut scores));
        assert_eq!(scores, vec![1.0, 2.0, 3.0]);
        assert!(tamper_scores("stage1_scores", &mut scores));
        assert!(scores.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn new_fault_classes_are_inert_by_default() {
        let plan = FaultPlan::default();
        assert!(!plan.fail_alloc(0));
        assert!(!plan.crashes_at("serve_attempt", 0));
        let mut data = vec![1.0f32, 2.0, 3.0];
        assert!(!plan.flip_kv_bits(&mut data, 0));
        assert_eq!(data, vec![1.0, 2.0, 3.0]);
        // Nothing installed: the module-level probes are inert too.
        assert!(!should_fail_alloc(0));
        assert!(!should_crash("serve_attempt", 0));
        assert!(!tamper_kv(&mut data, 0));
        assert_eq!(data, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn parse_recovery_fault_tokens() {
        let plan = FaultPlan::parse("alloc=8,kv_flips=3,crash=serve_attempt,crash_period=5")
            .expect("recovery spec");
        assert_eq!(plan.alloc_fail, 8);
        assert_eq!(plan.kv_flips, 3);
        assert_eq!(plan.crash_sites, vec!["serve_attempt".to_string()]);
        assert_eq!(plan.crash_period, 5);
        assert!(plan.is_active());
        // `crash=` alone defaults the period to 1 (always crash).
        let always = FaultPlan::parse("crash=serve_attempt").expect("crash spec");
        assert_eq!(always.crash_period, 1);
        assert!(always.crashes_at("serve_attempt", 0));
        assert!(always.crashes_at("serve_attempt", 99));
        assert!(!always.crashes_at("other_site", 0));
    }

    #[test]
    fn fail_alloc_is_deterministic_and_salt_keyed() {
        let plan = FaultPlan::new(11).alloc_failures(4);
        // Pure function of (plan, salt): repeated probes agree.
        for salt in 0..64u64 {
            assert_eq!(plan.fail_alloc(salt), plan.fail_alloc(salt));
        }
        // Roughly one in four salts trips — require at least one hit and
        // at least one miss over 64 salts (overwhelming for this seed).
        let hits = (0..64u64).filter(|&s| plan.fail_alloc(s)).count();
        assert!(hits > 0, "alloc_failures(4) never tripped in 64 salts");
        assert!(hits < 64, "alloc_failures(4) tripped on every salt");
    }

    #[test]
    fn flip_kv_bits_corrupts_and_is_deterministic() {
        let plan = FaultPlan::new(5).kv_bit_flips(2);
        let base = vec![1.0f32, 2.0, 3.0, 4.0, 5.0];
        let mut a = base.clone();
        let mut b = base.clone();
        assert!(plan.flip_kv_bits(&mut a, 9));
        assert!(plan.flip_kv_bits(&mut b, 9));
        // Same salt: bit-identical corruption.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // A single-bit XOR never leaves the value unchanged.
        assert!(a
            .iter()
            .zip(&base)
            .any(|(x, y)| x.to_bits() != y.to_bits()));
        let mut empty: Vec<f32> = Vec::new();
        assert!(!plan.flip_kv_bits(&mut empty, 9));
    }

    #[test]
    fn recovery_probes_respect_the_innermost_plan() {
        let _outer = install(FaultPlan::new(0).serve_crash("serve_attempt", 1));
        let salt = 3;
        assert!(should_crash("serve_attempt", salt));
        {
            // An inert plan shadows the outer crash plan entirely.
            let _inert = install(FaultPlan::new(0));
            assert!(!should_crash("serve_attempt", salt));
            assert!(!should_fail_alloc(salt));
            let mut data = vec![1.0f32; 8];
            assert!(!tamper_kv(&mut data, salt));
            {
                let _inner = install(FaultPlan::new(7).alloc_failures(1).kv_bit_flips(1));
                assert!(should_fail_alloc(salt));
                assert!(tamper_kv(&mut data, salt));
            }
        }
        assert!(should_crash("serve_attempt", salt));
    }
}
