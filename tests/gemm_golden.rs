//! Golden pins for the GEMM entry points: `matmul`, `matmul_tn`,
//! `matmul_nt` and a dense layer's planned forward and backward
//! (`GemmPlan::matmul_nt`, `GemmPlan::matmul_nn`).
//!
//! Each family below runs a shape sweep through those five entry points
//! and folds every output bit into one FNV-1a digest, compared against a
//! literal recorded from the packed GEMM as it stood before operand
//! packing learned stride classes and skinny outputs learned to swap
//! orientation. Every family is computed four times — `MEDSPLIT_THREADS`
//! 1 and 2, `MEDSPLIT_ISA` scalar and auto — and the four digests must
//! agree case by case before they are compared with the literal, so a
//! moved digest means a changed gather, a changed accumulation order, or
//! a result that depends on the pool size or the instruction set. The
//! planned products must also equal the unplanned ones bit for bit.
//!
//! The shapes are the model's own (the MLP server's `Dense(128→3)` over
//! a 256-row batch in all three orientations, VGG-lite's dense head,
//! batch-1 and batch-8 serving) plus an edge sweep with `m` and `n`
//! around the 6×16 register tile (1, 2, 3, 5, 6, 7, 15, 16, 17) at depths
//! 1, 9 and 33 — either side of an eight-deep block. Inputs are
//! full-mantissa values, so every rounding shows in the digest; one
//! family puts NaN, ±inf, `-0.0` and subnormals in the left operand of
//! every product, keeping the right one finite and nonzero, so no
//! product ever multiplies two NaNs.

use std::sync::Mutex;

use medsplit_tensor::{pool, simd, GemmPlan, Tensor};

/// `pool::set_num_threads` and `simd::set_isa` are process-global.
static POOL_LOCK: Mutex<()> = Mutex::new(());

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn tensor(&mut self, t: &Tensor) {
        self.u64(t.rank() as u64);
        for &d in t.dims() {
            self.u64(d as u64);
        }
        for v in t.as_slice() {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// A small LCG, so the inputs do not depend on the vendored `rand`.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as u32
    }

    /// A random sign and all 23 mantissa bits, magnitude in `[1/4, 4)`.
    fn full(&mut self) -> f32 {
        let bits = self.next();
        let exponent = 125 + (bits >> 23) % 4;
        f32::from_bits((bits & 0x8000_0000) | (exponent << 23) | (bits & 0x007F_FFFF))
    }

    /// `full`, with about one element in 40 replaced by NaN, `+inf`,
    /// `-inf`, `-0.0` or a subnormal — sparse enough that most outputs
    /// of a 128-deep product stay finite.
    fn special(&mut self) -> f32 {
        match self.next() % 512 {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3..=5 => -0.0,
            6..=12 => f32::from_bits(self.next() & 0x807F_FFFF),
            _ => self.full(),
        }
    }

    fn matrix(&mut self, r: usize, c: usize, special: bool) -> Tensor {
        let data = (0..r * c)
            .map(|_| if special { self.special() } else { self.full() })
            .collect();
        Tensor::from_vec(data, [r, c]).unwrap()
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Every product of one `m×k×n` shape: `A·B`, `(Aᵀ)ᵀ·B`, `A·(Bᵀ)ᵀ`, the
/// planned `A·Wᵀ` with `W = Bᵀ`, and the planned backward `G·W`
/// (`m×n×k`). With `special`, the left operand of each carries NaN,
/// ±inf, `-0.0` and subnormals.
fn gemm_case(rng: &mut Lcg, m: usize, k: usize, n: usize, special: bool) -> u64 {
    let a = rng.matrix(m, k, special);
    let at = rng.matrix(k, m, special);
    let b = rng.matrix(k, n, false);
    let w = rng.matrix(n, k, false);
    let g = rng.matrix(m, n, special);
    let mut d = Fnv::new();
    d.tensor(&a.matmul(&b).unwrap());
    d.tensor(&at.matmul_tn(&b).unwrap());
    let direct_fwd = a.matmul_nt(&w).unwrap();
    d.tensor(&direct_fwd);
    let mut plan = GemmPlan::pack_nt(&w, 0).unwrap();
    let planned_fwd = plan.matmul_nt(&a).unwrap();
    assert_eq!(
        bits(&planned_fwd),
        bits(&direct_fwd),
        "planned forward diverged at {m}x{k}x{n}"
    );
    d.tensor(&planned_fwd);
    let planned_bwd = plan.matmul_nn(&g, &w).unwrap();
    assert_eq!(
        bits(&planned_bwd),
        bits(&g.matmul(&w).unwrap()),
        "planned backward diverged at {m}x{k}x{n}"
    );
    d.tensor(&planned_bwd);
    d.0
}

fn gemm_family(seed: u64, shapes: &[(usize, usize, usize)], special: bool) -> Vec<(String, u64)> {
    let mut rng = Lcg(seed);
    shapes
        .iter()
        .map(|&(m, k, n)| (format!("{m}x{k}x{n}"), gemm_case(&mut rng, m, k, n, special)))
        .collect()
}

/// Runs `family` under threads 1/2 × ISA scalar/auto, checks the four
/// runs agree case by case, and compares their digest with `want`.
fn pin(name: &str, want: u64, family: impl Fn() -> Vec<(String, u64)>) {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut runs = Vec::new();
    for isa in [simd::Isa::Scalar, simd::detect()] {
        assert!(simd::set_isa(isa));
        for threads in [1, 2] {
            pool::set_num_threads(threads);
            runs.push((isa.name(), threads, family()));
        }
    }
    pool::set_num_threads(1);
    let (_, _, first) = &runs[0];
    for (isa, threads, cases) in &runs[1..] {
        for ((label, got), (_, want)) in cases.iter().zip(first) {
            assert_eq!(
                got, want,
                "{name}: `{label}` differs at isa {isa} / {threads} threads from scalar / 1 thread"
            );
        }
    }
    let mut d = Fnv::new();
    for (label, digest) in first {
        d.bytes(label.as_bytes());
        d.u64(*digest);
    }
    if d.0 != want {
        for (label, digest) in first {
            eprintln!("    {label}: {digest:#018x}");
        }
        panic!("{name}: digest {:#018x}, pinned {want:#018x}", d.0);
    }
}

/// The shapes the workloads run: the MLP server's forward, weight
/// gradient and input gradient, two platform-side MLP shapes, VGG-lite's
/// dense head, a wide output above the pool's work gate, and the
/// batch-1 and batch-8 serving shapes.
const WORKLOAD_SHAPES: [(usize, usize, usize); 9] = [
    (256, 128, 3),
    (3, 256, 128),
    (256, 3, 128),
    (64, 32, 128),
    (128, 64, 32),
    (64, 128, 10),
    (64, 128, 256),
    (1, 128, 3),
    (8, 128, 10),
];

#[test]
fn workload_shapes() {
    pin("workload_shapes", 0x9c5c_9879_7780_28c1, || {
        gemm_family(0x6e44_0001, &WORKLOAD_SHAPES, false)
    });
}

#[test]
fn tile_edge_sweep() {
    const EDGES: [usize; 9] = [1, 2, 3, 5, 6, 7, 15, 16, 17];
    let mut shapes = Vec::new();
    for m in EDGES {
        for n in EDGES {
            for k in [1, 9, 33] {
                shapes.push((m, k, n));
            }
        }
    }
    pin("tile_edge_sweep", 0x81d8_b06c_7040_8bea, || {
        gemm_family(0x6e44_0002, &shapes, false)
    });
}

#[test]
fn special_values_in_one_operand() {
    let shapes = [
        (256, 128, 3),
        (64, 128, 10),
        (17, 33, 5),
        (7, 9, 16),
        (3, 256, 128),
    ];
    pin("special_values_in_one_operand", 0x6809_63d2_29ea_eaa1, || {
        gemm_family(0x6e44_0003, &shapes, true)
    });
}
