//! Batch invariance: a row's inference output does not depend on the
//! rows that share its batch.
//!
//! The paper's server batches queries from every hospital, so it must
//! answer each query the same way whichever hospitals share its batch.
//! For every architecture the lab and serving build — the MLPs, VGG-lite
//! and ResNet-lite — whole and as the two halves of their default cut,
//! this test runs a 64-row batch through `forward(_, Mode::Eval)` and
//! then the same rows in batches of 1..=17, 32 and 64 through `infer`,
//! and holds every output row equal bit for bit. The serving loop relies
//! on it: a kernel-pool task computes up to eight booked batches of up to
//! eight rows as one pass per weight version, so a server pass takes
//! anywhere from 1 to 64 rows, and a row's answer must not depend on
//! which batches shared its pass. The inputs are full-mantissa
//! values with `±0` and subnormals sprinkled in, and batch
//! normalisation's running statistics are set to such values too, so a
//! kernel that sums a row in a different order at some batch size shows
//! here. Every model runs at 1 and 2 pool threads × scalar and auto ISA.

use std::sync::Mutex;

use medsplit::nn::{Architecture, Layer, MlpConfig, Mode, ResNetConfig, Sequential, VggConfig};
use medsplit::tensor::{pool, simd, Tensor};

/// `pool::set_num_threads` and `simd::set_isa` are process-global.
static POOL_LOCK: Mutex<()> = Mutex::new(());

const ROWS: usize = 64;

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

    /// A full-mantissa value in `[-2, 2)`.
    fn real(&mut self) -> f32 {
        let hi = self.next();
        let lo = self.next();
        let unit = (f64::from(hi) * 2f64.powi(31) + f64::from(lo)) / 2f64.powi(62);
        (unit * 4.0 - 2.0) as f32
    }

    /// `n` full-mantissa values with `±0` and subnormals sprinkled in.
    fn values(&mut self, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| match self.next() % 16 {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(1 + self.next() % 0x007F_FFFF),
                3 => -f32::from_bits(1 + self.next() % 0x007F_FFFF),
                _ => self.real(),
            })
            .collect()
    }
}

/// Every architecture the lab and serving build.
fn architectures() -> Vec<(&'static str, Architecture)> {
    let mlp = |input_dim, hidden: &[usize], num_classes| {
        Architecture::Mlp(MlpConfig {
            input_dim,
            hidden: hidden.to_vec(),
            num_classes,
        })
    };
    vec![
        ("mlp 8-16-3", mlp(8, &[16], 3)),
        ("mlp 8-32-16-3", mlp(8, &[32, 16], 3)),
        ("mlp 32-128-3", mlp(32, &[128], 3)),
        ("mlp 16-64-32-4", Architecture::Mlp(MlpConfig::small(16, 4))),
        ("vgg-lite", Architecture::Vgg(VggConfig::lite(10))),
        ("resnet-lite", Architecture::ResNet(ResNetConfig::lite(10))),
    ]
}

/// Sets every non-trainable state tensor (batch normalisation's running
/// mean and variance) to positive full-mantissa values, so evaluation
/// normalises with statistics whose arithmetic rounds.
fn set_state(model: &mut Sequential, rng: &mut Lcg) {
    model.visit_state(&mut |t| {
        for v in t.as_mut_slice() {
            *v = 0.25 + rng.real().abs();
        }
    });
}

/// Holds every row of `part`'s output on the 64-row batch `x` equal to
/// the same row run through `infer` in batches of 1..=17, 32 and 64.
fn check_rows(label: &str, part: &mut Sequential, x: &Tensor) {
    let whole = part.forward(x, Mode::Eval).unwrap();
    let width = whole.numel() / ROWS;
    for batch in (1..=17).chain([32, ROWS]) {
        let mut start = 0;
        while start < ROWS {
            let count = batch.min(ROWS - start);
            let out = part.infer(&x.slice0(start, count).unwrap()).unwrap();
            assert_eq!(out.numel(), count * width, "{label}: batch {batch} output size");
            let got = out.as_slice();
            let want = &whole.as_slice()[start * width..(start + count) * width];
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{label}: row {} element {} differs in a batch of {batch} ({g} vs {w})",
                    start + i / width,
                    i % width,
                );
            }
            start += count;
        }
    }
}

/// Every architecture, whole and as both halves of its default cut.
fn every_model() {
    for (name, arch) in architectures() {
        let mut rng = Lcg(0x5eed ^ name.len() as u64);
        let mut dims = vec![ROWS];
        dims.extend(arch.input_dims());
        let numel: usize = dims.iter().product();
        let x = Tensor::from_vec(rng.values(numel), dims).unwrap();

        let mut whole = arch.build(7);
        set_state(&mut whole, &mut rng);
        check_rows(&format!("{name} whole"), &mut whole, &x);

        let mut l1 = arch.build(7);
        set_state(&mut l1, &mut rng);
        let mut server = l1.split_off(arch.default_split());
        assert!(!l1.is_empty() && !server.is_empty(), "{name}: empty half");
        check_rows(&format!("{name} L1"), &mut l1, &x);
        let cut = l1.forward(&x, Mode::Eval).unwrap();
        check_rows(&format!("{name} L2..Lk"), &mut server, &cut);
    }
}

#[test]
fn rows_do_not_depend_on_their_batch_mates() {
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for isa in [simd::Isa::Scalar, simd::detect()] {
        assert!(simd::set_isa(isa));
        for threads in [1, 2] {
            pool::set_num_threads(threads);
            every_model();
        }
    }
    pool::set_num_threads(1);
}
