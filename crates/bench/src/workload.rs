//! Standard workloads for the experiments: dataset + architecture +
//! partitioning bundles, scaled by an experiment size knob.

use medsplit_core::{Result, SplitError};
use medsplit_data::{partition, InMemoryDataset, Partition, SyntheticImages, SyntheticTabular};
use medsplit_nn::{Architecture, MlpConfig, ResNetConfig, VggConfig};

/// Which CIFAR stand-in a vision workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// 10 classes (CIFAR-10-like).
    C10,
    /// 100 classes (CIFAR-100-like).
    C100,
}

impl DatasetKind {
    /// Number of classes.
    pub fn classes(&self) -> usize {
        match self {
            DatasetKind::C10 => 10,
            DatasetKind::C100 => 100,
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::C10 => "cifar10-like",
            DatasetKind::C100 => "cifar100-like",
        }
    }
}

/// Which model family a vision workload trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// VGG family.
    Vgg,
    /// ResNet family.
    ResNet,
}

impl ModelKind {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Vgg => "vgg",
            ModelKind::ResNet => "resnet",
        }
    }

    /// The CPU-trainable (lite) architecture for this family.
    pub fn lite_arch(&self, classes: usize) -> Architecture {
        match self {
            ModelKind::Vgg => Architecture::Vgg(VggConfig::lite(classes)),
            ModelKind::ResNet => Architecture::ResNet(ResNetConfig::lite(classes)),
        }
    }

    /// The paper-size architecture for this family (analytic accounting
    /// only).
    pub fn full_arch(&self, classes: usize) -> Architecture {
        match self {
            ModelKind::Vgg => Architecture::Vgg(VggConfig::vgg16(classes)),
            ModelKind::ResNet => Architecture::ResNet(ResNetConfig::resnet18(classes)),
        }
    }
}

/// A prepared vision workload: architecture, platform shards and test set.
#[derive(Debug)]
pub struct VisionWorkload {
    /// The architecture to train.
    pub arch: Architecture,
    /// Per-platform training shards.
    pub shards: Vec<InMemoryDataset>,
    /// Shared test set.
    pub test: InMemoryDataset,
    /// Dataset kind.
    pub dataset: DatasetKind,
    /// Model kind.
    pub model: ModelKind,
}

/// Builds a vision workload on the lite (trainable) scale.
///
/// # Errors
///
/// Propagates generation/partitioning errors.
pub fn vision_workload(
    model: ModelKind,
    dataset: DatasetKind,
    platforms: usize,
    train_n: usize,
    test_n: usize,
    how: &Partition,
    seed: u64,
) -> Result<VisionWorkload> {
    let classes = dataset.classes();
    let gen = SyntheticImages::lite(classes, seed);
    let (train, test) = gen.generate_split(train_n, test_n).map_err(SplitError::from)?;
    let shards = partition(&train, platforms, how, seed ^ 0xDEAD).map_err(SplitError::from)?;
    Ok(VisionWorkload {
        arch: model.lite_arch(classes),
        shards,
        test,
        dataset,
        model,
    })
}

/// Builds a tabular (MLP) workload, used by the scalability and imbalance
/// experiments.
///
/// # Errors
///
/// Propagates generation/partitioning errors.
pub fn tabular_workload(
    platforms: usize,
    train_n: usize,
    test_n: usize,
    how: &Partition,
    seed: u64,
) -> Result<(Architecture, Vec<InMemoryDataset>, InMemoryDataset)> {
    let classes = 4;
    let dim = 16;
    // Class separation below the noise level keeps the task non-trivial,
    // so accuracy contrasts between policies/methods stay visible.
    let mut gen = SyntheticTabular::new(classes, dim, seed);
    gen.separation = 0.5;
    let all = gen.generate(train_n + test_n).map_err(SplitError::from)?;
    let train = all
        .subset(&(0..train_n).collect::<Vec<_>>())
        .map_err(SplitError::from)?;
    let test = all
        .subset(&(train_n..train_n + test_n).collect::<Vec<_>>())
        .map_err(SplitError::from)?;
    let shards = partition(&train, platforms, how, seed ^ 0xBEEF).map_err(SplitError::from)?;
    let arch = Architecture::Mlp(MlpConfig {
        input_dim: dim,
        hidden: vec![64, 32],
        num_classes: classes,
    });
    Ok((arch, shards, test))
}

/// What a lab method point trains on, named by its `model` value:
/// architecture × dataset × shards.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// A lite vision model on IID image shards: `vgg_c10`, `vgg_c100`,
    /// `resnet_c10`, `resnet_c100`.
    Vision(ModelKind, DatasetKind),
    /// The 16→64→32→4 MLP on tabular shards: `tab_iid`, `tab_dir03`,
    /// `tab_dir05` (Dirichlet α = 0.3, 0.5).
    Tabular(Partition),
}

impl Workload {
    /// Parses a `model` value.
    pub fn parse(name: &str) -> Option<Self> {
        use DatasetKind::{C10, C100};
        use ModelKind::{ResNet, Vgg};
        let dirichlet = |alpha| Workload::Tabular(Partition::Dirichlet { alpha });
        Some(match name {
            "vgg_c10" => Workload::Vision(Vgg, C10),
            "vgg_c100" => Workload::Vision(Vgg, C100),
            "resnet_c10" => Workload::Vision(ResNet, C10),
            "resnet_c100" => Workload::Vision(ResNet, C100),
            "tab_iid" => Workload::Tabular(Partition::Iid),
            "tab_dir03" => dirichlet(0.3),
            "tab_dir05" => dirichlet(0.5),
            _ => return None,
        })
    }

    /// The architecture, `platforms` training shards of `train_n`
    /// samples in all, and a test set of `test_n`.
    ///
    /// # Errors
    ///
    /// Propagates generation/partitioning errors.
    pub fn build(
        &self,
        platforms: usize,
        train_n: usize,
        test_n: usize,
        seed: u64,
    ) -> Result<(Architecture, Vec<InMemoryDataset>, InMemoryDataset)> {
        match self {
            Workload::Vision(model, dataset) => {
                let w = vision_workload(
                    *model,
                    *dataset,
                    platforms,
                    train_n,
                    test_n,
                    &Partition::Iid,
                    seed,
                )?;
                Ok((w.arch, w.shards, w.test))
            }
            Workload::Tabular(how) => tabular_workload(platforms, train_n, test_n, how, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_and_model_parsing() {
        use Workload::{Tabular, Vision};
        assert_eq!(
            Workload::parse("vgg_c10"),
            Some(Vision(ModelKind::Vgg, DatasetKind::C10))
        );
        assert_eq!(
            Workload::parse("resnet_c100"),
            Some(Vision(ModelKind::ResNet, DatasetKind::C100))
        );
        assert_eq!(
            Workload::parse("tab_dir03"),
            Some(Tabular(Partition::Dirichlet { alpha: 0.3 }))
        );
        assert_eq!(Workload::parse("tab_iid"), Some(Tabular(Partition::Iid)));
        for unknown in ["vgg", "c10", "mnist", "lstm_c10", "mlp"] {
            assert_eq!(Workload::parse(unknown), None, "{unknown}");
        }
        assert_eq!(DatasetKind::C100.classes(), 100);
    }

    #[test]
    fn vision_workload_is_consistent() {
        let w = vision_workload(ModelKind::Vgg, DatasetKind::C10, 3, 60, 20, &Partition::Iid, 0).unwrap();
        assert_eq!(w.shards.len(), 3);
        assert_eq!(w.shards.iter().map(|s| s.len()).sum::<usize>(), 60);
        assert_eq!(w.test.len(), 20);
        assert_eq!(w.arch.num_classes(), 10);
        assert_eq!(w.arch.input_dims(), vec![3, 16, 16]);
    }

    #[test]
    fn full_arch_is_paper_scale() {
        assert!(ModelKind::Vgg.full_arch(10).param_count() > 10_000_000);
        assert!(ModelKind::ResNet.full_arch(10).param_count() > 10_000_000);
        // Lite arch parameter count dominates its cut activation size
        // (the relationship Fig. 4 depends on).
        let lite = ModelKind::Vgg.lite_arch(10);
        if let Architecture::Vgg(cfg) = &lite {
            assert!(lite.param_count() > 10 * cfg.cut_activation_numel());
        } else {
            panic!("expected vgg");
        }
    }

    #[test]
    fn tabular_workload_builds() {
        let (arch, shards, test) = tabular_workload(4, 80, 20, &Partition::Iid, 1).unwrap();
        assert_eq!(shards.len(), 4);
        assert_eq!(test.len(), 20);
        assert_eq!(arch.family(), "mlp");
    }
}
